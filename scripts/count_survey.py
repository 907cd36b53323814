#!/usr/bin/env python3
"""Exhaustive pair counts against the closed formulas, one JSON line each.

The enumeration is the authority; printed and proof-derived values are
reported alongside so disagreements are visible data, not assumptions.
After the isolated-pair lines come the induced K_{s,s} counts at
s = -theta2 in the hermitian graphs H(3, q^2), next to the closed form
q^4 (q^2 + 1)(q^2 - q + 1) / 2, one pair {l, l^perp} per secant line l.
"""

import json
import sys
import time

from polareig import cli, graphs, oracle

INSTANCES = [
    ("sp", 2, 2), ("sp", 2, 3),
    ("o+", 2, 2), ("o+", 2, 3),
    ("o-", 2, 2),
    ("u", 2, 4),
    ("vo+", 2, 2), ("vo-", 2, 2),
    ("vo+", 2, 3), ("vo-", 2, 3),
]
UNITARY_ORDERS = (4, 9)


def main():
    start = time.time()
    for family, size, q in INSTANCES:
        g = cli.build_graph(family, q, size)
        comparison = oracle.count_comparison(g)
        print(json.dumps(comparison.to_json(), sort_keys=True))
    for q in UNITARY_ORDERS:
        g = cli.build_graph("u", q, 2)
        s = -graphs.spectrum(g.srg_params()).theta2
        r = g.ctx.sqrt_q
        closed = r ** 4 * (r * r + 1) * (r * r - r + 1) // 2
        count = len(oracle.enumerate_bipartite_pairs(g, s))
        print(json.dumps({"family": "u", "q": q, "m_or_n": 2, "s": s,
                          "kind": "complete_bipartite", "oracle": count,
                          "closed_form": closed, "matches": count == closed},
                         sort_keys=True))
    print(f"total {time.time() - start:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
