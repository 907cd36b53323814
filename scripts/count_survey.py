#!/usr/bin/env python3
"""Exhaustive pair counts against the closed formulas, one JSON line each.

The enumeration is the authority; printed and proof-derived values are
reported alongside so disagreements are visible data, not assumptions.
"""

import json
import sys
import time

from polareig import cli, oracle

INSTANCES = [
    ("sp", 2, 2), ("sp", 2, 3),
    ("o+", 2, 2), ("o+", 2, 3),
    ("o-", 2, 2),
    ("u", 2, 4),
    ("vo+", 2, 2), ("vo-", 2, 2),
    ("vo+", 2, 3), ("vo-", 2, 3),
]


def main():
    start = time.time()
    for family, size, q in INSTANCES:
        n = size if family not in ("vo+", "vo-") else None
        m = size if family in ("vo+", "vo-") else None
        g = cli.build_graph(family, q, n, m)
        comparison = oracle.count_comparison(g)
        print(json.dumps(comparison.to_json(), sort_keys=True))
    print(f"total {time.time() - start:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
