#!/usr/bin/env python3
"""Build the desk-scale graph grid and print one summary line per instance.

Covers every family at the sizes used by the acceptance suite; rank-1
elliptic spaces are reported as the clean builder error they raise.
Each instance's build time, strong-regularity check time and the time of
each graph export (json, edges, graph6) go to stderr, so stdout stays the
same from run to run:

    PYTHONPATH=src python scripts/build_grid.py
"""

import json
import sys
import time
from collections import deque

from polareig import cli, serialize

GRID = [
    ("sp", 2, 2), ("sp", 2, 3),
    ("o+", 2, 2), ("o+", 2, 3), ("o+", 2, 4),
    ("o-", 1, 2), ("o-", 1, 3), ("o-", 2, 2),
    ("u", 2, 4), ("u", 2, 9),
    ("vo+", 2, 2), ("vo-", 2, 2), ("vo+", 2, 3), ("vo-", 2, 3),
]


def main():
    start = time.time()
    for family, size, q in GRID:
        label = f"{family}:{size}:{q}"
        built = time.perf_counter()
        try:
            g = cli.build_graph(family, q, size)
        except cli.ConfigError as exc:
            print(f"{label:12s} builder error (expected for rank < 2): {exc}")
            continue
        checked = time.perf_counter()
        g.srg_params()  # build_summary reads the parameters cached here
        done = time.perf_counter()
        exports = []
        for fmt in ("json", "edges", "graph6"):
            t0 = time.perf_counter()
            deque(serialize.GRAPH_FORMATS[fmt](g), maxlen=0)  # render every chunk
            exports.append(f"{fmt} {time.perf_counter() - t0:.3f}s")
        print(f"{label:12s} build {checked - built:.3f}s srg_check {done - checked:.3f}s "
              f"export {' '.join(exports)}", file=sys.stderr)
        summary = cli.build_summary(g)
        print(f"{label:12s} {json.dumps(summary, sort_keys=True)}")
    print(f"total {time.time() - start:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
