#!/usr/bin/env python3
"""Time a fixed ladder of `polareig` CLI commands, each run in a fresh process.

    python scripts/bench.py [--src DIR] > BENCH_<n>.json

Each rung runs a fixed number of times: five for the rungs that took under
10 s when the ladder was chosen, once for the others.  For each rung the
script records the median wall time, the largest peak RSS of its runs, the
exit code and the sha256 of stdout, and it prints all rungs as one JSON
object.  Progress goes to stderr.  --src names the
`src` directory whose package is run (default: this checkout's), so one
copy of this script times two checkouts.

A speed-up counts only between two files from one session whose digests
are all equal.  Each run reports its own peak RSS: the child reads `VmHWM`
from /proc/self/status as it exits and writes it to a pipe.  (The
`ru_maxrss` of `os.wait4` would not do: Linux seeds it with the forking
process's high-water mark, so it never read below this script's own RSS.)
"""

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _graph(spec):
    family, size, q = spec.split(":")
    return ("--family", family, "--m" if family.startswith("vo") else "--n", size,
            "--q", q)


# (name, CLI arguments, runs)
LADDER = [
    ("count-check vo+:2:4", ("count-check", *_graph("vo+:2:4")), 5),
    ("count-check u:2:16", ("count-check", *_graph("u:2:16")), 5),
    ("count-check sp:3:3", ("count-check", *_graph("sp:3:3")), 5),
    ("count-check sp:4:2", ("count-check", *_graph("sp:4:2")), 5),
    ("count-check vo+:4:2", ("count-check", *_graph("vo+:4:2")), 5),
    ("count-check u:3:4", ("count-check", *_graph("u:3:4")), 5),
    ("count-check vo+:2:5", ("count-check", *_graph("vo+:2:5")), 1),
    ("count-check o-:3:3", ("count-check", *_graph("o-:3:3")), 1),
    ("count-check sp:3:4", ("count-check", *_graph("sp:3:4")), 1),
    ("eigenfunction theta1-polar sp:4:3",
     ("eigenfunction", *_graph("sp:4:3"), "--construct", "theta1-polar"), 5),
    ("build --format json sp:4:3", ("build", *_graph("sp:4:3"), "--format", "json"), 5),
    ("enumerate --kind bipartite u:2:9",
     ("enumerate", *_graph("u:2:9"), "--kind", "bipartite"), 5),
    ("enumerate --kind bipartite o+:3:3",
     ("enumerate", *_graph("o+:3:3"), "--kind", "bipartite"), 5),
]

# the rungs tests/test_scripts.py reruns against the newest BENCH_<n>.json:
# those that took about a second or less when they were chosen
CHECKED = ("count-check vo+:2:4", "count-check u:2:16", "count-check sp:3:3",
           "enumerate --kind bipartite u:2:9", "enumerate --kind bipartite o+:3:3")

# runs the CLI through its process entry, as the console script does, then
# writes its own VmHWM line to the pipe whose write end is file descriptor
# {fd}, however the command exits
CHILD = """\
import os
try:
    from polareig.cli import entry
    entry()
finally:
    with open("/proc/self/status", "rb") as status:
        os.write({fd}, b"".join(line for line in status if line.startswith(b"VmHWM:")))
"""


def run_once(args, src=SRC):
    """(wall seconds, peak RSS in MiB, exit code, stdout sha256) of one run of
    the CLI on args in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    digest = hashlib.sha256()
    rss_read, rss_write = os.pipe()
    with open(rss_read, "rb") as rss:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", CHILD.format(fd=rss_write), *args],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
                pass_fds=(rss_write,))
        finally:
            os.close(rss_write)  # the child holds the only write end
        with proc:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
        code = proc.returncode
        wall = time.perf_counter() - start
        hwm = rss.read().split()  # [b"VmHWM:", kilobytes, b"kB"]
    if not hwm:
        raise SystemExit(f"{' '.join(args)}: the run reported no peak RSS (exit {code})")
    return wall, int(hwm[1]) / 1024, code, digest.hexdigest()


def run_rung(name, args, runs, src=SRC):
    walls, rss, outcomes = [], [], set()
    for _ in range(runs):
        wall, peak, code, sha = run_once(args, src)
        walls.append(wall)
        rss.append(peak)
        outcomes.add((code, sha))
        print(f"{name}: {wall:.3f} s, {peak:.1f} MiB, exit {code}", file=sys.stderr)
    if len(outcomes) != 1:
        raise SystemExit(f"{name}: the runs differ in exit code or stdout")
    (code, sha), = outcomes
    return {"name": name, "argv": list(args), "runs": runs,
            "wall_s": round(statistics.median(walls), 3),
            "max_rss_mib": round(max(rss), 1), "exit_code": code, "stdout_sha256": sha}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the src directory to run (default: %(default)s)")
    src = parser.parse_args().src.resolve()
    # with PYTHONDONTWRITEBYTECODE set, a stale .pyc would be recompiled in every run
    compileall.compile_dir(src / "polareig", quiet=1)
    results = [run_rung(name, args, runs, src) for name, args, runs in LADDER]
    # one rung per line, so two files diff line by line
    lines = ",\n".join(" " + json.dumps(rung) for rung in results)
    print(f'{{"python": {json.dumps(sys.version.split()[0])}, "rungs": [\n{lines}\n]}}')


if __name__ == "__main__":
    main()
