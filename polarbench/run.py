#!/usr/bin/env python3
"""Benchmark of the `polareig` CLI: workloads of CLI steps, each step in a
fresh process, run one at a time by this driver (a closed loop with one
client).  Every step's exit code and the sha256 of its stdout and of each
file it writes are checked against references.json.

    python3 polarbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 polarbench/run.py --record

Run it from anywhere; it finds the package at ../src/polareig relative to
this file and works in a temporary directory under ../.polarbench-work,
which it removes.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run (see NOTES.md).  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
--record rewrites references.json from the current checkout; do that only
at a commit whose outputs are the reference.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean
import layers  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "polareig"
REFERENCES = BENCH / "references.json"
LAUNCHER = BENCH / "launcher.py"
WORK_ROOT = ROOT / ".polarbench-work"
PY = sys.executable

RUN_LIMIT_S = 170  # a run must end within 180 s, set-up included
CACHE = "cache"  # relative to each step's working directory
SETUPS = 3  # preparations per untraced run of a workload that has one


class Step(NamedTuple):
    id: str
    args: tuple
    outs: tuple = ()  # files the step writes, relative to its working directory


class Workload(NamedTuple):
    prepare: tuple  # run in order during each set-up
    steps: tuple  # timed; the seed permutes their order in each pass


IMPORT = Step("import-polareig.cli", ())


def _graph(family, size, q):
    return ("--family", family, "--m" if family.startswith("vo") else "--n",
            str(size), "--q", str(q))


SP33, U216, U29 = _graph("sp", 3, 3), _graph("u", 2, 16), _graph("u", 2, 9)

WORKLOADS = {
    "build-cold": Workload(
        (),
        (
            Step("eigenfunction-sp:3:3-theta1-cliquepair",
                 ("eigenfunction", *SP33, "--construct", "theta1-cliquepair")),
            Step("eigenfunction-u:2:16-theta2-unitary",
                 ("eigenfunction", *U216, "--construct", "theta2-unitary")),
        ),
    ),
    "oracle-scan": Workload(
        (),
        (
            Step("count-check-vo+:2:3", ("count-check", *_graph("vo+", 2, 3))),
            Step("count-check-sp:3:2", ("count-check", *_graph("sp", 3, 2))),
            Step("count-check-u:2:9", ("count-check", *U29)),
            Step("enumerate-bipartite-o+:3:3",
                 ("enumerate", *_graph("o+", 3, 3), "--kind", "bipartite")),
        ),
    ),
    "cache-warm": Workload(
        (
            Step("fill-sp:3:3-theta1-polar",
                 ("eigenfunction", *SP33, "--construct", "theta1-polar",
                  "--cache-dir", CACHE, "--out", "sp33.json"), ("sp33.json",)),
            Step("fill-u:2:16-theta2-unitary",
                 ("eigenfunction", *U216, "--construct", "theta2-unitary",
                  "--cache-dir", CACHE, "--out", "u216.json"), ("u216.json",)),
        ),
        (
            Step("verify-sp:3:3",
                 ("verify", "--graph", "sp:3:3", "--function", "sp33.json",
                  "--cache-dir", CACHE)),
            Step("verify-u:2:16",
                 ("verify", "--graph", "u:2:16", "--function", "u216.json",
                  "--cache-dir", CACHE)),
            Step("eigenfunction-csv-sp:3:3",
                 ("eigenfunction", *SP33, "--construct", "theta1-polar",
                  "--cache-dir", CACHE, "--format", "csv", "--out", "sp33.csv"),
                 ("sp33.csv",)),
            Step("build-json-u:2:16",
                 ("build", *U216, "--cache-dir", CACHE, "--format", "json",
                  "--out", "u216-graph.json"), ("u216-graph.json",)),
            Step("build-graph6-sp:3:3",
                 ("build", *SP33, "--cache-dir", CACHE, "--format", "graph6",
                  "--out", "sp33.g6"), ("sp33.g6",)),
            Step("enumerate-u:2:9",
                 ("enumerate", *U29, "--cache-dir", CACHE),
                 (CACHE + "/catalog_u_d4_p3k2_isolated_cliques_s9.jsonl",)),
        ),
    ),
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]


class Record(NamedTuple):
    step: Step
    cwd: Path
    stdout: Path
    trace: Path | None
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    exit: int


def _digest(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def outcome(rec):
    """What references.json stores for a step."""
    return {
        "exit": rec.exit,
        "stdout": _digest(rec.stdout),
        "files": {name: _digest(rec.cwd / name) for name in rec.step.outs},
    }


class Runner:
    """Runs steps one at a time in fresh processes and checks their outputs."""

    def __init__(self, work, references, deadline):
        self.work = work
        self.references = references
        self.deadline = deadline
        self.logs = work / "logs"
        self.logs.mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONPYCACHEPREFIX=str(work / "pycache"))
        for var in ("POLAR_EIG_CACHE", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def prepare_bytecode(self):
        """Compile the package and import it once, outside every timing."""
        for argv in ([PY, "-m", "compileall", "-q", str(PACKAGE)],
                     [PY, "-c", "import polareig.cli"]):
            # a failure here shows up as failed steps
            subprocess.run(argv, env=self.env, cwd=self.work,
                           stdout=subprocess.DEVNULL, timeout=60)

    def run(self, step, cwd, traced=False):
        self.count += 1
        tag = f"{self.count:04d}"
        stdout = self.logs / f"{tag}.out"
        trace = self.logs / f"{tag}.trace.json" if traced else None
        if step is IMPORT:
            argv = [PY, "-c", "import polareig.cli"]
        elif traced:
            argv = [PY, str(LAUNCHER), step.id, str(trace), *step.args]
        else:
            argv = [PY, "-m", "polareig.cli", *step.args]
        with open(stdout, "wb") as out, open(self.logs / f"{tag}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Record(step, cwd, stdout, trace, start, end,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      proc.returncode)

    def check(self, records, label):
        for rec in records:
            ok = outcome(rec) == self.references.get(rec.step.id)
            self.attempted += 1
            self.failed += not ok
            print(f"  {label} {rec.step.id}: wall {rec.end - rec.start:.3f} s, "
                  f"cpu {rec.cpu_s:.3f} s, max-rss {rec.rss_mb:.1f} MiB, "
                  f"exit {rec.exit}, {'ok' if ok else 'MISMATCH'}")
            if not ok:
                err = rec.stdout.with_suffix(".err").read_text(errors="replace")
                lines = err.strip().splitlines()
                print(f"    stderr: {lines[-1] if lines else '(empty)'}")

    def prepare(self, workload, index, traced=False):
        """Run the workload's preparation steps in a fresh directory."""
        cwd = self.work / f"setup-{index}"
        cwd.mkdir()
        records = [self.run(step, cwd, traced) for step in workload.prepare]
        self.check(records, f"setup {index}")
        return cwd, records

    def timed_pass(self, steps, template, index, traced, imports):
        """Run the steps in a copy of template.  Unless imports is None, time a
        cold `import polareig.cli` before each step and after the last one and
        append those times to it, so the samples spread over the whole run."""
        cwd = self.work / f"pass-{index}"
        shutil.copytree(template, cwd)
        records = []
        for step in (*steps, None):
            if imports is not None:
                rec = self.run(IMPORT, cwd)
                self.check([rec], f"pass {index}")
                imports.append(rec.end - rec.start)
            if step is not None:
                records.append(self.run(step, cwd, traced))
        self.check(records, f"pass {index}{' traced' if traced else ''}")
        return records


def _median(values):
    """Median that keeps an exact count an integer."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def _step_medians(passes, value):
    """Step id -> median over the passes of value(record)."""
    samples = {}
    for records in passes:
        for rec in records:
            samples.setdefault(rec.step.id, []).append(value(rec))
    return {step: statistics.median(v) for step, v in samples.items()}


def _wall(passes):
    """Time to run every timed step once: the sum of the steps' median walls."""
    return sum(_step_medians(passes, lambda rec: rec.end - rec.start).values())


def _load_traces(records):
    out = []
    for rec in records:
        try:
            out.append(json.loads(rec.trace.read_text(encoding="utf-8")))
        except (OSError, ValueError):
            pass  # the step already failed its check or will be reported
    return out


def measure(runner, workload, seed, seconds, trace):
    """Run the set-ups and the timed passes; return the metrics.

    Set-ups are spread over the run: the preparation runs before each of the
    first SETUPS passes (once in a traced run), and a cold import
    is timed around every timed step.  setup_s is the median import plus the
    median preparation; wall_s is the sum over steps of their median walls.
    """
    rng = random.Random(seed)
    runner.prepare_bytecode()
    n_prepare = (1 if trace else SETUPS) if workload.prepare else 0
    template = runner.work / "empty"
    template.mkdir()
    preparations = []
    imports = None if trace else []
    passes = {False: [], True: []}
    measured = longest = 0.0
    index = 0
    while True:
        index += 1
        began = time.monotonic()
        if index <= n_prepare:
            cwd, records = runner.prepare(workload, index, traced=bool(trace))
            preparations.append(records)
            template = cwd if index == 1 else template
        traced = bool(trace) and index % 2 == 0
        order = list(workload.steps)
        rng.shuffle(order)
        records = runner.timed_pass(order, template, index, traced, imports)
        passes[traced].append(records)
        measured += sum(rec.end - rec.start for rec in records)
        now = time.monotonic()
        longest = max(longest, now - began)
        if runner.failed or now + 1.5 * longest > runner.deadline:
            break
        if measured >= seconds and index >= n_prepare and (passes[True] or not trace):
            break
    if not trace:
        prepare_s = statistics.median(
            recs[-1].end - recs[0].start for recs in preparations) if preparations else 0.0
        return {
            "wall_s": _wall(passes[False]),
            "setup_s": statistics.median(imports) + prepare_s,
            "peak_rss_mb": max(_step_medians(passes[False],
                                             lambda rec: rec.rss_mb).values()),
        }
    if not passes[True]:
        return None
    layer_runs = [layers.pass_metrics(_load_traces(records))
                  for records in passes[True]]
    metrics = {name: _median([run[name] for run in layer_runs])
               for name in layer_runs[0]}
    metrics["cache.write_jsonl.setup_s"] = layers.pass_metrics(
        _load_traces(preparations[0]) if preparations else [])["cache.write_jsonl.s"]
    metrics["trace.overhead_s"] = _wall(passes[True]) - _wall(passes[False])
    return metrics


def units(trace):
    return layers.UNITS if trace else dict(END_TO_END)


def record_references():
    """Run every step once, untraced, and store its outcome."""
    refs = {}
    with work_dir() as work:
        runner = Runner(work, {}, time.monotonic() + 600)
        runner.prepare_bytecode()
        for name, workload in WORKLOADS.items():
            cwd = work / name
            cwd.mkdir()
            for step in (IMPORT, *workload.prepare, *workload.steps):
                rec = runner.run(step, cwd)
                refs[step.id] = outcome(rec)
                print(f"{step.id}: exit {rec.exit}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


class work_dir:
    def __enter__(self):
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite references.json from this checkout")
    args = parser.parse_args()
    if not (PACKAGE / "cli.py").is_file():
        sys.exit(f"error: the polareig package is not at {PACKAGE}")
    if args.record:
        record_references()
        return
    if args.workload is None:
        parser.error("--workload is required")
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    print(f"polarbench: workload {args.workload}; seed {args.seed}; "
          f"seconds {args.seconds:g}; trace {args.trace}", flush=True)
    with work_dir() as work:
        runner = Runner(work, references, time.monotonic() + RUN_LIMIT_S)
        metrics = measure(runner, workload, args.seed, args.seconds, args.trace)
    unit = units(args.trace)
    correct = runner.failed == 0 and metrics is not None
    metrics = metrics or {}
    print(f"steps_failed {runner.failed} of {runner.attempted} attempted")
    for name, value in metrics.items():
        print(f"{name} {value} {unit[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
