import hashlib
import json
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# the newest ladder of scripts/bench.py this checkout recorded: the
# BENCH_<n>.json with the largest n
BENCH = max(SCRIPTS.parent.glob("BENCH_*.json"), key=lambda p: int(p.stem[6:]))

# sha256 of the survey's stdout: every pair count, printed and derived value
COUNT_SURVEY_SHA = "b25919702ea704d4a9331242bbc7c6afbd5f374bdc836e52d40c1a6ca42ae051"
# sha256 of the grid's stdout: one summary line per instance; timings go to stderr
BUILD_GRID_SHA = "71c29023798241e449a942da642e34ecdc1d494e5c5b7ac7df7c9683675de1bb"


def test_count_survey_stdout_matches_its_recorded_digest(capsys):
    runpy.run_path(str(SCRIPTS / "count_survey.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COUNT_SURVEY_SHA


def test_build_grid_stdout_matches_its_recorded_digest(capsys):
    runpy.run_path(str(SCRIPTS / "build_grid.py"), run_name="__main__")
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == BUILD_GRID_SHA
    assert "export json" in captured.err


def test_the_sub_second_bench_rungs_match_their_recorded_digests():
    # the rungs are named in scripts/bench.py, so the set checked does not
    # depend on how fast the host was when the ladder was recorded
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    ladder = {name: args for name, args, _ in bench["LADDER"]}
    recorded = {rung["name"]: rung for rung in json.loads(BENCH.read_text())["rungs"]}
    assert list(recorded) == list(ladder)
    assert bench["CHECKED"]
    for name in bench["CHECKED"]:
        rung = recorded[name]
        assert tuple(rung["argv"]) == ladder[name]
        _, _, code, sha = bench["run_once"](ladder[name])
        assert (code, name, sha) == (rung["exit_code"], name, rung["stdout_sha256"])
