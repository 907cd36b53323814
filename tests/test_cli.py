import ast
import gc
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import jsonschema
import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run
import polareig
from polareig import cli, forms, polarspace, serialize

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


def check(result, schema_name):
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output.splitlines()[0])
    jsonschema.validate(payload, load_schema(schema_name))
    return payload


def test_build_sp42():
    payload = check(run("build", "--family", "sp", "--n", "2", "--q", "2"),
                    "build.schema.json")
    assert payload["v"] == 15 and payload["k"] == 6
    assert payload["theta1"] == 1 and payload["theta2"] == -3
    assert payload["wdb_theta1"] == 4 and payload["wdb_theta2"] == 6
    assert payload["delsarte_size"] == 3 and payload["nexus"] == 1


def test_build_unitary_defaults_to_rank_two():
    payload = check(run("build", "--family", "u", "--q", "4"),
                    "build.schema.json")
    assert payload["v"] == 45 and payload["theta2"] == -3
    assert payload["wdb_theta2"] == 6


def test_build_clebsch_flags_the_affine_clique_formula():
    payload = check(run("build", "--family", "vo-", "--m", "2", "--q", "2"),
                    "build.schema.json")
    assert payload["v"] == 16 and payload["k"] == 5
    assert payload["delsarte_size"] is None
    assert payload["affine_clique_formula_mismatch"] is True


def test_build_hyperbolic_affine_formula_agrees():
    payload = check(run("build", "--family", "vo+", "--m", "2", "--q", "2"),
                    "build.schema.json")
    assert payload["affine_clique_formula_mismatch"] is False


def test_invalid_configs_exit_2():
    assert run("build", "--family", "nope", "--q", "2").exit_code == 2
    assert run("build", "--family", "o-", "--n", "1", "--q", "2").exit_code == 2
    assert run("build", "--family", "u", "--q", "2").exit_code == 2  # not a square
    assert run("build", "--family", "vo+", "--q", "2").exit_code == 2  # no --m
    assert run("build", "--family", "sp", "--n", "2", "--q", "6").exit_code == 2


def test_cap_exceeded_exits_3():
    assert run("build", "--family", "vo+", "--m", "2", "--q", "3",
               "--cap", "50").exit_code == 3


def test_cap_is_checked_before_any_point_is_listed(monkeypatch):
    def no_points(self):
        raise AssertionError("points listed before the cap check")

    monkeypatch.setattr(polarspace.PolarSpace, "points", no_points)
    result = run("build", "--family", "sp", "--n", "2", "--q", "23")
    assert result.exit_code == 3, result.output
    assert "12720 points exceed the vertex cap 8192" in result.output
    # a field above the desk-scale cap stops before any table is built
    result = run("build", "--family", "sp", "--n", "2", "--q", "1009")
    assert result.exit_code == 3, result.output
    assert "field order 1009 exceeds the desk-scale cap 256" in result.output


@pytest.mark.parametrize("args,message", [
    (("build", "--family", "vo+", "--m", "7200", "--q", "2"),
     "q^(2m) = 2^14400 exceeds the vertex cap 8192"),
    (("verify", "--graph", "vo+:10000:2", "--function", "f.json"),
     "q^(2m) = 2^20000 exceeds the vertex cap 8192"),
])
def test_a_count_too_long_to_print_exits_3_with_one_line(args, message):
    # int -> str refuses more than 4,300 digits, and q^(2m) with m = 7200
    # has 4,335
    result = run(*args)
    assert result.exit_code == 3, result.output
    assert result.stderr == f"error: {message}\n" and result.stdout == ""


def test_a_huge_rank_is_refused_without_counting_its_points(monkeypatch):
    def no_count(*args):
        raise AssertionError("the points were counted")

    monkeypatch.setattr(polarspace, "singular_subspace_count", no_count)
    result = run("build", "--family", "sp", "--n", "10000000000", "--q", "3")
    assert result.exit_code == 3, result.output
    assert result.stderr == "error: at least 3^9999999999 points exceed the vertex cap 8192\n"


def test_a_polar_request_over_the_cap_builds_no_form(monkeypatch):
    def no_form(*args):
        raise AssertionError("the form was built before the cap check")

    monkeypatch.setattr(forms, "standard_form", no_form)
    tracemalloc.start()
    try:
        result = run("build", "--family", "o-", "--n", "1500", "--q", "3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 3, result.output
    assert peak < 2**20  # a 3002 x 3002 form matrix would take over 70 MiB
    assert result.stderr.startswith("error: 3466214367") and len(result.stderr) > 1400
    assert result.stderr.endswith(" points exceed the vertex cap 8192\n")
    # configuration errors still win over the cap
    assert run("build", "--family", "u", "--n", "1500", "--q", "3").stderr \
        == "error: GF(3) is not a square-order field\n"
    assert run("build", "--family", "o", "--n", "1500", "--q", "4").stderr.startswith(
        "error: over even q the parabolic space duplicates the symplectic one")


def test_eigenfunction_writes_and_verifies(tmp_path):
    out = tmp_path / "f.json"
    result = run("eigenfunction", "--family", "u", "--q", "9",
                 "--construct", "theta2-unitary", "--out", str(out))
    payload = check(result, "eigenfunction_report.schema.json")
    assert payload["support_size"] == 8 and payload["tight"]
    stored = json.loads(out.read_text())
    jsonschema.validate(stored, load_schema("eigenfunction.schema.json"))
    verdict = run("verify", "--graph", "u:2:9", "--function", str(out))
    out_payload = check(verdict, "verify_report.schema.json")
    assert out_payload["valid"] and out_payload["tight"]


@pytest.mark.parametrize("family,size,q,construct,support", [
    ("sp", "2", "3", "theta1-polar", 6),
    ("vo-", "2", "2", "theta1-elliptic", 4),
    ("vo+", "2", "2", "theta1-hyperbolic", 4),
    ("vo-", "2", "2", "theta1-cliquepair", 4),
    ("sp", "2", "2", "theta1-cliquepair", 4),
])
def test_eigenfunction_constructions(family, size, q, construct, support):
    flag = "--m" if family.startswith("vo") else "--n"
    payload = check(run("eigenfunction", "--family", family, flag, size,
                        "--q", q, "--construct", construct),
                    "eigenfunction_report.schema.json")
    assert payload["support_size"] == support and payload["tight"]


def _refuse_builds(monkeypatch):
    """The build_graph calls a command makes, each refused with exit 2."""
    built = []

    def stub_build(*args, **kwargs):
        built.append(args)
        raise cli.ConfigError("stub build")

    monkeypatch.setattr(cli, "build_graph", stub_build)
    return built


@pytest.mark.parametrize("construct,family,flag,size,q,served", [
    ("theta1-polar", "vo-", "--m", "2", "2", False),
    ("theta1-hyperbolic", "sp", "--n", "2", "2", False),
    ("theta1-elliptic", "vo+", "--m", "2", "2", False),
    ("theta2-unitary", "u", "--n", "3", "4", False),
    ("theta1-cliquepair", "vo+", "--m", "2", "2", True),
    ("theta1-hyperbolic", "vo+", "--m", "1", "2", False),
    ("theta1-cliquepair", "vo-", "--m", "1", "2", False),
    ("theta1-cliquepair", "vo+", "--m", "1", "3", True),
])
def test_constructions_reject_other_families_before_the_build(
        construct, family, flag, size, q, served, monkeypatch):
    built = _refuse_builds(monkeypatch)
    result = run("eigenfunction", "--family", family, flag, size, "--q", q,
                 "--construct", construct)
    assert result.exit_code == 2
    assert bool(built) == served
    assert ("stub build" in result.output) == served
    assert (f"{construct} needs family" in result.output) != served


@pytest.mark.parametrize("command", [
    ("build",), ("eigenfunction", "--construct", "theta1-cliquepair"),
    ("enumerate",), ("count-check",),
], ids=lambda c: c[0])
@pytest.mark.parametrize("family,sizes,own,other", [
    ("sp", ("--m", "3"), "--n", "--m"),
    ("u", ("--n", "2", "--m", "2"), "--n", "--m"),
    ("vo+", ("--n", "7"), "--m", "--n"),
    ("vo-", ("--m", "2", "--n", "2"), "--m", "--n"),
])
def test_the_size_flag_of_the_other_kind_exits_2_before_the_build(
        command, family, sizes, own, other, monkeypatch):
    built = _refuse_builds(monkeypatch)
    result = run(command[0], "--family", family, *sizes, "--q", "4", *command[1:])
    assert result.exit_code == 2 and not built
    assert result.output == f"error: family {family} takes {own}, not {other}\n"


@pytest.mark.parametrize("family,size,q", [
    ("sp", 3, 2), ("o+", 2, 3), ("o", 2, 3), ("o-", 2, 2), ("u", 2, 4),
    ("vo+", 2, 3), ("vo-", 2, 2),
])
def test_verify_graph_spec_builds_what_the_size_flag_builds(family, size, q, tmp_path,
                                                            monkeypatch):
    provenances = []
    build_graph = cli.build_graph

    def record(*args, **kwargs):
        g = build_graph(*args, **kwargs)
        provenances.append(g.provenance)
        return g

    monkeypatch.setattr(cli, "build_graph", record)
    # the function file is read after the build, so a missing one exits 6 then
    assert run("verify", "--graph", f"{family}:{size}:{q}",
               "--function", str(tmp_path / "none.json")).exit_code == 6
    flag = "--m" if family.startswith("vo") else "--n"
    assert run("build", "--family", family, flag, str(size), "--q", str(q)).exit_code == 0
    assert len(provenances) == 2 and provenances[0] == provenances[1]


def test_verify_detects_a_corrupted_function(tmp_path):
    out = tmp_path / "f.json"
    assert run("eigenfunction", "--family", "sp", "--n", "2", "--q", "2",
               "--construct", "theta1-polar", "--out", str(out)).exit_code == 0
    payload = json.loads(out.read_text())
    payload["entries"][0][1] = 7  # break one value
    out.write_text(json.dumps(payload))
    result = run("verify", "--graph", "sp:2:2", "--function", str(out))
    assert result.exit_code == 4
    report = json.loads(result.output.splitlines()[0])
    jsonschema.validate(report, load_schema("verify_report.schema.json"))
    assert report["valid"] is False and "vertex" in report


def test_verify_missing_file_exits_6(tmp_path):
    result = run("verify", "--graph", "sp:2:2",
                 "--function", str(tmp_path / "absent.json"))
    assert result.exit_code == 6


def test_count_check_agreement_and_mismatch():
    ok = run("count-check", "--family", "sp", "--n", "2", "--q", "2")
    payload = check(ok, "count_check.schema.json")
    assert payload["oracle"] == payload["printed"] == 45
    bad = run("count-check", "--family", "vo+", "--m", "2", "--q", "2")
    assert bad.exit_code == 5
    payload = json.loads(bad.output.splitlines()[0])
    jsonschema.validate(payload, load_schema("count_check.schema.json"))
    assert (payload["oracle"], payload["printed"], payload["derived"]) \
        == (36, 720, 72)


def test_enumerate_writes_a_catalog(tmp_path):
    out = tmp_path / "catalog.jsonl"
    result = run("enumerate", "--family", "sp", "--n", "2", "--q", "2",
                 "--out", str(out))
    payload = check(result, "enumerate.schema.json")
    assert payload["counts"]["total"] == 45
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["counts"]["total"] == 45 and len(lines) == 46


def _sp22_catalog(tmp_path):
    out = tmp_path / "plain.jsonl"
    assert run("enumerate", "--family", "sp", "--n", "2", "--q", "2",
               "--out", str(out)).exit_code == 0
    return out.read_bytes()


def test_enumerate_out_replaces_a_symlinks_target_not_the_link(tmp_path):
    expected = _sp22_catalog(tmp_path)
    target = tmp_path / "target.jsonl"
    target.write_text("stale\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    result = run("enumerate", "--family", "sp", "--n", "2", "--q", "2",
                 "--out", str(link))
    assert result.exit_code == 0, result.output
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["link.jsonl", "plain.jsonl", "target.jsonl"]


def test_enumerate_out_writes_a_fifo_in_place(tmp_path):
    expected = _sp22_catalog(tmp_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []

    def drain():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    result = run("enumerate", "--family", "sp", "--n", "2", "--q", "2",
                 "--out", str(fifo))
    reader.join(timeout=30)
    assert result.exit_code == 0, result.output
    assert not reader.is_alive() and received == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "plain.jsonl"]


def test_enumerate_bipartite_kind(tmp_path):
    result = run("enumerate", "--family", "u", "--q", "4",
                 "--kind", "bipartite", "--out", str(tmp_path / "c.jsonl"))
    payload = check(result, "enumerate.schema.json")
    assert payload["counts"] == {"total": 120, "outside_regular": 120,
                                 "not_outside_regular": 0}


def test_graph_exports_match_networkx(tmp_path):
    out = tmp_path / "g.g6"
    result = run("build", "--family", "sp", "--n", "2", "--q", "2",
                 "--format", "graph6", "--out", str(out))
    assert result.exit_code == 0
    gx = nx.from_graph6_bytes(out.read_text().strip().encode())
    assert gx.number_of_nodes() == 15 and gx.number_of_edges() == 45
    # independent re-read of the edge list export
    out2 = tmp_path / "g.edges"
    run("build", "--family", "sp", "--n", "2", "--q", "2",
        "--format", "edges", "--out", str(out2))
    edges = {tuple(map(int, line.split())) for line in out2.read_text().splitlines()}
    assert {tuple(sorted(e)) for e in gx.edges()} == edges


def test_graph6_known_values():
    from polareig.graphs import graph_from_edges
    k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert serialize.graph6(k4) == "C~"
    k3 = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert serialize.graph6(k3) == "Bw"


def test_graph_json_export_validates(tmp_path):
    out = tmp_path / "g.json"
    run("build", "--family", "vo-", "--m", "2", "--q", "2",
        "--format", "json", "--out", str(out))
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("graph_export.schema.json"))
    assert payload["v"] == 16 and len(payload["edges"]) == 40


def test_the_cache_env_var_is_ignored(tmp_path, monkeypatch):
    # only --cache-dir names a catalogue directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("POLAR_EIG_CACHE", str(tmp_path / "cache"))
    result = run("enumerate", "--family", "sp", "--n", "2", "--q", "3")
    assert result.exit_code == 0, result.output
    assert '"out":null' in result.stdout
    assert list(tmp_path.iterdir()) == []


def test_cli_output_is_deterministic():
    a = run("build", "--family", "u", "--q", "4")
    b = run("build", "--family", "u", "--q", "4")
    assert a.output == b.output
    c1 = run("count-check", "--family", "sp", "--n", "2", "--q", "3")
    c2 = run("count-check", "--family", "sp", "--n", "2", "--q", "3")
    assert c1.exit_code == c2.exit_code == 0
    assert c1.output == c2.output


def _sp22_function(tmp_path):
    path = tmp_path / "sp22.json"
    assert run("eigenfunction", "--family", "sp", "--n", "2", "--q", "2",
               "--construct", "theta1-polar", "--out", str(path)).exit_code == 0
    return str(path)


def _sp22_edited(edit):
    """The sp:2:2 theta1-polar function file, with its JSON payload edited."""
    def make(tmp_path):
        path = Path(_sp22_function(tmp_path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return str(path)
    return make


def _first_entry(payload):
    return payload["entries"][0]


def _sp22_csv(tmp_path):
    path = tmp_path / "sp22.csv"
    assert run("eigenfunction", "--family", "sp", "--n", "2", "--q", "2",
               "--construct", "theta1-polar", "--format", "csv",
               "--out", str(path)).exit_code == 0
    return str(path)


def _sp22_csv_repeated(tmp_path):
    path = Path(_sp22_csv(tmp_path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[1:2]))
    return str(path)


def _file_with(name, text):
    def make(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return make


@pytest.mark.parametrize("args,code", [
    (("enumerate", "--family", "sp", "--n", "2", "--q", "2",
      "--cache-dir", lambda t: str(t / "file" / "sub")), 6),
    (("enumerate", "--family", "sp", "--n", "2", "--q", "2", "--size", "0"), 2),
    (("enumerate", "--family", "sp", "--n", "2", "--q", "2",
      "--kind", "bipartite", "--size", "-1"), 2),
    (("build", "--family", "vo+", "--m", "0", "--q", "2"), 2),
    (("build", "--family", "sp", "--n", "0", "--q", "2"), 2),
    (("build", "--family", "sp", "--n", "2", "--q", "1"), 2),
    (("build", "--family", "sp", "--n", "2", "--q", "2", "--cap", "-1"), 3),
    (("eigenfunction", "--family", "sp", "--n", "3", "--q", "3",
      "--construct", "theta2-unitary"), 2),
    (("eigenfunction", "--family", "u", "--n", "3", "--q", "4",
      "--construct", "theta2-unitary"), 2),
    (("verify", "--graph", "sp:3:2", "--function", _sp22_function), 2),
    (("verify", "--graph", "vo+:0:2", "--function", _sp22_function), 2),
    (("verify", "--graph", "sp:2:2", "--function", _sp22_function), 0),
    (("verify", "--graph", "sp:2:2",
      "--function", _file_with("list.json", "[1]")), 2),
    (("verify", "--graph", "sp:2:2",
      "--function", _file_with("graph.json", '{"graph":5,"theta":1,"entries":[]}')), 2),
    (("verify", "--graph", "sp:2:2",
      "--function", _file_with("zero.json", '{"theta":1,"entries":[[0,1,0]]}')), 2),
    (("verify", "--graph", "sp:2:2", "--theta", "1",
      "--function", _file_with("short.csv", "vertex,value\n0\n")), 2),
    (("verify", "--graph", "sp:2:2", "--function",
      _file_with("far.json", '{"graph":{},"theta":1,"entries":[[99,1,1]]}')), 4),
    (("verify", "--graph", "sp:2:2", "--function", lambda t: str(t / "none.json")), 6),
    (("eigenfunction", "--family", "vo+", "--m", "1", "--q", "2",
      "--construct", "theta1-hyperbolic"), 2),
    (("eigenfunction", "--family", "vo-", "--m", "1", "--q", "2",
      "--construct", "theta1-elliptic"), 2),
    (("eigenfunction", "--family", "vo-", "--m", "1", "--q", "2",
      "--construct", "theta1-cliquepair"), 2),
    (("enumerate", "--family", "vo+", "--m", "1", "--q", "2"), 2),
    (("enumerate", "--family", "vo-", "--m", "1", "--q", "2"), 2),
    (("count-check", "--family", "vo+", "--m", "1", "--q", "2"), 2),
    (("count-check", "--family", "vo-", "--m", "1", "--q", "2"), 2),
    (("eigenfunction", "--family", "vo+", "--m", "1", "--q", "2",
      "--construct", "theta1-cliquepair"), 2),
    (("verify", "--graph", "vo+:1:2",
      "--function", _file_with("bare.json", '{"theta":1,"entries":[[0,1,1]]}')), 2),
    (("verify", "--graph", "sp:2:2", "--function", _sp22_edited(
        lambda p: p.pop("graph"))), 2),
    (("verify", "--graph", "sp:2:2", "--function", _sp22_edited(
        lambda p: p.__setitem__("extra", 1))), 2),
    (("verify", "--graph", "sp:2:2", "--function", _sp22_edited(
        lambda p: _first_entry(p).__setitem__(0, _first_entry(p)[0] + 0.4))), 2),
    (("verify", "--graph", "sp:2:2", "--function", _sp22_edited(
        lambda p: p.__setitem__("theta", p["theta"] + 0.6))), 2),
    (("verify", "--graph", "sp:2:2", "--function", _sp22_edited(
        lambda p: _first_entry(p).__setitem__(2, True))), 2),
    (("verify", "--graph", "sp:2:2", "--function", _sp22_edited(
        lambda p: p.__setitem__("theta", True))), 2),
    (("verify", "--graph", "sp:2:2", "--function", _sp22_edited(
        lambda p: p["entries"].append(_first_entry(p)))), 2),
    (("verify", "--graph", "sp:2:2", "--theta", "1",
      "--function", _sp22_csv_repeated), 2),
    (("verify", "--graph", "sp:2:2", "--function", _sp22_edited(
        lambda p: _first_entry(p).__setitem__(2, 1.0))), 0),
    (("verify", "--graph", "sp:2:2", "--theta", "1",
      "--function", _file_with("three.csv", "vertex,value\n3,1,junk\n")), 2),
    (("count-check", "--family", "vo+", "--m", "1", "--q", "3"), 2),
    (("enumerate", "--family", "sp", "--n", "2", "--q", "2", "--out", ""), 0),
    # int() and Fraction() read "1_0" as 10 and an Arabic-Indic three as 3
    (("verify", "--graph", "sp:2:2", "--theta", "1",
      "--function", _file_with("under.csv", "vertex,value\n1_0,1\n")), 2),
    (("verify", "--graph", "sp:2:2", "--theta", "1",
      "--function", _file_with("under_value.csv", "vertex,value\n0,1_0\n")), 2),
    (("verify", "--graph", "sp:2:2", "--theta", "1",
      "--function", _file_with("digit.csv", "vertex,value\n\u0663,1\n")), 2),
    (("verify", "--graph", "sp:2:2", "--theta", "1",
      "--function", _file_with("digit_value.csv", "vertex,value\n0,\u0663\n")), 2),
    # the CLI's integers follow the CSV reader's rule
    (("build", "--family", "sp", "--n", "2", "--q", "1_1"), 2),
    (("build", "--family", "sp", "--n", "\u0662", "--q", "\u0663"), 2),
    (("build", "--family", "vo+", "--m", "0_2", "--q", "2"), 2),
    (("build", "--family", "sp", "--n", "2", "--q", "2", "--cap", "9_999"), 2),
    (("enumerate", "--family", "sp", "--n", "2", "--q", "2", "--size", "0_2"), 2),
    (("verify", "--graph", "sp:2:2", "--theta", "0_1", "--function", _sp22_function), 2),
    (("verify", "--graph", "sp:\u0662:2", "--function", _sp22_function), 2),
    (("verify", "--graph", "sp:2:0_2", "--function", _sp22_function), 2),
    # json raises RecursionError on deep nesting, csv its own Error on a
    # field over 131,072 characters
    (("verify", "--graph", "sp:2:2",
      "--function", _file_with("deep.json", "[" * 1000 + "]" * 1000)), 2),
    (("verify", "--graph", "sp:2:2", "--theta", "1",
      "--function", _file_with("long.csv", "vertex,value\n0," + "1" * 140_000 + "\n")), 2),
    # Fraction would build 10^e of any exponent
    (("verify", "--graph", "sp:2:2", "--theta", "1",
      "--function", _file_with("exponent.csv", "vertex,value\n0,1e4301\n")), 2),
])
def test_cli_input_errors_exit_with_documented_codes(args, code, tmp_path):
    (tmp_path / "file").write_text("not a directory")
    argv = [a(tmp_path) if callable(a) else a for a in args]
    result = run(*argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    assert result.exit_code in {0, 2, 3, 4, 5, 6}
    assert result.exit_code == code, result.output
    assert not list(tmp_path.rglob("*.tmp"))


def test_verify_reports_numbers_too_long_for_str_exactly(tmp_path):
    big = 10 ** 4000  # theta * f(0) = 10^8000, past int -> str's 4,300 digits
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"graph": {}, "theta": big, "entries": [[0, big, 1]]}))
    result = run("verify", "--graph", "sp:2:2", "--function", str(path))
    assert (result.exit_code, result.stderr) == (4, "")
    assert result.stdout == '{"lhs":"1' + "0" * 8000 + '","rhs":"0","valid":false,"vertex":0}\n'


def test_verify_refuses_a_common_denominator_past_4300_digits(tmp_path):
    # the lcm of these 364 denominators took 5.6 s, then failed to print
    path = tmp_path / "dens.json"
    path.write_text(json.dumps({"graph": {}, "theta": 1, "entries": [
        [v, 1, 10 ** 1000 + 2 * v + 1] for v in range(364)]}))
    start = time.perf_counter()
    result = run("verify", "--graph", "sp:3:3", "--function", str(path))
    assert time.perf_counter() - start < 2
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == "error: the values' common denominator has more than 4300 digits\n"


def test_a_bipartite_part_size_no_graph_holds_prints_zero_counts():
    size = "1" + "0" * 2000
    start = time.perf_counter()
    result = run("enumerate", "--family", "sp", "--n", "3", "--q", "3",
                 "--kind", "bipartite", "--size", size)
    assert time.perf_counter() - start < 2  # 2.6 s and 173 MiB when the table was built
    assert result.exit_code == 0
    assert result.stdout == ('{"counts":{"not_outside_regular":0,"outside_regular":0,"total":0},'
                             f'"kind":"complete_bipartite","out":null,"s":{size}}}\n')


@pytest.mark.parametrize("graph,path", [
    ("sp:2:2", _sp22_csv),
    ("sp:x", _sp22_csv),  # checked before the graph spec
    ("sp:2:2", lambda t: str(t / "none.csv")),  # and before the file is read
])
def test_verify_csv_without_theta_exits_2_before_any_check(graph, path, tmp_path):
    result = run("verify", "--graph", graph, "--function", path(tmp_path))
    assert result.exit_code == 2
    assert result.output == "error: CSV eigenfunction files need --theta\n"


def test_verify_csv_with_theta_checks_the_function(tmp_path):
    path = _sp22_csv(tmp_path)
    assert run("verify", "--graph", "sp:2:2", "--function", path,
               "--theta", "1").exit_code == 0
    assert run("verify", "--graph", "sp:2:2", "--function", path,
               "--theta", "0").exit_code == 4


def test_verify_names_both_graphs_on_a_mismatch(tmp_path):
    result = run("verify", "--graph", "o-:2:2", "--function", _sp22_function(tmp_path))
    assert result.exit_code == 2
    assert '"family":"sp"' in result.output and '"family":"o-"' in result.output


SP22 = ("--family", "sp", "--n", "2", "--q", "2")


def _directory(tmp_path):  # an existing directory, so not a file name
    return str(tmp_path)


# usage errors the table above does not cover; each exited 2 under the
# earlier click front end too
USAGE_ERRORS = [
    (),  # no subcommand
    ("nope",),
    ("bui", *SP22),  # a subcommand is never abbreviated
    ("build", *SP22, "--bogus"),
    ("build", "--fam", "sp", "--q", "2"),  # nor is an option
    ("build", "--fam=sp", "--q=2"),
    ("build", *SP22, "--for", "json"),
    ("eigenfunction", *SP22, "--constr", "theta1-polar"),
    ("build", *SP22, "extra"),
    ("build", "--q", "2"),
    ("build", "--family", "sp"),
    ("build", "--family", "sp", "--q"),
    ("eigenfunction", *SP22),
    ("verify", "--graph", "sp:2:2"),
    ("verify", "--function", "f.json"),
    ("build", "--family", "spx", "--q", "2"),
    ("build", "--family", "", "--q", "2"),
    ("eigenfunction", *SP22, "--construct", "theta3"),
    ("eigenfunction", *SP22, "--construct", "theta1-polar", "--format", "edges"),
    ("enumerate", *SP22, "--kind", "other"),
    ("build", *SP22, "--format", "dot"),
    ("build", "--family", "sp", "--q", "two"),
    ("build", "--family", "sp", "--q", "2.0"),
    ("build", "--family", "sp", "--q", "2", "--n", "x"),
    ("build", "--family", "vo+", "--q", "2", "--m", "1.5"),
    ("build", *SP22, "--cap", "1e3"),
    ("enumerate", *SP22, "--size", "x"),
    ("verify", "--graph", "sp:2:2", "--function", "f.json", "--theta", "1/2"),
    ("build", *SP22, "--format", "json", "--out", _directory),  # exit 2, not 6
    ("eigenfunction", *SP22, "--construct", "theta1-polar", "--out", _directory),
    ("enumerate", *SP22, "--out", _directory),
    ("verify", "--graph", "sp:2:2", "--function", _directory),
]


@pytest.mark.parametrize("args", USAGE_ERRORS, ids=lambda a: " ".join(
    "DIR" if callable(x) else x for x in a) or "(none)")
def test_usage_errors_exit_2_before_anything_is_built(args, tmp_path, monkeypatch):
    def refuse(*a, **k):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(cli, "build_graph", refuse)
    result = run(*[a(tmp_path) if callable(a) else a for a in args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("usage: polareig")


@pytest.mark.parametrize("command", [(), ("build",), ("eigenfunction",),
                                     ("enumerate",), ("count-check",), ("verify",)])
def test_help_exits_0(command):
    result = run(*command, "--help")
    assert result.exit_code == 0 and result.exception is None
    assert result.stdout.startswith("usage: polareig")


@pytest.mark.parametrize("args", [
    ("build", *SP22),
    ("eigenfunction", *SP22, "--construct", "theta1-polar"),
    ("enumerate", *SP22),
    ("count-check", *SP22),
    ("verify", "--graph", "sp:2:2", "--function", "f.json"),
])
def test_every_command_accepts_cache_dir_and_only_enumerate_writes_there(
        args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("eigenfunction", *SP22, "--construct", "theta1-polar",
               "--out", "f.json").exit_code == 0
    without = run(*args)
    result = run(*args, "--cache-dir", "cache")
    assert result.exit_code == without.exit_code == 0, result.output
    written = sorted(p.name for p in (tmp_path / "cache").glob("*"))
    if args[0] == "enumerate":
        assert written == ["catalog_sp_d4_p2k1_isolated_cliques_s2.jsonl"]
        assert result.stdout == without.stdout.replace(
            '"out":null', '"out":"cache/catalog_sp_d4_p2k1_isolated_cliques_s2.jsonl"')
    else:
        assert written == [] and result.stdout == without.stdout


def _src_env():
    return {**os.environ, "PYTHONPATH": str(Path(polareig.__file__).resolve().parent.parent)}


def test_a_reader_closing_stdout_early_ends_the_command_with_exit_1_quietly():
    # the sp:3:3 json export is about 200 kB, more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "polareig.cli", "build", "--family", "sp", "--n", "3",
         "--q", "3", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    assert proc.stdout.read(10) == b'{"delsarte'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("count-check", "--family", "sp", "--n", "2", "--q", "2"),
    ("build", "--family", "sp", "--n", "3", "--q", "3", "--format", "edges"),
], ids=["count-check", "build-edges"])
def test_a_full_disk_on_stdout_exits_6_without_a_traceback(argv):
    # /dev/full fails every write with ENOSPC: the short count-check output
    # at the final flush, the edge list while it is written
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "polareig.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=_src_env(), timeout=120)
    assert proc.returncode == 6
    assert proc.stderr.startswith("error: cannot write to stdout: ")
    assert "Traceback" not in proc.stderr


def test_main_in_process_leaves_the_collector_alone():
    frozen = gc.get_freeze_count()
    assert run("count-check", *SP22).exit_code == 0
    assert gc.get_freeze_count() == frozen


def test_the_entry_freezes_the_import_time_heap_before_it_runs_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main"))
    cli.entry()
    assert calls == ["freeze", "main"]


def test_the_console_script_and_python_m_start_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    source = Path(cli.__file__).resolve()
    project = tomllib.loads((source.parents[2] / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"polareig": "polareig.cli:entry"}
    guard = ast.parse(source.read_text(encoding="utf-8")).body[-1]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    entry()"


# the commands that write --out, each with whether it writes the file before
# its summary line
OUT_COMMANDS = [
    (("build", *SP22, "--format", "edges"), False),
    (("eigenfunction", *SP22, "--construct", "theta1-polar"), True),
    (("enumerate", *SP22), True),
]
OUT_IDS = [args[0] for args, _ in OUT_COMMANDS]


@pytest.mark.parametrize("args", [args for args, _ in OUT_COMMANDS], ids=OUT_IDS)
def test_out_replaces_only_its_target_with_a_plainly_opened_files_mode(
        args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    notes = tmp_path / "results.tmp"  # what Path("results.out").with_suffix(".tmp") names
    notes.write_text("my notes\n")
    (tmp_path / "results.out").write_text("old\n")
    os.chmod(tmp_path / "results.out", 0o600)
    old_umask = os.umask(0o027)
    try:
        with open("plain", "w", encoding="utf-8"):
            pass
        result = run(*args, "--out", "results.out")
    finally:
        os.umask(old_umask)
    assert result.exit_code == 0, result.output
    assert notes.read_text() == "my notes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "results.out",
                                                          "results.tmp"]
    assert (tmp_path / "results.out").read_text() != "old\n"
    assert stat.S_IMODE(os.stat("results.out").st_mode) \
        == stat.S_IMODE(os.stat("plain").st_mode) == 0o640


@pytest.mark.parametrize("args", [args for args, _ in OUT_COMMANDS], ids=OUT_IDS)
def test_out_in_a_missing_directory_exits_6_naming_the_given_path(
        args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run(*args, "--out", "nodir/out.txt")
    assert result.exit_code == 6, result.output
    assert "error: cannot write nodir/out.txt: " in result.stderr
    assert result.stderr.endswith(": 'nodir/out.txt'\n")
    assert ".tmp" not in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "pipe"])
@pytest.mark.parametrize("args,file_first", OUT_COMMANDS, ids=OUT_IDS)
def test_out_dev_stdout_keeps_the_files_place_in_stdout(
        args, file_first, to_file, unbuffered, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plain = run(*args, "--out", "f")
    assert plain.exit_code == 0, plain.output
    summary = plain.stdout.replace('"out":"f"', '"out":"/dev/stdout"')
    written = (tmp_path / "f").read_text()
    expected = (written + summary if file_first else summary + written).encode()
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "polareig.cli", *args, "--out", "/dev/stdout"]
    if to_file:
        with open(tmp_path / "stdout.txt", "wb") as fh:
            proc = subprocess.run(argv, stdout=fh, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        received = (tmp_path / "stdout.txt").read_bytes()
    else:
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        received = proc.stdout
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert received == expected


def test_importing_the_cli_loads_neither_click_nor_dataclasses():
    # a fresh interpreter without site hooks, so only the package's own
    # imports count
    code = ("import sys, polareig.cli; "
            "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=_src_env(), check=True)
    assert proc.stdout == "[]\n"


@st.composite
def cli_argv(draw):
    """argv for any command on any family with small sizes and a small cap."""
    command = draw(st.sampled_from(
        ("build", "eigenfunction", "enumerate", "count-check", "verify")))
    family = draw(st.sampled_from(cli.GRAPH_FAMILIES))
    q = draw(st.sampled_from((0, 1, 2, 3, 4, 6, 9)))
    cap = ["--cap", str(draw(st.integers(0, 100)))]
    if command == "verify":
        size = draw(st.integers(-1, 3))
        return ["verify", "--graph", f"{family}:{size}:{q}", *cap]
    argv = [command, "--family", family, "--q", str(q), *cap]
    for flag in ("--n", "--m"):
        size = draw(st.one_of(st.none(), st.integers(-1, 3)))
        if size is not None:
            argv += [flag, str(size)]
    if command == "eigenfunction":
        argv += ["--construct", draw(st.sampled_from(tuple(cli.CONSTRUCTIONS)))]
    if command == "enumerate":
        argv += ["--kind", draw(st.sampled_from(("isolated", "bipartite")))]
    return argv


@pytest.fixture(scope="module")
def stored_function(tmp_path_factory):
    return _sp22_function(tmp_path_factory.mktemp("function"))


# derandomized by the conftest profile, so a defect the strategy can reach
# fails every run or none; the examples are argvs that once ended in a traceback
@settings(max_examples=200, deadline=None)
@given(argv=cli_argv())
@example(argv=["count-check", "--family", "vo+", "--m", "1", "--q", "3"])
@example(argv=["enumerate", "--family", "vo+", "--m", "1", "--q", "2"])
@example(argv=["eigenfunction", "--family", "vo-", "--m", "1", "--q", "2",
               "--construct", "theta1-cliquepair"])
def test_any_small_argv_exits_with_a_documented_code(argv, stored_function):
    if argv[0] == "verify":
        argv = argv + ["--function", stored_function]
    result = run(*argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (argv, repr(result.exception))
    assert result.exit_code in {0, 2, 3, 4, 5, 6}, (argv, result.output)
    # a size flag the family does not take is refused, never ignored
    other = "--n" if argv[2] in cli.AFFINE_FAMILIES else "--m"
    if argv[0] != "verify" and other in argv:
        assert result.exit_code == 2, (argv, result.output)
        assert result.output.startswith(f"error: family {argv[2]} takes "), argv


def _edited(edit):
    payload = {"graph": {"family": "sp", "q": 2}, "theta": 1,
               "entries": [[0, 1, 1], [3, -1, 2]]}
    edit(payload)
    return payload


@pytest.mark.parametrize("payload", [
    _edited(lambda p: None),
    _edited(lambda p: p.pop("graph")),
    _edited(lambda p: p.pop("theta")),
    _edited(lambda p: p.pop("entries")),
    _edited(lambda p: p.__setitem__("extra", 1)),
    _edited(lambda p: p.__setitem__("graph", 5)),
    _edited(lambda p: p.__setitem__("graph", [])),
    _edited(lambda p: p.__setitem__("graph", {})),
    _edited(lambda p: p.__setitem__("theta", 1.5)),
    _edited(lambda p: p.__setitem__("theta", 2.0)),
    _edited(lambda p: p.__setitem__("theta", True)),
    _edited(lambda p: p.__setitem__("theta", "1")),
    _edited(lambda p: p.__setitem__("entries", {})),
    _edited(lambda p: p.__setitem__("entries", 5)),
    _edited(lambda p: p.__setitem__("entries", [])),
    _edited(lambda p: p.__setitem__("entries", "")),
    _edited(lambda p: p["entries"].append([5, 1])),
    _edited(lambda p: p["entries"].append([5, 1, 1, 1])),
    _edited(lambda p: p["entries"].append(5)),
    _edited(lambda p: p["entries"].append("567")),
    _edited(lambda p: p["entries"].append({"v": 5, "n": 1, "d": 1})),
    _edited(lambda p: p["entries"].append([5, 1.5, 1])),
    _edited(lambda p: p["entries"].append([5, 3.0, 1])),
    _edited(lambda p: p["entries"].append([5, None, 1])),
    _edited(lambda p: p["entries"].append([5, 1, False])),
    [],
    "text",
])
def test_eigenfunction_loader_agrees_with_the_schema(payload):
    # structural edits only: a repeated vertex or a zero denominator passes
    # the schema and is rejected by the loader on top of it
    try:
        jsonschema.validate(payload, load_schema("eigenfunction.schema.json"))
    except jsonschema.ValidationError:
        valid = False
    else:
        valid = True
    try:
        serialize.eigenfunction_from_json(json.dumps(payload))
    except serialize.SerializeError:
        loaded = False
    else:
        loaded = True
    assert loaded == valid


# sha256 of stdout and of the --out file, recorded before the subspace
# levels stopped being cached; every output is byte-identical since
GOLDEN = [
    (("eigenfunction", "--family", "sp", "--n", "2", "--q", "3",
      "--construct", "theta1-polar", "--out", "f.json"),
     "2de1f051d057c1be2f34195320c81d3471e0b19c72e035585c79021ef447ee2f",
     "b3acaf440a7c327c28ee03256b5d235c7798f5d6bcfcd43dc18be53b053c9f99"),
    (("eigenfunction", "--family", "o", "--n", "2", "--q", "3",
      "--construct", "theta1-polar", "--out", "f.json"),
     "2de1f051d057c1be2f34195320c81d3471e0b19c72e035585c79021ef447ee2f",
     "b5a71160d2f2bee5da7d788361426fa41facdfa808a150433dd65a45cb3d66c6"),
    (("eigenfunction", "--family", "o-", "--n", "2", "--q", "2",
      "--construct", "theta1-polar", "--out", "f.json"),
     "79b350a895b17bbf2e405bb9e388a6812d9b9c05deaafca40757d4f793f5979f",
     "9fe16c81e5d0513620f40db8dbf3bcecd2276c9ae2158eac1f360e93255332f0"),
    (("eigenfunction", "--family", "u", "--n", "2", "--q", "4",
      "--construct", "theta1-polar", "--out", "f.json"),
     "638c6ea0c311fa3f948250e566a8f53cd3658006a8ec276c0b9bfca5155a7581",
     "c9870a1dda479790e909ff67002450ac8212ce52abcf451980f1ae27d5897088"),
    (("eigenfunction", "--family", "vo+", "--m", "2", "--q", "3",
      "--construct", "theta1-hyperbolic", "--out", "f.json"),
     "107bf85cd11fdba2517aa91f1a888efb03ad62fddc12f8a34c3fece7bd1e76fd",
     "51dfe727959d44590cf43743eec4963bd86f8523f783cd4faa40a908c090e3e9"),
    (("eigenfunction", "--family", "vo-", "--m", "2", "--q", "3",
      "--construct", "theta1-elliptic", "--out", "f.json"),
     "69d0ad7e1716c5c474d37b651d54b3069b28f8201659065ef869200f3e330d21",
     "11c671bc21563ffaae28ac04606c9e508b54d5fe4c1ff15caac5ac73b5809651"),
    (("eigenfunction", "--family", "u", "--n", "2", "--q", "4",
      "--construct", "theta2-unitary", "--out", "f.json"),
     "815221550c2f042d29f3d0bd62268a4f176be19c881f797554426a7ebd48d6d3",
     "6848b5cdd418d504ad5185125fdcaabb73a911e82b0eb9bda266f6526ce07de7"),
    (("build", "--family", "sp", "--n", "2", "--q", "3",
      "--format", "graph6", "--out", "g.g6"),
     "2e1e0ed52b6b23c4681dbc2134307c4a82d9b1b82b9923bcbc671874ef924d04",
     "69605e69a911cec0014cb8d45b298e9a59f5657d4f7561ba3bf2ea11ee14c69b"),
    (("enumerate", "--family", "sp", "--n", "2", "--q", "2", "--out", "c.jsonl"),
     "5a4f6081c0f18a7dd6f6429faad6bc9f72dbbd9b37c982cbaa757faa89b81ee8",
     "c1180e606cb599da4c5ef45683ef718cd1513c97b9f748298ff340bb836244e7"),
    (("count-check", "--family", "sp", "--n", "2", "--q", "3"),
     "46f62876755ea270876d151f87a97b8a2b43c29df6e39c5fe3c82225974fbbc5", None),
    # over GF(67), recorded while fields above order 64 used per-operation
    # polynomial arithmetic, a path independent of the dense tables
    (("build", "--family", "vo+", "--m", "1", "--q", "67", "--format", "graph6"),
     "c1a6e8445c80de64eb0e89aefd5ec3ae395983fa170d004053fae4b9258f89c8", None),
    (("eigenfunction", "--family", "vo+", "--m", "1", "--q", "67",
      "--construct", "theta1-cliquepair"),
     "c5f37e8c0db32e9eeb8ea9b2210fda461aaf33966e92479fa90e88de0bee7af9", None),
]


@pytest.mark.parametrize("args,stdout_sha,out_sha", GOLDEN,
                         ids=[" ".join(g[0][:7]) for g in GOLDEN])
def test_cli_outputs_match_recorded_digests(args, stdout_sha, out_sha, tmp_path,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)  # --out is relative, so stdout names no tmp path
    result = run(*args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == stdout_sha
    if out_sha is not None:
        written = (tmp_path / args[args.index("--out") + 1]).read_bytes()
        assert hashlib.sha256(written).hexdigest() == out_sha
