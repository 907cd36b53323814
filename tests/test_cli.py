import json
from pathlib import Path

import jsonschema
import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from click.testing import CliRunner

from polareig import cli, polarspace, serialize
from polareig.cli import main

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


def run(*args):
    return CliRunner().invoke(main, list(args))


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
    result = run("build", "--family", "sp", "--n", "2", "--q", "1009")
    assert result.exit_code == 3, result.output
    assert "1028262820 points exceed the vertex cap 8192" in result.output


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
    built = []

    def stub_build(*args, **kwargs):
        built.append(args)
        raise cli.ConfigError("stub build")

    monkeypatch.setattr(cli, "build_graph", stub_build)
    result = run("eigenfunction", "--family", family, flag, size, "--q", q,
                 "--construct", construct)
    assert result.exit_code == 2
    assert bool(built) == served
    assert ("stub build" in result.output) == served
    assert (f"{construct} needs family" in result.output) != served


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


def test_cache_env_var_is_honoured(tmp_path, monkeypatch):
    monkeypatch.setenv("POLAR_EIG_CACHE", str(tmp_path))
    # the graph needs no subspace level, so a build caches none
    result = run("build", "--family", "sp", "--n", "2", "--q", "3")
    assert result.exit_code == 0
    assert not any("subspaces_sp" in p.name for p in tmp_path.iterdir())
    result = run("eigenfunction", "--family", "sp", "--n", "2", "--q", "3",
                 "--construct", "theta1-polar")
    assert result.exit_code == 0
    names = [p.name for p in tmp_path.iterdir()]
    assert any("subspaces_sp" in n for n in names)


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


def _sp22_csv_repeated(tmp_path):
    path = tmp_path / "sp22.csv"
    assert run("eigenfunction", "--family", "sp", "--n", "2", "--q", "2",
               "--construct", "theta1-polar", "--format", "csv",
               "--out", str(path)).exit_code == 0
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[1:2]))
    return str(path)


def _blocked_cache_level(tmp_path):
    """A cache directory where level 1 of sp:2:3 cannot be written."""
    (tmp_path / "c" / "subspaces_sp_d4_p3k1_lvl1.jsonl").mkdir(parents=True)
    return str(tmp_path / "c")


def _file_with(name, text):
    def make(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return make


@pytest.mark.parametrize("args,code", [
    (("build", "--family", "sp", "--n", "2", "--q", "2",
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
      _file_with("far.json", '{"theta":1,"entries":[[99,1,1]]}')), 4),
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
    (("eigenfunction", "--family", "sp", "--n", "2", "--q", "3",
      "--construct", "theta1-polar", "--cache-dir", _blocked_cache_level), 6),
    (("count-check", "--family", "sp", "--n", "2", "--q", "3",
      "--cache-dir", _blocked_cache_level), 6),
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


def test_verify_names_both_graphs_on_a_mismatch(tmp_path):
    result = run("verify", "--graph", "o-:2:2", "--function", _sp22_function(tmp_path))
    assert result.exit_code == 2
    assert '"family":"sp"' in result.output and '"family":"o-"' in result.output


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


@settings(max_examples=200, deadline=None)
@given(argv=cli_argv())
def test_any_small_argv_exits_with_a_documented_code(argv, stored_function):
    if argv[0] == "verify":
        argv = argv + ["--function", stored_function]
    result = run(*argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (argv, repr(result.exception))
    assert result.exit_code in {0, 2, 3, 4, 5, 6}, (argv, result.output)
