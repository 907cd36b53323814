"""The row-by-row graph writers against list-based references, and the lazy
catalogue path from the oracle to a JSON-lines file."""

import os
import random
import re
import runpy
import stat
import time
import tracemalloc
from collections import deque
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import networkx as nx
import pytest

from conftest import run
from polareig import cache, cli, oracle, serialize
from polareig.graphs import graph_from_edges

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GRID = runpy.run_path(str(SCRIPTS / "build_grid.py"))["GRID"]
# rank-1 elliptic spaces (o-:1:q) have no graph; the grid reports their error
LABELS = [f"{f}:{size}:{q}" for f, size, q in GRID
          if (f, size) != ("o-", 1)] + ["sp:3:3", "u:2:16"]


# -- the list-based writers, one Python object per edge or bit ------------------

def reference_edge_list_text(g):
    lines = [f"{i} {j}" for i, j in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_graph6(g):
    n = g.n
    if n < 63:
        head = chr(n + 63)
    else:
        head = "~" + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    body = []
    for i in range(0, len(bits), 6):
        group = bits[i:i + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body)


def reference_graph_json(g):
    payload = {
        "provenance": g.provenance,
        "v": g.n,
        "edges": [[i, j] for i, j in g.edges()],
    }
    return cache.dumps_canonical(payload) + "\n"


WRITERS = [
    (serialize.graph_json, reference_graph_json),
    (serialize.edge_list_text, reference_edge_list_text),
    (serialize.graph6, reference_graph6),
]


@lru_cache(maxsize=None)
def graph(label):
    family, size, q = label.split(":")
    return cli.build_graph(family, int(q), int(size))


def random_graph(n, seed):
    rng = random.Random(seed)
    density = rng.random()
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < density])


@pytest.mark.parametrize("label", LABELS)
def test_graph_writers_match_the_references_on_the_grid(label):
    g = graph(label)
    for writer, reference in WRITERS:
        assert "".join(writer(g)) == reference(g), writer.__name__


# n = 63 switches the graph6 header to its long form; n(n-1)/2 runs through
# every residue mod 6 and mod 24, so every padding of the last group occurs
@pytest.mark.parametrize("n", range(71))
def test_graph_writers_match_the_references_on_random_graphs(n):
    complete = graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    for g in (random_graph(n, n), complete, graph_from_edges(n, [])):
        for writer, reference in WRITERS:
            assert "".join(writer(g)) == reference(g), (writer.__name__, g.adj)


@pytest.mark.parametrize("g", [random_graph(63, 1), random_graph(64, 2),
                               random_graph(70, 3), graph("sp:3:3")],
                         ids=["n63", "n64", "n70", "sp:3:3"])
def test_graph6_round_trips_through_networkx_in_the_long_header_form(g):
    text = serialize.graph6(g)
    assert text[0] == "~"
    gx = nx.from_graph6_bytes(text.encode())
    assert gx.number_of_nodes() == g.n
    assert {tuple(sorted(e)) for e in gx.edges()} == set(g.edges())


def test_graph6_refuses_a_graph_too_large_for_its_header():
    g = graph_from_edges(2, [(0, 1)])
    g.n = 258048
    with pytest.raises(serialize.SerializeError, match="too large"):
        serialize.graph6(g)


@pytest.mark.parametrize("writer", [w for w, _ in WRITERS],
                         ids=[w.__name__ for w, _ in WRITERS])
def test_graph_writers_hold_no_object_per_edge(writer):
    g = graph("u:2:16")
    size = sum(map(len, writer(g)))  # also warms any lazily built state
    tracemalloc.start()
    try:
        deque(writer(g), maxlen=0)  # drained chunk by chunk, never joined
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the texts are 442 kB (json), 353 kB (edges) and 102 kB (graph6); the
    # list-based writers peak at 3.4 to 7.5 MiB here
    if writer is serialize.graph6:  # one string, rendered a column at a time
        assert peak < 2.5 * 2**20
    else:  # one row at a time, about 8 kB
        assert peak < size / 16


# -- catalogues ------------------------------------------------------------------

def test_enumerate_with_no_target_renders_no_catalogue_line(monkeypatch):
    def refuse(*args):
        raise AssertionError("catalogue lines rendered with no file to write")

    monkeypatch.setattr(serialize, "catalog_json_lines", refuse)
    result = run("enumerate", "--family", "sp", "--n", "2", "--q", "3")
    assert result.exit_code == 0, result.output
    assert '"counts":{"total":240}' in result.output and '"out":null' in result.output


def test_catalogue_entries_are_lazy_and_match_the_pairs():
    g = graph("u:2:4")
    catalog = oracle.enumerate_bipartite_pairs(g, 3)
    header, lines = serialize.catalog_json_lines(catalog, g.provenance)
    assert not isinstance(lines, list)
    assert header["counts"] == catalog.counts()
    assert list(lines) == [[list(t0), list(t1), bool(flag)] for (t0, t1), flag
                           in zip(catalog.pairs, catalog.outside_regular)]


def test_write_jsonl_writes_the_same_bytes_from_a_generator_and_a_list(tmp_path):
    g = graph("sp:2:3")
    catalog = oracle.enumerate_isolated_clique_pairs(g, 3)
    header, lines = serialize.catalog_json_lines(catalog, g.provenance)
    entries = list(lines)
    cache.write_jsonl(tmp_path / "list.jsonl", header, entries)
    cache.write_jsonl(tmp_path / "gen.jsonl", header, (e for e in entries))
    data = (tmp_path / "gen.jsonl").read_bytes()
    assert data == (tmp_path / "list.jsonl").read_bytes()
    assert data.count(b"\n") == len(entries) + 1


def test_write_jsonl_removes_its_temporary_file_when_the_entries_fail(tmp_path):
    def entries():
        yield [[0, 1], [2, 3]]
        raise RuntimeError("entry source failed")

    path = tmp_path / "c.jsonl"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="entry source failed"):
        cache.write_jsonl(path, {"kind": "x"}, entries())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]
    assert path.read_text() == "old\n"


# -- the one writer of every output file -------------------------------------------

def test_write_text_removes_only_its_own_temporary_file_on_a_failure(tmp_path):
    def chunks():
        yield "partial\n"
        raise RuntimeError("chunk source failed")

    path = tmp_path / "c.txt"
    path.write_text("old\n")
    (tmp_path / "c.tmp").write_text("notes\n")
    with pytest.raises(RuntimeError, match="chunk source failed"):
        cache.write_text(path, chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tmp", "c.txt"]
    assert path.read_text() == "old\n" and (tmp_path / "c.tmp").read_text() == "notes\n"


def test_write_text_skips_a_temporary_name_another_file_holds(tmp_path):
    path = tmp_path / "c.txt"
    taken = tmp_path / f"c.txt.{os.getpid()}-0.tmp"  # the first name it tries
    taken.write_text("someone else's\n")
    cache.write_text(path, iter(["a\n", "b\n"]))
    assert path.read_text() == "a\nb\n"
    assert taken.read_text() == "someone else's\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", taken.name]


def test_write_text_gives_the_mode_of_a_plainly_opened_file(tmp_path):
    replaced = tmp_path / "old.txt"
    replaced.write_text("old\n")
    replaced.chmod(0o600)
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w", encoding="utf-8"):
            pass
        cache.write_text(replaced, ["new\n"])
        cache.write_text(tmp_path / "new.txt", ["new\n"])
    finally:
        os.umask(old_umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"plain": 0o640, "old.txt": 0o640, "new.txt": 0o640}
    assert replaced.read_text() == "new\n"


def test_csv_eigenfunctions_still_read_every_decimal_form():
    f = serialize.eigenfunction_from_csv(
        "vertex,value\n 0 ,+1.5\n1,-3/6\n2,1e1\n+3,-0.25\n4,-7\n")
    assert f.values == {0: Fraction(3, 2), 1: Fraction(-1, 2), 2: 10, 3: Fraction(-1, 4), 4: -7}


@pytest.mark.parametrize("value,exponent", [
    ("1e4300", 4300), ("-2E-4300", -4300), ("1.5e+04300", 4300), ("3e0", 0)])
def test_csv_exponents_up_to_4300_are_read(value, exponent):
    f = serialize.eigenfunction_from_csv(f"vertex,value\n0,{value}\n")
    assert f.values == {0: Fraction(value.partition("e")[0].partition("E")[0])
                        * Fraction(10) ** exponent}


@pytest.mark.parametrize("value", ["1e4301", "-2E-4301", "1.5e+04301", "1e1000000000",
                                   "1e" + "9" * 4000])
def test_csv_exponents_past_4300_are_malformed_before_fraction_reads_them(value):
    # Fraction builds 10^e first: 1e3000000 took over a second, and the
    # work grows faster than the exponent
    start = time.perf_counter()
    with pytest.raises(serialize.SerializeError, match="exponent of magnitude over 4300"):
        serialize.eigenfunction_from_csv(f"vertex,value\n0,{value}\n")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("name,data,message", [
    ("deep.json", b"[" * 1000 + b"]" * 1000, "maximum recursion depth exceeded"),
    ("long.csv", b"vertex,value\n0," + b"1" * 140_000 + b"\n",
     "field larger than field limit (131072)"),
    ("latin.json", b'{"graph":{},"theta":1,"entries":[]}\xff', "can't decode byte 0xff"),
    ("cut.json", b'{"graph":', "Expecting value"),
    ("long.json", b'{"graph":{},"theta":' + b"1" * 5000 + b',"entries":[]}',
     "Exceeds the limit (4300 digits)"),
    ("zero.json", b'{"graph":{},"theta":1,"entries":[[0,1,0]]}', "Fraction(1, 0)"),
    ("zero.csv", b"vertex,value\n0,1/0\n", "Fraction(1, 0)"),
    ("word.csv", b"vertex,value\nzero,1\n", "invalid literal for int()"),
])
def test_every_parse_failure_of_a_readable_file_is_a_serialize_error(
        name, data, message, tmp_path):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(serialize.SerializeError, match=re.escape(message)):
        serialize.load_eigenfunction(path)


def test_a_file_that_cannot_be_read_is_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        serialize.load_eigenfunction(tmp_path / "none.json")
