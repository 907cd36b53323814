"""File formats: graph exports, eigenfunction files, catalog persistence.

Graphs export as edge-list text, graph6, or JSON with a provenance header.
Eigenfunctions serialise as JSON ({graph, theta, entries}) with exact
numerator/denominator pairs, or as CSV with a "vertex,value" header.  All
writers emit canonical bytes (sorted keys, fixed separators) so identical
inputs give identical files.

The graph writers render one string per adjacency row (graph6: per column)
straight from the bitsets, with no Python object per edge or bit; every
value of ``GRAPH_FORMATS`` returns chunks, which ``cache.write_text`` writes
as they come, and those of ``json`` and ``edges`` are rendered row by row
only then.  Catalogue entries are lazy in the same way.
"""

from __future__ import annotations

import csv
import io
import json
import re
from binascii import b2a_base64
from collections.abc import Iterator
from fractions import Fraction
from itertools import compress, count

from .bitsets import bit_flags
from .cache import dumps_canonical
from .eigenfunctions import DIGIT_CAP, Eigenfunction
from .graphs import PolarGraph
from .oracle import PairCatalog


class SerializeError(Exception):
    pass


_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


def _upper_rows(g: PolarGraph):
    """(i, js) for each vertex i with a neighbour above it: js are those
    neighbours in increasing order, as decimal strings, read from the bits of
    adj[i] above i and rendered one row at a time."""
    for i, row in enumerate(g.adj):
        upper = row >> (i + 1)
        if upper:
            yield i, map(str, compress(count(i + 1), bit_flags(upper)))


def edge_list_text(g: PolarGraph) -> Iterator[str]:
    """One "i j" line per edge, i < j, in increasing order; a chunk per row."""
    return (f"{i} " + f"\n{i} ".join(js) + "\n" for i, js in _upper_rows(g))


def graph6(g: PolarGraph) -> str:
    """The standard graph6 encoding of the adjacency matrix.

    graph6 reads the upper triangle column by column (bit i of column j for
    i < j), pads it with zeros to a multiple of 6 bits and writes each 6-bit
    group, most significant bit first, as chr(63 + group).  Base64 groups
    bits the same way, so the body is the base64 text of those bits with its
    alphabet translated."""
    n = g.n
    if n > 258047:
        raise SerializeError("graph too large for the 4-byte graph6 header")
    if n < 63:
        head = chr(n + 63)
    else:
        head = "~" + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    bits = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                   for j in range(1, n))
    groups = -(-len(bits) // 6)  # the last one padded with zeros
    pad = -len(bits) % 24  # whole base64 quanta, so no "=" padding
    raw = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    body = b2a_base64(raw, newline=False).translate(_GRAPH6)
    return head + body[:groups].decode("ascii")


def graph_json(g: PolarGraph) -> Iterator[str]:
    """dumps_canonical({"provenance", "v", "edges": [[i, j], ...]}) + "\n",
    in the same sorted-key layout, with a chunk per row of the edge list."""
    yield '{"edges":['
    sep = ""
    for i, js in _upper_rows(g):
        yield f"{sep}[{i}," + f"],[{i},".join(js) + "]"
        sep = ","
    yield f'],"provenance":{dumps_canonical(g.provenance)},"v":{g.n}}}\n'


GRAPH_FORMATS = {
    "edges": edge_list_text,
    "graph6": lambda g: (graph6(g) + "\n",),
    "json": graph_json,
}


def eigenfunction_json(f: Eigenfunction) -> str:
    payload = {
        "graph": f.graph_ref,
        "theta": f.theta,
        "entries": [[v, f.values[v].numerator, f.values[v].denominator]
                    for v in sorted(f.values)],
    }
    return dumps_canonical(payload) + "\n"


def eigenfunction_csv(f: Eigenfunction) -> str:
    # no field holds a comma, quote or line break, so csv.writer would quote none
    return "vertex,value\n" + "".join(f"{v},{f.values[v]}\n" for v in sorted(f.values))


def _integer(value, what: str) -> int:
    """value as an int where the schema's "integer" type admits it: a JSON
    number with no fractional part, and not a boolean."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SerializeError(f"{what} must be an integer, got {value!r}")


def _put(values: dict, vertex: int, value: Fraction):
    if vertex in values:
        raise SerializeError(f"vertex {vertex} appears twice")
    values[vertex] = value


def eigenfunction_from_json(text: str) -> Eigenfunction:
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.keys() != {"graph", "theta", "entries"}:
        raise SerializeError('an eigenfunction file is an object with exactly '
                             'the keys "graph", "theta" and "entries"')
    entries = payload["entries"]
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 3 for e in entries):
        raise SerializeError('"entries" must be a list of [vertex, numerator, '
                             'denominator] triples')
    values = {}
    for v, num, den in entries:
        _put(values, _integer(v, "vertex"),
             Fraction(_integer(num, "numerator"), _integer(den, "denominator")))
    graph = payload["graph"]
    if not isinstance(graph, dict):
        raise SerializeError('"graph" must be an object')
    return Eigenfunction(values, _integer(payload["theta"], "theta"), graph)


def plain_digits(text: str) -> bool:
    """Whether text holds no underscore and no non-ASCII digit, both of which
    int() and Fraction() accept: "1_0" reads as 10, "\u0663" as 3."""
    return not any(c == "_" or c.isdecimal() and not c.isascii() for c in text)


def eigenfunction_from_csv(text: str) -> Eigenfunction:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["vertex", "value"]:
        raise SerializeError('CSV eigenfunctions need a "vertex,value" header')
    values = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise SerializeError(f"CSV row {row!r} does not have two fields")
        if not plain_digits("".join(row)):
            raise SerializeError(f"CSV row {row!r} holds an underscore or a non-ASCII digit")
        # Fraction builds 10^e: refuse |e| > DIGIT_CAP, read off its first five digits
        if (e := re.search(r"[eE][-+]?0*(\d{1,5})", row[1])) and int(e[1]) > DIGIT_CAP:
            raise SerializeError(f"CSV row {row!r} has an exponent of magnitude over {DIGIT_CAP}")
        _put(values, int(row[0]), Fraction(row[1]))
    return Eigenfunction(values, 0, {})


def is_csv(path) -> bool:
    """Whether an eigenfunction file is read as CSV, which carries no theta."""
    return str(path).endswith(".csv")


def load_eigenfunction(path) -> Eigenfunction:
    """The eigenfunction at path: OSError if unreadable, SerializeError if it does not parse."""
    parse = eigenfunction_from_csv if is_csv(path) else eigenfunction_from_json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (ValueError, ArithmeticError, RecursionError, csv.Error) as exc:
        raise SerializeError(str(exc)) from exc


def catalog_json_lines(catalog: PairCatalog,
                       provenance: dict) -> tuple[dict, Iterator[list]]:
    """The catalogue file's header, and a lazy iterator of its entries:
    [t0, t1] per pair, with the outside-regular flag appended for bipartite
    catalogues.  Nothing is rendered until the entries are consumed."""
    header = {
        "kind": catalog.kind,
        "s": catalog.s,
        "provenance": provenance,
        "counts": catalog.counts(),
    }
    if catalog.outside_regular is None:
        entries = ([list(t0), list(t1)] for t0, t1 in catalog.pairs)
    else:
        entries = ([list(t0), list(t1), bool(flag)]
                   for (t0, t1), flag in zip(catalog.pairs, catalog.outside_regular))
    return header, entries
