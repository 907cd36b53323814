"""File formats: graph exports, eigenfunction files, catalog persistence.

Graphs export as edge-list text, graph6, or JSON with a provenance header.
Eigenfunctions serialise as JSON ({graph, theta, entries}) with exact
numerator/denominator pairs, or as CSV with a "vertex,value" header.  All
writers emit canonical bytes (sorted keys, fixed separators) so identical
inputs give identical files.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .cache import dumps_canonical
from .eigenfunctions import Eigenfunction
from .graphs import PolarGraph
from .oracle import PairCatalog


class SerializeError(Exception):
    pass


def edge_list_text(g: PolarGraph) -> str:
    lines = [f"{i} {j}" for i, j in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def graph6(g: PolarGraph) -> str:
    """The standard graph6 encoding of the adjacency matrix."""
    n = g.n
    if n > 258047:
        raise SerializeError("graph too large for the 4-byte graph6 header")
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


def graph_json(g: PolarGraph) -> str:
    payload = {
        "provenance": g.provenance,
        "v": g.n,
        "edges": [[i, j] for i, j in g.edges()],
    }
    return dumps_canonical(payload) + "\n"


GRAPH_FORMATS = {
    "edges": edge_list_text,
    "graph6": lambda g: graph6(g) + "\n",
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["vertex", "value"])
    for v in sorted(f.values):
        writer.writerow([v, str(f.values[v])])
    return buf.getvalue()


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
        _put(values, int(row[0]), Fraction(row[1]))
    return Eigenfunction(values, 0, {})


def is_csv(path) -> bool:
    """Whether an eigenfunction file is read as CSV, which carries no theta."""
    return str(path).endswith(".csv")


def load_eigenfunction(path) -> Eigenfunction:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if is_csv(path):
        return eigenfunction_from_csv(text)
    return eigenfunction_from_json(text)


def catalog_json_lines(catalog: PairCatalog, provenance: dict) -> tuple[dict, list]:
    header = {
        "kind": catalog.kind,
        "s": catalog.s,
        "provenance": provenance,
        "counts": catalog.counts(),
    }
    lines = []
    for idx, (t0, t1) in enumerate(catalog.pairs):
        entry = [list(t0), list(t1)]
        if catalog.outside_regular is not None:
            entry.append(bool(catalog.outside_regular[idx]))
        lines.append(entry)
    return header, lines
