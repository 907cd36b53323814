"""Command-line front end, on the standard library's argparse.

Subcommands: build, eigenfunction, enumerate, count-check, verify.  A graph
is a family, q and one size: the rank --n of sp/o+/o/o-/u or the --m of vo±
(``family:size:q`` for verify); the other size flag exits 2 before any build.
Exit codes: 0 success, 2 invalid configuration or usage (argparse prints its
usage line and the error on stderr), 3 cap exceeded (q, vertices, a denominator),
4 verification failure, 5 count-check formula mismatch (informational),
6 file I/O error.  ``entry()`` starts a process: it is the ``polareig``
console script and the ``python -m polareig.cli`` path.  ``main(argv=None)``
is the in-process API (argv defaults to ``sys.argv[1:]``) and leaves the
garbage collector as it finds it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import suppress
from fractions import Fraction
from pathlib import Path

from . import cache as _cache
from . import eigenfunctions as ef
from . import forms, graphs, gf, oracle, polarspace, serialize


VERTEX_CAP = 8192

GRAPH_FAMILIES = ("sp", "o+", "o", "o-", "u", "vo+", "vo-")
AFFINE_FAMILIES = ("vo+", "vo-")

# construction -> the families it serves, each with the sizes it takes (None:
# any): theta2-unitary needs H(3, q^2), so --n 2.  On vo+ and vo- it needs an
# (m-2)-space of the hyperbolic quadric or a point of the elliptic one, so
# --m >= 2 (theta1-cliquepair takes its pair from theta1-elliptic on vo-)
_M_FROM_2 = range(2, sys.maxsize)
CONSTRUCTIONS = {
    "theta1-polar": dict.fromkeys(("sp", "o+", "o", "o-", "u")),
    "theta1-hyperbolic": {"vo+": _M_FROM_2},
    "theta1-elliptic": {"vo-": _M_FROM_2},
    "theta1-cliquepair": {**dict.fromkeys(GRAPH_FAMILIES), "vo-": _M_FROM_2},
    "theta2-unitary": {"u": range(2, 3)},
}


class ConfigError(Exception):
    pass


class CapError(Exception):
    pass


def _echo_json(payload: dict):
    print(_cache.dumps_canonical(payload))


def build_graph(family: str, q: int, size: int | None = None,
                cap: int = VERTEX_CAP) -> graphs.PolarGraph:
    """Construct the requested graph, enforcing the field and vertex caps.
    size is the rank n of sp/o+/o/o-/u (default 2), or the m of vo± (required)."""
    if family not in GRAPH_FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    try:
        ctx = gf.field_from_order(q)
    except gf.NonPrimeCharacteristic as exc:
        raise ConfigError(str(exc)) from exc
    except gf.CapExceeded as exc:
        raise CapError(str(exc)) from exc
    if family in AFFINE_FAMILIES:
        if size is None:
            raise ConfigError("affine families need --m")
        if size < 1:
            raise ConfigError(f"m = {size} must be >= 1")
        if value := _over_cap(lambda: q ** (2 * size), 2 * size, f"{q}^{2 * size}", cap):
            raise CapError(f"q^(2m) = {value} exceeds the vertex cap {cap}")
        return graphs.affine_polar_graph(size, 1 if family == "vo+" else -1, ctx)
    n = 2 if size is None else size
    dim = {"sp": 2 * n, "o+": 2 * n, "o": 2 * n + 1, "o-": 2 * n + 2,
           "u": 2 * n}[family]
    try:
        forms.check_standard(family, dim, ctx)
    except (forms.FormError, gf.OddExtensionDegree) as exc:
        raise ConfigError(str(exc)) from exc
    # in closed form, before anything is built; a maximal holds >= 2^(w-1) points
    w = polarspace.witt_index(family, dim)
    if value := _over_cap(lambda: polarspace.singular_subspace_count(family, dim, q, 1),
                          w - 1, f"at least {q}^{w - 1}", cap):
        raise CapError(f"{value} points exceed the vertex cap {cap}")
    try:
        form = forms.standard_form(family, dim, ctx)
        return graphs.collinearity_graph(polarspace.polar_space(form))
    except graphs.RankTooLow as exc:
        raise ConfigError(str(exc)) from exc


def _over_cap(count, low: int, bound: str, cap: int) -> str | None:
    """count() in decimal if it exceeds cap, else None.  count() >= 2^low, so
    past cap's bit length it is not counted, and past 2^16 bound stands for
    it, as it does past the 4,300 digits that int -> str prints."""
    if low < cap.bit_length() and count() <= cap:
        return None
    with suppress(ValueError):
        return str(count()) if low <= 1 << 16 else bound
    return bound


def parse_graph_spec(spec: str) -> tuple[str, int, int]:
    """(family, size, q) of family:size:q, e.g. sp:2:2 or vo-:2:3, with
    size as build_graph reads it."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"graph spec {spec!r} is not family:n:q")
    try:
        size, q = _integer(parts[1]), _integer(parts[2])
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"bad graph spec {spec!r}") from exc
    return parts[0], size, q


def build_summary(g: graphs.PolarGraph) -> dict:
    params = g.srg_params()
    spec = graphs.spectrum(params)
    bound = graphs.delsarte_bound(params, spec)
    nexus = Fraction(params.mu, -spec.theta2)
    out = {
        "family": g.provenance["family"],
        "q": g.provenance["q"],
        "v": params.v,
        "k": params.k,
        "lambda": params.lam,
        "mu": params.mu,
        "theta1": spec.theta1,
        "theta2": spec.theta2,
        "delsarte_bound": str(bound),
        "delsarte_size": int(bound) if bound.denominator == 1 else None,
        "nexus": int(nexus) if bound.denominator == 1 and nexus.denominator == 1
                 else None,
        "wdb_theta1": ef.wdb(spec.theta1, params),
        "wdb_theta2": ef.wdb(spec.theta2, params),
    }
    if g.provenance.get("kind") == "affine":
        q, m, eps = (g.provenance[key] for key in ("q", "m", "epsilon"))
        printed = 1 + Fraction((q ** m - eps) * (q ** (m - 1) + eps), eps * q ** (m - 1) + 1)
        out["affine_clique_formula_mismatch"] = printed != bound
    return out


def build(args):
    """Build a graph, verify strong regularity, print the parameter summary."""
    g = _build_or_exit(args.family, args.q, _graph_size(args), args.cap)
    _echo_json(build_summary(g))
    if args.fmt:
        _write_or_exit(args.out, serialize.GRAPH_FORMATS[args.fmt](g))


def eigenfunction(args):
    """Run a construction, verify it, and write the eigenfunction file."""
    family, size, construct = args.family, _graph_size(args), args.construct
    served = CONSTRUCTIONS[construct]
    sizes = served.get(family)
    # a size of None is build_graph's default: rank 2, or no m, which it refuses
    if family not in served or sizes and len(sizes) == 1 and size not in (None, sizes.start):
        need = " or ".join(f if r is None or len(r) > 1 else f"{f} with --n {r.start}"
                           for f, r in served.items())
        raise SystemExit(_fail(2, f"{construct} needs family {need}"))
    if sizes and size is not None and size not in sizes:
        raise SystemExit(_fail(2, f"{construct} needs family {family} with --m >= {sizes.start}"))
    g = _build_or_exit(family, args.q, size, args.cap)
    try:
        f = _construct(g, construct)
        report = ef.verify_eigenfunction(g, f)
    except (ef.EigenfunctionError, graphs.GraphError) as exc:
        raise SystemExit(_fail(4, f"construction failed verification: {exc}"))
    if args.out:
        _write_or_exit(args.out, [serialize.eigenfunction_json(f) if args.fmt == "json"
                                  else serialize.eigenfunction_csv(f)])
    _echo_json({"construct": construct, **report._asdict(), "out": args.out})
    raise SystemExit(0 if report.tight else 4)


def _construct(g: graphs.PolarGraph, name: str) -> ef.Eigenfunction:
    if name != "theta1-cliquepair":  # theta1-polar runs ef.theta1_polar, and so on
        return getattr(ef, name.replace("-", "_"))(g)
    # theta1-cliquepair: the canonical optimal pair for the family
    fam = g.provenance.get("family")
    if fam == "vo-":
        t0, t1 = ef.unitary_pair_parts(ef.theta1_elliptic(g))
        return ef.theta1_from_clique_pair(g, t0, t1)
    c0, c1 = graphs.max_intersecting_delsarte_pair(g)
    return ef.theta1_from_clique_pair(g, c0, c1)


def enumerate_pairs(args):
    """Exhaustively catalogue isolated-clique or complete-bipartite pairs."""
    kind, size, out, cache_dir = args.kind, args.size, args.out, args.cache_dir
    g = _build_or_exit(args.family, args.q, _graph_size(args), args.cap)
    params = g.srg_params()
    spec = graphs.spectrum(params)
    if size is None:
        size = spec.theta1 + 1 if kind == "isolated" else -spec.theta2
    if kind == "isolated":
        catalog = oracle.enumerate_isolated_clique_pairs(g, size)
    else:
        catalog = oracle.enumerate_bipartite_pairs(g, size)
    try:
        # an empty --out counts as absent, as in build and eigenfunction
        target = out or _cache.catalog_path(cache_dir, g.provenance, catalog.kind, size)
        if target is not None:  # with no file to write, render no line
            header, lines = serialize.catalog_json_lines(catalog, g.provenance)
            _cache.write_jsonl(Path(target), header, lines)
    except OSError as exc:  # the error names the catalogue file or its directory
        raise SystemExit(_fail(6, f"cannot write {out or 'catalog'}: {exc}"))
    _echo_json({"kind": catalog.kind, "s": size, "counts": catalog.counts(),
                "out": str(target) if target else None})


def count_check(args):
    """Compare the enumerated pair count with the closed formulas (exit 5 on mismatch)."""
    g = _build_or_exit(args.family, args.q, _graph_size(args), args.cap)
    try:
        comparison = oracle.count_comparison(g)
    except oracle.OracleError as exc:
        raise SystemExit(_fail(2, str(exc)))
    _echo_json(comparison.to_json())
    ok = comparison.printed_matches and comparison.derived_matches
    raise SystemExit(0 if ok else 5)


def verify(args):
    """Re-check a stored eigenfunction against a freshly built graph."""
    graph_spec, function_path, theta = args.graph_spec, args.function_path, args.theta
    if theta is None and serialize.is_csv(function_path):
        raise SystemExit(_fail(2, "CSV eigenfunction files need --theta"))
    try:
        family, size, q = parse_graph_spec(graph_spec)
    except ConfigError as exc:
        raise SystemExit(_fail(2, str(exc)))
    g = _build_or_exit(family, q, size, args.cap)
    try:
        f = serialize.load_eigenfunction(function_path)
    except OSError as exc:
        raise SystemExit(_fail(6, f"cannot read {function_path}: {exc}"))
    except serialize.SerializeError as exc:
        raise SystemExit(_fail(2, f"malformed eigenfunction file: {exc}"))
    stored = {key: f.graph_ref[key] for key in ("family", "q", "dim") if key in f.graph_ref}
    built = {key: g.provenance[key] for key in stored}
    if stored != built:
        raise SystemExit(_fail(2, f"the function was made for {_cache.dumps_canonical(stored)},"
                                  f" but --graph {graph_spec} is {_cache.dumps_canonical(built)}"))
    if theta is not None:
        f.theta = theta
    try:
        report = ef.verify_eigenfunction(g, f)
    except ef.NotAnEigenfunction as exc:
        _echo_json({"valid": False, "vertex": exc.vertex,
                    "lhs": ef.exact_text(exc.lhs), "rhs": ef.exact_text(exc.rhs)})
        raise SystemExit(4)
    except ef.DenominatorTooLong as exc:
        raise SystemExit(_fail(3, str(exc)))
    except ef.EigenfunctionError as exc:
        raise SystemExit(_fail(4, str(exc)))
    _echo_json({"valid": True, **report._asdict()})


def _graph_size(args) -> int | None:
    """The size the family takes: the rank --n of a polar family or the --m
    of an affine one.  The other flag exits 2, before anything is built."""
    own, other = ("m", "n") if args.family in AFFINE_FAMILIES else ("n", "m")
    if getattr(args, other) is not None:
        raise SystemExit(_fail(2, f"family {args.family} takes --{own}, not --{other}"))
    return getattr(args, own)


def _build_or_exit(family, q, size, cap) -> graphs.PolarGraph:
    """The requested graph, checked to be primitive strongly regular; every
    command reads its parameters, so the check costs nothing extra."""
    try:
        g = build_graph(family, q, size, cap=cap)
    except ConfigError as exc:
        raise SystemExit(_fail(2, str(exc)))
    except CapError as exc:
        raise SystemExit(_fail(3, str(exc)))
    try:
        graphs.spectrum(g.srg_params())
    except graphs.GraphError as exc:
        raise SystemExit(_fail(2, f"not a primitive strongly regular graph: {exc}"))
    return g


def _write_or_exit(path, chunks):  # with no path to stdout, whose failures main maps
    if not path:
        return _cache.write_text(None, chunks)
    try:
        _cache.write_text(path, chunks)
    except OSError as exc:
        raise SystemExit(_fail(6, f"cannot write {path}: {exc}"))


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _file_name(value: str) -> str:
    """A file to write or read; naming a directory is a usage error.  An
    empty name passes (os.path.isdir, unlike Path.is_dir, is false for it)
    and counts as absent where the command allows that."""
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is a directory")
    return value


def _integer(value: str) -> int:
    """int(value) under the CSV reader's rule: an underscore or a non-ASCII
    digit, both of which int() accepts, makes it a usage error."""
    if not serialize.plain_digits(value):
        raise argparse.ArgumentTypeError(f"{value!r} holds an underscore or a non-ASCII digit")
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None


def _size(value: str) -> int:
    size = _integer(value)
    if size < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer >= 1")
    return size


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of every subcommand's name and help.  Only a subcommand
    named in argv can run, so only those get their arguments."""
    parser = argparse.ArgumentParser(
        prog="polareig", allow_abbrev=False,
        description="Polar spaces, strongly regular polar graphs, optimal eigenfunctions.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, run, cache_dir_used=False, graph_options=True):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        if name not in argv:
            return None
        sub.set_defaults(run=run)
        if graph_options:
            sub.add_argument("--family", required=True, choices=GRAPH_FAMILIES)
            sub.add_argument("--q", required=True, type=_integer,
                             help=f"field size, a prime power up to {gf.DESK_SCALE_CAP}")
            sub.add_argument("--n", type=_integer, help="rank for sp/o+/o/o-/u families")
            sub.add_argument("--m", type=_integer, help="half the dimension for vo+/vo-")
        sub.add_argument("--cap", type=_integer, default=VERTEX_CAP,
                         help="vertex cap (default: %(default)s)")
        # --cache-dir names where enumerate writes its catalogue when --out is
        # absent; every other command accepts it and ignores it
        sub.add_argument("--cache-dir", help="catalogue directory when --out is absent"
                         if cache_dir_used else "ignored: only enumerate writes there")
        return sub

    if sub := command("build", build):
        sub.add_argument("--format", dest="fmt", choices=sorted(serialize.GRAPH_FORMATS),
                         help="also export the graph in this format")
        sub.add_argument("--out", type=_file_name)

    if sub := command("eigenfunction", eigenfunction):
        sub.add_argument("--construct", required=True, choices=tuple(CONSTRUCTIONS))
        sub.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                         help="(default: %(default)s)")
        sub.add_argument("--out", type=_file_name)

    if sub := command("enumerate", enumerate_pairs, cache_dir_used=True):
        sub.add_argument("--kind", choices=("isolated", "bipartite"), default="isolated",
                         help="(default: %(default)s)")
        sub.add_argument("--size", type=_size,
                         help="part size (default: theta1+1 or -theta2)")
        sub.add_argument("--out", type=_file_name)

    command("count-check", count_check)

    if sub := command("verify", verify, graph_options=False):
        sub.add_argument("--graph", dest="graph_spec", required=True,
                         help="family:n:q, e.g. sp:2:2")
        sub.add_argument("--function", dest="function_path", required=True,
                         type=_file_name,
                         help="JSON or CSV eigenfunction; a CSV file has no graph "
                              "provenance, so it is checked against --graph as given")
        sub.add_argument("--theta", type=_integer,
                         help="eigenvalue override (needed for CSV files)")
    return parser


def main(argv: list[str] | None = None):
    """Run one subcommand on argv (default ``sys.argv[1:]``).  Exits through
    SystemExit with the documented code, or returns on success."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv).parse_args(argv)
    try:
        try:
            args.run(args)
        finally:  # a failed write to stdout shows up here, not at interpreter exit
            sys.stdout.flush()
    except OSError as exc:
        # send what is still buffered to devnull so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader went away (`| head`)
            raise SystemExit(1) from None
        raise SystemExit(_fail(6, f"cannot write to stdout: {exc}")) from None


def entry():
    """Run main() as a whole process.  The imports are done by now, so
    gc.freeze() moves the objects they made into the permanent generation,
    which no collection walks: the collections at exit, and any full one
    during the command, skip them."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    entry()
