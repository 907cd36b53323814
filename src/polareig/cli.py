"""Command-line front end, on the standard library's argparse.

Subcommands: build, eigenfunction, enumerate, count-check, verify.
Exit codes: 0 success, 2 invalid configuration or usage (argparse prints its
usage line and the error on stderr), 3 desk-scale cap exceeded,
4 verification failure, 5 count-check formula mismatch (informational),
6 file I/O error.  ``main(argv=None)`` is the ``polareig`` console script;
argv defaults to ``sys.argv[1:]``.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import cache as _cache
from . import eigenfunctions as ef
from . import forms, graphs, gf, oracle, polarspace, serialize


VERTEX_CAP = 8192

GRAPH_FAMILIES = ("sp", "o+", "o", "o-", "u", "vo+", "vo-")

# construction -> the families it serves, each with the --n it needs (None: any)
CONSTRUCTIONS = {
    "theta1-polar": dict.fromkeys(("sp", "o+", "o", "o-", "u")),
    "theta1-hyperbolic": {"vo+": None},
    "theta1-elliptic": {"vo-": None},
    "theta1-cliquepair": dict.fromkeys(GRAPH_FAMILIES),
    "theta2-unitary": {"u": 2},
}
# on these families the construction needs an (m-2)-space of the hyperbolic
# quadric or a point of the elliptic one, so --m >= 2 (theta1-cliquepair
# takes its pair from theta1-elliptic on vo-)
NEEDS_M2 = {("theta1-hyperbolic", "vo+"), ("theta1-elliptic", "vo-"),
            ("theta1-cliquepair", "vo-")}


class ConfigError(Exception):
    pass


class CapError(Exception):
    pass


def _echo_json(payload: dict):
    print(_cache.dumps_canonical(payload))


def build_graph(family: str, q: int, n: int | None, m: int | None,
                cap: int = VERTEX_CAP) -> graphs.PolarGraph:
    """Construct the requested graph, enforcing the field and vertex caps."""
    if family not in GRAPH_FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    try:
        ctx = gf.field_from_order(q)
    except gf.NonPrimeCharacteristic as exc:
        raise ConfigError(str(exc)) from exc
    except gf.CapExceeded as exc:
        raise CapError(str(exc)) from exc
    if family in ("vo+", "vo-"):
        if m is None:
            raise ConfigError("affine families need --m")
        if m < 1:
            raise ConfigError(f"m = {m} must be >= 1")
        if q ** (2 * m) > cap:
            raise CapError(f"q^(2m) = {q ** (2 * m)} exceeds the vertex cap {cap}")
        return graphs.affine_polar_graph(m, 1 if family == "vo+" else -1, ctx)
    if n is None:
        n = 2
    dim = {"sp": 2 * n, "o+": 2 * n, "o": 2 * n + 1, "o-": 2 * n + 2,
           "u": 2 * n}[family]
    try:
        form = forms.standard_form(family, dim, ctx)
    except (forms.FormError, gf.OddExtensionDegree) as exc:
        raise ConfigError(str(exc)) from exc
    points = polarspace.singular_subspace_count(family, dim, q, 1)
    if points > cap:  # checked in closed form, before any point is listed
        raise CapError(f"{points} points exceed the vertex cap {cap}")
    try:
        if family == "u" and dim == 4:
            return graphs.unitary_graph(ctx)
        return graphs.collinearity_graph(polarspace.polar_space(form))
    except graphs.RankTooLow as exc:
        raise ConfigError(str(exc)) from exc


def parse_graph_spec(spec: str) -> tuple[str, int, int, int | None, int | None]:
    """family:n_or_m:q, e.g. sp:2:2 or vo-:2:3."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"graph spec {spec!r} is not family:n:q")
    family = parts[0]
    try:
        size, q = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad graph spec {spec!r}") from exc
    if family in ("vo+", "vo-"):
        return family, size, q, None, size
    return family, size, q, size, None


def _affine_printed_clique_size(q: int, m: int, eps: int) -> Fraction:
    return 1 + Fraction((q ** m - eps) * (q ** (m - 1) + eps),
                        eps * q ** (m - 1) + 1)


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
        printed = _affine_printed_clique_size(
            g.provenance["q"], g.provenance["m"], g.provenance["epsilon"])
        out["affine_clique_formula_mismatch"] = printed != bound
    return out


def build(args):
    """Build a graph, verify strong regularity, print the parameter summary."""
    g = _build_or_exit(args.family, args.q, args.n, args.m, args.cap)
    _echo_json(build_summary(g))
    if args.fmt:
        text = serialize.GRAPH_FORMATS[args.fmt](g)
        if args.out:
            _write_or_exit(args.out, text)
        else:
            sys.stdout.writelines(_slices(text))


def eigenfunction(args):
    """Run a construction, verify it, and write the eigenfunction file."""
    family, n, m, construct = args.family, args.n, args.m, args.construct
    served = CONSTRUCTIONS[construct]
    if family not in served or served[family] not in (None, 2 if n is None else n):
        need = " or ".join(f if r is None else f"{f} with --n {r}"
                           for f, r in served.items())
        raise SystemExit(_fail(2, f"{construct} needs family {need}"))
    if (construct, family) in NEEDS_M2 and m is not None and m < 2:
        raise SystemExit(_fail(2, f"{construct} needs family {family} with --m >= 2"))
    g = _build_or_exit(family, args.q, n, m, args.cap)
    try:
        f = _construct(g, construct)
        report = ef.verify_eigenfunction(g, f)
    except (ef.EigenfunctionError, graphs.GraphError) as exc:
        raise SystemExit(_fail(4, f"construction failed verification: {exc}"))
    text = (serialize.eigenfunction_json(f) if args.fmt == "json"
            else serialize.eigenfunction_csv(f))
    if args.out:
        _write_or_exit(args.out, text)
    _echo_json({
        "construct": construct,
        "theta": report.theta,
        "bound": report.bound,
        "support_size": report.support_size,
        "tight": report.tight,
        "out": args.out,
    })
    raise SystemExit(0 if report.tight else 4)


def _construct(g: graphs.PolarGraph, name: str) -> ef.Eigenfunction:
    if name == "theta1-polar":
        return ef.theta1_polar(g)
    if name == "theta1-hyperbolic":
        return ef.theta1_hyperbolic(g)
    if name == "theta1-elliptic":
        return ef.theta1_elliptic(g)
    if name == "theta2-unitary":
        return ef.theta2_unitary(g)
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
    g = _build_or_exit(args.family, args.q, args.n, args.m, args.cap)
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
    except OSError as exc:
        raise SystemExit(_fail(6, f"cannot write catalog: {exc}"))
    _echo_json({"kind": catalog.kind, "s": size, "counts": catalog.counts(),
                "out": str(target) if target else None})


def count_check(args):
    """Compare the enumerated pair count with the closed formulas (exit 5 on mismatch)."""
    g = _build_or_exit(args.family, args.q, args.n, args.m, args.cap)
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
        family, size, q, n, m = parse_graph_spec(graph_spec)
    except ConfigError as exc:
        raise SystemExit(_fail(2, str(exc)))
    g = _build_or_exit(family, q, n, m, args.cap)
    try:
        f = serialize.load_eigenfunction(function_path)
    except OSError as exc:
        raise SystemExit(_fail(6, f"cannot read {function_path}: {exc}"))
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
            serialize.SerializeError) as exc:
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
                    "lhs": str(exc.lhs), "rhs": str(exc.rhs)})
        raise SystemExit(4)
    except ef.EigenfunctionError as exc:
        raise SystemExit(_fail(4, str(exc)))
    _echo_json({"valid": True, "theta": report.theta, "bound": report.bound,
                "support_size": report.support_size, "tight": report.tight})


def _build_or_exit(family, q, n, m, cap) -> graphs.PolarGraph:
    """The requested graph, checked to be primitive strongly regular; every
    command reads its parameters, so the check costs nothing extra."""
    try:
        g = build_graph(family, q, n, m, cap=cap)
    except ConfigError as exc:
        raise SystemExit(_fail(2, str(exc)))
    except CapError as exc:
        raise SystemExit(_fail(3, str(exc)))
    try:
        graphs.spectrum(g.srg_params())
    except graphs.GraphError as exc:
        raise SystemExit(_fail(2, f"not a primitive strongly regular graph: {exc}"))
    return g


def _slices(text):  # 1 MiB each: a write encodes one slice, never the whole text
    return (text[i:i + 2 ** 20] for i in range(0, len(text), 2 ** 20))


def _write_or_exit(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_slices(text))
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


def _size(value: str) -> int:
    try:
        size = int(value)
    except ValueError:
        size = 0
    if size < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer >= 1")
    return size


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polareig", allow_abbrev=False,
        description="Polar spaces, strongly regular polar graphs, optimal eigenfunctions.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, run, cache_dir_used=False, graph_options=True):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        if graph_options:
            sub.add_argument("--family", required=True, choices=GRAPH_FAMILIES)
            sub.add_argument("--q", required=True, type=int,
                             help=f"field size, a prime power up to {gf.DESK_SCALE_CAP}")
            sub.add_argument("--n", type=int, help="rank for sp/o+/o/o-/u families")
            sub.add_argument("--m", type=int, help="half the dimension for vo+/vo-")
        sub.add_argument("--cap", type=int, default=VERTEX_CAP,
                         help="vertex cap (default: %(default)s)")
        # --cache-dir names where enumerate writes its catalogue when --out is
        # absent; every other command accepts it and ignores it
        sub.add_argument("--cache-dir", help=(
            f"catalogue directory when --out is absent (or ${_cache.ENV_VAR})"
            if cache_dir_used else "ignored: only enumerate writes there"))
        return sub

    sub = command("build", build)
    sub.add_argument("--format", dest="fmt", choices=sorted(serialize.GRAPH_FORMATS),
                     help="also export the graph in this format")
    sub.add_argument("--out", type=_file_name)

    sub = command("eigenfunction", eigenfunction)
    sub.add_argument("--construct", required=True, choices=tuple(CONSTRUCTIONS))
    sub.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                     help="(default: %(default)s)")
    sub.add_argument("--out", type=_file_name)

    sub = command("enumerate", enumerate_pairs, cache_dir_used=True)
    sub.add_argument("--kind", choices=("isolated", "bipartite"), default="isolated",
                     help="(default: %(default)s)")
    sub.add_argument("--size", type=_size,
                     help="part size (default: theta1+1 or -theta2)")
    sub.add_argument("--out", type=_file_name)

    command("count-check", count_check)

    sub = command("verify", verify, graph_options=False)
    sub.add_argument("--graph", dest="graph_spec", required=True,
                     help="family:n:q, e.g. sp:2:2")
    sub.add_argument("--function", dest="function_path", required=True,
                     type=_file_name,
                     help="JSON or CSV eigenfunction; a CSV file has no graph "
                          "provenance, so it is checked against --graph as given")
    sub.add_argument("--theta", type=int,
                     help="eigenvalue override (needed for CSV files)")
    return parser


def main(argv: list[str] | None = None):
    """Run one subcommand on argv (default ``sys.argv[1:]``).  Exits through
    SystemExit with the documented code, or returns on success."""
    args = _parser().parse_args(argv)
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


if __name__ == "__main__":
    main()
