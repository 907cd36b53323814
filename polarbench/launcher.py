"""Run one `polareig` CLI command with the package's layers wrapped in spans.

Usage: python launcher.py STEP_ID TRACE_OUT CLI_ARG...

The launcher imports `polareig.cli`, replaces the public functions listed
below wherever they are looked up (module attributes, names bound at import
time by `from ... import`, `PolarSpace` methods and the values of
`serialize.GRAPH_FORMATS`), then runs `polareig.cli.main` on CLI_ARG.  Every
wrapped call records a span [name, start, end, parent, count]; hot leaf calls
(`LEAVES`) are aggregated per parent span instead.  `COUNTERS` only count
their calls, so the work they hand on stays in the caller's self time (at
`--workers 1` the oracle's pair scans run inside `parallel.run_chunked`).
The spans stay in memory and are written to TRACE_OUT as JSON when the
command exits, however it exits.  If the package no longer has a listed
function (other than those in `OPTIONAL`), the launcher names it on stderr
and exits with status 3 without running the command, so the step fails its
check instead of reporting 0 for that layer.  Arithmetic on `FieldElement` objects is
not wrapped, so its cost shows up in the self time of the layer that does it.
"""

import functools
import sys
from time import perf_counter


class _NewLevels:
    """Subspaces in levels returned for the first time: each (space, level)
    counts once, whether it was enumerated or read from the cache."""

    def __init__(self):
        self.seen = set()

    def __call__(self, args, kwargs, result):
        key = (id(args[0]), args[1:], tuple(sorted(kwargs.items())))
        if key in self.seen:
            return 0
        self.seen.add(key)
        return len(result)


def _length(args, kwargs, result):
    return len(result)


def _pairs(args, kwargs, result):
    return len(result.pairs)


def _hit(args, kwargs, result):
    return 0 if result is None else 1


def _chunks(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["payloads"])


# (module, attribute, span name, count): count(args, kwargs, result) gives the
# span's count field.
FUNCTIONS = [
    ("gf", "field_from_order", "gf.field_from_order", None),
    ("forms", "standard_form", "forms.standard_form", None),
    ("graphs", "collinearity_graph", "graphs.build", None),
    ("graphs", "affine_polar_graph", "graphs.build", None),
    ("graphs", "unitary_graph", "graphs.build", None),
    ("graphs", "srg_check", "graphs.srg_check", None),
    ("graphs", "cliques_of_size", "graphs.cliques_of_size", _length),
    ("graphs", "delsarte_cliques", "graphs.delsarte_cliques", None),
    ("graphs", "max_intersecting_delsarte_pair",
     "graphs.max_intersecting_delsarte_pair", None),
    ("eigenfunctions", "theta1_polar", "eigenfunctions.construct", None),
    ("eigenfunctions", "theta1_hyperbolic", "eigenfunctions.construct", None),
    ("eigenfunctions", "theta1_elliptic", "eigenfunctions.construct", None),
    ("eigenfunctions", "theta1_from_clique_pair", "eigenfunctions.construct", None),
    ("eigenfunctions", "theta2_unitary", "eigenfunctions.construct", None),
    ("eigenfunctions", "verify_eigenfunction",
     "eigenfunctions.verify_eigenfunction", None),
    ("oracle", "enumerate_isolated_clique_pairs",
     "oracle.enumerate_isolated_clique_pairs", _pairs),
    ("oracle", "enumerate_bipartite_pairs", "oracle.enumerate_bipartite_pairs",
     _pairs),
    ("oracle", "count_comparison", "oracle.count_comparison", None),
    ("serialize", "edge_list_text", "serialize.export", None),
    ("serialize", "graph6", "serialize.export", None),
    ("serialize", "graph_json", "serialize.export", None),
    ("serialize", "eigenfunction_json", "serialize.export", None),
    ("serialize", "eigenfunction_csv", "serialize.export", None),
    ("serialize", "catalog_json_lines", "serialize.export", None),
    ("serialize", "load_eigenfunction", "serialize.load_eigenfunction", None),
    ("cache", "read_jsonl", "cache.read_jsonl", _hit),
    ("cache", "write_jsonl", "cache.write_jsonl", None),
]

# PolarSpace methods: (method, span name, count)
METHODS = [
    ("points", "polarspace.points", None),
    ("collinearity_bits", "polarspace.collinearity_bits", None),
    ("subspaces", "polarspace.subspaces", _NewLevels()),
    ("descriptor", "polarspace.descriptor", None),
]

# Pure functions that call no other wrapped function; counted per parent span.
LEAVES = [
    ("linalg", "rref", "linalg.rref"),
    ("forms", "is_totally_singular", "forms.is_totally_singular"),
]

# (module, attribute, name, count(args, kwargs)): calls and counts, no time.
COUNTERS = [
    ("parallel", "run_chunked", "parallel.run_chunked", _chunks),
]

# (module, attribute) that may be absent: deleting the fork pool leaves its
# metrics at 0, which is what a package without it does.
OPTIONAL = {("parallel", "run_chunked")}

MISSING_EXIT = 3


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.leaves = {}
        self.counters = {}

    def span(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count:
                rec[4] = count(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        leaves, stack = self.leaves, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                entry = leaves.get((name, stack[-1]))
                if entry is None:
                    leaves[(name, stack[-1])] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return wrapper

    def counter(self, name, fn, count):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = counters.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += count(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path, step_id, import_s):
        import json
        payload = {
            "step": step_id,
            "import_s": import_s,
            "spans": self.spans,
            "leaves": [[name, parent, calls, secs]
                       for (name, parent), (calls, secs) in self.leaves.items()],
            "counters": [[name, calls, count]
                         for name, (calls, count) in self.counters.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install(tracer):
    """Replace every listed function wherever the package looks it up.

    Returns the listed names the package no longer has, apart from those in
    OPTIONAL, which are skipped."""
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "polareig" or name.startswith("polareig.")}
    swaps = {}
    missing = []
    for wrap, table in ((tracer.span, FUNCTIONS), (tracer.leaf, LEAVES),
                        (tracer.counter, COUNTERS)):
        for mod, attr, name, *count in table:
            fn = getattr(mods.get("polareig." + mod), attr, None)
            if fn is not None:
                swaps[id(fn)] = wrap(name, fn, *count)
            elif (mod, attr) not in OPTIONAL:
                missing.append(f"{mod}.{attr}")
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if id(value) in swaps:
                setattr(mod, key, swaps[id(value)])
    space_cls = getattr(mods.get("polareig.polarspace"), "PolarSpace", None)
    for attr, name, count in METHODS:
        fn = vars(space_cls).get(attr) if space_cls else None
        if fn is not None:
            setattr(space_cls, attr, tracer.span(name, fn, count))
        else:
            missing.append(f"polarspace.PolarSpace.{attr}")
    formats = getattr(mods.get("polareig.serialize"), "GRAPH_FORMATS", None)
    if formats is None:
        missing.append("serialize.GRAPH_FORMATS")
    for key, fn in (formats or {}).items():
        formats[key] = swaps.get(id(fn)) or tracer.span("serialize.export", fn)
    return missing


def main():
    step_id, trace_out, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = perf_counter()
    import polareig.cli as cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    missing = install(tracer)
    if missing:
        print("polarbench launcher: the package has no " + ", ".join(missing)
              + "; update the tables in launcher.py", file=sys.stderr)
        sys.exit(MISSING_EXIT)
    sys.argv = ["polareig", *cli_args]
    code = 0
    try:
        tracer.span("cli", lambda: cli.main())()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(trace_out, step_id, import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
