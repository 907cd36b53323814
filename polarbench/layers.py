"""Per-layer metrics from the span dumps that launcher.py writes.

`*.s` is the time from entering to leaving the outermost call of that name
(nested calls of the same name are not counted twice); `*.self_s` is each
call's time minus the time of the wrapped calls nested directly inside it.
Counts are exact.  Every metric is printed on every workload, so one of a
layer the workload never enters reads 0.  This module owns the list of
per-layer metrics; BENCHMARK.json's `per_layer` block repeats it.
"""

from collections import defaultdict


def _add_step(totals, dump):
    spans = dump["spans"]
    dur = [end - start for _, start, end, _, _ in spans]
    nested = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            nested[parent] += dur[i]

    def within(i, name):
        while i >= 0:
            if spans[i][0] == name:
                return True
            i = spans[i][3]
        return False

    for name, parent, calls, secs in dump["leaves"]:
        if parent >= 0:
            nested[parent] += secs
        totals["calls", name] += calls
        totals["s", name] += secs
        if name == "linalg.rref" and within(parent, "polarspace.subspaces"):
            totals["rref_in", "polarspace.subspaces"] += calls
    for name, calls, count in dump["counters"]:
        totals["calls", name] += calls
        totals["count", name] += count
    for i, (name, _, _, parent, count) in enumerate(spans):
        totals["calls", name] += 1
        totals["self_s", name] += dur[i] - nested[i]
        if not within(parent, name):
            totals["s", name] += dur[i]
        if count is not None:
            totals["count", name] += count
            if name == "graphs.cliques_of_size" and parent >= 0:
                totals["count", "cliques_in", spans[parent][0]] += count
    totals["import_s", "cli"] += dump["import_s"]


def _rref_per_subspace(t):
    found = t["count", "polarspace.subspaces"]
    return t["rref_in", "polarspace.subspaces"] / found if found else 0.0


# name, unit, value from the summed totals of one pass
PER_LAYER = [
    ("cli.import_s", "s", lambda t: t["import_s", "cli"]),
    ("cli.self_s", "s", lambda t: t["self_s", "cli"]),
    ("gf.field_from_order.s", "s", lambda t: t["s", "gf.field_from_order"]),
    ("forms.standard_form.s", "s", lambda t: t["s", "forms.standard_form"]),
    ("forms.is_totally_singular.calls", "count",
     lambda t: t["calls", "forms.is_totally_singular"]),
    ("linalg.rref.calls", "count", lambda t: t["calls", "linalg.rref"]),
    ("linalg.rref.s", "s", lambda t: t["s", "linalg.rref"]),
    ("polarspace.points.s", "s", lambda t: t["s", "polarspace.points"]),
    ("polarspace.collinearity_bits.s", "s",
     lambda t: t["s", "polarspace.collinearity_bits"]),
    ("polarspace.subspaces.self_s", "s",
     lambda t: t["self_s", "polarspace.subspaces"]),
    ("polarspace.subspaces.found", "count",
     lambda t: t["count", "polarspace.subspaces"]),
    ("polarspace.rref_per_subspace", "calls/subspace", _rref_per_subspace),
    ("polarspace.descriptor.s", "s", lambda t: t["s", "polarspace.descriptor"]),
    ("graphs.build.s", "s", lambda t: t["s", "graphs.build"]),
    ("graphs.srg_check.calls", "count", lambda t: t["calls", "graphs.srg_check"]),
    ("graphs.srg_check.s", "s", lambda t: t["s", "graphs.srg_check"]),
    ("graphs.cliques_of_size.s", "s", lambda t: t["s", "graphs.cliques_of_size"]),
    ("graphs.cliques_of_size.found", "count",
     lambda t: t["count", "graphs.cliques_of_size"]),
    ("graphs.delsarte_cliques.self_s", "s",
     lambda t: t["self_s", "graphs.delsarte_cliques"]),
    ("graphs.max_intersecting_delsarte_pair.s", "s",
     lambda t: t["s", "graphs.max_intersecting_delsarte_pair"]),
    ("eigenfunctions.construct.s", "s",
     lambda t: t["s", "eigenfunctions.construct"]),
    ("eigenfunctions.verify_eigenfunction.calls", "count",
     lambda t: t["calls", "eigenfunctions.verify_eigenfunction"]),
    ("eigenfunctions.verify_eigenfunction.s", "s",
     lambda t: t["s", "eigenfunctions.verify_eigenfunction"]),
    ("oracle.enumerate_isolated_clique_pairs.self_s", "s",
     lambda t: t["self_s", "oracle.enumerate_isolated_clique_pairs"]),
    ("oracle.isolated.cliques", "count",
     lambda t: t["count", "cliques_in", "oracle.enumerate_isolated_clique_pairs"]),
    ("oracle.isolated.pairs", "count",
     lambda t: t["count", "oracle.enumerate_isolated_clique_pairs"]),
    ("oracle.enumerate_bipartite_pairs.self_s", "s",
     lambda t: t["self_s", "oracle.enumerate_bipartite_pairs"]),
    ("oracle.bipartite.pairs", "count",
     lambda t: t["count", "oracle.enumerate_bipartite_pairs"]),
    ("oracle.count_comparison.self_s", "s",
     lambda t: t["self_s", "oracle.count_comparison"]),
    ("parallel.run_chunked.calls", "count",
     lambda t: t["calls", "parallel.run_chunked"]),
    ("parallel.chunks", "count", lambda t: t["count", "parallel.run_chunked"]),
    ("serialize.export.s", "s", lambda t: t["s", "serialize.export"]),
    ("serialize.load_eigenfunction.s", "s",
     lambda t: t["s", "serialize.load_eigenfunction"]),
    ("cache.read_jsonl.s", "s", lambda t: t["s", "cache.read_jsonl"]),
    ("cache.read_jsonl.hits", "count", lambda t: t["count", "cache.read_jsonl"]),
    ("cache.read_jsonl.misses", "count",
     lambda t: t["calls", "cache.read_jsonl"] - t["count", "cache.read_jsonl"]),
    ("cache.write_jsonl.s", "s", lambda t: t["s", "cache.write_jsonl"]),
]

# Computed by run.py from the whole run rather than from one pass's dumps:
# the cache writes of the traced preparation, and the traced passes' wall_s
# minus the untraced passes' wall_s.
RUN_LEVEL = [("cache.write_jsonl.setup_s", "s"), ("trace.overhead_s", "s")]

UNITS = {**{name: unit for name, unit, _ in PER_LAYER}, **dict(RUN_LEVEL)}


def pass_metrics(dumps):
    """Metric name -> value, summed over the steps (one dump each) of a pass."""
    totals = defaultdict(int)
    for dump in dumps:
        _add_step(totals, dump)
    return {name: value(totals) for name, _, value in PER_LAYER}
