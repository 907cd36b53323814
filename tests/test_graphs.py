import importlib.util
import itertools
import re
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from conftest import (
    _reference_independent_sets, charpoly_root_check, make_collinearity,
    maximal_cliques, pentagon, reference_cliques,
)
from polareig import cli, forms, graphs, linalg
from polareig.bitsets import bit_indices, cliques_within, connected, counter_planes
from polareig.gf import field_new
from polareig.graphs import (
    CliqueInfo, FewerThanTwoCliques, Imprimitive, IrrationalEigenvalues,
    NotRegular, NotStronglyRegular, RankTooLow, SrgParams,
    affine_polar_graph, cliques_of_size, delsarte_cliques,
    graph_from_edges, max_intersecting_delsarte_pair, spectrum, srg_check,
)


def test_srg_examples(sp42, rook_o42, u44):
    assert srg_check(sp42).as_tuple() == (15, 6, 1, 3)
    assert srg_check(rook_o42).as_tuple() == (9, 4, 1, 2)
    assert srg_check(u44).as_tuple() == (45, 12, 3, 3)


def test_srg_check_pentagon():
    assert srg_check(pentagon()).as_tuple() == (5, 2, 0, 1)


def test_srg_check_rejections():
    k5 = graph_from_edges(5, itertools.combinations(range(5), 2))
    with pytest.raises(Imprimitive):
        srg_check(k5)
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegular):
        srg_check(path)
    two_triangles = graph_from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(Imprimitive):
        srg_check(two_triangles)
    c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(NotStronglyRegular):
        srg_check(c6)


def _reference_srg_check(g):
    """srg_check as the pair loop it replaced: every pair i < j, in order."""
    n, adj = g.n, g.adj
    if n == 0:
        raise graphs.GraphError("empty graph")
    k = adj[0].bit_count()
    for i in range(1, n):
        if adj[i].bit_count() != k:
            raise NotRegular(f"vertex {i} has degree {adj[i].bit_count()} != {k}")
    if not connected(adj, n):
        raise Imprimitive("graph is disconnected")
    full = (1 << n) - 1
    comp = [full ^ adj[i] ^ (1 << i) for i in range(n)]
    if not connected(comp, n):
        raise Imprimitive("complement is disconnected")
    lam = mu = None
    for i in range(n):
        row = adj[i]
        for j in range(i + 1, n):
            c = (row & adj[j]).bit_count()
            if row >> j & 1:
                if lam is None:
                    lam = c
                elif c != lam:
                    raise NotStronglyRegular(
                        f"adjacent pair ({i},{j}) has {c} common neighbours, not {lam}")
            else:
                if mu is None:
                    mu = c
                elif c != mu:
                    raise NotStronglyRegular(
                        f"non-adjacent pair ({i},{j}) has {c} common neighbours, not {mu}")
    if lam is None or mu is None:
        raise Imprimitive("graph or complement is complete")
    return SrgParams(n, k, lam, mu)


def _outcome(check, g):
    """The parameters, or the class and message of the error raised."""
    try:
        return check(g)
    except graphs.GraphError as exc:
        return type(exc), str(exc)


def _grid_instances():
    script = Path(__file__).resolve().parent.parent / "scripts" / "build_grid.py"
    spec = importlib.util.spec_from_file_location("build_grid", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # rank-1 elliptic spaces are a builder error, not a graph
    return [entry for entry in module.GRID if entry[:2] != ("o-", 1)]


@pytest.mark.parametrize("family,size,q", _grid_instances(),
                         ids=lambda entry: str(entry))
def test_srg_check_equals_the_pair_loop_on_the_grid(family, size, q):
    affine = family.startswith("vo")
    g = cli.build_graph(family, q, None if affine else size, size if affine else None)
    assert srg_check(g) == _reference_srg_check(g)


def _cube():
    return graph_from_edges(8, [(a, a ^ 1 << b) for a in range(8) for b in range(3)
                                if a < a ^ 1 << b])


def _switched(g, e, f):
    """g with the edges e = (a, b) and f = (c, d) replaced by (a, c) and
    (b, d), a 2-switch that keeps the degrees; None when it is not one."""
    (a, b), (c, d) = e, f
    if len({a, b, c, d}) < 4 or g.are_adjacent(a, c) or g.are_adjacent(b, d):
        return None
    edges = set(g.edges()) - {e, f} | {tuple(sorted(x)) for x in ((a, c), (b, d))}
    return graph_from_edges(g.n, edges)


def _first_switch(g):
    return next(s for e, f in itertools.combinations(sorted(g.edges()), 2)
                if (s := _switched(g, e, f)) is not None)


def _failing_pairs(g, lam, mu):
    adj = g.adj
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
            if (adj[i] & adj[j]).bit_count() != (lam if adj[i] >> j & 1 else mu)]


def _placed_switch(g, placement):
    """The first 2-switch of g, relabelled to move its first failing pair
    (i, j) back.  A switch breaks a pair through each vertex it touches, so
    i is at most v minus the number of touched vertices.  Vertex 0 stays
    untouched, so lambda and mu are those of g.

    "late-row": the touched vertices take the last labels, so i is as late
    as the switch allows.  "late-column": so is i, and the touched vertex
    with the fewest failing partners takes label i and its partners the
    very last labels, so j lies in the last rows."""
    params = srg_check(g)
    s = _first_switch(g)
    bad = _failing_pairs(s, params.lam, params.mu)
    touched = sorted({v for pair in bad for v in pair})
    order = [v for v in range(g.n) if v not in set(touched)]
    if placement == "late-row":
        order += touched
    else:
        def partners(v):
            return {x for pair in bad if v in pair for x in pair} - {v}

        first = min(touched, key=lambda v: (len(partners(v)), v))
        last = partners(first)
        order += ([first] + [v for v in touched if v != first and v not in last]
                  + sorted(last))
    label = {v: i for i, v in enumerate(order)}
    return graph_from_edges(g.n, [(label[i], label[j]) for i, j in s.edges()])


# 2-switches of graphs larger than one block of srg_check (128 rows), with
# the row and column blocks of their first failing pair.  v = 130 and 364
# are not multiples of 8, and no switch of these graphs can move i into the
# last block: it touches more vertices than that block has rows.
_O33, _U9, _SP33 = (make_collinearity("o+", 6, 3), graphs.unitary_graph(field_new(3, 2)),
                    make_collinearity("sp", 6, 3))
BLOCK_CASES = {
    "o+33-first": (_first_switch(_O33), 0, 0),
    "o+33-late-column": (_placed_switch(_O33, "late-column"), 0, 1),
    "u9-first": (_first_switch(_U9), 0, 0),
    "u9-late-row": (_placed_switch(_U9, "late-row"), 1, 1),
    "u9-late-column": (_placed_switch(_U9, "late-column"), 1, 2),
    "sp33-first": (_first_switch(_SP33), 0, 0),
    "sp33-late-row": (_placed_switch(_SP33, "late-row"), 0, 0),
    "sp33-late-column": (_placed_switch(_SP33, "late-column"), 0, 2),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_cases_fail_first_in_the_blocks_they_name(case):
    g, row_block, column_block = BLOCK_CASES[case]
    kind, message = _outcome(_reference_srg_check, g)
    assert kind is NotStronglyRegular
    i, j = map(int, re.search(r"\((\d+),(\d+)\)", message).groups())
    assert (i // graphs._BLOCK, j // graphs._BLOCK) == (row_block, column_block)


@pytest.mark.parametrize("g", [
    graph_from_edges(0, []),
    graph_from_edges(1, []),
    graph_from_edges(2, [(0, 1)]),
    graph_from_edges(5, itertools.combinations(range(5), 2)),
    graph_from_edges(3, [(0, 1), (1, 2)]),
    graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)]),
    graph_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)]),
    _cube(),
    _first_switch(make_collinearity("sp", 4, 2)),
    # regular, with its first failure on an adjacent pair
    graph_from_edges(7, [(i, (i + s) % 7) for i in range(7) for s in (1, 2)]),
    *(g for g, _, _ in BLOCK_CASES.values()),
], ids=["empty", "K1", "K2", "K5", "path", "two-triangles", "C6", "K33", "cube",
        "switched-sp42", "circulant-7-12", *BLOCK_CASES])
def test_srg_check_equals_the_pair_loop_on_crafted_graphs(g):
    assert _outcome(srg_check, g) == _outcome(_reference_srg_check, g)


@st.composite
def small_graphs(draw):
    """Random graphs, circulants (regular, often not strongly regular) and
    relabelled strongly regular graphs after one 2-switch."""
    kind = draw(st.sampled_from(("random", "circulant", "switched")))
    if kind == "random":
        return draw(graphs_with_pool())[0]
    if kind == "circulant":
        n = draw(st.integers(1, 24))
        jumps = draw(st.sets(st.integers(1, max(1, n // 2))))
        return graph_from_edges(n, {tuple(sorted((i, (i + s) % n)))
                                    for i in range(n) for s in jumps if s % n})
    base = draw(st.sampled_from((pentagon(), make_collinearity("sp", 4, 2),
                                 make_collinearity("o+", 4, 3))))
    perm = draw(st.permutations(range(base.n)))
    g = graph_from_edges(base.n, [(perm[i], perm[j]) for i, j in base.edges()])
    e, f = draw(st.lists(st.sampled_from(sorted(g.edges())), min_size=2, max_size=2,
                         unique=True))
    return _switched(g, e, f) or g


@settings(max_examples=300, deadline=None)
@given(g=small_graphs())
def test_srg_check_equals_the_pair_loop_on_random_graphs(g):
    assert _outcome(srg_check, g) == _outcome(_reference_srg_check, g)


def test_rank_too_low():
    with pytest.raises(RankTooLow):
        make_collinearity("o-", 4, 2)
    with pytest.raises(RankTooLow):
        make_collinearity("o-", 4, 3)


def test_spectrum_examples():
    assert spectrum(SrgParams(15, 6, 1, 3)).theta1 == 1
    assert spectrum(SrgParams(15, 6, 1, 3)).theta2 == -3
    s = spectrum(SrgParams(45, 12, 3, 3))
    assert (s.theta1, s.theta2) == (3, -3)
    s = spectrum(SrgParams(16, 5, 0, 2))
    assert (s.theta1, s.theta2) == (1, -3)


def test_spectrum_multiplicities_are_consistent():
    for params in [SrgParams(15, 6, 1, 3), SrgParams(40, 12, 2, 4),
                   SrgParams(280, 36, 8, 4), SrgParams(81, 20, 1, 6)]:
        s = spectrum(params)
        assert 1 + s.m1 + s.m2 == params.v
        assert params.k + s.m1 * s.theta1 + s.m2 * s.theta2 == 0


def test_spectrum_conference_case_is_rejected():
    with pytest.raises(IrrationalEigenvalues):
        spectrum(SrgParams(5, 2, 0, 1))


def test_feasibility_identity_on_grid(sp42, sp43, u44, vo_plus_3, vo_minus_3):
    for g in (sp42, sp43, u44, vo_plus_3, vo_minus_3):
        v, k, lam, mu = srg_check(g).as_tuple()
        assert k * (k - lam - 1) == (v - k - 1) * mu


def test_unitary_graph_equals_collinearity_of_the_hermitian_space(u44):
    other = make_collinearity("u", 4, 2, 2)
    assert [linalg.vec_key(p.rep) for p in u44.vertices] \
        == [linalg.vec_key(p.rep) for p in other.vertices]
    assert u44.adj == other.adj
    assert u44.provenance["kind"] == "unitary"


def test_affine_adjacency_matches_definition(vo_minus_2):
    # oracle: re-derive adjacency pairwise from Q(x - y) = 0
    g = vo_minus_2
    form = g.space.form
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            expected = i != j and forms.eval_form(
                form, tuple(a - b for a, b in zip(x, y))).is_zero()
            assert g.are_adjacent(i, j) == expected


def test_affine_vertex_count_and_regularity(vo_plus_3):
    assert vo_plus_3.n == 3 ** 4
    k = (3 + 1) ** 2 * (3 - 1)  # nonzero singular vectors of the hyperbolic form
    assert all(vo_plus_3.degree(i) == k for i in range(vo_plus_3.n))


def test_delsarte_cliques_sp42_are_the_singular_lines(sp42):
    cliques = delsarte_cliques(sp42)
    assert len(cliques) == 15
    assert all(c.is_delsarte and c.nexus == 1 and len(c) == 3 for c in cliques)
    line_point_sets = {line.point_indices() for line in sp42.space.subspaces(1)}
    assert {c.vertices for c in cliques} == line_point_sets


def test_delsarte_cliques_affine_and_unitary(vo_plus_2, vo_minus_2, u44):
    vp = delsarte_cliques(vo_plus_2)
    assert len(vp) == 24 and all(len(c) == 4 for c in vp)
    assert delsarte_cliques(vo_minus_2) == []
    uu = delsarte_cliques(u44)
    assert len(uu) == 27 and all(len(c) == 5 and c.nexus == 1 for c in uu)


@pytest.mark.parametrize("fixture", [
    "sp42", "sp43", "rook_o43", "gq_o62", "u44", "vo_plus_2", "vo_minus_3",
])
def test_cliques_of_size_lists_every_clique_in_vertex_tuple_order(fixture, request):
    g = request.getfixturevalue(fixture)
    for s in range(6):
        got = cliques_of_size(g, s)
        assert isinstance(got, list)
        tuples = [bit_indices(c) for c in got]
        assert tuples == sorted(tuples)
        assert tuples == sorted(bit_indices(c) for c in reference_cliques(g, s))


@st.composite
def graphs_with_pool(draw):
    """A random graph on at most 12 vertices, a vertex bitset and a size."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    return (graph_from_edges(n, edges), draw(st.integers(0, (1 << n) - 1)),
            draw(st.integers(0, 4)))


@settings(max_examples=300, deadline=None)
@given(case=graphs_with_pool())
def test_cliques_within_lists_the_cliques_inside_the_pool(case):
    g, pool, s = case
    got = list(cliques_within(g.adj, pool, s))
    tuples = [bit_indices(c) for c in got]
    assert tuples == sorted(tuples)
    # as in reference_cliques, no clique is listed for s < 1
    assert got == (_reference_independent_sets(g.adj, pool, s) if s else [])


@settings(max_examples=200, deadline=None)
@given(case=graphs_with_pool())
def test_counter_planes_count_the_neighbours_in_part(case):
    g, part, _ = case
    planes = counter_planes(g.adj, part)
    for u in range(g.n):
        count = sum((plane >> u & 1) << b for b, plane in enumerate(planes))
        assert count == (g.adj[u] & part).bit_count()


def test_counter_planes_on_an_empty_part_and_one_vertex():
    assert counter_planes([0b110, 0b101, 0b011], 0) == []
    assert counter_planes([0], 0) == []
    assert not any(counter_planes([0], 1))


def test_max_intersecting_pair_examples(sp42, rook_o42, vo_plus_2, u44, sp43,
                                        rook_o43, gq_o62, vo_plus_3):
    for g, expected in ((sp42, 1), (rook_o42, 1), (vo_plus_2, 2), (u44, 1),
                        (sp43, 1), (rook_o43, 1), (gq_o62, 1), (vo_plus_3, 3)):
        c0, c1 = max_intersecting_delsarte_pair(g)
        assert (c0.bits() & c1.bits()).bit_count() == expected
        # the first pair of the full scan with the largest intersection
        cliques = [c for c in delsarte_cliques(g) if c.is_delsarte]
        assert (c0, c1) == max(itertools.combinations(cliques, 2),
                               key=lambda p: (p[0].bits() & p[1].bits()).bit_count())


def _stub_stream(monkeypatch, vertex_tuples, nexus=1):
    """Make the clique stream yield these cliques; a tuple ending in None is
    not Delsarte.  Returns the Delsarte ones."""
    cliques = [CliqueInfo(t[:-1], False, None) if t[-1] is None
               else CliqueInfo(t, True, nexus) for t in vertex_tuples]
    monkeypatch.setattr(graphs, "_sized_cliques", lambda g: iter(cliques))
    return [c for c in cliques if c.is_delsarte]


def _full_scan(cliques):
    return max(itertools.combinations(cliques, 2),
               key=lambda p: (p[0].bits() & p[1].bits()).bit_count())


def test_max_pair_falls_back_past_clique_zero(monkeypatch):
    # clique 0 meets no other clique, so the pair comes from row 1
    cliques = _stub_stream(monkeypatch, [(0, 1, 2), (3, 4, 5), (4, 6, None),
                                         (3, 6, 7), (8, 9, 10)])
    pair = max_intersecting_delsarte_pair(pentagon())
    assert pair == _full_scan(cliques)
    assert [c.vertices for c in pair] == [(3, 4, 5), (3, 6, 7)]


def test_max_pair_falls_back_to_the_best_below_the_nexus(monkeypatch):
    # no pair reaches the nexus 2: the first pair of the largest meet wins
    cliques = _stub_stream(monkeypatch, [(0, 1, 2), (2, 3, 4), (5, 6, 7),
                                         (5, 8, 9)], nexus=2)
    pair = max_intersecting_delsarte_pair(pentagon())
    assert pair == _full_scan(cliques)
    assert [c.vertices for c in pair] == [(0, 1, 2), (2, 3, 4)]


def test_max_pair_stops_at_the_first_nexus_meet_with_clique_zero(monkeypatch):
    class Unread(CliqueInfo):
        def bits(self):
            raise AssertionError("a clique after the pair was read")

    cliques = [CliqueInfo((0, 1, 2), True, 1), CliqueInfo((3, 4, 5), True, 1),
               CliqueInfo((2, 6, 7), True, 1), Unread((0, 8, 9), True, 1)]
    monkeypatch.setattr(graphs, "_sized_cliques", lambda g: iter(cliques))
    assert max_intersecting_delsarte_pair(pentagon()) == (cliques[0], cliques[2])


@pytest.mark.parametrize("found", [0, 1])
def test_max_pair_needs_two_delsarte_cliques(found, monkeypatch):
    _stub_stream(monkeypatch, [(0, 1, None), (0, 1, 2)][:found + 1])
    with pytest.raises(FewerThanTwoCliques, match=f"found {found} "):
        max_intersecting_delsarte_pair(pentagon())


def test_rook_same_regulus_lines_are_disjoint(rook_o42):
    cliques = delsarte_cliques(rook_o42)
    sizes = {(a.bits() & b.bits()).bit_count()
             for a, b in itertools.combinations(cliques, 2)}
    assert sizes == {0, 1}


def test_fewer_than_two_cliques(vo_minus_2):
    with pytest.raises(FewerThanTwoCliques):
        max_intersecting_delsarte_pair(vo_minus_2)


@pytest.mark.parametrize("epsilon", [1, -1])
def test_shift_maps_are_automorphisms(epsilon):
    g = affine_polar_graph(2, epsilon, field_new(2, 1))
    ctx = g.ctx
    keys = [linalg.vec_key(v) for v in g.vertices]
    for shift in keys:
        perm = [g.vec_index[tuple(ctx.add_i(a, b) for a, b in zip(v, shift))]
                for v in keys]
        for i in range(g.n):
            for j in range(i + 1, g.n):
                assert g.are_adjacent(i, j) == g.are_adjacent(perm[i], perm[j])


@pytest.mark.parametrize("epsilon", [1, -1])
def test_every_maximal_clique_is_a_singular_coset(epsilon):
    # unique maximal singular M with C = v + Aff(M), for every maximal clique C
    g = affine_polar_graph(2, epsilon, field_new(2, 1))
    ctx = g.ctx
    space = g.space
    expected_size = 2 ** (2 if epsilon == 1 else 1)
    cosets = {}
    for M in space.maximals():
        aff = linalg.span_i(ctx, M.rows(), 4)
        for v in (linalg.vec_key(x) for x in g.vertices):
            coset = frozenset(
                g.vec_index[tuple(ctx.add_i(a, b) for a, b in zip(v, w))]
                for w in aff)
            cosets.setdefault(coset, set()).add(M.key)
    found = maximal_cliques(g)
    assert all(len(c) == expected_size for c in found)
    assert {frozenset(c) for c in found} == set(cosets)
    assert all(len(ms) == 1 for ms in cosets.values())


@pytest.mark.parametrize("p", [2, 3])
def test_elliptic_neighbour_trichotomy_exhaustive(p):
    g = affine_polar_graph(2, -1, field_new(p, 1))
    ctx = g.ctx
    q = ctx.q
    space = g.space
    keys = [linalg.vec_key(v) for v in g.vertices]
    for M in space.maximals():
        aff = linalg.span_i(ctx, M.rows(), 4)
        perp_basis = forms.perp(space.form, M.basis)
        perp_keys = set(linalg.span_i(
            ctx, [linalg.vec_key(r) for r in perp_basis], 4))
        for v in keys:
            clique = 0
            for w in aff:
                clique |= 1 << g.vec_index[tuple(ctx.add_i(a, b)
                                                 for a, b in zip(v, w))]
            perp_coset = {tuple(ctx.add_i(a, b) for a, b in zip(v, w))
                          for w in perp_keys}
            for z in range(g.n):
                count = (g.adj[z] & clique).bit_count()
                if clique >> z & 1:
                    assert count == q - 1          # q^(m-1) - 1 with m = 2
                elif keys[z] in perp_coset:
                    assert count == 0
                else:
                    assert count == 1              # q^(m-2) with m = 2


@pytest.mark.parametrize("fixture", [
    "sp42", "sp43", "rook_o42", "rook_o43", "gq_o62", "u44",
    "vo_plus_2", "vo_minus_2", "vo_plus_3", "vo_minus_3",
])
def test_parameter_spectrum_matches_exact_characteristic_polynomial(
        fixture, request):
    g = request.getfixturevalue(fixture)
    params = srg_check(g)
    s = spectrum(params)
    assert charpoly_root_check(g, s.theta1)
    assert charpoly_root_check(g, s.theta2)
    assert charpoly_root_check(g, params.k)
    probe = s.theta1 + 1
    if probe not in (params.k, s.theta1, s.theta2):
        assert not charpoly_root_check(g, probe)
