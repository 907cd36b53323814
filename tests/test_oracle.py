from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (difference_pairs, reference_bipartite_pairs,
                      reference_isolated_pairs)
from polareig import cache, eigenfunctions as ef, graphs, linalg, oracle, serialize
from polareig.bitsets import bit_indices, cliques_within, complement, counts_differ
from polareig.cli import build_graph
from polareig.graphs import graph_from_edges
from polareig.oracle import (
    WitnessNotFound, check_characterisation, count_comparison,
    enumerate_bipartite_pairs, enumerate_isolated_clique_pairs,
)


def test_path_graph_has_no_isolated_edge_pairs():
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert len(enumerate_isolated_clique_pairs(p3, 2)) == 0


def test_c4_contains_exactly_its_own_bipartition():
    c4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    catalog = enumerate_bipartite_pairs(c4, 2)
    assert catalog.pairs == (((0, 2), (1, 3)),)
    assert catalog.outside_regular == (True,)


@pytest.mark.parametrize("fixture,s,count", [
    ("sp42", 2, 45), ("sp43", 3, 240), ("rook_o42", 2, 9), ("rook_o43", 3, 16),
    ("u44", 4, 135), ("gq_o62", 2, 270),
    ("vo_plus_2", 2, 36), ("vo_minus_2", 2, 60), ("vo_minus_3", 3, 1080),
])
def test_isolated_pair_counts(fixture, s, count, request):
    g = request.getfixturevalue(fixture)
    spec = graphs.spectrum(graphs.srg_check(g))
    assert s == spec.theta1 + 1
    assert len(enumerate_isolated_clique_pairs(g, s)) == count


def test_isolated_pairs_are_disjoint_cliques_with_no_cross_edges(sp42):
    catalog = enumerate_isolated_clique_pairs(sp42, 2)
    for t0, t1 in catalog.pairs:
        assert not set(t0) & set(t1)
        assert all(sp42.are_adjacent(x, y) for x, y in [t0, t1])
        assert not any(sp42.are_adjacent(x, y) for x in t0 for y in t1)


def test_isolated_pairs_yield_positive_eigenfunctions(sp42, vo_minus_2):
    for g in (sp42, vo_minus_2):
        params = graphs.srg_check(g)
        spec = graphs.spectrum(params)
        catalog = enumerate_isolated_clique_pairs(g, spec.theta1 + 1)
        for t0, t1 in catalog.pairs:
            values = {v: Fraction(1) for v in t0}
            values.update({v: Fraction(-1) for v in t1})
            f = ef.Eigenfunction(values, spec.theta1, {})
            assert ef.verify_eigenfunction(g, f).tight


def test_unitary_bipartite_catalog_contains_the_tight_pair(u44):
    catalog = enumerate_bipartite_pairs(u44, 3)
    assert catalog.counts() == {"total": 120, "outside_regular": 120,
                                "not_outside_regular": 0}
    f = ef.theta2_unitary(u44)
    t0, t1 = ef.unitary_pair_parts(f)
    key = (t0, t1) if t0 <= t1 else (t1, t0)
    assert key in set(catalog.pairs)


def test_outside_regular_bipartite_pairs_give_negative_eigenfunctions(u44):
    params = graphs.srg_check(u44)
    spec = graphs.spectrum(params)
    catalog = enumerate_bipartite_pairs(u44, -spec.theta2)
    for (t0, t1), regular in zip(catalog.pairs, catalog.outside_regular):
        values = {v: Fraction(1) for v in t0}
        values.update({v: Fraction(-1) for v in t1})
        f = ef.Eigenfunction(values, spec.theta2, {})
        if regular:
            assert ef.verify_eigenfunction(u44, f).tight


def test_undersized_bipartite_pairs_are_rejected_as_certificates(sp42):
    # induced K_{2,2} in a graph with theta2 = -3 can never be outside-regular:
    # a regular one would be a 4-support eigenfunction under the bound 6
    params = graphs.srg_check(sp42)
    spec = graphs.spectrum(params)
    catalog = enumerate_bipartite_pairs(sp42, 2)
    assert len(catalog) > 0
    assert not any(catalog.outside_regular)
    for t0, t1 in catalog.pairs:
        values = {v: Fraction(1) for v in t0}
        values.update({v: Fraction(-1) for v in t1})
        with pytest.raises(ef.NotAnEigenfunction):
            ef.verify_eigenfunction(sp42, ef.Eigenfunction(values, spec.theta2, {}))


@pytest.mark.parametrize("fixture", [
    "sp42", "sp43", "rook_o42", "rook_o43", "u44",
    "vo_plus_2", "vo_minus_2", "vo_minus_3",
])
def test_characterisation_finds_all_witnesses(fixture, request):
    g = request.getfixturevalue(fixture)
    spec = graphs.spectrum(graphs.srg_check(g))
    catalog = enumerate_isolated_clique_pairs(g, spec.theta1 + 1)
    report = check_characterisation(g, catalog, strict=False)
    assert report.clean
    assert report.matched == report.total == len(catalog)


def test_characterisation_raises_on_a_fake_pair(sp42):
    fake = oracle.PairCatalog("isolated_cliques", 2, (((0, 1), (2, 3)),), None)
    with pytest.raises(WitnessNotFound):
        check_characterisation(sp42, fake, strict=True)
    report = check_characterisation(sp42, fake, strict=False)
    assert report.counterexamples == (((0, 1), (2, 3)),)


def test_polar_witness_identifies_the_difference_pair(sp42):
    space = sp42.space
    L = space.subspaces(0)[0]
    t0, t1 = difference_pairs(space, L)[0]
    witness = oracle._polar_witness(space, list(t0), list(t1))
    assert witness is not None
    assert witness["L"] == L.key


@pytest.mark.parametrize("fixture,printed,derived,oracle_count", [
    ("sp42", 45, 45, 45),
    ("sp43", 240, 240, 240),
    ("rook_o42", 9, 9, 9),
    ("rook_o43", 16, 16, 16),
    ("u44", 135, 135, 135),
    ("gq_o62", 270, 270, 270),
    ("vo_plus_2", 720, 72, 36),
    ("vo_plus_3", 8640, 432, 432),
    ("vo_minus_2", 280, 60, 60),
    ("vo_minus_3", 10530, 1080, 1080),
])
def test_count_comparisons(fixture, printed, derived, oracle_count, request):
    g = request.getfixturevalue(fixture)
    c = count_comparison(g)
    assert (c.printed, c.derived, c.oracle) == (printed, derived, oracle_count)
    assert c.printed_matches == (printed == oracle_count)
    assert c.derived_matches == (derived == oracle_count)


def test_catalog_counts_are_shift_invariant(vo_plus_2, vo_minus_2):
    # relabelling by any translation automorphism must not change the census
    for g in (vo_plus_2, vo_minus_2):
        ctx = g.ctx
        spec = graphs.spectrum(graphs.srg_check(g))
        s = spec.theta1 + 1
        base = len(enumerate_isolated_clique_pairs(g, s))
        keys = [linalg.vec_key(v) for v in g.vertices]
        for shift in keys:
            perm = [g.vec_index[tuple(ctx.add_i(a, b) for a, b in zip(v, shift))]
                    for v in keys]
            adj = [0] * g.n
            for i in range(g.n):
                for j in g.neighbours(i):
                    adj[perm[i]] |= 1 << perm[j]
            relabeled = graphs.PolarGraph(list(range(g.n)), adj,
                                          {"family": "custom"})
            assert len(enumerate_isolated_clique_pairs(relabeled, s)) == base


@pytest.mark.parametrize("family,size,q", [
    ("sp", 2, 3), ("sp", 2, 2), ("u", 2, 4), ("o+", 3, 2), ("vo+", 2, 2),
    ("vo-", 2, 2),
])
def test_isolated_catalog_matches_reference(family, size, q, tmp_path):
    affine = family.startswith("vo")
    g = build_graph(family, q, None if affine else size, size if affine else None)
    s = graphs.spectrum(g.srg_params()).theta1 + 1
    paths = []
    for run in ("first", "second"):
        catalog = enumerate_isolated_clique_pairs(g, s)
        assert catalog.pairs and list(catalog.pairs) == reference_isolated_pairs(g, s)
        header, lines = serialize.catalog_json_lines(catalog, g.provenance)
        path = tmp_path / f"catalog_{run}.jsonl"
        cache.write_jsonl(path, header, lines)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("family,size,q,s", [
    ("sp", 2, 2, 2), ("sp", 2, 2, 3), ("u", 2, 4, 3), ("o+", 3, 2, 3),
    ("vo+", 2, 2, 3), ("sp", 2, 3, 4),
])
def test_bipartite_catalog_matches_reference(family, size, q, s):
    affine = family.startswith("vo")
    g = build_graph(family, q, None if affine else size, size if affine else None)
    catalog = enumerate_bipartite_pairs(g, s)
    assert catalog.pairs
    assert (catalog.pairs, catalog.outside_regular) == reference_bipartite_pairs(g, s)


@st.composite
def graphs_with_part_size(draw, joined):
    """A random graph on at most 12 vertices, in half the draws that have
    room with two s-sets planted in it, and the part size s.  The planted
    pair is an induced K_{s,s} when joined, and an isolated pair of s-cliques
    otherwise."""
    n = draw(st.integers(1, 12))
    s = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {pair for pair in pairs if draw(st.booleans())}
    if 2 * s <= n and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        side = {v: k // s for k, v in enumerate(order[:2 * s])}
        for i, j in pairs:
            if i in side and j in side:
                crossing = side[i] != side[j]
                (edges.add if crossing == joined else edges.discard)((i, j))
    return graph_from_edges(n, sorted(edges)), s


@settings(max_examples=300, deadline=None)
@given(case=graphs_with_part_size(joined=True))
def test_bipartite_catalog_matches_reference_on_random_graphs(case):
    g, s = case
    catalog = enumerate_bipartite_pairs(g, s)
    assert (catalog.pairs, catalog.outside_regular) == reference_bipartite_pairs(g, s)


@settings(max_examples=300, deadline=None)
@given(case=graphs_with_part_size(joined=False))
def test_isolated_catalog_matches_reference_on_random_graphs(case):
    g, s = case
    assert list(enumerate_isolated_clique_pairs(g, s).pairs) == reference_isolated_pairs(g, s)


@settings(max_examples=300, deadline=None)
@given(joined=st.booleans(), data=st.data())
def test_kept_masks_match_the_brute_force_masks_on_random_graphs(joined, data):
    """With keep, cliques_within yields the plain cliques whose brute-force
    mask keeps at least s vertices, in the same order and with that mask:
    on the (adj, keep) pair of the scan the planted pair serves, and on a
    random symmetric keep, the adjacency of a second random graph."""
    g, s = data.draw(graphs_with_part_size(joined=joined))
    full = (1 << g.n) - 1
    comp = complement(g.adj)
    adj, scan_keep = (comp, g.adj) if joined else (g.adj, comp)
    pool = data.draw(st.one_of(st.just(full), st.integers(0, full)))
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    flags = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    random_keep = graph_from_edges(g.n, [p for p, f in zip(pairs, flags) if f]).adj
    for keep in (scan_keep, random_keep):
        expected = []
        for c in cliques_within(adj, pool, s):
            low = (c & -c).bit_length()  # one past the least member
            kept = full >> low << low
            for v in bit_indices(c):
                kept &= keep[v]
            if kept.bit_count() >= s:
                expected.append((c, kept))
        assert list(cliques_within(adj, pool, s, keep)) == expected


@pytest.mark.parametrize("family,size,q,count", [
    ("o+", 3, 3, 520), ("o-", 3, 2, 10710), ("vo+", 2, 4, 1600),
])
def test_isolated_pair_counts_where_the_partner_pool_prunes(family, size, q, count):
    # most cliques here keep fewer than s vertices off their neighbourhood,
    # so the scan drops them before they are complete
    affine = family.startswith("vo")
    g = build_graph(family, q, None if affine else size, size if affine else None)
    s = graphs.spectrum(g.srg_params()).theta1 + 1
    assert len(enumerate_isolated_clique_pairs(g, s)) == count


def test_counter_comparison_pads_the_shorter_plane_list():
    # counts 1, 3, 0 on vertices 0, 1, 2 against 1, 1, 0
    three = [0b011, 0b010]
    assert not counts_differ(three, [0b011], 0b101)
    assert counts_differ(three, [0b011], 0b111) == 0b010
    assert counts_differ([0b011], three, 0b010) == 0b010


@pytest.mark.parametrize("fixture,count", [("u44", 120), ("u49", 2835)])
def test_unitary_bipartite_count_matches_the_secant_line_pairs(fixture, count, request):
    # an induced K_{q+1,q+1} of H(3, q^2) is the pair {l, l^perp} of secant
    # lines, and there are q^4 (q^2 + 1)(q^2 - q + 1) secant lines
    g = request.getfixturevalue(fixture)
    q = g.ctx.sqrt_q
    catalog = enumerate_bipartite_pairs(g, -graphs.spectrum(g.srg_params()).theta2)
    assert len(catalog) == q ** 4 * (q * q + 1) * (q * q - q + 1) // 2 == count
    assert all(catalog.outside_regular)
