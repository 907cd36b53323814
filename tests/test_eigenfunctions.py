import hashlib
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_collinearity, reference_verify_eigenfunction
from polareig import eigenfunctions as ef
from polareig import forms, graphs, linalg, polarspace, serialize
from polareig.eigenfunctions import (
    Eigenfunction, NotAnEigenfunction, NotDelsarte, NotInSigmaL,
    NotMaxIntersection, NotNonPrincipal, TInAffM, TNotInPerp, ZeroFunction,
    theta1_elliptic, theta1_from_clique_pair, theta1_hyperbolic, theta1_polar,
    theta2_unitary, verify_eigenfunction, wdb,
)
from polareig.gf import field_new, norm_one_subgroup, primitive_element


def test_wdb_examples(sp42, u44, vo_minus_2):
    assert wdb(1, graphs.srg_check(sp42)) == 4
    assert wdb(-3, graphs.srg_check(u44)) == 6
    assert wdb(1, graphs.srg_check(vo_minus_2)) == 4


def test_wdb_rejects_other_eigenvalues(sp42):
    params = graphs.srg_check(sp42)
    with pytest.raises(NotNonPrincipal):
        wdb(2, params)
    with pytest.raises(NotNonPrincipal):
        wdb(params.k, params)


def test_wdb_raises_when_bound_and_spectrum_disagree(sp42, monkeypatch):
    params = graphs.srg_check(sp42)
    wrong = graphs.SpectrumInfo(theta1=2, theta2=-3, m1=0, m2=0)
    monkeypatch.setattr(ef.graphs, "spectrum", lambda _params: wrong)
    with pytest.raises(ef.EigenfunctionError):
        wdb(2, params)


def test_all_ones_is_a_principal_eigenfunction(sp42):
    f = Eigenfunction({i: Fraction(1) for i in range(sp42.n)}, 6, {})
    report = verify_eigenfunction(sp42, f)
    assert report.bound is None and not report.tight
    assert report.support_size == 15


def test_zero_function_rejected(sp42):
    with pytest.raises(ZeroFunction):
        verify_eigenfunction(sp42, Eigenfunction({}, 1, {}))
    with pytest.raises(ZeroFunction):
        verify_eigenfunction(sp42, Eigenfunction({0: Fraction(0)}, 1, {}))


def test_a_failure_with_numbers_too_long_for_str_is_reported_exactly(sp42):
    # int -> str refuses 10^8000, the lhs at vertex 0
    big = 10 ** 4000
    with pytest.raises(NotAnEigenfunction) as err:
        verify_eigenfunction(sp42, Eigenfunction({0: big}, big, {}))
    assert (err.value.vertex, err.value.lhs, err.value.rhs) == (0, big * big, 0)
    assert str(err.value) == (
        f"condition fails at vertex 0: theta*f = 1{'0' * 8000}, neighbour sum = 0")
    assert ef.exact_text(Fraction(-big * big, 3)) == f"-1{'0' * 8000}/3"
    assert ef.exact_text(Fraction(-7, 3)) == "-7/3"


@pytest.mark.parametrize("digits,refused", [(4300, False), (4301, True)])
def test_the_common_denominator_is_capped_at_4300_digits(sp42, digits, refused):
    f = Eigenfunction({0: Fraction(1, 10 ** (digits - 1))}, 1, {})
    with pytest.raises(ef.DenominatorTooLong if refused else NotAnEigenfunction):
        verify_eigenfunction(sp42, f)


def test_long_denominators_are_refused_before_any_vertex_is_checked():
    # 364 values of 1,001-digit denominators: the lcm of them all took 5.6 s
    # and a 56 MiB peak before any vertex was checked
    g = make_collinearity("sp", 6, 3, 1)
    f = Eigenfunction({v: Fraction(1, 10 ** 1000 + 2 * v + 1) for v in range(g.n)}, 1, {})
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ef.DenominatorTooLong,
                           match="^the values' common denominator has more than 4300 digits$"):
            verify_eigenfunction(g, f)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 2 ** 18


def test_wrong_eigenvalue_is_reported_with_a_vertex(sp42):
    f = theta1_polar(sp42)
    broken = Eigenfunction(dict(f.values), 2, f.graph_ref)
    with pytest.raises(NotAnEigenfunction) as err:
        verify_eigenfunction(sp42, broken)
    assert 0 <= err.value.vertex < sp42.n


@pytest.mark.parametrize("fixture,support,theta", [
    ("sp42", 4, 1), ("sp43", 6, 2), ("rook_o43", 6, 2),
    ("gq_o62", 4, 1), ("u44", 8, 3), ("u49", 18, 8),
])
def test_theta1_polar_is_tight(fixture, support, theta, request):
    g = request.getfixturevalue(fixture)
    f = theta1_polar(g)
    assert f.theta == theta
    report = verify_eigenfunction(g, f)
    assert report.tight and report.support_size == support


def test_theta1_polar_witness_validation(sp42):
    space = sp42.space
    L = space.subspaces(0)[0]
    sigma = space.maximals_containing(L)
    outside = next(m for m in space.maximals() if m.key not in {s.key for s in sigma})
    with pytest.raises(NotInSigmaL):
        theta1_polar(sp42, L, sigma[0], outside)
    with pytest.raises(NotInSigmaL):
        theta1_polar(sp42, L, sigma[0], sigma[0])


@pytest.mark.parametrize("build,construct,digest", [
    (lambda: graphs.collinearity_graph(polarspace.PolarSpace(
        forms.standard_form("sp", 6, field_new(2, 1)))), theta1_polar,
     "bc31ca9d34d7b5f983ac223d0f61bb28999053d05702e879b4f4b5d2eddd6dfc"),
    (lambda: graphs.unitary_graph(field_new(2, 2)), theta1_polar,
     "c9870a1dda479790e909ff67002450ac8212ce52abcf451980f1ae27d5897088"),
    (lambda: graphs.affine_polar_graph(2, 1, field_new(3, 1)), theta1_hyperbolic,
     "51dfe727959d44590cf43743eec4963bd86f8523f783cd4faa40a908c090e3e9"),
    (lambda: graphs.affine_polar_graph(2, -1, field_new(2, 1)), theta1_elliptic,
     "fe2387cba95491f6b75be2b2fefb3c008a50875d778120126211aa6807afa962"),
    (lambda: graphs.affine_polar_graph(2, -1, field_new(3, 1)), theta1_elliptic,
     "11c671bc21563ffaae28ac04606c9e508b54d5fe4c1ff15caac5ac73b5809651"),
], ids=["sp:3:2", "u:2:4", "vo+:2:3", "vo-:2:2", "vo-:2:3"])
def test_constructions_list_no_top_level(build, construct, digest, monkeypatch):
    # L (or M) is the least-key subspace, found without listing its level,
    # and the maximals through L are grown from L; the digests are those of
    # the files written when the constructions still listed levels
    def guarded(space, d):
        raise AssertionError(f"level {d} of rank {space.rank()} was listed")

    monkeypatch.setattr(polarspace.PolarSpace, "subspaces", guarded)
    text = serialize.eigenfunction_json(construct(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("fixture,support,theta", [
    ("vo_plus_2", 4, 1), ("vo_plus_3", 12, 5),
])
def test_theta1_hyperbolic_is_tight(fixture, support, theta, request):
    g = request.getfixturevalue(fixture)
    f = theta1_hyperbolic(g)
    assert f.theta == theta
    report = verify_eigenfunction(g, f)
    assert report.tight and report.support_size == support


def test_theta1_hyperbolic_shifted(vo_plus_2):
    f = theta1_hyperbolic(vo_plus_2, v=(1, 1, 1, 1))
    report = verify_eigenfunction(vo_plus_2, f)
    assert report.tight
    assert f.support != theta1_hyperbolic(vo_plus_2).support


@pytest.mark.parametrize("fixture,support,theta", [
    ("vo_minus_2", 4, 1), ("vo_minus_3", 6, 2),
])
def test_theta1_elliptic_is_tight(fixture, support, theta, request):
    g = request.getfixturevalue(fixture)
    f = theta1_elliptic(g)
    assert f.theta == theta
    report = verify_eigenfunction(g, f)
    assert report.tight and report.support_size == support


def test_theta1_elliptic_translation_validation(vo_minus_2):
    space = vo_minus_2.space
    M = space.maximals()[0]
    inside = linalg.vec_key(M.basis[0])
    with pytest.raises(TInAffM):
        theta1_elliptic(vo_minus_2, M=M, t=inside)
    ctx = vo_minus_2.ctx
    perp_basis = __import__("polareig.forms", fromlist=["perp"]).perp(
        space.form, M.basis)
    non_perp = next(
        linalg.vec_key(v) for v in vo_minus_2.vertices
        if any(c.index for c in v)
        and not linalg.in_span_i(ctx, [linalg.vec_key(r) for r in perp_basis],
                                 linalg.vec_key(v)))
    with pytest.raises(TNotInPerp):
        theta1_elliptic(vo_minus_2, M=M, t=non_perp)


def test_clique_pair_equals_polar_construction(sp42):
    c0, c1 = graphs.max_intersecting_delsarte_pair(sp42)
    f = theta1_from_clique_pair(sp42, c0, c1)
    assert verify_eigenfunction(sp42, f).tight
    # the same pair arises from the subspace construction over L = C0 ∩ C1
    space = sp42.space
    line_by_points = {line.point_indices(): line for line in space.subspaces(1)}
    m0 = line_by_points[c0.vertices]
    m1 = line_by_points[c1.vertices]
    common = c0.bits() & c1.bits()
    L = next(pt for pt in space.subspaces(0) if pt.point_bits == common)
    g0 = theta1_polar(sp42, L, m0, m1)
    assert g0.values == f.values


@pytest.mark.parametrize("fixture", ["vo_plus_2", "vo_minus_2", "sp43", "u44"])
def test_clique_pair_construction_families(fixture, request):
    g = request.getfixturevalue(fixture)
    if g.provenance["family"] == "vo-":
        base = theta1_elliptic(g)
        t0 = [v for v, c in base.values.items() if c > 0]
        t1 = [v for v, c in base.values.items() if c < 0]
        f = theta1_from_clique_pair(g, t0, t1)
    else:
        f = theta1_from_clique_pair(g, *graphs.max_intersecting_delsarte_pair(g))
    report = verify_eigenfunction(g, f)
    assert report.tight


def test_clique_pair_validation(sp42):
    cliques = graphs.delsarte_cliques(sp42)
    disjoint = next(
        (a, b) for a in cliques for b in cliques
        if a.vertices < b.vertices and not a.bits() & b.bits())
    with pytest.raises(NotMaxIntersection):
        theta1_from_clique_pair(sp42, *disjoint)
    with pytest.raises(NotDelsarte):
        theta1_from_clique_pair(sp42, (0, 1, 2, 3), cliques[0])
    with pytest.raises(NotDelsarte):
        theta1_from_clique_pair(sp42, cliques[0], cliques[0])


@pytest.mark.parametrize("pk,q,support", [((2, 2), 4, 6), ((3, 2), 9, 8)])
def test_theta2_unitary_is_tight(pk, q, support, request):
    g = request.getfixturevalue("u44" if q == 4 else "u49")
    f = theta2_unitary(g)
    assert f.theta == -(int(q ** 0.5) + 1)
    report = verify_eigenfunction(g, f)
    assert report.tight and report.support_size == support


def test_theta2_unitary_parts_induce_complete_bipartite(u44, u49):
    for g in (u44, u49):
        f = theta2_unitary(g)
        t0, t1 = ef.unitary_pair_parts(f)
        for part in (t0, t1):
            assert all(not g.are_adjacent(x, y)
                       for i, x in enumerate(part) for y in part[i + 1:])
        assert all(g.are_adjacent(x, y) for x in t0 for y in t1)


def test_theta2_unitary_outside_dichotomy(u44, u49):
    for g, odd in ((u44, False), (u49, True)):
        f = theta2_unitary(g)
        t0, t1 = ef.unitary_pair_parts(f)
        for _, a, b in ef.outside_neighbour_counts(g, t0, t1):
            assert a == b and a in (0, 1)


def test_theta2_unitary_sets_do_not_depend_on_the_primitive_element(u49):
    # measured, not assumed: eps * (norm-one subgroup) is the norm -1 coset,
    # so any primitive choice gives the same point sets
    ctx = u49.ctx
    space = u49.space
    r = ctx.sqrt_q
    subgroup = norm_one_subgroup(ctx)
    reference = None
    primitives = [e for e in ctx.elements()
                  if not e.is_zero()
                  and __import__("polareig.gf", fromlist=["multiplicative_order"])
                  .multiplicative_order(e) == ctx.q - 1]
    assert primitives[0] == primitive_element(ctx)
    for beta in primitives:
        eps = beta ** ((r - 1) // 2)
        t0 = frozenset(
            space.point_for_vector((ctx.one, eps * gamma, ctx.zero, ctx.zero)).index
            for gamma in subgroup)
        t1 = frozenset(
            space.point_for_vector((ctx.zero, ctx.zero, ctx.one, eps * gamma)).index
            for gamma in subgroup)
        if reference is None:
            reference = (t0, t1)
        assert (t0, t1) == reference


@settings(max_examples=1000, deadline=None)
@given(c=st.fractions(min_value=-50, max_value=50),
       which=st.sampled_from(["polar", "clique"]))
def test_scaling_closure(sp42, c, which):
    f = _BASE_FUNCTIONS.setdefault(
        which,
        theta1_polar(sp42) if which == "polar"
        else theta1_from_clique_pair(sp42, *graphs.max_intersecting_delsarte_pair(sp42)))
    if c == 0:
        return
    report = verify_eigenfunction(sp42, f.scaled(c))
    assert report.support_size == f.support_size()


_BASE_FUNCTIONS = {}


def test_eigenfunction_json_round_trip(sp42, tmp_path):
    f = theta1_polar(sp42)
    path = tmp_path / "f.json"
    path.write_text(serialize.eigenfunction_json(f))
    loaded = serialize.load_eigenfunction(path)
    assert loaded.values == f.values
    assert loaded.theta == f.theta
    assert loaded.graph_ref["family"] == "sp"


def test_eigenfunction_csv_round_trip(sp42, tmp_path):
    f = theta1_polar(sp42).scaled(Fraction(3, 2))
    path = tmp_path / "f.csv"
    path.write_text(serialize.eigenfunction_csv(f))
    loaded = serialize.load_eigenfunction(path)
    assert loaded.values == f.values
    loaded.theta = f.theta
    assert verify_eigenfunction(sp42, loaded).support_size == 4


def _hyperbolic_3():
    g = graphs.affine_polar_graph(2, 1, field_new(3, 1))
    L = g.space.subspaces(0)[3]
    sigma = g.space.maximals_containing(L)
    return theta1_hyperbolic(g, v=(1, 2, 0, 1), L=L, M=sigma[1], N=sigma[0])


def _elliptic_3():
    g = graphs.affine_polar_graph(2, -1, field_new(3, 1))
    return theta1_elliptic(g, v=(2, 0, 1, 1), M=g.space.maximals()[5])


def _sp33_sigma():
    g = graphs.collinearity_graph(polarspace.polar_space(
        forms.standard_form("sp", 6, field_new(3, 1))))
    L = g.space.subspaces(1)[7]
    sigma = g.space.maximals_containing(L)
    return g, L, sigma[3], sigma[0]


def _polar_sp33():
    return theta1_polar(*_sp33_sigma())


def _clique_pair_sp33(as_info):
    g, _, M, N = _sp33_sigma()
    if as_info:
        return theta1_from_clique_pair(
            g, *(graphs.CliqueInfo(S.point_indices(), True, None) for S in (M, N)))
    return theta1_from_clique_pair(g, M.point_indices(), N.point_indices())


_SP33_PLUS = (283, 288, 290, 310, 315, 317, 337, 342, 344)
_SP33_MINUS = (40, 45, 47, 67, 72, 74, 94, 99, 101)


@pytest.mark.parametrize("construct,theta,plus,minus", [
    (_hyperbolic_3, 5, (5, 12, 22, 62, 69, 79), (27, 28, 37, 38, 45, 47)),
    (lambda: theta1_hyperbolic(
        graphs.affine_polar_graph(2, 1, field_new(2, 2)), v=(3, 1, 2, 0)), 11,
     (200, 201, 202, 203, 232, 233, 234, 235, 248, 249, 250, 251),
     (24, 25, 26, 27, 88, 89, 90, 91, 152, 153, 154, 155)),
    (_elliptic_3, 2, (9, 53, 58), (14, 46, 60)),
    (_polar_sp33, 8, _SP33_PLUS, _SP33_MINUS),
    (lambda: _clique_pair_sp33(True), 8, _SP33_PLUS, _SP33_MINUS),
    (lambda: _clique_pair_sp33(False), 8, _SP33_PLUS, _SP33_MINUS),
    (lambda: theta2_unitary(graphs.unitary_graph(field_new(3, 2))), -4,
     (124, 157, 214, 247), (0, 1, 2, 3)),
], ids=["hyperbolic vo+:2:3", "hyperbolic vo+:2:4", "elliptic vo-:2:3",
        "polar sp:3:3", "clique-info sp:3:3", "clique-tuples sp:3:3",
        "unitary u:2:9"])
def test_constructions_with_non_default_arguments(construct, theta, plus, minus):
    # pinned values: the CLI digests cover only the default arguments
    f = construct()
    assert f.theta == theta
    assert ef.unitary_pair_parts(f) == (plus, minus)


_BAD_ENTRIES = [(5, "range"), (-1, "range"), (3, "range"), (1.5, "range"),
                ((3, 2, 5), "element of"), ((3, 2, 1), "element of")]
_BAD_IDS = ["5", "-1", "q", "1.5", "GF(9) element 5", "GF(9) element 1"]


def _bad_vector(entry):
    # an int entry, or a (p, k, index) element of another field
    if isinstance(entry, tuple):
        p, k, index = entry
        entry = field_new(p, k).element(index)
    return (0, 0, 0, entry)


@pytest.mark.parametrize("entry,message", _BAD_ENTRIES, ids=_BAD_IDS)
def test_hyperbolic_translation_entries_are_checked(entry, message, vo_plus_3):
    with pytest.raises(ef.EigenfunctionError, match=message):
        theta1_hyperbolic(vo_plus_3, v=_bad_vector(entry))


def test_hyperbolic_translation_entry_minus_one_is_not_the_last_element():
    # on GF(4) the last index is x + 1, not -1 = 1
    g = graphs.affine_polar_graph(2, 1, field_new(2, 2))
    with pytest.raises(ef.EigenfunctionError, match="range"):
        theta1_hyperbolic(g, v=(0, 0, 0, -1))


@pytest.mark.parametrize("entry,message", _BAD_ENTRIES, ids=_BAD_IDS)
def test_elliptic_translation_entries_are_checked(entry, message, vo_minus_3):
    with pytest.raises(ef.EigenfunctionError, match=message):
        theta1_elliptic(vo_minus_3, v=_bad_vector(entry))


@pytest.mark.parametrize("entry,message", _BAD_ENTRIES, ids=_BAD_IDS)
def test_elliptic_perp_translation_entries_are_checked(entry, message, vo_minus_3):
    # the default t is (0, 0, 0, 1), so the entries -1 and 1 of another
    # field would pass as the translations 2t and t
    M = vo_minus_3.space.least_subspace(vo_minus_3.space.rank() - 1)
    assert ef.least_perp_translation(vo_minus_3, M) == (0, 0, 0, 1)
    with pytest.raises(ef.EigenfunctionError, match=message):
        theta1_elliptic(vo_minus_3, M=M, t=_bad_vector(entry))


@pytest.mark.parametrize("bad", [(-1, 0, 1), (0, 1, 15),
                                 graphs.CliqueInfo((0, 1, 18), True, None)],
                         ids=["negative", "n", "clique info"])
@pytest.mark.parametrize("first", [True, False], ids=["C0", "C1"])
def test_clique_pair_vertices_must_lie_in_the_graph(bad, first, sp42):
    pair = list(graphs.max_intersecting_delsarte_pair(sp42))
    pair[0 if first else 1] = bad
    with pytest.raises(NotDelsarte, match="outside graph"):
        theta1_from_clique_pair(sp42, *pair)


def _mixed_function():
    """(1/2) f01 + (1/3) f12 + (1/5) f23 on sp:2:3, with f_ab the theta1_polar
    function of the maximals a and b through the least point: a
    theta1-eigenfunction with the values 1/2, -1/6, -2/15 and -1/5."""
    g = make_collinearity("sp", 4, 3)
    space = g.space
    L = space.least_subspace(space.rank() - 2)
    sigma = space.maximals_containing(L)
    values = {}
    for a, c in enumerate((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))):
        part = theta1_polar(g, L, sigma[a], sigma[a + 1]).scaled(c)
        for v, x in part.values.items():
            values[v] = values.get(v, 0) + x
    return g, Eigenfunction(values, part.theta, dict(g.provenance))


def _changed(f, **changes):
    """f with its values at some vertices increased (vertex=v, by=x) or its
    theta replaced (theta=t)."""
    values = dict(f.values)
    if "vertex" in changes:
        v = changes["vertex"]
        values[v] = values.get(v, 0) + changes["by"]
    return Eigenfunction(values, changes.get("theta", f.theta), f.graph_ref)


def _verify_outcome(check, g, f):
    try:
        return check(g, f)
    except NotAnEigenfunction as exc:
        return exc.vertex, exc.lhs, exc.rhs


@pytest.mark.parametrize("change", [
    {},
    {"vertex": 13, "by": Fraction(1, 7)},  # inside the support
    {"vertex": 0, "by": Fraction(-2, 9)},  # outside it
    {"theta": Fraction(3, 2)},
    {"theta": Fraction(-7, 3)},
    {"theta": -4},
], ids=["valid", "perturbed-inside", "perturbed-outside", "theta-3/2", "theta--7/3",
        "theta2"])
def test_verify_eigenfunction_equals_the_fraction_loop(change):
    g, f = _mixed_function()
    assert {x.denominator for x in f.values.values()} == {2, 5, 6, 15}
    assert 13 in f.values and 0 not in f.values
    f = _changed(f, **change)
    outcome = _verify_outcome(verify_eigenfunction, g, f)
    assert outcome == _verify_outcome(reference_verify_eigenfunction, g, f)
    assert isinstance(outcome, ef.WdbReport) == (not change)
