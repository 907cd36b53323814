import itertools
from fractions import Fraction
from math import isqrt

import pytest

from conftest import difference_pairs, intersection_rows, make_space, reference_rref
from polareig import bitsets, forms, linalg, polarspace
from polareig.gf import field_new
from polareig.polarspace import (
    DimensionOutOfRange, LevelCountMismatch, NotPairwiseCollinear, NotSingular,
    OrderNotWellDefined, WrongDimension,
)


@pytest.mark.parametrize("family,dim,p,k,count", [
    ("sp", 4, 2, 1, 15),
    ("o+", 4, 2, 1, 9),
    ("u", 4, 2, 2, 45),
    ("o-", 4, 2, 1, 5),
    ("o-", 4, 3, 1, 10),
])
def test_point_counts(family, dim, p, k, count):
    assert make_space(family, dim, p, k).point_count() == count


def test_bit_indices_rejects_a_negative_int():
    assert bitsets.bit_indices(0b10110) == (1, 2, 4)
    with pytest.raises(ValueError):
        bitsets.bit_indices(-1)


@pytest.mark.parametrize("key", [(0, 0, 0, 0), (1, 0, 0), (0, 0, 1, 0, 0)])
def test_a_zero_or_misshapen_key_has_no_point(key):
    space = make_space("sp", 4, 2)
    with pytest.raises(ValueError):
        space.point_index(key)
    with pytest.raises(ValueError):
        space.point_for_vector(tuple(space.ctx.element(a) for a in key))


def test_every_symplectic_point_is_singular():
    space = make_space("sp", 4, 2)
    assert space.point_count() == (2 ** 4 - 1) // (2 - 1)


def test_point_reps_are_normalized_and_sorted():
    space = make_space("o+", 4, 3)
    keys = [p.key() for p in space.points()]
    assert keys == sorted(keys)
    for key in keys:
        lead = next(c for c in key if c)
        assert lead == 1
    assert [p.index for p in space.points()] == list(range(len(keys)))


def test_line_count_sp42_against_independent_enumeration():
    space = make_space("sp", 4, 2)
    lines = space.subspaces(1)
    assert len(lines) == 15
    # oracle: filter every 2-dimensional subspace of GF(2)^4 directly
    ctx = space.ctx
    vecs = [tuple(ctx.element(c) for c in v)
            for v in itertools.product(range(2), repeat=4)]
    nonzero = [v for v in vecs if any(c.index for c in v)]
    seen = set()
    for u, w in itertools.combinations(nonzero, 2):
        basis = linalg.rref([u, w])
        if len(basis) == 2 and forms.is_totally_singular(space.form, basis):
            seen.add(sum(map(linalg.vec_key, basis), ()))
    assert seen == {line.key for line in lines}


@pytest.mark.parametrize("family,dim,p,k,lines", [
    ("o+", 4, 2, 1, 6),
    ("o-", 6, 2, 1, 45),
    ("u", 4, 2, 2, 27),
])
def test_line_counts(family, dim, p, k, lines):
    assert len(make_space(family, dim, p, k).subspaces(1)) == lines


def test_rank1_elliptic_has_no_lines():
    space = make_space("o-", 4, 2)
    assert len(space.subspaces(0)) == 5
    assert space.subspaces(1) == []
    assert space.rank() == 1


@pytest.mark.parametrize("family,dim,p,k", [
    # the spaces of the level regression below
    ("sp", 4, 3, 1), ("o", 5, 3, 1), ("o+", 6, 2, 1), ("o-", 6, 2, 1), ("u", 4, 2, 2),
    # rank 1, and the anisotropic plane of rank 0
    ("o-", 4, 2, 1), ("o-", 4, 3, 1), ("sp", 2, 3, 1), ("u", 2, 2, 2),
    ("u", 3, 2, 2), ("o", 3, 3, 1), ("o+", 2, 3, 1), ("o-", 2, 2, 1),
])
def test_witt_index_is_the_first_empty_level(family, dim, p, k):
    space = polarspace.PolarSpace(forms.standard_form(family, dim, field_new(p, k)))
    n = space.rank()
    assert n == polarspace.witt_index(family, dim)
    assert all(space.subspaces(d) for d in range(n))
    assert space.subspaces(n) == []


@pytest.mark.parametrize("shift", [-1, 1])
def test_descriptor_checks_the_rank_against_enumeration(shift, monkeypatch):
    space = polarspace.PolarSpace(forms.standard_form("sp", 4, field_new(2, 1)))
    monkeypatch.setattr(polarspace.PolarSpace, "rank", lambda self: 2 + shift)
    with pytest.raises(OrderNotWellDefined):
        space.descriptor()


def test_descriptor_is_computed_once_per_space(monkeypatch):
    space = polarspace.PolarSpace(forms.standard_form("sp", 4, field_new(3, 1)))
    first = space.descriptor()

    def no_listing(self, d):
        raise AssertionError(f"level {d} listed again")

    monkeypatch.setattr(polarspace.PolarSpace, "subspaces", no_listing)
    assert space.descriptor() is first


def test_descriptor_lists_only_the_levels_it_checks(monkeypatch):
    space = polarspace.PolarSpace(forms.standard_form("sp", 6, field_new(2, 1)))
    listing, asked = polarspace.PolarSpace.subspaces, []

    def recorded(self, d):
        asked.append(d)
        return listing(self, d)

    monkeypatch.setattr(polarspace.PolarSpace, "subspaces", recorded)
    space.descriptor()
    assert set(asked) == {1, 2, 3}


@pytest.mark.parametrize("family,dim,p,k", [
    ("sp", 6, 2, 1), ("sp", 6, 3, 1), ("o+", 6, 3, 1), ("u", 6, 2, 2),
], ids=["sp:3:2", "sp:3:3", "o+:3:3", "u:3:4"])
def test_containing_counts_equal_the_pair_comparison(family, dim, p, k):
    space = make_space(family, dim, p, k)
    subs, maximals = space.subspaces(space.rank() - 2), space.maximals()
    reference = [sum(M.point_bits & L.point_bits == L.point_bits for M in maximals)
                 for L in subs]
    assert bitsets.containing_counts([L.point_bits for L in subs],
                                     [M.point_bits for M in maximals]) == reference


def test_descriptor_rejects_a_lost_maximal(monkeypatch):
    space = polarspace.PolarSpace(forms.standard_form("sp", 6, field_new(2, 1)))
    monkeypatch.setattr(polarspace.PolarSpace, "maximals",
                        lambda self: self.subspaces(self.rank() - 1)[:-1])
    with pytest.raises(OrderNotWellDefined, match="t\\+1 takes several values: \\[2, 3\\]"):
        space.descriptor()


# the spaces whose every level lists in a few seconds at most
SMALL_SPACES = {
    "sp:2:2": ("sp", 4, 2, 1), "sp:2:3": ("sp", 4, 3, 1), "sp:3:2": ("sp", 6, 2, 1),
    "sp:3:3": ("sp", 6, 3, 1), "sp:3:4": ("sp", 6, 2, 2), "sp:4:2": ("sp", 8, 2, 1),
    "o+:3:2": ("o+", 6, 2, 1), "o+:3:3": ("o+", 6, 3, 1), "o+:4:2": ("o+", 8, 2, 1),
    "o:3:3": ("o", 7, 3, 1), "o-:2:2": ("o-", 6, 2, 1), "o-:3:2": ("o-", 8, 2, 1),
    "u:2:4": ("u", 4, 2, 2), "u:3:4": ("u", 6, 2, 2),
}


@pytest.mark.parametrize("spec", sorted(SMALL_SPACES))
def test_least_subspace_is_the_first_of_its_level(spec):
    space = make_space(*SMALL_SPACES[spec])
    n = space.rank()
    for d in range(n):
        least, first = space.least_subspace(d), space.subspaces(d)[0]
        assert (least.key, least.point_bits, least.basis, least.proj_dim) \
            == (first.key, first.point_bits, first.basis, first.proj_dim)
    for d in (-1, n):
        with pytest.raises(DimensionOutOfRange):
            space.least_subspace(d)


def test_least_subspace_lists_no_level(monkeypatch):
    space = polarspace.PolarSpace(forms.standard_form("sp", 8, field_new(3, 1)))

    def no_listing(self, *args):
        raise AssertionError("a level was listed")

    monkeypatch.setattr(polarspace.PolarSpace, "subspaces", no_listing)
    assert space.least_subspace(2).proj_dim == 2


def test_least_subspace_of_an_empty_search_is_rejected(monkeypatch):
    space = polarspace.PolarSpace(forms.standard_form("sp", 6, field_new(2, 1)))
    monkeypatch.setattr(polarspace.PolarSpace, "collinearity_bits",
                        lambda self: [0] * self.point_count())
    assert space.least_subspace(0).proj_dim == 0
    with pytest.raises(LevelCountMismatch):
        space.least_subspace(1)


@pytest.mark.parametrize("level", [0, 1])
def test_a_level_of_the_wrong_size_is_rejected(level, monkeypatch):
    space = polarspace.PolarSpace(forms.standard_form("sp", 4, field_new(3, 1)))
    count = polarspace.singular_subspace_count
    monkeypatch.setattr(polarspace, "singular_subspace_count",
                        lambda f, dim, q, k: count(f, dim, q, k) + (k == level + 1))
    with pytest.raises(LevelCountMismatch):
        space.subspaces(level)


def test_an_enumeration_that_loses_a_subspace_is_rejected(monkeypatch):
    space = polarspace.PolarSpace(forms.standard_form("o+", 6, field_new(2, 1)))
    assert len(space.subspaces(0)) == 35
    search = polarspace.PolarSpace._bases
    monkeypatch.setattr(polarspace.PolarSpace, "_bases",
                        lambda self, d, cand=-1: list(search(self, d, cand))[:-1])
    with pytest.raises(LevelCountMismatch):
        space.subspaces(1)


def test_dimension_out_of_range():
    space = make_space("sp", 4, 2)
    with pytest.raises(DimensionOutOfRange):
        space.subspaces(-1)
    with pytest.raises(DimensionOutOfRange):
        space.subspaces(4)


@pytest.mark.parametrize("family,dim,p,k,rank,t,e", [
    ("sp", 4, 2, 1, 2, 2, Fraction(1)),
    ("o+", 4, 3, 1, 2, 1, Fraction(0)),
    ("u", 4, 2, 2, 2, 2, Fraction(1, 2)),
    ("u", 4, 3, 2, 2, 3, Fraction(1, 2)),
    ("o", 5, 3, 1, 2, 3, Fraction(1)),
    ("o-", 6, 2, 1, 2, 4, Fraction(2)),
])
def test_rank_and_order(family, dim, p, k, rank, t, e):
    desc = make_space(family, dim, p, k).descriptor()
    assert desc.rank == rank
    assert desc.order == (p ** k, t)
    assert desc.e == e


@pytest.mark.parametrize("q,e,value", [
    (3, 0, 1), (3, 1, 3), (3, 2, 9), (4, Fraction(1, 2), 2),
    (9, Fraction(3, 2), 27), (16, Fraction(5, 2), 1024),
])
def test_q_power_takes_half_integral_exponents(q, e, value):
    # t = q^e in every family, and the counts use the same powers
    assert polarspace.q_power(q, e) == value


def test_q_power_rejects_a_half_power_of_a_non_square():
    with pytest.raises(polarspace.PolarSpaceError, match="not an integer"):
        polarspace.q_power(8, Fraction(3, 2))


@pytest.mark.parametrize("family,dim,p,k,through", [
    ("sp", 4, 2, 1, 3),
    ("o+", 4, 2, 1, 2),
    ("u", 4, 2, 2, 3),
])
def test_maximals_through_a_point(family, dim, p, k, through):
    space = make_space(family, dim, p, k)
    for L in space.subspaces(0):
        assert len(space.maximals_containing(L)) == through


@pytest.mark.parametrize("family,dim,p,k,pairs", [
    ("sp", 4, 2, 1, 3),
    ("o+", 4, 2, 1, 1),
    ("o+", 4, 3, 1, 1),
    ("u", 4, 3, 2, 6),
])
def test_difference_pair_counts(family, dim, p, k, pairs):
    space = make_space(family, dim, p, k)
    n, t = space.rank(), space.descriptor().order[1]
    from math import comb
    assert pairs == comb(t + 1, 2)
    for L in space.subspaces(n - 2):
        got = difference_pairs(space, L)
        assert len(got) == pairs
        for t0, t1 in got:
            assert len(t0) == len(t1) == space.ctx.q ** (n - 1)


def test_difference_pairs_need_next_to_maximal_dimension():
    space = make_space("sp", 6, 2)
    with pytest.raises(WrongDimension):
        difference_pairs(space, space.subspaces(0)[0])


def _reference_collinearity(space):
    """The pair loop: points i and j are collinear when B(keys[i], keys[j]) = 0."""
    keys = [pt.key() for pt in space.points()]
    rows = [0] * len(keys)
    for i, j in itertools.combinations(range(len(keys)), 2):
        if forms.bilinear_i(space.form, keys[i], keys[j]) == 0:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


@pytest.mark.parametrize("family,dim,p,k", [
    ("sp", 4, 2, 1),   # sp:2:2
    ("sp", 4, 2, 2),   # sp:2:4
    ("sp", 4, 2, 3),   # sp:2:8
    ("sp", 6, 3, 1),   # sp:3:3
    ("o+", 4, 3, 1),   # o+:2:3
    ("o", 7, 3, 1),    # o:3:3
    ("o-", 6, 2, 2),   # o-:2:4
    ("u", 4, 2, 2),    # u:2:4
    ("u", 4, 3, 2),    # u:2:9
    ("u", 6, 2, 2),    # u:3:4
])
def test_collinearity_bits_equal_the_pairing_on_every_pair(family, dim, p, k):
    space = polarspace.PolarSpace(forms.standard_form(family, dim, field_new(p, k)))
    assert space.collinearity_bits() == _reference_collinearity(space)


def test_span_closure_single_point():
    space = make_space("sp", 4, 2)
    p0 = space.points()[0]
    sub = space.span_closure(p0)
    assert sub.proj_dim == 0
    assert sub.point_indices() == (0,)


def test_span_closure_of_collinear_pair_is_their_line():
    space = make_space("sp", 4, 2)
    collin = space.collinearity_bits()
    pts = space.points()
    line_keys = {line.key for line in space.subspaces(1)}
    i = 0
    j = next(iter(b for b in range(len(pts)) if collin[i] >> b & 1))
    sub = space.span_closure(pts[i], pts[j])
    assert sub.proj_dim == 1
    assert sub.key in line_keys


def test_span_closure_rejects_non_collinear_points():
    space = make_space("o+", 4, 2)
    collin = space.collinearity_bits()
    pts = space.points()
    i = 0
    j = next(b for b in range(1, len(pts)) if not collin[i] >> b & 1)
    with pytest.raises(NotPairwiseCollinear):
        space.span_closure(pts[i], pts[j])


@pytest.mark.parametrize("family,dim,p,k", [
    ("sp", 4, 3, 1), ("o", 5, 3, 1), ("o+", 6, 2, 1), ("o-", 6, 2, 1), ("u", 4, 2, 2),
])
def test_maximals_containing_equals_the_filtered_top_level(family, dim, p, k):
    space = polarspace.PolarSpace(forms.standard_form(family, dim, field_new(p, k)))
    maximals = space.maximals()
    for d in range(space.rank() - 1):
        for L in space.subspaces(d):
            expected = [M for M in maximals
                        if M.point_bits & L.point_bits == L.point_bits]
            assert [(M.key, M.point_bits) for M in space.maximals_containing(L)] \
                == [(M.key, M.point_bits) for M in expected]
    assert all(space.maximals_containing(M) == [] for M in maximals)


def test_maximals_containing_rejects_non_singular_basis():
    space = make_space("o+", 4, 2)
    ctx = space.ctx
    bogus = polarspace.SingularSubspace(
        (tuple(ctx.element(c) for c in (1, 1, 0, 0)),), (1, 1, 0, 0), 0, 0)
    with pytest.raises(NotSingular):
        space.maximals_containing(bogus)


@pytest.mark.parametrize("family,dim,p,k", [
    ("sp", 4, 2, 1), ("sp", 4, 3, 1), ("o+", 4, 2, 1), ("o+", 4, 3, 1),
    ("o+", 4, 2, 2), ("u", 4, 2, 2), ("o-", 6, 2, 1),
])
def test_one_maximal_meets_each_in_next_lower_dimension(family, dim, p, k):
    # for every maximal L and point p outside it, exactly one maximal M has
    # p in M and M meeting L in an (n-2)-dimensional subspace
    space = make_space(family, dim, p, k)
    n = space.rank()
    maximals = space.maximals()
    for L in maximals:
        for pt in space.points():
            if L.point_bits >> pt.index & 1:
                continue
            hits = []
            for M in maximals:
                if not M.point_bits >> pt.index & 1:
                    continue
                inter = intersection_rows(
                    space.ctx, M.rows(), L.rows(), space.dim)
                if len(inter) == n - 1:
                    hits.append(M)
            assert len(hits) == 1


@pytest.mark.parametrize("family,dim,p,k", [
    ("sp", 4, 2, 1), ("o+", 4, 3, 1), ("u", 4, 2, 2), ("o-", 6, 2, 1),
])
def test_every_non_maximal_subspace_extends(family, dim, p, k):
    space = make_space(family, dim, p, k)
    n = space.rank()
    for d in range(n - 1):
        bigger = space.subspaces(d + 1)
        for sub in space.subspaces(d):
            assert any(big.point_bits & sub.point_bits == sub.point_bits
                       for big in bigger)


@pytest.mark.parametrize("family,dim,p,k", [("sp", 4, 2, 1), ("o+", 4, 3, 1)])
def test_every_subspace_is_an_intersection_of_two_maximals(family, dim, p, k):
    space = make_space(family, dim, p, k)
    n = space.rank()
    maximals = space.maximals()
    for d in range(n - 1):
        for sub in space.subspaces(d):
            found = False
            for m1, m2 in itertools.combinations(maximals, 2):
                inter = intersection_rows(
                    space.ctx, m1.rows(), m2.rows(), space.dim)
                if inter and sum(inter, ()) == sub.key:
                    found = True
                    break
            assert found


def test_pairwise_maximal_intersections_are_singular():
    space = make_space("sp", 4, 2)
    for m1, m2 in itertools.combinations(space.maximals(), 2):
        inter = intersection_rows(space.ctx, m1.rows(), m2.rows(), space.dim)
        if inter:
            assert forms.is_totally_singular(
                space.form, linalg.element_rows(space.ctx, inter))


def test_enumeration_is_deterministic():
    a = polarspace.PolarSpace(forms.standard_form("u", 4, field_new(2, 2)))
    b = polarspace.PolarSpace(forms.standard_form("u", 4, field_new(2, 2)))
    assert [p.key() for p in a.points()] == [p.key() for p in b.points()]
    assert [s.key for s in a.subspaces(1)] == [s.key for s in b.subspaces(1)]


def _naive_extension(space, prev):
    """Keys of the next level: one element-level rref per (subspace,
    collinear point), as the enumeration ran before it struck spans."""
    pts = space.points()
    collin = space.collinearity_bits()
    seen = set()
    for sub in prev:
        cand = -1
        for pi in sub.point_indices():
            cand &= collin[pi]
        for pi in range(len(pts)):
            if cand >> pi & 1 and not sub.point_bits >> pi & 1:
                seen.add(sum(map(linalg.vec_key,
                                 reference_rref(sub.basis + (pts[pi].rep,))), ()))
    return sorted(seen)


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _closed_form_count(n, k, q, e):
    """N_k = [n k]_q * prod_{i=n-k+1..n} (q^(i+e-1) + 1); 2e is an integer."""
    value = _gaussian_binomial(n, k, q)
    for i in range(n - k + 1, n + 1):
        power = q ** int(2 * (i + e - 1))
        root = isqrt(power)
        assert root * root == power
        value *= root + 1
    return value


@pytest.mark.parametrize("family,dim,p,k,e", [
    ("sp", 4, 3, 1, Fraction(1)),   # sp:2:3
    ("o", 5, 3, 1, Fraction(1)),    # o:2:3
    ("o+", 6, 2, 1, Fraction(0)),   # o+:3:2
    ("o-", 6, 2, 1, Fraction(2)),   # o-:2:2
    ("u", 4, 2, 2, Fraction(1, 2)),  # u:2:4
    ("sp", 6, 2, 1, Fraction(1)),   # sp:3:2
    ("o+", 6, 3, 1, Fraction(0)),   # o+:3:3
    ("o-", 8, 2, 1, Fraction(2)),   # o-:3:2
])
def test_levels_match_naive_extension_and_closed_form(family, dim, p, k, e):
    space = polarspace.PolarSpace(forms.standard_form(family, dim, field_new(p, k)))
    n = space.rank()
    assert [s.key for s in space.subspaces(0)] == [pt.key() for pt in space.points()]
    for d in range(n):
        level = space.subspaces(d)
        if d:
            assert [s.key for s in level] == _naive_extension(space, space.subspaces(d - 1))
        assert len(level) == _closed_form_count(n, d + 1, space.ctx.q, e)
        assert polarspace.singular_subspace_count(
            family, dim, space.ctx.q, d + 1) == len(level)

