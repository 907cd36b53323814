import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_singular_vector
from polareig import forms, linalg
from polareig.forms import (
    BadDimensionParity, DimMismatch, KindMismatch, ParabolicEvenCharacteristic,
    eval_form, eval_pairing, perp, polarise, standard_form,
)
from polareig.gf import OddExtensionDegree, field_new, frobenius_sqrt


def vec(ctx, *coords):
    return tuple(ctx.element(c) for c in coords)


def all_vectors(ctx, dim):
    return [tuple(ctx.element(c) for c in coords)
            for coords in product(range(ctx.q), repeat=dim)]


def test_standard_hyperbolic_gf2():
    f = standard_form("o+", 4, field_new(2, 1))
    assert f.matrix == ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))


def test_standard_elliptic_gf2_tail_is_the_unique_irreducible():
    f = standard_form("o-", 4, field_new(2, 1))
    # x1 x2 + x3^2 + x3 x4 + x4^2
    assert f.matrix[0][1] == 1
    assert (f.matrix[2][2], f.matrix[2][3], f.matrix[3][3]) == (1, 1, 1)


def test_standard_unitary_gram_is_identity():
    ctx = field_new(2, 2)
    f = standard_form("u", 4, ctx)
    assert f.matrix == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_dimension_parity_errors():
    ctx3 = field_new(3, 1)
    with pytest.raises(BadDimensionParity):
        standard_form("sp", 5, ctx3)
    with pytest.raises(BadDimensionParity):
        standard_form("o+", 5, ctx3)
    with pytest.raises(BadDimensionParity):
        standard_form("o", 4, ctx3)
    with pytest.raises(OddExtensionDegree):
        standard_form("u", 4, ctx3)


def test_parabolic_rejected_in_even_characteristic():
    with pytest.raises(ParabolicEvenCharacteristic):
        standard_form("o", 5, field_new(2, 1))
    standard_form("o", 5, field_new(3, 1))  # odd q is fine


def test_eval_examples():
    ctx = field_new(2, 1)
    op = standard_form("o+", 4, ctx)
    om = standard_form("o-", 4, ctx)
    assert eval_form(op, vec(ctx, 1, 1, 0, 0)) == ctx.one
    assert eval_form(op, vec(ctx, 1, 0, 1, 0)) == ctx.zero
    assert eval_form(om, vec(ctx, 0, 0, 1, 1)) == ctx.one


def test_eval_kind_and_dim_errors():
    ctx = field_new(2, 1)
    sp = standard_form("sp", 4, ctx)
    op = standard_form("o+", 4, ctx)
    with pytest.raises(KindMismatch):
        eval_form(sp, vec(ctx, 1, 0, 0, 0))
    with pytest.raises(KindMismatch):
        eval_pairing(op, vec(ctx, 1, 0, 0, 0), vec(ctx, 1, 0, 0, 0))
    with pytest.raises(DimMismatch):
        eval_form(op, vec(ctx, 1, 0))


def test_polarise_examples():
    ctx = field_new(2, 1)
    op = standard_form("o+", 4, ctx)
    e1, e2 = vec(ctx, 1, 0, 0, 0), vec(ctx, 0, 1, 0, 0)
    assert polarise(op, e1, vec(ctx, 0, 0, 0, 0)) == ctx.zero
    assert polarise(op, e1, e2) == ctx.one


def test_polarise_symmetric_exhaustive_elliptic_gf3():
    ctx = field_new(3, 1)
    f = standard_form("o-", 4, ctx)
    vectors = all_vectors(ctx, 4)
    for u in vectors[:30]:
        for w in vectors:
            assert polarise(f, u, w) == polarise(f, w, u)


def test_pairing_examples():
    ctx2 = field_new(2, 1)
    sp = standard_form("sp", 4, ctx2)
    e = lambda *c: vec(ctx2, *c)
    assert eval_pairing(sp, e(1, 0, 0, 0), e(0, 1, 0, 0)) == ctx2.one
    assert eval_pairing(sp, e(1, 0, 0, 0), e(0, 0, 1, 0)) == ctx2.zero
    ctx4 = field_new(2, 2)
    h = standard_form("u", 4, ctx4)
    w = ctx4.element(2)
    iso = (ctx4.one, w, ctx4.zero, ctx4.zero)
    assert eval_pairing(h, iso, iso) == ctx4.zero
    assert is_singular_vector(h, iso)


def test_hermitian_conjugate_symmetry_exhaustive():
    ctx = field_new(2, 2)
    h = standard_form("u", 2, ctx)
    vectors = all_vectors(ctx, 2)
    for u in vectors:
        for w in vectors:
            assert eval_pairing(h, u, w) == frobenius_sqrt(eval_pairing(h, w, u))


@pytest.mark.parametrize("p, family", [(2, "o+"), (2, "o-"), (3, "o+"), (3, "o-")])
def test_polarisation_expansion_exhaustive(p, family):
    # Q(a u + b w) = a b B(u, w) + a^2 Q(u) + b^2 Q(w), uniformly in char 2;
    # all vector pairs and all scalar pairs, on index tuples for speed
    ctx = field_new(p, 1)
    f = standard_form(family, 4, ctx)
    q = ctx.q
    add, mul = ctx.add_i, ctx.mul_i
    keys = list(product(range(q), repeat=4))
    values = {v: forms.eval_form_i(f, v) for v in keys}
    for u in keys:
        for w in keys:
            b = forms.bilinear_i(f, u, w)
            for a1 in range(q):
                for a2 in range(q):
                    comb = tuple(add(mul(a1, x), mul(a2, y))
                                 for x, y in zip(u, w))
                    rhs = add(mul(mul(a1, a2), b),
                              add(mul(mul(a1, a1), values[u]),
                                  mul(mul(a2, a2), values[w])))
                    assert values[comb] == rhs


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2)]), st.data())
def test_polarisation_expansion_random(field_key, data):
    ctx = field_new(*field_key)
    f = standard_form("o-", 4, ctx)
    idx = st.integers(min_value=0, max_value=ctx.q - 1)
    draw_vec = lambda: tuple(ctx.element(data.draw(idx)) for _ in range(4))
    u, w = draw_vec(), draw_vec()
    a1, a2 = ctx.element(data.draw(idx)), ctx.element(data.draw(idx))
    lhs = eval_form(f, tuple(a1 * x + a2 * y for x, y in zip(u, w)))
    assert lhs == a1 * a2 * polarise(f, u, w) \
        + a1 * a1 * eval_form(f, u) + a2 * a2 * eval_form(f, w)


def test_perp_of_zero_set_is_whole_space():
    ctx = field_new(2, 1)
    f = standard_form("o-", 4, ctx)
    basis = perp(f, [vec(ctx, 0, 0, 0, 0)])
    assert len(basis) == 4
    assert perp(f, []) == basis


def test_perp_dimension_single_vector():
    ctx = field_new(2, 1)
    f = standard_form("o-", 4, ctx)
    assert len(perp(f, [vec(ctx, 1, 0, 0, 0)])) == 3


def _random_subspace(ctx, dim, rng, max_rank=3):
    rows = [tuple(ctx.element(rng.randrange(ctx.q)) for _ in range(dim))
            for _ in range(rng.randint(1, max_rank))]
    return linalg.rref(rows)


def test_perp_dimension_and_double_perp_random_subspaces():
    ctx = field_new(3, 1)
    f = standard_form("o-", 6, ctx)
    rng = random.Random(20240)
    for _ in range(20):
        basis = _random_subspace(ctx, 6, rng)
        pb = perp(f, basis)
        assert len(pb) == 6 - len(basis)
        assert perp(f, pb) == basis


@pytest.mark.parametrize("p,k,hyp,ell", [(2, 1, 9, 5), (3, 1, 16, 10), (2, 2, 25, 17)])
def test_isotropic_point_counts_split(p, k, hyp, ell):
    ctx = field_new(p, k)
    q = ctx.q
    assert hyp == (q + 1) ** 2
    assert ell == q * q + 1
    for family, expected in (("o+", hyp), ("o-", ell)):
        f = standard_form(family, 4, ctx)
        nonzero_singular = sum(
            1 for v in product(range(q), repeat=4)
            if any(v) and forms.singular_i(f, v))
        assert nonzero_singular == expected * (q - 1)


@pytest.mark.parametrize("p", [2, 3])
def test_form_never_vanishes_on_perp_minus_maximal(p):
    # every maximal totally singular U of the elliptic quadric (here the
    # singular lines through 0): Q(t) != 0 for t in U-perp outside U
    ctx = field_new(p, 1)
    f = standard_form("o-", 4, ctx)
    singular = [v for v in all_vectors(ctx, 4)
                if is_singular_vector(f, v) and any(c.index for c in v)]
    checked = 0
    for u in singular:
        basis = linalg.rref([u])
        pb = perp(f, basis)
        for t in linalg.span_i(ctx, [linalg.vec_key(r) for r in pb], 4):
            if not linalg.in_span_i(ctx, [linalg.vec_key(u)], t):
                assert not forms.singular_i(f, t)
                checked += 1
    assert checked


@pytest.mark.parametrize("family,dim,p,k", [
    ("sp", 4, 2, 1), ("o+", 4, 2, 1), ("o-", 4, 2, 1), ("o", 5, 3, 1),
    ("u", 4, 2, 2), ("o-", 6, 2, 1), ("o+", 4, 3, 1), ("o-", 4, 3, 1),
])
def test_standard_forms_are_nondegenerate(family, dim, p, k):
    ctx = field_new(p, k)
    f = standard_form(family, dim, ctx)
    rows = [forms.kernel_row_i(f, tuple(int(i == j) for j in range(dim)))
            for i in range(dim)]
    radical = linalg.null_space_i(ctx, rows, dim)
    if f.kind == "quadratic":
        # quadric radical: the bilinear radical meeting the quadric
        bad = [v for v in linalg.span_i(ctx, radical, dim)
               if any(v) and forms.singular_i(f, v)]
        assert not bad
    else:
        assert radical == ()
