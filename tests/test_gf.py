import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from polareig import gf
from polareig.gf import (
    CapExceeded, ContextMismatch, DegreeZero, DivisionByZero,
    EvenCharacteristic, FieldError, NonPrimeCharacteristic, OddExtensionDegree,
    field_from_order, field_new, frobenius_sqrt, multiplicative_order,
    norm_minus_one_unit, norm_one_subgroup, primitive_element,
)


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (2, 4), (5, 2), (7, 2)]
# GF(125), GF(128), GF(243) and GF(256): too large to check exhaustively
LARGE_FIELDS = [(5, 3), (2, 7), (3, 5), (2, 8)]


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            out.append(gf.factor_prime_power(q))
        except NonPrimeCharacteristic:
            pass
    return out


ALL_FIELDS = _prime_powers(gf.DESK_SCALE_CAP)


# -- reference polynomial arithmetic (little-endian coefficient tuples) ------

def _poly_trim(a):
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _poly_trim(tuple(a))


def _monic(p, deg):
    """Monic degree-deg polynomials over GF(p), least first in canonical order."""
    for idx in range(p ** deg):
        yield tuple(idx // p ** i % p for i in range(deg)) + (1,)


def _least_irreducible(p, k):
    """Trial division by every monic polynomial of degree at most k / 2."""
    return next(m for m in _monic(p, k)
                if all(_poly_mod(m, d, p) for e in range(1, k // 2 + 1)
                       for d in _monic(p, e)))


def test_prime_field_modulus_is_x():
    ctx = field_new(2, 1)
    assert ctx.modulus == (0, 1)
    assert ctx.q == 2


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    assert field_new(2, 2).modulus == (1, 1, 1)


def test_every_modulus_is_the_least_irreducible_by_trial_division():
    assert len(ALL_FIELDS) == 70
    for p, k in ALL_FIELDS:
        assert field_new(p, k).modulus == _least_irreducible(p, k), (p, k)


def test_gf9_multiplicative_group_is_cyclic_of_order_8():
    ctx = field_new(3, 2)
    beta = primitive_element(ctx)
    # oracle: the generator's powers exhaust the nonzero elements
    seen = set()
    acc = ctx.one
    for _ in range(8):
        acc = acc * beta
        seen.add(acc.index)
    assert len(seen) == 8
    assert multiplicative_order(beta) == 8


@pytest.mark.parametrize("p,k", SMALL_FIELDS + LARGE_FIELDS)
def test_primitive_element_is_the_least_generator_on_every_call(p, k):
    ctx = field_new(p, k)
    beta = primitive_element(ctx)
    assert multiplicative_order(beta) == ctx.q - 1
    assert all(multiplicative_order(x) < ctx.q - 1 for x in ctx.elements()[1:beta.index])
    assert primitive_element(ctx) == beta == primitive_element(field_new(p, k))


def test_arith_examples():
    f4 = field_new(2, 2)
    w = f4.element(2)
    assert w * (w + 1) == f4.one
    f2 = field_new(2, 1)
    assert f2.one + f2.one == f2.zero
    f9 = field_new(3, 2)
    assert primitive_element(f9) ** 8 == f9.one


def test_division_and_pow():
    f9 = field_new(3, 2)
    for a in f9.elements():
        if not a.is_zero():
            assert a / a == f9.one
            assert a * a ** (-1) == f9.one
            assert a ** 0 == f9.one
    with pytest.raises(DivisionByZero):
        f9.one / f9.zero
    with pytest.raises(DivisionByZero):
        f9.zero ** (-1)


def test_context_mismatch():
    a = field_new(2, 2).element(2)
    b = field_new(3, 2).element(2)
    with pytest.raises(ContextMismatch):
        a + b


def test_constructor_errors():
    with pytest.raises(NonPrimeCharacteristic):
        field_new(6, 1)
    with pytest.raises(DegreeZero):
        field_new(2, 0)
    with pytest.raises(CapExceeded):
        field_new(2, 21)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6, 9, 12, 25, 91])
def test_a_characteristic_that_is_not_prime_is_refused_by_name(p):
    # prime powers and other composites alike, with one message
    with pytest.raises(NonPrimeCharacteristic, match=f"^characteristic {p} is not prime$"):
        field_new(p, 1)


def test_the_desk_scale_cap_admits_gf256_and_nothing_larger():
    assert gf.DESK_SCALE_CAP == 256
    assert field_from_order(256).q == 256
    for q in (257, 289, 300, 1009, 2 ** 20):
        with pytest.raises(CapExceeded, match=f"field order {q} exceeds the "
                                              "desk-scale cap 256"):
            field_from_order(q)
    with pytest.raises(CapExceeded):
        field_new(2, 9)


@pytest.mark.parametrize("p,k", [(2 ** 61 - 1, 1), (3, 10 ** 9)])
def test_an_oversized_field_is_refused_before_p_is_factored_or_p_to_the_k_built(p, k):
    # the primality test would trial-divide to 1.5e9, and 3^(10^9) is a
    # runaway allocation; the order is named as p^k, unexpanded
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=re.escape(f"field order {p}^{k} exceeds the "
                                                    "desk-scale cap 256")):
        field_new(p, k)
    assert time.perf_counter() - start < 0.1


def test_the_cap_comes_first_even_for_a_characteristic_that_is_not_prime():
    for p, k in ((4, 9), (257, 1), (10 ** 5000, 1)):
        with pytest.raises(CapExceeded):
            field_new(p, k)
    # p^k over the cap only through k: a k past 4,300 digits is named by its size
    with pytest.raises(CapExceeded, match=re.escape("3^(16610-bit integer)")):
        field_new(3, 10 ** 5000)


def test_fields_within_the_cap_keep_their_exception_order_and_messages():
    with pytest.raises(NonPrimeCharacteristic, match="^characteristic 4 is not prime$"):
        field_new(4, 1)
    with pytest.raises(NonPrimeCharacteristic, match="^characteristic 1 is not prime$"):
        field_new(1, 10 ** 9)  # 1^k is no order over the cap
    with pytest.raises(DegreeZero, match="^extension degree must be >= 1, got 0$"):
        field_new(2, 0)
    with pytest.raises(CapExceeded, match="^field order 2\\^9 exceeds the desk-scale cap 256$"):
        field_new(2, 9)
    assert field_new(2, 8).q == 256


@pytest.mark.parametrize("p,k", [(2, 2), (67, 1)])
def test_element_rejects_an_index_outside_the_field(p, k):
    ctx = field_new(p, k)
    for index in (-1, ctx.q, ctx.q + 5):
        with pytest.raises(FieldError, match=re.escape(
                f"element index {index} is outside {ctx!r}")):
            ctx.element(index)
    assert ctx.element(ctx.q - 1).index == ctx.q - 1


def test_frobenius_examples():
    f4 = field_new(2, 2)
    w = f4.element(2)
    assert frobenius_sqrt(w) == w * w == w + 1
    assert frobenius_sqrt(f4.zero) == f4.zero
    assert frobenius_sqrt(f4.one) == f4.one
    with pytest.raises(OddExtensionDegree):
        frobenius_sqrt(field_new(2, 3).element(1))


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 4), (2, 8)])
def test_frobenius_is_an_involutory_automorphism(p, k):
    ctx = field_new(p, k)
    for a in ctx.elements():
        assert frobenius_sqrt(frobenius_sqrt(a)) == a
        for b in ctx.elements():
            assert frobenius_sqrt(a + b) == frobenius_sqrt(a) + frobenius_sqrt(b)
            assert frobenius_sqrt(a * b) == frobenius_sqrt(a) * frobenius_sqrt(b)


@pytest.mark.parametrize("p,k,size", [(2, 2, 3), (3, 2, 4), (2, 4, 5)])
def test_norm_one_subgroup_size(p, k, size):
    ctx = field_new(p, k)
    sub = norm_one_subgroup(ctx)
    assert len(sub) == size == ctx.sqrt_q + 1
    # oracle: repeated multiplication, no pow machinery
    r = ctx.sqrt_q
    brute = []
    for i in range(1, ctx.q):
        acc = 1
        for _ in range(r + 1):
            acc = ctx.mul_i(acc, i)
        if acc == 1:
            brute.append(i)
    assert [e.index for e in sub] == brute


def test_norm_one_subgroup_needs_square_order():
    with pytest.raises(OddExtensionDegree):
        norm_one_subgroup(field_new(3, 1))


def test_norm_map_is_onto_the_subfield_and_balanced():
    for p, k in [(2, 2), (3, 2), (2, 4), (5, 2)]:
        ctx = field_new(p, k)
        r = ctx.sqrt_q
        images = {}
        for i in range(1, ctx.q):
            images.setdefault(ctx.pow_i(i, r + 1), []).append(i)
        # image = the subfield's nonzero elements, each hit sqrt(q)+1 times
        assert len(images) == r - 1
        assert all(ctx.frob_i(y) == y for y in images)
        assert all(len(v) == r + 1 for v in images.values())


def test_norm_minus_one_unit_examples():
    f9 = field_new(3, 2)
    eps = norm_minus_one_unit(f9)
    assert eps == primitive_element(f9)
    assert eps ** 4 == -f9.one
    f25 = field_new(5, 2)
    eps25 = norm_minus_one_unit(f25)
    assert eps25 == primitive_element(f25) ** 2
    assert eps25 ** 6 == -f25.one
    f49 = field_new(7, 2)
    eps49 = norm_minus_one_unit(f49)
    assert eps49 == primitive_element(f49) ** 3
    assert eps49 ** 8 == -f49.one


def test_norm_minus_one_unit_raises_when_the_norm_is_wrong(monkeypatch):
    # a non-primitive "generator" gives a unit whose norm is not -1
    monkeypatch.setattr(gf, "primitive_element", lambda ctx: ctx.one)
    with pytest.raises(gf.FieldError):
        norm_minus_one_unit(field_new(3, 2))


def test_norm_minus_one_unit_rejects_even_characteristic():
    with pytest.raises(EvenCharacteristic):
        norm_minus_one_unit(field_new(2, 2))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4), (5, 2), (7, 2),
                                 (67, 1), (3, 4)])
def test_field_axioms_exhaustive(p, k):
    ctx = field_new(p, k)
    q = ctx.q
    add, mul = ctx.add_i, ctx.mul_i
    for a in range(q):
        for b in range(q):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in range(q):
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    for a in range(1, q):
        assert mul(a, ctx.inv_i(a)) == 1


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_field_axioms_random(field_key, data):
    ctx = field_new(*field_key)
    idx = st.integers(min_value=0, max_value=ctx.q - 1)
    a = ctx.element(data.draw(idx))
    b = ctx.element(data.draw(idx))
    c = ctx.element(data.draw(idx))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ctx.zero
    if not a.is_zero():
        assert a * a ** (-1) == ctx.one
    if ctx.k % 2 == 0:
        assert frobenius_sqrt(a * b) == frobenius_sqrt(a) * frobenius_sqrt(b)
        assert frobenius_sqrt(a + b) == frobenius_sqrt(a) + frobenius_sqrt(b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LARGE_FIELDS), st.data())
def test_field_axioms_sampled_on_large_fields(field_key, data):
    ctx = field_new(*field_key)
    idx = st.integers(min_value=0, max_value=ctx.q - 1)
    a, b, c = (ctx.element(data.draw(idx)) for _ in range(3))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ctx.zero and a * ctx.one == a
    if not a.is_zero():
        assert a * a ** (-1) == ctx.one
        assert a ** (ctx.q - 1) == ctx.one
    if ctx.k % 2 == 0:
        assert frobenius_sqrt(a * b) == frobenius_sqrt(a) * frobenius_sqrt(b)
        assert frobenius_sqrt(a + b) == frobenius_sqrt(a) + frobenius_sqrt(b)


@pytest.mark.parametrize("p,k", [f for f in ALL_FIELDS if f[0] ** f[1] <= 64]
                         + [(3, 4), (2, 7)])
def test_tables_equal_the_polynomial_arithmetic(p, k):
    ctx = field_new(p, k)
    add, mul, neg, inv = ctx.tables()
    poly = [_poly_trim(ctx.coeffs_of(a)) for a in range(ctx.q)]
    for a in range(ctx.q):
        ca = ctx.coeffs_of(a)
        assert ctx.index_of(tuple(-x for x in ca)) == neg[a]
        for b in range(ctx.q):
            cb = ctx.coeffs_of(b)
            assert ctx.index_of(tuple(x + y for x, y in zip(ca, cb))) == add[a][b]
            prod = _poly_mod(_poly_mul(poly[a], poly[b], p), ctx.modulus, p)
            assert ctx.index_of(prod + (0,) * (k - len(prod))) == mul[a][b]
        if a:
            assert mul[a][inv[a]] == 1
    if k % 2 == 0:
        assert [ctx.frob_i(a) for a in range(ctx.q)] == \
            [ctx.pow_i(a, ctx.sqrt_q) for a in range(ctx.q)]


def test_determinism_of_construction():
    before = field_new(3, 2)
    modulus, order = before.modulus, [e.index for e in before.elements()]
    gf._field_cached.cache_clear()
    after = field_new(3, 2)
    assert after.modulus == modulus
    assert [e.index for e in after.elements()] == order
    assert after == before


def test_element_order_is_lexicographic_high_degree_first():
    ctx = field_new(3, 2)
    coeff_lists = [ctx.coeffs_of(i) for i in range(ctx.q)]
    assert coeff_lists == sorted(coeff_lists, key=lambda c: tuple(reversed(c)))


def test_serialization_coeffs_little_endian():
    ctx = field_new(3, 2)
    e = ctx.from_coeffs((2, 1))  # 2 + x
    assert e.coeffs == (2, 1)
    assert e.index == 2 + 3 * 1
