from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_rref
from polareig import linalg
from polareig.gf import ContextMismatch, field_new

# GF(67), a prime field far larger than the others, keeps large entries in play
FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (67, 1)]


@st.composite
def matrices(draw):
    p, k = draw(st.sampled_from(FIELDS))
    ctx = field_new(p, k)
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(0, ctx.q - 1)] * dim),
                         max_size=6))
    return ctx, rows


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_int_core_and_wrapper_match_the_element_reference(case):
    ctx, rows = case
    elem_rows = linalg.element_rows(ctx, rows)
    expected = reference_rref(elem_rows)
    assert linalg.rref_i(ctx, rows) == tuple(linalg.vec_key(r) for r in expected)
    assert linalg.rref(elem_rows) == expected


def test_mixed_fields_raise_context_mismatch():
    f2, f3 = field_new(2, 1), field_new(3, 1)
    with pytest.raises(ContextMismatch):
        linalg.rref([(f2.one, f2.zero), (f3.zero, f3.one)])
    with pytest.raises(ContextMismatch):
        linalg.rref([(f3.one, f2.zero)])


@st.composite
def small_spans(draw):
    """Rows and a vector over a field of FIELDS in dimension <= 3; GF(67)
    stays at dimension and row count <= 2 so that brute force is quick."""
    p, k = draw(st.sampled_from(FIELDS))
    ctx = field_new(p, k)
    small = ctx.q < 67
    dim = draw(st.integers(1, 3 if small else 2))
    vector = st.tuples(*[st.integers(0, ctx.q - 1)] * dim)
    rows = draw(st.lists(vector, max_size=3 if small else 2))
    return ctx, dim, rows, draw(vector)


def _dot(ctx, r, x):
    acc = 0
    for a, b in zip(r, x):
        acc = ctx.add_i(acc, ctx.mul_i(a, b))
    return acc


def _combination(ctx, coeffs, rows, dim):
    v = (0,) * dim
    for c, row in zip(coeffs, rows):
        v = tuple(ctx.add_i(a, ctx.mul_i(c, b)) for a, b in zip(v, row))
    return v


@settings(max_examples=100, deadline=None)
@given(small_spans())
def test_span_i_lists_every_coefficient_combination_once_in_order(case):
    ctx, dim, rows, _ = case
    span = linalg.span_i(ctx, rows, dim)
    assert span == sorted(set(span))
    assert set(span) == {_combination(ctx, coeffs, rows, dim)
                         for coeffs in product(range(ctx.q), repeat=len(rows))}


@settings(max_examples=100, deadline=None)
@given(small_spans())
def test_in_span_i_is_membership_in_span_i(case):
    ctx, dim, rows, v = case
    assert linalg.in_span_i(ctx, rows, v) == (v in linalg.span_i(ctx, rows, dim))


@settings(max_examples=100, deadline=None)
@given(small_spans())
def test_null_space_i_spans_the_solutions(case):
    ctx, dim, rows, _ = case
    basis = linalg.null_space_i(ctx, rows, dim)
    assert linalg.rref_i(ctx, basis) == basis
    solutions = {x for x in product(range(ctx.q), repeat=dim)
                 if all(_dot(ctx, r, x) == 0 for r in rows)}
    assert set(linalg.span_i(ctx, basis, dim)) == solutions
