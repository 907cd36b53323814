import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_rref
from polareig import linalg
from polareig.gf import ContextMismatch, field_new

# GF(67) is above the table limit, so the int core runs on add_i/mul_i there
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


def test_untabled_field_takes_the_computed_path():
    assert field_new(67, 1)._mul is None
    assert field_new(2, 4)._mul is not None


def test_mixed_fields_raise_context_mismatch():
    f2, f3 = field_new(2, 1), field_new(3, 1)
    with pytest.raises(ContextMismatch):
        linalg.rref([(f2.one, f2.zero), (f3.zero, f3.one)])
    with pytest.raises(ContextMismatch):
        linalg.rref([(f3.one, f2.zero)])
