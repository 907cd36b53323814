import pytest
from hypothesis import given, settings, strategies as st

from polareig import bitsets, graphs, polarspace
from polareig.bitsets import bit_indices, bits_of

# name in bitsets -> the name it had in polarspace or graphs
MOVED = {"bit_indices": "bit_indices", "counter_planes": "counter_planes",
         "counts_differ": "counts_differ",
         "cliques_within": "cliques_within", "complement": "complement",
         "connected": "_connected"}


@settings(max_examples=300, deadline=None)
@given(x=st.integers(0, 2 ** 200))
def test_bits_of_inverts_bit_indices(x):
    assert bits_of(bit_indices(x)) == x


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.integers(0, 300)))
def test_bit_indices_of_bits_of_is_the_sorted_set(xs):
    assert bit_indices(bits_of(xs)) == tuple(sorted(set(xs)))


@pytest.mark.parametrize("name", MOVED)
def test_each_bitset_primitive_lives_only_in_bitsets(name):
    assert getattr(bitsets, name).__module__ == "polareig.bitsets"
    for module in (polarspace, graphs):
        assert not hasattr(module, name) and not hasattr(module, MOVED[name])
