"""The value classes' contract: what ``Record`` gives the frozen classes and
what the mutable ``Eigenfunction`` keeps, as the dataclasses gave them."""

import copy
import pickle
from fractions import Fraction

import pytest

from polareig import eigenfunctions, forms, gf, graphs, oracle, polarspace
from polareig.eigenfunctions import Eigenfunction
from polareig.graphs import CliqueInfo, GraphError, SpectrumInfo, SrgParams
from polareig.record import Record

# every frozen value class and its fields, in declaration order
FIELDS = [
    (graphs.SrgParams, ("v", "k", "lam", "mu")),
    (graphs.SpectrumInfo, ("theta1", "theta2", "m1", "m2")),
    (graphs.CliqueInfo, ("vertices", "is_delsarte", "nexus")),
    (forms.Form, ("kind", "family", "dim", "epsilon", "ctx", "matrix")),
    (gf.NormOneSubgroup, ("ctx", "elements")),
    (polarspace.ProjectivePoint, ("rep", "index")),
    (polarspace.SingularSubspace, ("basis", "key", "point_bits", "proj_dim")),
    (polarspace.PolarSpaceDescriptor,
     ("family", "q", "rank", "order", "e", "point_count", "maximal_count")),
    (eigenfunctions.WdbReport, ("theta", "bound", "support_size", "tight")),
    (oracle.PairCatalog, ("kind", "s", "pairs", "outside_regular")),
    (oracle.CharacterisationReport,
     ("total", "matched", "counterexamples", "witnesses")),
    (oracle.CountComparison,
     ("family", "q", "m_or_n", "s", "oracle", "printed", "derived")),
]


@pytest.mark.parametrize("cls,fields", FIELDS, ids=[c.__name__ for c, _ in FIELDS])
def test_every_value_class_is_a_record_with_its_fields(cls, fields):
    assert issubclass(cls, Record)
    assert cls._fields == fields
    values = tuple(range(len(fields)))
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword) == hash(values)
    assert tuple(getattr(by_position, f) for f in fields) == values
    assert list(by_position._asdict().items()) == list(zip(fields, values))


def test_equality_and_hash_are_by_field():
    a, b = SrgParams(15, 6, 1, 3), SrgParams(v=15, k=6, lam=1, mu=3)
    c = SrgParams(15, 6, 1, 2)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    # the hash of the field tuple, as the dataclass gave, so set orders hold
    assert hash(a) == hash((15, 6, 1, 3))


def test_records_of_different_classes_are_never_equal():
    assert SrgParams(1, 2, 3, 4) != SpectrumInfo(1, 2, 3, 4)
    assert SrgParams(1, 2, 3, 4) != (1, 2, 3, 4)

    class Flagged(CliqueInfo):  # names no field, so keeps its parent's
        pass

    plain, flagged = CliqueInfo((0, 1), True, 1), Flagged((0, 1), True, 1)
    assert Flagged._fields == CliqueInfo._fields
    assert plain != flagged and flagged != plain
    assert repr(flagged).endswith("Flagged(vertices=(0, 1), is_delsarte=True, nexus=1)")


def test_positional_keyword_and_mixed_construction():
    assert SrgParams(1, 2, lam=3, mu=4) == SrgParams(mu=4, lam=3, k=2, v=1)
    for args, kwargs in [((1, 2, 3), {}), ((1, 2, 3, 4, 5), {}),
                         ((1, 2, 3, 4), {"v": 1}), ((1, 2, 3), {"nu": 4})]:
        with pytest.raises(TypeError):
            SrgParams(*args, **kwargs)


@pytest.mark.parametrize("name", ["v", "mu", "other"])
def test_assignment_and_deletion_raise(name):
    p = SrgParams(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        setattr(p, name, 9)
    with pytest.raises(AttributeError):
        delattr(p, name)
    assert p == SrgParams(1, 2, 3, 4) and not hasattr(p, "other")


def test_repr_is_the_dataclass_text():
    assert repr(SrgParams(1, 2, 3, 4)) == "SrgParams(v=1, k=2, lam=3, mu=4)"
    assert repr(CliqueInfo((0, 1), False, None)) == \
        "CliqueInfo(vertices=(0, 1), is_delsarte=False, nexus=None)"
    # spectrum puts the text in its error
    with pytest.raises(GraphError, match=r"^parameters SrgParams\(v=4, k=2, lam=0, "
                                         r"mu=2\) are not primitive$"):
        graphs.spectrum(SrgParams(4, 2, 0, 2))


def test_form_keeps_its_repr_and_caches_a_property_outside_its_fields():
    ctx = gf.field_new(3, 1)
    f, g = forms.standard_form("sp", 4, ctx), forms.standard_form("sp", 4, ctx)
    assert repr(f) == "Form(sp, dim=4, GF(3))"
    terms = f.bilinear_terms
    assert f.bilinear_terms is terms  # computed once, kept on the instance
    assert f == g and hash(f) == hash(g)  # g has no cached value
    with pytest.raises(AttributeError):
        f.dim = 6


def test_records_copy_and_pickle():
    for value in (SrgParams(1, 2, 3, 4), polarspace.ProjectivePoint((1, 0, 2), 5),
                  oracle.PairCatalog("isolated_cliques", 2, (((0, 1), (2, 3)),), None)):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)


def test_eigenfunction_is_mutable_unhashable_and_equal_by_field():
    f = Eigenfunction({0: 1, 3: Fraction(-1, 2), 5: 0}, 1, {"family": "sp"})
    assert f.values == {0: Fraction(1), 3: Fraction(-1, 2)}  # zeros dropped
    assert f == Eigenfunction({3: Fraction(-1, 2), 0: 1}, 1, {"family": "sp"})
    assert f != Eigenfunction({0: 1, 3: Fraction(-1, 2)}, 2, {"family": "sp"})
    assert f != Eigenfunction({0: 1}, 1, {"family": "sp"})
    assert f != (f.values, f.theta, f.graph_ref)
    assert Eigenfunction(values={}, theta=0, graph_ref={}) == Eigenfunction({}, 0, {})
    with pytest.raises(TypeError):
        hash(f)
    f.theta = 3
    assert f.theta == 3
    assert repr(Eigenfunction({2: 1}, -3, {})) == \
        "Eigenfunction(values={2: Fraction(1, 1)}, theta=-3, graph_ref={})"
