import pytest

from lspace.abelian import FinAbGroup, GroupElement, Slope
from lspace.corpus import (n_g, negative_trefoil, random_records,
                           solid_torus, standard_corpus, t25, trefoil)
from lspace.interval import validate_witness
from lspace.torsion import (FloerSimpleManifold, gamma_closed,
                            milnor_invariants, tauc_degree, validate_manifold)


def test_standard_corpus_validates():
    for name, Y in standard_corpus().items():
        rep = validate_manifold(Y)
        milnor_invariants(Y)
        validate_witness(Y, Y.witness)
        assert gamma_closed(Y)[0]


def _knot_record(gaps, a, b):
    return FloerSimpleManifold(group=FinAbGroup(()),
                               iota_m=GroupElement(1, ()),
                               iota_l=GroupElement(0, ()),
                               tauc_support=frozenset(GroupElement(f, ()) for f in gaps),
                               witness=Slope(a, b))


def test_knot_records_by_value():
    # the records over Z, spelled out field by field
    assert solid_torus() == _knot_record((), 1, 0)
    assert trefoil() == _knot_record((1,), 3, 1)
    assert negative_trefoil() == _knot_record((1,), 3, -1)
    assert t25() == _knot_record((1, 3), 4, 1)


def test_n_family_structure():
    for g in (2, 3, 4, 5):
        Y = n_g(g)
        rep = validate_manifold(Y)
        assert rep.g == g
        assert rep.k == 1
        assert len(Y.tauc_support) == g * (g - 1) // 2
        assert tauc_degree(Y) == g - 2


def test_random_records_deterministic():
    a = random_records(seed=3, count=5)
    b = random_records(seed=3, count=5)
    assert a == b
    c = random_records(seed=4, count=5)
    assert a != c


def test_random_records_constraints():
    for Y in random_records(seed=0, count=5):
        validate_manifold(Y)
        assert Y.group.torsion_size <= 4
        assert tauc_degree(Y) <= 5
        milnor_invariants(Y)
        assert gamma_closed(Y)[0]
        validate_witness(Y, Y.witness)


@pytest.mark.parametrize("g", [1, 0, -3])
def test_n_family_needs_g_at_least_two(g):
    with pytest.raises(ValueError, match="g >= 2"):
        n_g(g)
