import pytest

from lspace.corpus import n_g, random_records, standard_corpus
from lspace.interval import validate_witness
from lspace.torsion import (gamma_closed, milnor_invariants, tauc_degree,
                            validate_manifold)


def test_standard_corpus_validates():
    for name, Y in standard_corpus().items():
        rep = validate_manifold(Y)
        milnor_invariants(Y)
        validate_witness(Y, Y.witness)
        assert gamma_closed(Y)[0]


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
        rep = validate_manifold(Y)
        assert rep.torsion_size <= 4
        assert tauc_degree(Y) <= 5
        milnor_invariants(Y)
        assert gamma_closed(Y)[0]
        validate_witness(Y, Y.witness)


@pytest.mark.parametrize("g", [1, 0, -3])
def test_n_family_needs_g_at_least_two(g):
    with pytest.raises(ValueError, match="g >= 2"):
        n_g(g)
