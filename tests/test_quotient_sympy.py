"""The quotient helpers against sympy's Smith normal form."""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

from lspace.abelian import (FinAbGroup, quotient_by_relation,  # noqa: E402
                            quotient_group)


def _sympy_quotient(num_gens, relations):
    """(free rank, torsion orders) of Z^num_gens / <relations> by sympy."""
    if not relations:
        return num_gens, ()
    d = sympy_snf(sympy.Matrix(relations), domain=sympy.ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(d.shape))]
    rank = sum(1 for x in diag if x)
    return num_gens - rank, tuple(sorted(x for x in diag if x > 1))


def test_quotient_group_random_matrices():
    rng = random.Random(20260101)
    for _ in range(150):
        num_gens = rng.randint(1, 4)
        relations = [[rng.randint(-6, 6) for _ in range(num_gens)]
                     for _ in range(rng.randint(0, 4))]
        free_rank, orders, _ = quotient_group(num_gens, relations)
        assert (free_rank, tuple(orders)) == _sympy_quotient(num_gens, relations)


def test_quotient_by_relation_random_blocks():
    rng = random.Random(20260102)
    for _ in range(150):
        blocks = [tuple(rng.randint(2, 6) for _ in range(rng.randint(0, 2)))
                  for _ in range(rng.randint(1, 3))]
        num_gens = sum(1 + len(orders) for orders in blocks)
        relation = [rng.randint(-6, 6) for _ in range(num_gens)]
        positive = [rng.randint(-3, 3) for _ in range(num_gens)]
        relations = []
        start = 0
        for orders in blocks:
            for i, n in enumerate(orders):
                row = [0] * num_gens
                row[start + 1 + i] = n
                relations.append(row)
            start += 1 + len(orders)
        relations.append(relation)
        free_rank, orders, image = quotient_by_relation(blocks, relation, positive)
        assert (free_rank, tuple(orders)) == _sympy_quotient(num_gens, relations)
        if image is None:
            assert free_rank != 1
            continue
        group = FinAbGroup(orders)
        assert image(relation) == group.zero()
        assert image(positive).free >= 0
        u = [rng.randint(-5, 5) for _ in range(num_gens)]
        v = [rng.randint(-5, 5) for _ in range(num_gens)]
        assert image([a + b for a, b in zip(u, v)]) == group.add(image(u), image(v))
