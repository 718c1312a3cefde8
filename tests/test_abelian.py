import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lspace.abelian import (FinAbGroup, GluingMatrix, GroupElement, Slope,
                            _rotation_masks, bitmask, canonical_longitude,
                            pairing_and_label, primitive_slope_qs,
                            smith_normal_form, window_slope_qs)
from lspace.errors import DeterminantError


def minor_gcds(mat):
    """Independent oracle: gcd of all k x k minors, for each k."""
    rows, cols = len(mat), len(mat[0])

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, abs(det([[mat[i][j] for j in ci] for i in ri])))
        out.append(g)
    return out


def check_snf(mat):
    d, u, v = smith_normal_form(mat)
    rows, cols = len(mat), len(mat[0])
    # U * mat * V == D
    prod = [[sum(u[i][k] * mat[k][j] for k in range(rows)) for j in range(cols)]
            for i in range(rows)]
    prod = [[sum(prod[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
            for i in range(rows)]
    assert prod == d
    # diagonal, nonnegative, divisibility chain
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    # unimodular transforms
    assert abs(_det_square(u)) == 1
    assert abs(_det_square(v)) == 1
    # invariant factors match the minor-gcd oracle
    gcds = minor_gcds(mat)
    prev = 1
    for k, g in enumerate(gcds):
        expect = 0 if g == 0 else g
        prod_diag = 1
        for x in diag[:k + 1]:
            prod_diag *= x
        assert prod_diag == expect, (mat, diag, gcds)
        prev = g
    return diag


def _det_square(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_square(minor)
    return total


def test_snf_identity():
    diag = check_snf([[1, 0], [0, 1]])
    assert diag == [1, 1]


def test_snf_diag_2_3():
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_snf_2468():
    # minor-gcd oracle: d1 = gcd(2,4,6,8) = 2, d1*d2 = |det| = 8
    diag = check_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_snf_random_sample_vs_minor_gcds():
    rng = random.Random(20260810)
    for _ in range(10000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        check_snf(mat)


slopes = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
    lambda ab: ab != (0, 0)).map(lambda ab: Slope(*ab))


@given(slopes, slopes)
def test_pairing_antisymmetric(mu, nu):
    assert mu.pairing(nu) == -nu.pairing(mu)


@given(slopes, slopes, st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(-3, 3))
def test_pairing_unimodular_invariance(mu, nu, a, b, c, d):
    det = a * d - b * c
    if det != 1:
        return
    mu2 = Slope(a * mu.a + b * mu.b, c * mu.a + d * mu.b)
    nu2 = Slope(a * nu.a + b * nu.b, c * nu.a + d * nu.b)
    assert abs(mu2.pairing(nu2)) == abs(mu.pairing(nu))


def test_pairing_and_label_examples():
    beta, n, label = pairing_and_label(Slope(3, 1), Slope(2, 1))
    assert (beta, n, label) == (1, 2, Fraction(1, 2))
    # consistency identity n/n' = p/(q + beta/n)
    assert Fraction(2, 1) == Fraction(3, 1) / (1 + Fraction(1, 2))
    # mu = mu_L has label 0
    assert pairing_and_label(Slope(3, 1), Slope(3, 1))[2] == 0
    # the longitude has label infinity
    beta, n, label = pairing_and_label(Slope(3, 1), Slope(0, 1))
    assert n == 0 and label is None


@given(slopes, slopes)
def test_label_identity(mu_L, mu):
    p, q = mu_L.a, mu_L.b
    beta, n, label = pairing_and_label(mu_L, mu)
    if label is None or q + label == 0 or mu.b == 0:
        return
    assert Fraction(mu.a, mu.b) == Fraction(p, 1) / (q + label)


def test_slope_normalization():
    assert Slope(-2, 4) == Slope(1, -2)
    assert Slope(0, -3) == Slope(0, 1)
    assert Slope(6, 4) == Slope(3, 2)
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_gluing_matrix_det():
    with pytest.raises(DeterminantError):
        GluingMatrix(1, 0, 0, 1)
    phi = GluingMatrix(1, 0, 1, -1)
    assert phi.det == -1
    assert phi.q_star == 0


@given(slopes, st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4))
def test_gluing_roundtrip_slopes(s, a, b, c, d):
    if a * d - b * c != -1:
        return
    phi = GluingMatrix(a, b, c, d)
    assert phi.inverse().apply_slope(phi.apply_slope(s)) == s


def test_group_arithmetic():
    G = FinAbGroup((2, 3))
    x = G.element(1, (1, 2))
    y = G.element(-2, (1, 1))
    assert G.add(x, y) == GroupElement(-1, (0, 0))
    assert G.sub(x, y) == GroupElement(3, (0, 1))
    assert G.neg(x) == GroupElement(-1, (1, 1))
    assert G.scale(3, x) == GroupElement(3, (1, 0))
    assert G.torsion_size == 6
    assert G.torsion_order_of(G.element(0, (1, 2))) == 6
    assert G.torsion_order_of(G.zero()) == 1
    assert len(G.torsion_elements()) == 6


def test_bad_orders():
    with pytest.raises(ValueError):
        FinAbGroup((1,))


def test_class_encoding_matches_group():
    # for each group: tindex counts the torsion elements 0..|T|-1, a full
    # level decodes to them in order, and every add table is the addition
    assert FinAbGroup((2, 3)).encode(GroupElement(-2, (1, 2))) == -2 * 6 + 5
    for orders in [(), (3,), (2, 2, 2), (2, 3), (4, 6)]:
        G = FinAbGroup(orders)
        torsion = G.torsion_elements()
        size = G.torsion_size
        assert [G.tindex(t.torsion) for t in torsion] == list(range(size))
        assert G.classes(((1 << size) - 1) << 2 * size) == [
            GroupElement(2, t.torsion) for t in torsion]
        for dt in torsion:
            table = G.add_table(dt.torsion)
            assert table == [G.tindex(G.add(t, dt).torsion) for t in torsion]


@st.composite
def masks_and_shifts(draw):
    G = FinAbGroup(draw(st.sampled_from([(), (3,), (2, 4), (3, 9), (2, 2, 2)])))
    levels = draw(st.integers(1, 4))
    classes = [GroupElement(f, t.torsion) for f in range(levels)
               for t in G.torsion_elements()]
    members = draw(st.sets(st.sampled_from(classes)))
    h = G.element(draw(st.integers(-levels, levels)),
                  draw(st.sampled_from(G.torsion_elements())).torsion)
    return G, levels, members, h


@given(masks_and_shifts())
def test_translate_matches_group_addition(case):
    G, levels, members, h = case
    mask = bitmask(G.encode(x) for x in members)
    assert G.classes(mask) == sorted(members)
    moved = G.translate(mask, h, levels)
    assert G.classes(moved) == sorted(
        y for y in (G.add(x, h) for x in members) if y.free >= 0)


def test_rotation_masks_stay_bounded():
    # levels 1..2999 round up to the 13 powers of two 1..4096: one entry
    # for each of them and each of the two factors that h rotates, and
    # never more than the cache's finite maxsize
    _rotation_masks.cache_clear()
    G = FinAbGroup((2, 4))
    h = G.element(0, (1, 3))
    for levels in range(1, 3000):
        members = [G.element(levels - 1, (0, 0)), G.element(0, (1, 3))]
        assert G.translate(bitmask(G.encode(x) for x in members), h, levels) == bitmask(
            G.encode(G.add(x, h)) for x in members)
    info = _rotation_masks.cache_info()
    assert info.currsize == 2 * 13
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_primitive_slope_qs_order():
    assert list(primitive_slope_qs(1, -2, 2)) == [0, 1, -1, 2, -2]
    assert list(primitive_slope_qs(4, -5, 5)) == [1, -1, 3, -3, 5, -5]
    assert list(primitive_slope_qs(3, -4, 7)) == [1, -1, 2, -2, 4, -4, 5, 7]
    assert list(primitive_slope_qs(2, -9, -4)) == [-5, -7, -9]
    assert list(primitive_slope_qs(2, 3, 1)) == []


def test_window_slope_qs_merges_and_cuts():
    # (None, -3) and (2, None) cut one period (6) past -3 and past 2
    windows = [(None, -3), (2, None)]
    assert list(window_slope_qs(5, windows, 6)) == [
        2, 3, -3, 4, -4, 6, -6, 7, -7, 8, -8, -9]
    assert list(window_slope_qs(1, [(None, None)], 2)) == [0, 1, -1, 2, -2]
    assert list(window_slope_qs(1, [], 2)) == []


@given(slopes)
def test_canonical_longitude(mu):
    if mu.a == 0:
        return
    lam, q_star, p_star = canonical_longitude(mu)
    assert (lam.a, lam.b) == (q_star, p_star)
    assert mu.pairing(lam) == 1 and 0 <= q_star < mu.a
