import random
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lspace.errors import IntegerFiberSlope, MalformedInput, TooFewFibers
from lspace.seifert import (SeifertData, _side_sums, sfs_dtau,
                            sfs_fiber_interval, sfs_flip, sfs_is_lspace,
                            sfs_is_lspace_via_dtau, sfs_normalize)


def M(e0, *fibers):
    return SeifertData(e0=e0, fibers=tuple(fibers))


def test_normalize_examples():
    d = sfs_normalize(M(0, (5, 3)))
    assert d == M(1, (2, 3))
    d = sfs_normalize(M(0, (-1, 2), (1, 3)))
    assert d == M(-1, (1, 2), (1, 3))
    # negative denominators and common factors reduce away
    d = sfs_normalize(M(2, (-2, -4)))
    assert d == M(2, (1, 2))
    # normalized data comes back as it is
    assert sfs_normalize(d) is d


def test_normalize_rejects_integer_slope():
    with pytest.raises(IntegerFiberSlope):
        M(0, (4, 2))


def test_orientation_flip():
    d = sfs_flip(M(0, (2, 3)))
    assert d == M(-1, (1, 3))
    # flipping twice returns the normalized original
    assert sfs_flip(sfs_flip(M(-1, (1, 2), (1, 3), (1, 7)))) == M(-1, (1, 2), (1, 3), (1, 7))


def test_named_verdicts():
    assert not sfs_is_lspace(M(-1, (1, 2), (1, 2))).lspace        # Euler number zero
    assert sfs_is_lspace(M(-1, (1, 2), (1, 2))).reason == "euler-zero"
    assert sfs_is_lspace(M(0, (1, 2), (1, 3), (1, 5))).lspace
    v = sfs_is_lspace(M(-1, (1, 2), (1, 3), (1, 7)))
    assert not v.lspace
    assert v.euler == Fraction(-1, 42)


def test_orbifold_bracketing_values():
    # the bracketing form attains -43/42 at x=1 and 37/210 at x=5
    d = M(-1, (1, 2), (1, 3), (1, 7))
    lo = min(Fraction(1, x) * (1 - sum(Fraction((-r * x) % sd, sd) for r, sd in d.fibers))
             for x in range(1, 42))
    hi = max(Fraction(1, x) * (-1 + sum(Fraction((r * x) % sd, sd) for r, sd in d.fibers))
             for x in range(1, 42))
    assert lo == Fraction(-43, 42)
    assert hi == Fraction(37, 210)
    assert lo < Fraction(-1, 42) < hi


def test_no_exceptional_fibers():
    assert sfs_is_lspace(SeifertData(e0=3, fibers=())).lspace
    assert not sfs_is_lspace(SeifertData(e0=0, fibers=())).lspace


def test_lens_spaces_always_lspaces():
    for e0 in range(-3, 4):
        v = sfs_is_lspace(M(e0, (1, 2)))
        assert v.lspace


def test_dtau_single_fiber_empty():
    assert sfs_dtau(M(0, (1, 2))).entries == ()


def test_dtau_n2_shape():
    data = sfs_dtau(M(0, (1, 2), (1, 2)))
    assert len(data.entries) == 1
    e = data.entries[0]
    assert (e.j, e.x, e.delta, e.b_minus, e.a_minus) == (1, 1, 0, -1, 1)
    assert all(x.delta <= 0 for x in data.entries)  # positive part empty


def test_dtau_235():
    data = sfs_dtau(M(0, (1, 2), (1, 3), (1, 5)))
    assert (data.s, data.g) == (30, 1)
    assert data.p == sum(Fraction(r, s) for r, s in ((1, 2), (1, 3), (1, 5))) * 30
    # frozen regression for the retained entries
    retained = {(e.j, e.x, e.delta) for e in data.entries}
    assert all(e.delta >= 0 for e in data.entries)
    positive = sorted((e.j, e.x, e.delta) for e in data.entries if e.delta > 0)
    assert positive
    max_delta = max(e.delta for e in data.entries)
    # classifier agreement: the 0-filling here is an L-space, and indeed
    # the via-dtau route agrees
    assert sfs_is_lspace_via_dtau(M(0, (1, 2), (1, 3), (1, 5)))
    assert (1, 29, 29) in retained
    assert max_delta == 29


@pytest.mark.parametrize("j", [-1, 2, 5])
def test_fiber_interval_index_out_of_range(j):
    with pytest.raises(MalformedInput):
        sfs_fiber_interval(M(0, (1, 2), (1, 3)), j)


def test_fiber_interval_needs_two_fibers():
    with pytest.raises(TooFewFibers):
        sfs_fiber_interval(M(0, (1, 2)), 0)


def test_fiber_interval_thresholds():
    iv = sfs_fiber_interval(M(-1, (1, 2), (1, 3), (1, 5)), 2)
    assert iv.t_lower == 0
    assert iv.t_upper == Fraction(1, 5)
    e_15 = Fraction(-1) + Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5)
    assert iv.lspace_given(1, 5, e_15)
    assert sfs_is_lspace(M(-1, (1, 2), (1, 3), (1, 5))).lspace
    # 2/7 exceeds the upper threshold, so the filling is an L-space; this
    # agrees with the classifier on M(-1; 1/2, 1/3, 2/7)
    e_27 = Fraction(-1) + Fraction(1, 2) + Fraction(1, 3) + Fraction(2, 7)
    assert iv.lspace_given(2, 7, e_27)
    assert sfs_is_lspace(M(-1, (1, 2), (1, 3), (2, 7))).lspace
    # Euler number zero at 1/6
    e_16 = Fraction(-1) + Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 6)
    assert e_16 == 0
    assert not iv.lspace_given(1, 6, e_16)
    assert not sfs_is_lspace(M(-1, (1, 2), (1, 3), (1, 6))).lspace


def normalized_fibers(max_s):
    out = []
    for s in range(2, max_s + 1):
        for r in range(1, s):
            if gcd(r, s) == 1:
                out.append((r, s))
    return out


def enumerate_sfs(max_n, max_s, max_e0):
    fibers = normalized_fibers(max_s)
    for n in range(1, max_n + 1):
        for combo in product(fibers, repeat=n):
            for e0 in range(-max_e0, max_e0 + 1):
                yield SeifertData(e0=e0, fibers=combo)


def test_classifier_coherence_small_sample():
    # reduced version of the exhaustive acceptance sweep
    count = 0
    for d in enumerate_sfs(2, 4, 2):
        v = sfs_is_lspace(d)
        assert v.theorem_not_lspace == v.orbifold_not_lspace
        assert sfs_is_lspace_via_dtau(d) == v.lspace, d
        if d.n >= 2:
            for j in range(d.n):
                iv = sfs_fiber_interval(d, j)
                r, s = d.fibers[j]
                assert iv.lspace_given(r, s, d.euler()) == v.lspace, (d, j)
        count += 1
    assert count == 150


def test_orientation_duality_sample():
    for d in enumerate_sfs(2, 4, 2):
        assert sfs_is_lspace(d).lspace == sfs_is_lspace(sfs_flip(d)).lspace, d


def test_reparameterization_invariance():
    # shifting integer parts between fibers and e0 leaves verdicts alone
    base = M(-1, (1, 2), (2, 3))
    v = sfs_is_lspace(base).lspace
    assert sfs_is_lspace(M(-2, (3, 2), (2, 3))).lspace == v
    assert sfs_is_lspace(M(0, (-1, 2), (2, 3))).lspace == v
    assert sfs_is_lspace(M(-3, (3, 2), (5, 3))).lspace == v


@st.composite
def unnormalized_sfs(draw):
    fibers = []
    for _ in range(draw(st.integers(1, 4))):
        s = draw(st.integers(2, 9)) * draw(st.sampled_from((1, -1)))
        r = draw(st.integers(-40, 40).filter(lambda r: r % s != 0))
        fibers.append((r, s))
    return M(draw(st.integers(-5, 5)), *fibers)


def dtau_reference(d):
    """sfs_dtau's formula in Fractions: delta = (s/g)(-j + sum [ri x]/si)."""
    d = sfs_normalize(d)
    s = lcm(*[sd for _, sd in d.fibers])
    g = gcd(sum(r * (s // sd) for r, sd in d.fibers), s)
    p = Fraction(s, g) * sum(Fraction(r, sd) for r, sd in d.fibers)
    q_star = s // g
    entries = []
    for j in range(1, d.n):
        for x in range(1, s):
            val = Fraction(s, g) * (-j + sum(Fraction((r * x) % sd, sd)
                                             for r, sd in d.fibers))
            assert val.denominator == 1
            if val < 0:
                continue
            b_minus = -j - sum((r * x) // sd for r, sd in d.fibers)
            entries.append((j, x, int(val), x, b_minus, x - q_star * g,
                            b_minus + p * g))
    return entries, p, q_star, g, s


def via_dtau_reference(d):
    """The surgery-label inequalities compared as Fractions."""
    entries, p, q_star, _, _ = dtau_reference(d)
    d = sfs_normalize(d)
    n_pairing = q_star * d.e0 + p
    if n_pairing == 0:
        return False
    alpha, beta = 1, d.e0
    if beta == 0:
        return True
    positive = Fraction(beta, n_pairing) > 0
    for _, _, delta, a_minus, b_minus, a_plus, b_plus in entries:
        if delta > 0 and not (
                Fraction(a_plus, b_plus) <= Fraction(alpha, beta) if positive
                else Fraction(alpha, beta) <= Fraction(a_minus, b_minus)):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(unnormalized_sfs())
def test_dtau_route_matches_fraction_reference(d):
    data = sfs_dtau(d)
    entries, p, q_star, g, s = dtau_reference(d)
    assert [tuple(e) for e in data.entries] == entries
    assert (data.p, data.q_star, data.g, data.s) == (p, q_star, g, s)
    verdict = sfs_is_lspace_via_dtau(d)
    assert verdict == via_dtau_reference(d)
    assert verdict == sfs_is_lspace(d).lspace


def sides_reference(e0, fibers):
    """min A(x) - e0 and max B(x) - e0 over 1 <= x < lcm(si), with A and B
    as the module docstring writes them, in Fractions."""
    s = lcm(*[sd for _, sd in fibers])
    a = [-Fraction(1, x) * (-1 + sum(ceil(Fraction(r * x, sd)) for r, sd in fibers))
         for x in range(1, s)]
    b = [-Fraction(1, x) * (1 + sum(floor(Fraction(r * x, sd)) for r, sd in fibers))
         for x in range(1, s)]
    return min(a) - e0, max(b) - e0


def bracket_reference(fibers):
    """The remainder bracket as test_orbifold_bracketing_values spells it."""
    s = lcm(*[sd for _, sd in fibers])
    lo = min(Fraction(1, x) * (1 - sum(Fraction((-r * x) % sd, sd) for r, sd in fibers))
             for x in range(1, s))
    hi = max(Fraction(1, x) * (-1 + sum(Fraction((r * x) % sd, sd) for r, sd in fibers))
             for x in range(1, s))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(unnormalized_sfs())
def test_classifier_matches_fraction_reference(d):
    euler = d.e0 + sum(Fraction(r, s) for r, s in d.fibers)
    assert d.euler() == euler
    norm = sfs_normalize(d)
    min_side, max_side = sides_reference(norm.e0, norm.fibers)
    lo, hi = bracket_reference(norm.fibers)
    v = sfs_is_lspace(d)
    assert (v.euler, v.min_side, v.max_side) == (euler, min_side, max_side)
    assert v.theorem_not_lspace == (euler == 0 or min_side < 0 < max_side)
    assert v.orbifold_not_lspace == (euler == 0 or lo < euler < hi)
    assert v.lspace == (not v.theorem_not_lspace)
    if d.n < 2:
        return
    for j in range(d.n):
        others = norm.fibers[:j] + norm.fibers[j + 1:]
        assert tuple(sfs_fiber_interval(d, j)) == sides_reference(norm.e0, others)


def route_answer(d, k):
    """Route k of a space: the classifier, the difference set, the
    via-dtau verdict, then the threshold pair of fiber k - 3."""
    routes = (sfs_is_lspace, sfs_dtau, sfs_is_lspace_via_dtau)
    return routes[k](d) if k < 3 else sfs_fiber_interval(d, k - 3)


def test_floor_table_cold_and_warm_agree():
    assert _side_sums.cache_info().maxsize is not None
    # the same fibers under three e0, and an unnormalized spelling of
    # M(1; 1/2, 1/3, 1/7) whose normal form hits the first table
    spaces = [M(-1, (1, 2), (1, 3), (1, 7)), M(0, (1, 2), (1, 3), (1, 7)),
              M(-2, (1, 2), (1, 3), (1, 7)), M(0, (3, 2), (-2, 3), (8, 7)),
              M(-1, (2, 3), (3, 4), (1, 5)), M(1, (1, 2), (2, 5))]
    # more fiber sets than the table keeps, so that entries are evicted
    spaces += [M(-1, (1, 2), (1, 3), (r, 11)) for r in range(1, 11)]
    calls = [(i, k) for i, d in enumerate(spaces) for k in range(3 + d.n)]
    cold = {}
    for i, k in calls:
        _side_sums.cache_clear()
        cold[i, k] = route_answer(spaces[i], k)
    rng = random.Random(5)
    for _ in range(4):
        _side_sums.cache_clear()
        rng.shuffle(calls)
        for i, k in calls:
            assert route_answer(spaces[i], k) == cold[i, k], (spaces[i], k)
    _side_sums.cache_clear()
    sfs_is_lspace(spaces[0])
    before = _side_sums.cache_info()
    for k in range(6):
        assert route_answer(spaces[3], k) == cold[3, k]
    after = _side_sums.cache_info()
    assert after.currsize == before.currsize and after.hits > before.hits
