from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lspace.abelian import FinAbGroup, GroupElement, Slope
from lspace.corpus import gap_record, n_g, solid_torus, t25, trefoil
from lspace.errors import (Lemma73Violation, LongitudeFilling,
                           NonTorsionLongitude, NotFloerSimpleSlope,
                           ZeroInComplement)
from lspace.torsion import (FloerSimpleManifold, conj_record, dtau,
                            filling_homology_order, gamma_closed, hfk_support,
                            iota_coordinates, manifold_from_json,
                            manifold_to_json, milnor_invariants, retwist,
                            reversed_encoding, tau_coefficient,
                            validate_manifold)


def series_coefficients(numer, denom, upto):
    """Oracle: expand numer/denom as a power series in t (integer coeffs)."""
    coeffs = []
    state = list(numer) + [0] * (upto + 1)
    for i in range(upto + 1):
        c = Fraction(state[i], denom[0])
        assert c.denominator == 1
        c = int(c)
        coeffs.append(c)
        for j, d in enumerate(denom):
            if i + j < len(state):
                state[i + j] -= c * d
    return coeffs


def test_series_oracle_on_trefoil():
    # tau = (1 - t + t^2)/(1 - t) = 1 + t^2 + t^3 + ...
    coeffs = series_coefficients([1, -1, 1], [1, -1], 10)
    assert coeffs == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    Y = trefoil()
    for i, c in enumerate(coeffs):
        assert tau_coefficient(Y, GroupElement(i, ())) == c


def test_tau_coefficient_examples():
    Y = trefoil()
    assert tau_coefficient(Y, GroupElement(0, ())) == 1
    assert tau_coefficient(Y, GroupElement(1, ())) == 0
    assert tau_coefficient(Y, GroupElement(-1, ())) == 0


def test_validate_solid_torus():
    rep = validate_manifold(solid_torus())
    assert rep.g == 1 and rep.k == 1


def test_validate_trefoil():
    rep = validate_manifold(trefoil())
    assert rep.g == 1


def test_validate_rejects_zero_in_complement():
    G = FinAbGroup(())
    Y = FloerSimpleManifold(group=G, iota_m=GroupElement(1, ()),
                            iota_l=GroupElement(0, ()),
                            tauc_support=frozenset({GroupElement(0, ())}))
    with pytest.raises(ZeroInComplement):
        validate_manifold(Y)


def test_validate_rejects_nontorsion_longitude():
    G = FinAbGroup(())
    Y = FloerSimpleManifold(group=G, iota_m=GroupElement(1, ()),
                            iota_l=GroupElement(1, ()),
                            tauc_support=frozenset())
    with pytest.raises(NonTorsionLongitude):
        validate_manifold(Y)


def test_milnor_trefoil():
    rep = milnor_invariants(trefoil())
    assert rep.delta_bar == (1, -1, 1)
    assert rep.norm == 1
    assert rep.monic
    assert not rep.gst


def test_milnor_n2():
    # oracle: tau_bar = (1 - t^2)/(1 - t)^2 = 1 + 2t + 2t^2 + ... so
    # delta_bar = (1 - t) tau_bar = 1 + t
    coeffs = series_coefficients([1, 0, -1], [1, -2, 1], 6)
    assert coeffs == [1, 2, 2, 2, 2, 2, 2]
    rep = milnor_invariants(n_g(2))
    assert rep.delta_bar == (1, 1)
    assert rep.norm == 0
    assert rep.gst
    assert rep.k == 1


def test_milnor_solid_torus():
    rep = milnor_invariants(solid_torus())
    assert rep.delta_bar == (1,)
    assert rep.gst


def test_milnor_identity_with_tau_bar():
    # (1 - t) tau_bar == delta_bar as a truncated-series identity
    for Y in (trefoil(), t25(), n_g(2), n_g(3), n_g(4)):
        rep = validate_manifold(Y)
        mil = milnor_invariants(Y)
        upto = len(mil.delta_bar) + 4
        tau_bar = []
        for i in range(upto + 1):
            count = sum(1 for h in Y.tauc_support if h.free == i)
            tau_bar.append(rep.torsion_size - count)
        recon = [tau_bar[0]] + [tau_bar[i] - tau_bar[i - 1] for i in range(1, upto + 1)]
        assert recon[:len(mil.delta_bar)] == list(mil.delta_bar)
        assert all(c == 0 for c in recon[len(mil.delta_bar):])


def test_lemma73_violation():
    # torsion Z/2 with g = 2: residue-class sums must both equal 1
    G = FinAbGroup((2,))
    Y = FloerSimpleManifold(group=G, iota_m=GroupElement(2, (0,)),
                            iota_l=GroupElement(0, (1,)),
                            tauc_support=frozenset({GroupElement(1, (0,))}))
    with pytest.raises(Lemma73Violation):
        milnor_invariants(Y)


def test_iota_coordinates():
    Y = trefoil()
    assert iota_coordinates(Y, GroupElement(1, ())) == (1, 0)
    Y2 = n_g(2)
    assert iota_coordinates(Y2, GroupElement(0, (1,))) == (0, 1)
    assert iota_coordinates(Y2, GroupElement(1, (0,))) is None


def test_iota_coordinates_vs_subgroup_enumeration():
    # exhaustive: membership in the subgroup generated by iota(m), iota(l),
    # up to torsion order 24
    big = FloerSimpleManifold(group=FinAbGroup((2, 12)),
                              iota_m=GroupElement(6, (1, 3)),
                              iota_l=GroupElement(0, (1, 2)),
                              tauc_support=frozenset())
    assert validate_manifold(big).g == 6
    assert validate_manifold(big).torsion_size == 24
    for Y in (n_g(2), n_g(3), n_g(4), trefoil(), big):
        rep = validate_manifold(Y)
        G = Y.group
        span = set()
        for delta in range(-6, 7):
            for gamma in range(rep.g):
                span.add(G.add(G.scale(delta, Y.iota_m), G.scale(gamma, Y.iota_l)))
        for f in range(-6 * rep.g, 6 * rep.g + 1):
            for t in G.torsion_elements():
                h = GroupElement(f, t.torsion)
                coords = iota_coordinates(Y, h)
                assert (coords is not None) == (h in span)
                if coords is not None:
                    delta, gamma = coords
                    assert h == G.add(G.scale(delta, Y.iota_m),
                                      G.scale(gamma, Y.iota_l))


def test_dtau_examples():
    assert dtau(solid_torus()).all == ()
    tref = dtau(trefoil())
    assert [(d.delta, d.gamma) for d in tref.positive] == [(1, 0)]
    n2 = dtau(n_g(2))
    assert [(d.delta, d.gamma) for d in n2.all] == [(0, 1)]
    assert n2.positive == ()


def test_dtau_exhaustive_difference_oracle():
    # brute-force the defining difference enumeration for T(2,5)
    Y = t25()
    support = {GroupElement(i, ()) for i in range(0, 30)} - Y.tauc_support
    expected = set()
    for x in Y.tauc_support:
        for y in support:
            if 0 <= y.free <= x.free:
                expected.add(x.free - y.free)
    assert {d.element.free for d in dtau(Y).all} == expected
    assert [(d.delta, d.gamma) for d in dtau(Y).positive] == [(1, 0), (3, 0)]


# torsion groups that the spliced records of the standard pieces reach
SPLICED_ORDERS = ((2,), (2, 4), (3, 9), (2, 2, 2), (4, 16))


@st.composite
def records(draw):
    """A record on one of SPLICED_ORDERS, with an arbitrary longitude image
    and complement support (validate_manifold holds; Lemma 7.3 need not)."""
    G = FinAbGroup(draw(st.sampled_from(SPLICED_ORDERS)))
    torsion = st.sampled_from(G.torsion_elements())
    iota_l = draw(torsion)
    g = G.torsion_order_of(iota_l)
    iota_m = G.element(g, draw(torsion).torsion)
    degree = draw(st.integers(0, 3))
    classes = [GroupElement(f, t.torsion) for f in range(degree + 1)
               for t in G.torsion_elements()][1:]
    support = draw(st.sets(st.sampled_from(classes)))
    return FloerSimpleManifold(group=G, iota_m=iota_m, iota_l=iota_l,
                               tauc_support=frozenset(support))


@settings(max_examples=60, deadline=None)
@given(records())
def test_dtau_matches_brute_force_differences(Y):
    # d = delta iota(m) + gamma iota(l) is in D^tau when some x in S has
    # x - d of nonnegative free part outside S
    G, S = Y.group, Y.tauc_support
    g = validate_manifold(Y).g
    expected = []
    for delta in range(max((x.free for x in S), default=-1) // g + 1):
        for gamma in range(g):
            d = G.add(G.scale(delta, Y.iota_m), G.scale(gamma, Y.iota_l))
            if any(G.sub(x, d).free >= 0 and G.sub(x, d) not in S for x in S):
                expected.append((delta, gamma, d))
    data = dtau(Y)
    assert [tuple(e) for e in data.all] == expected
    assert [tuple(e) for e in data.positive] == [e for e in expected if e[0] > 0]
    assert data.elements == frozenset(e[2] for e in expected)


def test_dtau_n_family_positive_empty():
    for g in (2, 3, 4, 5):
        assert dtau(n_g(g)).positive == ()


def test_gamma_closed():
    ok, _ = gamma_closed(trefoil(), 20)
    assert ok
    ok, _ = gamma_closed(solid_torus())
    assert ok
    # synthetic record over Z with complement {1, 2}: 3 = 1 + 2 is not a
    # difference, so the complement monoid stays closed
    ok, _ = gamma_closed(gap_record((1, 2)))
    assert ok
    # closure is a formal consequence of the complement encoding, so it
    # holds for every validated record; exercise a few more shapes
    for gaps in ((1, 3, 4), (1, 2, 3, 5), (2,), (1, 4, 5)):
        ok, pair = gamma_closed(gap_record(gaps))
        assert ok, (gaps, pair)


def test_hfk_support_examples():
    # unknot exterior, meridian filling
    assert hfk_support(solid_torus(), Slope(1, 0)) == frozenset({GroupElement(0, ())})
    # trefoil at 3m + l
    sup = hfk_support(trefoil(), Slope(3, 1))
    assert {h.free for h in sup} == {0, 2, 4}
    assert len(sup) == filling_homology_order(trefoil(), Slope(3, 1)) == 3
    with pytest.raises(NotFloerSimpleSlope):
        hfk_support(trefoil(), Slope(1, 0))
    with pytest.raises(LongitudeFilling):
        hfk_support(trefoil(), Slope(0, 1))


def test_hfk_cardinality_matches_homology():
    for Y in (trefoil(), t25(), n_g(2), n_g(3), solid_torus()):
        for a in range(1, 8):
            for b in range(-3, 4):
                try:
                    mu = Slope(a, b)
                except ValueError:
                    continue
                try:
                    sup = hfk_support(Y, mu)
                except NotFloerSimpleSlope:
                    continue
                assert len(sup) == filling_homology_order(Y, mu)


def test_tau_eventually_one():
    for Y in (trefoil(), t25(), n_g(3)):
        mil = milnor_invariants(Y)
        deg = len(mil.delta_bar) - 1
        G = Y.group
        for f in range(deg + 1, deg + 5):
            for t in G.torsion_elements():
                assert tau_coefficient(Y, GroupElement(f, t.torsion)) == 1


def test_retwist_preserves_dtau_deltas():
    for Y in (trefoil(), t25(), n_g(2), n_g(3)):
        base = sorted(d.delta for d in dtau(Y).all)
        for k in (-2, -1, 1, 2):
            Yk = retwist(Y, k)
            validate_manifold(Yk)
            twisted = dtau(Yk)
            assert sorted(d.delta for d in twisted.all) == base
            # gammas shift by -k*delta
            expect = sorted((d.delta, (d.gamma - k * d.delta) % validate_manifold(Y).g)
                            for d in dtau(Y).all)
            assert sorted((d.delta, d.gamma) for d in twisted.all) == expect


def test_conj_record_verdict_transport():
    # orientation reversal with the longitude sign flipped: slope (a, b)
    # corresponds to (a, -b) and every filling verdict carries over
    from lspace.interval import is_lspace_slope
    for Y in (trefoil(), t25(), n_g(2), n_g(3)):
        Z = conj_record(Y)
        validate_manifold(Z)
        for a in range(1, 7):
            for b in range(-6, 7):
                try:
                    s = Slope(a, b)
                except ValueError:
                    continue
                flipped = Slope(a, -b)
                assert is_lspace_slope(Y, Y.witness, s) == \
                    is_lspace_slope(Z, Z.witness, flipped), (Y, s)


def test_reversed_encoding_verdict_transport():
    # negating both basis vectors leaves slopes (mod sign) and verdicts alone
    from lspace.interval import is_lspace_slope
    for Y in (trefoil(), t25(), n_g(2), n_g(3)):
        Z = reversed_encoding(Y)
        validate_manifold(Z)
        for a in range(1, 7):
            for b in range(-6, 7):
                try:
                    s = Slope(a, b)
                except ValueError:
                    continue
                assert is_lspace_slope(Y, Y.witness, s) == \
                    is_lspace_slope(Z, Z.witness, s), (Y, s)


def test_reversed_and_conj_records_validate():
    for Y in (trefoil(), t25(), n_g(2), n_g(3), solid_torus()):
        for op in (reversed_encoding, conj_record):
            Z = op(Y)
            validate_manifold(Z)
            milnor_invariants(Z)
            assert len(Z.tauc_support) >= 0
    # palindromic gap records are fixed by both re-encodings
    assert reversed_encoding(trefoil()).tauc_support == trefoil().tauc_support
    assert conj_record(t25()).tauc_support == t25().tauc_support


def test_json_roundtrip():
    for Y in (trefoil(), n_g(3), solid_torus()):
        doc = manifold_to_json(Y)
        assert manifold_from_json(doc) == Y
