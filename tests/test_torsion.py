from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lspace.abelian import (FinAbGroup, GluingMatrix, GroupElement, Slope,
                            quotient_by_relation)
from lspace.corpus import (gap_record, n_g, random_records, solid_torus,
                           standard_corpus, t25, trefoil)
from lspace.errors import (LSpaceError, Lemma73Violation, LongitudeFilling,
                           NegativePhiInComplement, NonTorsionLongitude,
                           NotFloerSimpleSlope, ZeroInComplement)
from lspace.gluing import SpliceProblem, judicious_slope, spliced_manifold
from lspace.selftest import all_slopes
from lspace.torsion import (DtauData, FloerSimpleManifold, MilnorReport,
                            _hfk_support_from_iota, conj_record, dtau,
                            filling_homology_order, gamma_closed, hfk_support,
                            iota_coordinates, manifold_from_json,
                            manifold_to_json, milnor_invariants,
                            reduced_alexander, retwist, reversed_encoding,
                            tau_coefficient, tauc_degree, validate_manifold)


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


def test_record_rejects_classes_no_bit_can_hold():
    G = FinAbGroup((2,))
    with pytest.raises(NegativePhiInComplement, match="negative free part"):
        FloerSimpleManifold(group=G, iota_m=GroupElement(2, (0,)),
                            iota_l=GroupElement(0, (1,)),
                            tauc_support={GroupElement(1, (1,)), GroupElement(-1, (0,))})
    with pytest.raises(ValueError, match="does not match the group"):
        FloerSimpleManifold(group=G, iota_m=GroupElement(2, (0,)),
                            iota_l=GroupElement(0, (1,)),
                            tauc_support={GroupElement(1, (1, 0))})


def test_validate_rejects_nontorsion_longitude():
    G = FinAbGroup(())
    Y = FloerSimpleManifold(group=G, iota_m=GroupElement(1, ()),
                            iota_l=GroupElement(1, ()),
                            tauc_support=frozenset())
    with pytest.raises(NonTorsionLongitude):
        validate_manifold(Y)


def test_milnor_trefoil():
    rep = milnor_invariants(trefoil())
    assert reduced_alexander(trefoil()) == (1, -1, 1)
    assert rep.norm == 1
    assert rep.monic
    assert not rep.gst


def test_milnor_n2():
    # oracle: tau_bar = (1 - t^2)/(1 - t)^2 = 1 + 2t + 2t^2 + ... so
    # delta_bar = (1 - t) tau_bar = 1 + t
    coeffs = series_coefficients([1, 0, -1], [1, -2, 1], 6)
    assert coeffs == [1, 2, 2, 2, 2, 2, 2]
    rep = milnor_invariants(n_g(2))
    assert reduced_alexander(n_g(2)) == (1, 1)
    assert rep.norm == 0
    assert rep.gst
    assert rep.k == 1


def test_milnor_solid_torus():
    rep = milnor_invariants(solid_torus())
    assert reduced_alexander(solid_torus()) == (1,)
    assert rep.gst


def test_milnor_identity_with_tau_bar():
    # (1 - t) tau_bar == delta_bar as a truncated-series identity
    torsion_records = [Y for seed in range(4) for Y in random_records(seed=seed)
                       if Y.group.torsion_size > 1]
    assert torsion_records
    for Y in (trefoil(), t25(), n_g(2), n_g(3), n_g(4), *torsion_records):
        mil = milnor_invariants(Y)
        delta_bar = reduced_alexander(Y)
        upto = len(delta_bar) + 4
        tau_bar = []
        for i in range(upto + 1):
            count = sum(1 for h in Y.tauc_support if h.free == i)
            tau_bar.append(Y.group.torsion_size - count)
        recon = [tau_bar[0]] + [tau_bar[i] - tau_bar[i - 1] for i in range(1, upto + 1)]
        assert recon[:len(delta_bar)] == list(delta_bar)
        assert all(c == 0 for c in recon[len(delta_bar):])
        # the top coefficient is the count of the top level, never 0
        assert mil.norm == tauc_degree(Y)
        assert delta_bar[-1] != 0


def per_level_milnor(Y):
    """milnor_invariants from the coefficients of reduced_alexander, one
    level at a time, or the class and message of its Lemma73Violation."""
    rep = validate_manifold(Y)
    coefficients = reduced_alexander(Y)
    class_sums = [0] * rep.g
    for i, c in enumerate(coefficients):
        class_sums[i % rep.g] += c
    if any(s != rep.k for s in class_sums):
        return (Lemma73Violation,
                "residue-class sums of the reduced Alexander polynomial are %r, "
                "expected %d each" % (class_sums, rep.k))
    deg = len(coefficients) - 1
    return MilnorReport(norm=deg - 1, monic=coefficients[-1] == 1,
                        gst=deg < rep.g, k=rep.k)


def test_milnor_class_sums_by_mask_match_per_level_sums(spliced_records):
    # on each record, and on each record with one complement class added
    # or removed, over the levels 0..D+1 (every class of the small
    # records, a spread of about a hundred of the spliced ones)
    outcomes = set()
    records = [Y for seed in range(6) for Y in random_records(seed=seed)]
    # g = 1 over Z/2: the empty support (top coefficient |T| = 2) and one
    # class at level 0 (degree 1 = g, not a generalized solid torus)
    G = FinAbGroup((2,))
    for support in ((), (GroupElement(0, (1,)),)):
        records.append(FloerSimpleManifold(group=G, iota_m=GroupElement(1, (0,)),
                                           iota_l=GroupElement(0, (0,)),
                                           tauc_support=support))
    for Y in records + spliced_records:
        assert _outcome(milnor_invariants, Y) == per_level_milnor(Y)
        end = (tauc_degree(Y) + 2) * Y.group.torsion_size
        for bit in range(1, end, max(1, end // 100)):
            Z = FloerSimpleManifold(group=Y.group, iota_m=Y.iota_m, iota_l=Y.iota_l,
                                    tauc_bits=Y.tauc_bits ^ 1 << bit)
            want = per_level_milnor(Z)
            assert _outcome(milnor_invariants, Z) == want, (Y, bit)
            outcomes.add(want[0] is Lemma73Violation)
    assert outcomes == {False, True}


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
    assert big.group.torsion_size == 24
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
    assert {Y.iota_ab(d.delta, d.gamma).free for d in dtau(Y).all} == expected
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


def _record(orders, iota_m, iota_l, support):
    G = FinAbGroup(orders)
    return FloerSimpleManifold(group=G, iota_m=G.element(*iota_m), iota_l=G.element(*iota_l),
                               tauc_support=frozenset(G.element(*h) for h in support))


@settings(max_examples=60, deadline=None)
@given(records())
# the torsion part of iota(m) has order 16, above the 4 delta rows
@example(_record((4, 16), (1, (1, 1)), (0, (0, 0)),
                 [(0, (1, 3)), (1, (0, 1)), (2, (2, 5)), (3, (3, 0)), (3, (1, 9))]))
# order 2 and order 4, below the 4 delta rows and equal to them
@example(_record((2,), (1, (1,)), (0, (0,)), [(0, (1,)), (2, (1,))]))
@example(_record((2, 4), (1, (1, 1)), (0, (0, 0)),
                 [(1, (0, 0)), (1, (1, 2)), (2, (0, 1)), (3, (1, 0))]))
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
                expected.append((delta, gamma))
    data = dtau(Y)
    assert [tuple(e) for e in data.all] == expected
    assert [tuple(e) for e in data.positive] == [e for e in expected if e[0] > 0]
    # one g-bit mask per row, row 0 the torsion part
    assert len(data.rows) == tauc_degree(Y) // g + 1
    assert all(row >> g == 0 for row in data.rows)
    assert data == DtauData.from_members(expected)
    assert hash(data) == hash(DtauData.from_members(expected))


def gamma_closed_over_elements(Y, data, bound=None):
    """Reference for gamma_closed with data standing for D^tau: the same
    search over group elements, with D^tau as the set of its classes."""
    rep = validate_manifold(Y)
    G = Y.group
    elements = {Y.iota_ab(d.delta, d.gamma) for d in data.all}
    if bound is None:
        bound = max((h.free for h in elements), default=-1) + rep.g
    members = []
    for delta in range(bound // rep.g + 1):
        for gam in range(rep.g):
            elt = G.add(G.scale(delta, Y.iota_m), G.scale(gam, Y.iota_l))
            if elt not in elements:
                members.append(elt)
    for i, x in enumerate(members):
        for y in members[i:]:
            if x.free + y.free <= bound and G.add(x, y) in elements:
                return (False, (x, y))
    return (True, None)


@st.composite
def records_with_pair_sets(draw):
    """A record and an arbitrary set of (delta, gamma) pairs, which need
    not be closed as the complement of a difference set is."""
    Y = draw(records())
    g = validate_manifold(Y).g
    pairs = sorted(draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, g - 1)))))
    return Y, DtauData.from_members(pairs)


@settings(max_examples=60, deadline=None)
@given(records_with_pair_sets(), st.one_of(st.none(), st.integers(0, 12)))
def test_gamma_closed_matches_search_over_elements(case, bound):
    Y, pairs = case
    assert gamma_closed(Y, bound) == gamma_closed_over_elements(Y, dtau(Y), bound)
    with mock.patch("lspace.torsion.dtau", lambda _: pairs):
        assert gamma_closed(Y, bound) == gamma_closed_over_elements(Y, pairs, bound)


def _outcome(fn, *args):
    """fn(*args) from cold caches, or the class and message it raised."""
    for cached in (validate_manifold, milnor_invariants, dtau, _hfk_support_from_iota):
        cached.cache_clear()
    try:
        return fn(*args)
    except LSpaceError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(records())
def test_record_from_classes_matches_record_from_bits(Y):
    Z = FloerSimpleManifold(group=Y.group, iota_m=Y.iota_m, iota_l=Y.iota_l,
                            tauc_bits=Y.tauc_bits, witness=Y.witness)
    assert Z == Y and hash(Z) == hash(Y)
    assert Z.tauc_support == Y.tauc_support
    assert FloerSimpleManifold(group=Y.group, iota_m=Y.iota_m, iota_l=Y.iota_l,
                               tauc_support=Z.tauc_support) == Y
    mu = Y.group.add(Y.iota_m, Y.iota_l)
    for fn, args in ((validate_manifold, ()), (milnor_invariants, ()), (dtau, ()),
                     (hfk_support, (mu,)), (manifold_to_json, ())):
        assert _outcome(fn, Z, *args) == _outcome(fn, Y, *args), fn


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


def test_filling_homology_order_matches_quotient():
    # the closed form |free(iota(mu))| |T| against the Smith normal form of
    # (Z + T)/<iota(mu)>, on records with torsion up to Z/6
    spliced = spliced_manifold(judicious_slope(SpliceProblem(
        n_g(2), n_g(3), GluingMatrix(-2, -1, -1, 0)))).record
    assert spliced.group.torsion_orders == (6,)
    records = [*standard_corpus().values(), n_g(4), n_g(5),
               *random_records(seed=0), *random_records(seed=3), spliced]
    for Y in records:
        for mu in all_slopes(9):
            iota_mu = Y.iota(mu)
            free_rank, orders, _ = quotient_by_relation(
                [Y.group.torsion_orders], [iota_mu.free, *iota_mu.torsion])
            expected = 0 if free_rank else prod(orders)
            assert filling_homology_order(Y, mu) == expected, (Y, mu)


def test_tau_eventually_one():
    for Y in (trefoil(), t25(), n_g(3)):
        milnor_invariants(Y)
        deg = len(reduced_alexander(Y)) - 1
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
