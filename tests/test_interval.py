from fractions import Fraction
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lspace.abelian import (LONGITUDE, GluingMatrix, Slope,
                            canonical_longitude, pairing_and_label)
from lspace.corpus import (_numerical_semigroup_gaps, gap_record, n_g,
                           negative_trefoil, random_records, solid_torus,
                           standard_corpus, t25, trefoil)
from lspace.errors import (LSpaceError, WitnessOnIntervalBoundary,
                           WitnessOnLongitude)
from lspace.gluing import SpliceProblem, judicious_slope, spliced_manifold
from lspace.interval import (LSpaceIntervalResult, _ratio_le,
                             check_corollary_consistency, endpoint_lifts,
                             is_lspace_slope, lspace_interval, nls_detected,
                             validate_witness)
from lspace.projline import ProjInterval
from lspace.selftest import all_slopes, valid_witnesses
from lspace.torsion import (DtauData, dtau, hfk_support, milnor_invariants,
                            retwist, slope_after_retwist, validate_manifold)


def test_validate_witness_examples():
    Y = trefoil()
    validate_witness(Y, Slope(3, 1))
    with pytest.raises(WitnessOnIntervalBoundary):
        validate_witness(Y, Slope(1, 1))
    with pytest.raises(WitnessOnLongitude):
        validate_witness(Y, Slope(0, 1))


def test_is_lspace_trefoil():
    Y = trefoil()
    w = Slope(3, 1)
    assert is_lspace_slope(Y, w, Slope(2, 1))
    assert not is_lspace_slope(Y, w, Slope(-1, 1))
    # the trefoil interval is [1, oo]: slope >= 2g(K) - 1 = 1
    for a in range(-12, 13):
        for b in range(-12, 13):
            if (a, b) == (0, 0):
                continue
            s = Slope(a, b)
            expect = (s.b == 0) or (s.b != 0 and s.a != 0 and Fraction(s.a, s.b) >= 1)
            assert is_lspace_slope(Y, w, s) == expect, s


def test_is_lspace_longitude_false():
    assert not is_lspace_slope(solid_torus(), Slope(1, 0), Slope(0, 1))


def test_interval_trefoil():
    r = lspace_interval(trefoil())
    assert r.kind == "closed"
    assert {r.lo, r.hi} == {Slope(1, 1), Slope(1, 0)}
    assert r.label_bounds == (Fraction(-1), Fraction(2))
    assert r.interval.contains(Slope(3, 1))
    assert not r.interval.contains(Slope(0, 1))


def test_interval_negative_trefoil():
    r = lspace_interval(negative_trefoil())
    assert r.kind == "closed"
    assert {r.lo, r.hi} == {Slope(1, -1), Slope(1, 0)}
    assert r.interval.contains(Slope(3, -1))
    assert not r.interval.contains(Slope(1, 1))


def test_interval_t25():
    r = lspace_interval(t25())
    assert r.kind == "closed"
    assert {r.lo, r.hi} == {Slope(3, 1), Slope(1, 0)}


def test_interval_trivial_cases():
    assert lspace_interval(solid_torus()).kind == "all-but-longitude"
    for g in (2, 3, 4, 5):
        r = lspace_interval(n_g(g), Slope(2, 1))
        assert r.kind == "all-but-longitude"


def test_membership_coherence_exhaustive():
    """Membership in the assembled interval agrees with the per-element
    Fraction label test for |a|,|b| <= 50."""
    y12 = spliced_manifold(judicious_slope(SpliceProblem(
        trefoil(), trefoil(), GluingMatrix.from_rows([[3, -5], [1, -2]])))).record
    torsion_record = next(Y for Y in random_records(seed=0)
                          if Y.group.torsion_size > 1)
    cases = [(trefoil(), Slope(3, 1)), (t25(), Slope(4, 1)),
             (n_g(2), Slope(1, 0)), (solid_torus(), Slope(1, 0)),
             (trefoil(), Slope(7, 2)), (t25(), Slope(7, 2)),
             (y12, y12.witness), (torsion_record, torsion_record.witness)]
    for Y, w in cases:
        for s in all_slopes(50):
            assert is_lspace_slope(Y, w, s) == fraction_is_lspace(Y, w, s), (Y, w, s)


def test_boundary_witness_with_torsion_is_refused_every_time():
    # g = 2, and the witness 1/-1 has a vanishing residue at an element
    # with gamma = 1; no route may answer from it, on the first call or
    # after (a raised error is not cached)
    Y = random_records(seed=0)[0]
    assert validate_manifold(Y).g == 2
    w = Slope(1, -1)
    for _ in range(2):
        for call in (lambda: validate_witness(Y, w),
                     lambda: lspace_interval(Y, w),
                     lambda: is_lspace_slope(Y, w, Slope(1, 0)),
                     lambda: check_corollary_consistency(Y, w, Slope(1, 0))):
            with pytest.raises(WitnessOnIntervalBoundary, match="delta=1, gamma=1;"):
                call()


def test_witness_independence():
    # any valid witness in the interior of the computed interval gives the
    # same interval back
    for Y in (trefoil(), t25(), n_g(2), n_g(3), solid_torus()):
        first = lspace_interval(Y, Y.witness)
        interior = first.interval.interior()
        checked = 0
        for w in valid_witnesses(Y, 8):
            if not interior.contains(w):
                continue
            r = lspace_interval(Y, w)
            assert r.kind == first.kind
            assert r.interval.same_points(first.interval)
            checked += 1
        assert checked >= 2


def test_interval_endpoints_lift_to_dtau():
    from lspace.torsion import dtau, iota_coordinates
    for Y, w in ((trefoil(), Slope(3, 1)), (t25(), Slope(4, 1)),
                 (t25(), Slope(7, 2))):
        r = lspace_interval(Y, w)
        positive = {(d.delta, d.gamma) for d in dtau(Y).positive}
        for end in (r.lo, r.hi):
            # some integer multiple of the endpoint is a lift of a
            # positive difference-set element
            found = False
            for k in range(1, 8):
                coords = iota_coordinates(Y, Y.iota(Slope(end.a * k, end.b * k))
                                          if False else
                                          Y.group.add(Y.group.scale(end.a * k, Y.iota_m),
                                                      Y.group.scale(end.b * k, Y.iota_l)))
                if coords and coords in positive:
                    found = True
                    break
            assert found, (Y, end)


def test_basis_covariance():
    for Y in (trefoil(), t25(), n_g(2)):
        w = Y.witness
        for k in (-2, -1, 1, 2):
            Yk = retwist(Y, k)
            wk = slope_after_retwist(w, k)
            for s in all_slopes(10):
                sk = slope_after_retwist(s, k)
                assert is_lspace_slope(Y, w, s) == is_lspace_slope(Yk, wk, sk)


def test_corollary_consistency_examples():
    Y = trefoil()
    w = Slope(3, 1)
    assert check_corollary_consistency(Y, w, Slope(2, 1))
    assert check_corollary_consistency(Y, w, Slope(1, -1))
    assert check_corollary_consistency(n_g(2), Slope(1, 0), Slope(0, 1))


def test_corollary_consistency_sweep():
    for Y, w in ((trefoil(), Slope(3, 1)), (t25(), Slope(4, 1)),
                 (t25(), Slope(7, 2)), (n_g(3), Slope(2, 1)),
                 (solid_torus(), Slope(1, 0))):
        for s in all_slopes(12):
            assert check_corollary_consistency(Y, w, s), (Y, w, s)


def test_nls_detected():
    # trefoil: closure of the complement of [1, oo] is the arc through 0
    # with endpoints oo and 1, both included
    r = nls_detected(trefoil())
    assert r.contains(Slope(1, 1)) and r.contains(Slope(1, 0))
    assert r.contains(Slope(0, 1)) and r.contains(Slope(-1, 1))
    assert not r.contains(Slope(2, 1))
    # solid torus and the N_g family: just the longitude
    for Y in (solid_torus(), n_g(2)):
        r = nls_detected(Y, Slope(1, 0))
        assert r.same_points(ProjInterval.point(LONGITUDE))


def test_semigroup_gap_records_interval_closed_form():
    # a record over Z with a semigroup gap set has L-space interval
    # [max gap, oo], the 2g - 1 bound for a symmetric gap set
    gap_sets = {_numerical_semigroup_gaps(gens) for r in (2, 3)
                for gens in combinations(range(2, 10), r) if gcd(*gens) == 1}
    assert len(gap_sets) == 37
    for gaps in gap_sets:
        result = lspace_interval(gap_record(gaps))
        assert result.kind == "closed", gaps
        assert (result.lo, result.hi) == (Slope(max(gaps), 1), Slope(1, 0)), gaps


# --- the integer label tests against the Fraction formulas -------------------

def fraction_residues(Y, w):
    """(d, b_minus, b_plus) for each positive difference-set element."""
    pg = w.a * validate_manifold(Y).g
    rows = []
    for d in dtau(Y).positive:
        b_plus = (w.a * d.gamma - w.b * d.delta) % pg
        rows.append((d, b_plus - pg, b_plus))
    return rows


def fraction_is_lspace(Y, w, mu):
    beta, n, label = pairing_and_label(w, mu)
    rows = fraction_residues(Y, w)
    if not rows:
        return n != 0
    if n == 0:
        return False
    return all(Fraction(lo, d.delta) <= label <= Fraction(hi, d.delta)
               for d, lo, hi in rows)


def fraction_label_bounds(Y, w):
    """(label_bounds, achieving) as lspace_interval reports them."""
    best_lo = best_hi = None
    for d, b_minus, b_plus in fraction_residues(Y, w):
        lo_val, hi_val = Fraction(b_minus, d.delta), Fraction(b_plus, d.delta)
        if best_lo is None or lo_val > best_lo:
            best_lo, ach_lo = lo_val, d
        if best_hi is None or hi_val < best_hi:
            best_hi, ach_hi = hi_val, d
    if best_lo is None:
        return None, None
    return (best_lo, best_hi), (ach_lo, ach_hi)


def fraction_corollary_consistency(Y, w, mu):
    rows = fraction_residues(Y, w)
    g = validate_manifold(Y).g
    beta, n, label = pairing_and_label(w, mu)
    _, q_star, _ = canonical_longitude(w)
    if n == 0 or not rows:
        surgery = filling = n != 0
    else:
        alpha = (n - beta * q_star) // w.a
        surgery = True
        for d, b_minus, b_plus in rows:
            a_plus = (d.delta - b_plus * q_star) // w.a
            a_minus = a_plus + q_star * g
            if beta == 0:
                continue
            if label < 0:
                ok = Fraction(alpha, beta) <= Fraction(a_minus, b_minus)
            else:
                ok = Fraction(a_plus, b_plus) <= Fraction(alpha, beta)
            if not ok:
                surgery = False
                break
        filling = True
        for d, _, _ in rows:
            lo, hi = endpoint_lifts(g, w, d)
            if lo == hi or not ProjInterval.arc_through(lo, hi, via=w).contains(mu):
                filling = False
                break
    return fraction_is_lspace(Y, w, mu) == surgery == filling


LABEL_RECORDS = [(Y, valid_witnesses(Y, 6)) for Y in
                 [trefoil(), negative_trefoil(), t25(), n_g(2), n_g(3),
                  solid_torus(), gap_record((1, 2, 4, 5, 8, 11)),
                  *random_records(seed=5, count=6)]]


@st.composite
def label_triples(draw):
    Y, witnesses = draw(st.sampled_from(LABEL_RECORDS))
    w = draw(st.sampled_from(witnesses))
    a, b = draw(st.tuples(st.integers(-15, 15), st.integers(-15, 15))
                .filter(lambda ab: ab != (0, 0)))
    return Y, w, Slope(a, b)


@settings(max_examples=300, deadline=None)
@given(label_triples())
def test_integer_label_tests_match_fractions(triple):
    Y, w, mu = triple
    assert is_lspace_slope(Y, w, mu) == fraction_is_lspace(Y, w, mu)
    r = lspace_interval(Y, w)
    assert (r.label_bounds, r.achieving) == fraction_label_bounds(Y, w)
    if r.kind == "closed":
        assert r.label_bounds[0] < 0 < r.label_bounds[1]
    assert check_corollary_consistency(Y, w, mu) == fraction_corollary_consistency(Y, w, mu)


nonzero = st.integers(-50, 50).filter(bool)


@given(st.integers(-50, 50), nonzero, st.integers(-50, 50), nonzero)
@example(1, -2, 1, 2)
@example(-1, 2, 1, -2)
def test_ratio_le_matches_fractions(x, y, u, v):
    assert _ratio_le(x, y, u, v) == (Fraction(x, y) <= Fraction(u, v))


# --- the row form of validate_witness against the per-member pass ------------

def member_validate_witness(Y, mu_L, data=None):
    """validate_witness as one pass over the positive members of D^tau
    (or of data standing for it), one residue each: the reference for the
    row form."""
    g = validate_manifold(Y).g
    if mu_L.dot_l == 0:
        raise WitnessOnLongitude("the longitude is never an interior L-space slope")
    p, q = mu_L.a, mu_L.b
    pg = p * g
    lo = hi = None
    for d in (dtau(Y) if data is None else data).positive:
        b_plus = (p * d.gamma - q * d.delta) % pg
        if b_plus == 0:
            raise WitnessOnIntervalBoundary(
                "residue vanishes at delta=%d, gamma=%d; supply a strictly "
                "interior slope" % (d.delta, d.gamma))
        b_minus = b_plus - pg
        if lo is None or b_minus * lo[1].delta > lo[0] * d.delta:
            lo = (b_minus, d)
        if hi is None or b_plus * hi[1].delta < hi[0] * d.delta:
            hi = (b_plus, d)
    if p * g > milnor_invariants(Y).norm:
        hfk_support(Y, mu_L)
    if lo is None:
        return LSpaceIntervalResult(
            kind="all-but-longitude",
            interval=ProjInterval.complement_of_point(LONGITUDE))
    (lo_b, ach_lo), (hi_b, ach_hi) = lo, hi
    interval = ProjInterval.arc_through(endpoint_lifts(g, mu_L, ach_lo)[0],
                                        endpoint_lifts(g, mu_L, ach_hi)[1],
                                        via=mu_L)
    return LSpaceIntervalResult(
        kind="closed", interval=interval, lo=interval.lo, hi=interval.hi,
        label_bounds=(Fraction(lo_b, ach_lo.delta), Fraction(hi_b, ach_hi.delta)),
        achieving=(ach_lo, ach_hi))


def _answer(fn, *args):
    try:
        return fn(*args)
    except LSpaceError as exc:
        return type(exc), str(exc)


def test_row_form_matches_member_pass(spliced_records):
    records = [*standard_corpus().values(), n_g(4), n_g(5),
               *(Y for seed in range(4) for Y in random_records(seed=seed)),
               *spliced_records]
    # vanishing residues by where they fall: a row of g = 1, gamma 0 of a
    # longer row (c = 0) and the wrap of a longer row
    vanishing = set()
    closed = 0
    for Y in records:
        g = validate_manifold(Y).g
        for w in all_slopes(6):
            want = _answer(member_validate_witness, Y, w)
            got = _answer(validate_witness, Y, w)
            assert got == want, (Y, w)
            if isinstance(got, LSpaceIntervalResult):
                closed += got.kind == "closed"
            elif got[0] is WitnessOnIntervalBoundary:
                gamma = int(got[1].split("gamma=")[1].split(";")[0])
                vanishing.add("g = 1" if g == 1 else "gamma 0" if gamma == 0 else "wrap")
    assert vanishing == {"g = 1", "gamma 0", "wrap"}
    assert closed > 100


# records with g > 1 and the witnesses that pass their knot Floer check
ROW_RECORDS = [(Y, valid_witnesses(Y, 8)) for Y in
               [n_g(3), n_g(4), n_g(5),
                *(Y for Y in random_records(seed=2) if validate_manifold(Y).g > 1)]]


@st.composite
def witness_and_rows(draw):
    """A record, one of its witnesses and an arbitrary D^tau in the rows
    delta = 0..8: rows with several gammas on each side of the wrap."""
    Y, witnesses = draw(st.sampled_from(ROW_RECORDS))
    g = validate_manifold(Y).g
    pairs = draw(st.sets(st.tuples(st.integers(0, 8), st.integers(0, g - 1))))
    return Y, draw(st.sampled_from(witnesses)), DtauData.from_members(sorted(pairs))


@settings(max_examples=300, deadline=None)
@given(witness_and_rows())
def test_row_form_matches_member_pass_on_any_rows(case):
    Y, w, data = case
    with mock.patch("lspace.interval.dtau", lambda _: data):
        got = _answer(validate_witness.__wrapped__, Y, w)
    assert got == _answer(member_validate_witness, Y, w, data)
