import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lspace.abelian import (FinAbGroup, GluingMatrix, GroupElement, Slope,
                            bitmask, pairing_and_label, quotient_by_relation)
from lspace.corpus import (_numerical_semigroup_gaps, gap_record, n_g,
                           random_records, solid_torus, standard_corpus, t25,
                           trefoil)
from lspace.errors import HypothesisNotMet, InvariantViolation
from lspace.gluing import (SpliceProblem, _multiples, _principal_gap_piece,
                           _sumset, b_sets, condition_systems,
                           judicious_slope, splice_equivalence,
                           splice_is_lspace, spliced_manifold)
from lspace.interval import is_lspace_slope
from lspace.torsion import (conj_record, dtau, retwist, tauc_degree,
                            validate_manifold)


def prob_trefoils(phi):
    return SpliceProblem(y1=trefoil(), y2=trefoil(), phi=GluingMatrix.from_rows(phi))


def test_named_instance_shear():
    # q* = 0: definitely not a rational homology sphere, hence no L-space
    v = splice_is_lspace(prob_trefoils([[1, 0], [1, -1]]))
    assert not v.lspace
    assert v.reason == "NotRationalHomologySphere"


def test_named_instance_cover():
    prob = prob_trefoils([[3, -5], [1, -2]])
    v = splice_is_lspace(prob)
    assert v.lspace and v.used_open_intervals


def test_judicious_slope_deterministic():
    js = judicious_slope(prob_trefoils([[3, -5], [1, -2]]))
    assert (js.p1, js.q1) == (6, 1)
    assert (js.p2, js.q2) == (13, 4)
    assert js.q_star == 5
    assert (js.qbar1, js.qbar2) == (5, 3)


def test_b_sets_named():
    js = judicious_slope(prob_trefoils([[3, -5], [1, -2]]))
    B1, B2 = b_sets(js)
    assert B1 == frozenset({5})
    assert B2 == frozenset({9})


def test_condition_transcript_value():
    js = judicious_slope(prob_trefoils([[3, -5], [1, -2]]))
    L, I = condition_systems(js)
    assert L.holds and I.holds
    rows = [row for row in L.checks if row[0] == "L.iii"]
    assert rows == [("L.iii", (5, 9, 35), 37, 35)]
    assert Fraction(37, 35) > 1
    # the first residue-class check: b = 5 gives 4 + 1 = 5 >= 5
    first = [row for row in L.checks if row[0] == "L.i"][0]
    assert first == ("L.i", 5, 5, 5)


def test_empty_b_sets_vacuous():
    phi = GluingMatrix(0, -1, -1, 2)
    prob = SpliceProblem(y1=solid_torus(), y2=solid_torus(), phi=phi)
    js = judicious_slope(prob)
    B1, B2 = b_sets(js)
    assert B1 == frozenset() and B2 == frozenset()
    L, I = condition_systems(js)
    assert L.holds and I.holds


def test_spliced_manifold_named():
    js = judicious_slope(prob_trefoils([[3, -5], [1, -2]]))
    built = spliced_manifold(js)
    rec, lam = built.record, built.lam_slope
    validate_manifold(rec)
    # surgery label of the gluing slope is 1/q*
    beta, n, label = pairing_and_label(rec.witness, lam)
    assert label == Fraction(1, js.q_star)
    # the difference set matches the three-piece description
    data = dtau(rec)
    gaps = _gaps(6, 13)
    a1 = {13 + 6 * k for k in range(13)}
    a2 = {6 + 13 * j for j in range(6)}
    a3 = {78 + 13 + 6}
    assert {rec.iota_ab(d.delta, d.gamma).free for d in data.all} == gaps | a1 | a2 | a3
    assert len(data.all) == len(gaps) + len(a1 | a2) + len(a3)


PIECE_ORDERS = ((), (2,), (4,), (2, 2), (2, 4), (3, 9), (2, 2, 2))


@st.composite
def gap_piece_inputs(draw):
    """The quotient of (Z + T1) + (Z + T2) by one identified class of
    positive free part on each side, as spliced_manifold builds it, with
    the image map f2 of the second summand, that summand G2, and box1, the
    image of the free levels 0..a1-1 of the first summand, a1 the free
    part of its identified class."""
    sides = []
    for _ in range(2):
        G = FinAbGroup(draw(st.sampled_from(PIECE_ORDERS)))
        cls = G.element(draw(st.integers(1, 3)),
                        draw(st.sampled_from(G.torsion_elements())).torsion)
        sides.append((G, cls))
    (G1, c1), (G2, c2) = sides
    pad1 = [0] * (1 + len(G1.torsion_orders))
    pad2 = [0] * (1 + len(G2.torsion_orders))
    v1 = [c1.free, *c1.torsion]
    rank, orders, image = quotient_by_relation(
        [G1.torsion_orders, G2.torsion_orders],
        v1 + [-c2.free, *(-x for x in c2.torsion)], v1 + pad2)
    assert rank == 1
    group = FinAbGroup(orders)

    def f2(h):
        return image([*pad1, h.free, *h.torsion])

    box1 = [image([f, *t.torsion, *pad2]) for f in range(c1.free)
            for t in G1.torsion_elements()]
    return group, G2, f2, box1


@settings(max_examples=60, deadline=None)
@given(gap_piece_inputs())
def test_gap_piece_is_complement_of_truncated_sumset(inputs):
    # every class is x + f2(y) for one x in box1 and one y in Z + T2, so a
    # class of nonnegative free part outside the sumset with free(y) >= 0
    # has free(y) < 0, and free part below the top of the box
    group, G2, f2, box1 = inputs
    top = max(h.free for h in box1)
    phi2 = f2(GroupElement(1, (0,) * len(G2.torsion_orders))).free
    tail2 = [f2(GroupElement(k, t.torsion)) for k in range(top // phi2 + 1)
             for t in G2.torsion_elements()]
    sumset = {group.add(x, y) for x in box1 for y in tail2}
    expected = sorted(GroupElement(f, t.torsion) for f in range(top + 1)
                      for t in group.torsion_elements()
                      if GroupElement(f, t.torsion) not in sumset)
    box = bitmask(group.encode(h) for h in box1)
    assert group.classes(_principal_gap_piece(group, box, f2, G2)) == expected


@st.composite
def multiples_inputs(draw):
    """A mask over free levels 0..3 of a group with torsion, a generator
    of free part 0..3, a count and a window: everything, or the classes
    below some free level."""
    group = FinAbGroup(draw(st.sampled_from(PIECE_ORDERS[1:])))
    classes = [GroupElement(f, t.torsion) for f in range(4)
               for t in group.torsion_elements()]
    mask = bitmask(group.encode(h) for h in draw(st.sets(st.sampled_from(classes),
                                                       max_size=6)))
    gen = group.element(draw(st.integers(0, 3)),
                        draw(st.sampled_from(group.torsion_elements())).torsion)
    levels = draw(st.one_of(st.none(), st.integers(0, 12)))
    window = -1 if levels is None else (1 << levels * group.torsion_size) - 1
    return group, mask, gen, draw(st.integers(0, 20)), window


def _mask_or_error(fn, *args):
    try:
        return fn(*args)
    except InvariantViolation as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(multiples_inputs())
def test_multiples_match_one_translate_per_multiple(case):
    # same mask, and refused (with the same text) exactly when some class
    # of the window is reached twice
    group, mask, gen, count, window = case
    reference = _mask_or_error(_sumset, group, mask,
                               [group.scale(k, gen) for k in range(count)], "sum", window)
    assert _mask_or_error(_multiples, group, mask, gen, count, "sum",
                          window) == reference


def test_invariant_checked_as_named_error(monkeypatch):
    # a translation that loses the free part sends every level of a
    # meridian box onto the first, so the box repeats its classes
    spliced_manifold.cache_clear()
    js = judicious_slope(prob_trefoils([[3, -5], [1, -2]]))
    translate = FinAbGroup.translate
    monkeypatch.setattr(FinAbGroup, "translate",
                        lambda G, mask, h, levels: translate(G, mask, h._replace(free=0), levels))
    with pytest.raises(InvariantViolation, match="multiplicity-free"):
        spliced_manifold(js)


def _gaps(p1, p2):
    reachable = {0}
    for _ in range(p1 * p2):
        reachable |= {v + p1 for v in reachable} | {v + p2 for v in reachable}
    return {v for v in range(1, (p1 - 1) * (p2 - 1)) if v not in reachable}


def test_hypothesis_not_met():
    # this map sends the interval [1, oo] onto [1/4, 2/7], missing (1, oo),
    # so the overlap hypothesis fails and no verdict is possible
    phi = GluingMatrix(1, 1, 4, 3)
    prob = SpliceProblem(y1=trefoil(), y2=trefoil(), phi=phi)
    assert phi.apply_slope(Slope(1, 0)) == Slope(1, 4)
    assert phi.apply_slope(Slope(1, 1)) == Slope(2, 7)
    with pytest.raises(HypothesisNotMet):
        splice_is_lspace(prob)
    with pytest.raises(HypothesisNotMet):
        judicious_slope(prob)


def test_symmetry_of_cover_verdict():
    rng = random.Random(5)
    count = 0
    while count < 40:
        phi = random_det_minus_one(rng)
        prob = SpliceProblem(y1=trefoil(), y2=t25(), phi=phi)
        try:
            v = splice_is_lspace(prob)
        except HypothesisNotMet:
            continue
        swapped = SpliceProblem(y1=t25(), y2=trefoil(), phi=phi.inverse())
        v2 = splice_is_lspace(swapped)
        assert v.lspace == v2.lspace
        count += 1


def random_det_minus_one(rng):
    # random product of shears times a determinant flip, small entries
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
        else:
            m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
    m = [m[0], [-m[1][0], -m[1][1]]]
    return GluingMatrix.from_rows(m)


PIECES = None


def pieces():
    global PIECES
    if PIECES is None:
        PIECES = [trefoil(), t25(), solid_torus(), n_g(2), n_g(3)]
    return PIECES


def test_equivalence_chain_randomized():
    rng = random.Random(20260810)
    done = 0
    attempts = 0
    while done < 60 and attempts < 4000:
        attempts += 1
        y1 = rng.choice(pieces())
        y2 = rng.choice(pieces())
        phi = random_det_minus_one(rng)
        prob = SpliceProblem(y1=y1, y2=y2, phi=phi)
        if phi.q_star == 0:
            v = splice_is_lspace(prob)
            assert not v.lspace
            continue
        try:
            verdicts = splice_equivalence(prob)
        except HypothesisNotMet:
            continue
        assert len(set(verdicts.values())) == 1, (y1, y2, phi, verdicts)
        done += 1
    assert done == 60


def count_compatible_pairs(js):
    from math import gcd
    g0 = gcd(js.g1, js.g2)
    compatible = 0
    for e1 in dtau(js.problem.y1).all:
        for e2 in dtau(js.problem.y2).all:
            b1 = (js.p1 * e1.gamma - js.q1 * e1.delta) % (js.p1 * js.g1)
            b2 = (js.p2 * e2.gamma - js.q2 * e2.delta) % (js.p2 * js.g2)
            if (b1 - b2) % g0 == 0:
                compatible += 1
    return compatible


def test_a3_count_matches_compatible_pairs():
    # cross-piece difference-set elements are exactly the compatible pairs
    for phi in ([[3, -5], [1, -2]], [[2, -5], [1, -3]]):
        js = judicious_slope(prob_trefoils(phi))
        built = spliced_manifold(js)
        data = dtau(built.record)
        rec = built.record
        cross = rec.group.classes(built.cross_piece)
        a3 = [d for d in data.all if rec.iota_ab(d.delta, d.gamma) in cross]
        assert len(a3) == count_compatible_pairs(js)
        assert len(cross) == len(dtau(js.problem.y1).all) * len(dtau(js.problem.y2).all)


RETWIST_CASES = [
    ("T23", "T23", [[-1, 1], [0, 1]]),
    ("T25", "T23", [[1, -2], [0, -1]]),
    ("T23", "N2", [[1, -3], [0, -1]]),
    ("N2", "T23", [[1, 2], [1, 1]]),
    ("N2", "N2", [[-1, -2], [-1, -1]]),
]


def _verdicts_or_none(prob):
    try:
        return splice_equivalence(prob)
    except HypothesisNotMet:
        return None


@pytest.mark.parametrize("k", [-4, 3, 10])
@pytest.mark.parametrize("name1,name2,rows", RETWIST_CASES,
                         ids=["-".join(c[:2]) for c in RETWIST_CASES])
def test_equivalence_covariant_under_retwist(name1, name2, rows, k):
    # Y1 re-encoded with m1 -> m1 + k l1 and the gluing read in that basis
    # is the same manifold; every route must give the untwisted verdict
    named = {"T23": trefoil(), "T25": t25(), "N2": n_g(2)}
    (m11, m12), (m21, m22) = rows
    twisted = SpliceProblem(retwist(named[name1], k), named[name2],
                            GluingMatrix(m11, m12, m21, m22))
    untwisted = SpliceProblem(named[name1], named[name2],
                              GluingMatrix(m11 - k * m12, m12, m21 - k * m22, m22))
    verdicts = _verdicts_or_none(twisted)
    assert verdicts == _verdicts_or_none(untwisted)
    if verdicts is not None:
        assert len(set(verdicts.values())) == 1, verdicts


def test_empty_support_keeps_the_other_support_in_its_meridian_box():
    # the solid torus has an empty complement support (degree -1); the
    # judicious floor must still give p1 g1 > 4, the degree of this record
    Y = random_records(seed=1, count=5)[4]
    prob = SpliceProblem(Y, solid_torus(), GluingMatrix(1, 1, -2, -3))
    assert splice_equivalence(prob) == dict.fromkeys(
        ("cover", "conditions_l", "conditions_i", "spliced_interval"), False)


# every gluing matrix with entries in [-2, 2] and q* != 0
SMALL_GLUINGS = [GluingMatrix(*e) for e in product(range(-2, 3), repeat=4)
                 if e[0] * e[3] - e[1] * e[2] == -1 and e[1] != 0]


def test_gluing_to_the_solid_torus_is_dehn_filling():
    # the solid torus record sends l to 0, so phi^-1(l2) is the filling
    # slope on Y, and all four routes must give that filling's verdict
    assert len(SMALL_GLUINGS) == 42
    records = [*standard_corpus().values(), *random_records(seed=1, count=5)]
    for Y, phi in product(records, SMALL_GLUINGS):
        prob = SpliceProblem(Y, solid_torus(), phi)
        filling = is_lspace_slope(Y, Y.witness, phi.inverse().apply_slope(Slope(0, 1)))
        assert splice_is_lspace(prob).lspace == filling, (Y, phi)
        assert set(splice_equivalence(prob).values()) == {filling}, (Y, phi)


def _y12():
    return spliced_manifold(judicious_slope(prob_trefoils([[3, -5], [1, -2]]))).record


def test_spliced_record_glued_to_the_solid_torus_is_dehn_filling():
    # a spliced record is a piece like any other: Y12, the worked example's
    # splice of the trefoil with itself, filled along phi^-1(l2)
    Y12 = _y12()
    for phi in SMALL_GLUINGS:
        prob = SpliceProblem(Y12, solid_torus(), phi)
        filling = is_lspace_slope(Y12, Y12.witness, phi.inverse().apply_slope(Slope(0, 1)))
        assert splice_is_lspace(prob).lspace == filling, phi
        assert set(splice_equivalence(prob).values()) == {filling}, phi


def test_spliced_record_glued_to_n2():
    # Y12 has degree 97 and N_2 degree 0, so p1 > 98; the first judicious
    # slope has p1 = 485, past the 400 at which the scan used to give up
    prob = SpliceProblem(_y12(), n_g(2), GluingMatrix(1, -2, -1, 1))
    assert judicious_slope(prob).mu1 == Slope(485, 193)
    assert splice_equivalence(prob) == dict.fromkeys(
        ("cover", "conditions_l", "conditions_i", "spliced_interval"), False)


def test_narrow_overlap_needs_a_large_p1():
    # the overlap misses the p2 > 0 arc of the first encoding; in the
    # second, e11 = 0 and q* = 1, so p2 = -q1 > 20 (the degree of <5, 6>
    # is 19) forces q1 <= -21, and the overlap holds p1/q1 only below -19
    Y = gap_record(_numerical_semigroup_gaps((5, 6)))
    prob = SpliceProblem(Y, n_g(2), GluingMatrix(0, -1, -1, -3))
    js = judicious_slope(prob)
    assert js.problem.phi == GluingMatrix(0, -1, -1, 3)
    assert js.mu1 == Slope(401, -21)
    assert splice_equivalence(prob) == dict.fromkeys(
        ("cover", "conditions_l", "conditions_i", "spliced_interval"), False)


# the semigroups <a, b> whose largest gap (a - 1)(b - 1) - 1 is at most 25
SEMIGROUPS = [(a, b) for a in range(2, 6) for b in range(a + 1, 28)
              if gcd(a, b) == 1 and (a - 1) * (b - 1) <= 26]

# every gluing matrix with entries in [-3, 3] and q* != 0
GLUINGS_3 = [GluingMatrix(*e) for e in product(range(-3, 4), repeat=4)
             if e[0] * e[3] - e[1] * e[2] == -1 and e[1] != 0]


@st.composite
def judicious_inputs(draw):
    """Two pieces, each a gap record of degree at most 25, its mirror, N_2
    or N_3, under a det -1 matrix."""
    def piece():
        kind = draw(st.sampled_from(["gaps", "mirror", "n2", "n3"]))
        if kind in ("n2", "n3"):
            return n_g(int(kind[1]))
        Y = gap_record(_numerical_semigroup_gaps(draw(st.sampled_from(SEMIGROUPS))))
        return Y if kind == "gaps" else conj_record(Y)
    return SpliceProblem(piece(), piece(), draw(st.sampled_from(GLUINGS_3)))


@settings(max_examples=300, deadline=None)
@given(judicious_inputs())
def test_judicious_slope_meets_its_definition(prob):
    try:
        js = judicious_slope(prob)
    except HypothesisNotMet:
        assume(False)
    y1, y2, phi = js.problem.y1, js.problem.y2, js.problem.phi
    q_star = phi.q_star
    g1, g2 = validate_manifold(y1).g, validate_manifold(y2).g
    floor_p2 = max(q_star, (1 + max(tauc_degree(y1), 0)) * (1 + max(tauc_degree(y2), 0)))
    assert q_star == js.q_star > 0 and (js.g1, js.g2) == (g1, g2)
    assert js.p1 > floor_p2 and js.p2 > floor_p2
    assert gcd(js.p1, q_star * g2) == gcd(js.p1, js.q1) == gcd(js.p2, g1) == 1
    assert phi.apply_raw(js.p1, js.q1) == (js.p2, js.q2)
    assert (js.mu1, js.mu2) == (Slope(js.p1, js.q1), Slope(js.p2, js.q2))
    i1, i2 = js.problem.intervals()
    assert i1.interval.interior().contains(js.mu1)
    assert i2.interval.interior().image(phi.inverse()).contains(js.mu1)
