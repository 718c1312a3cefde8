"""L-space verdicts for gluings of two Floer simple manifolds.

Two independent routes are implemented and cross-checked:

  * the interval cover test: the glued manifold is an L-space exactly
    when the image of one L-space interval and the other together cover
    the whole slope line (open intervals when both difference sets are
    nonempty, closed ones otherwise), provided the interiors overlap;

  * the arithmetic route: after choosing a "judicious" slope in the
    overlap, the glued manifold is realized as a surgery with label 1/q*
    on a connected sum of the two filling cores.  Its torsion record is
    assembled from the pieces, and two explicit residue-class condition
    systems (L) and (I) decide the verdict by floor-sum inequalities.

All four verdicts (cover, conditions L, conditions I, the interval
criterion on the assembled record) must agree whenever the overlap
hypothesis holds; this is asserted by the test suite over randomized
instances.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm

from .abelian import (LONGITUDE, FinAbGroup, GluingMatrix, GroupElement, Slope,
                      canonical_longitude, quotient_by_relation,
                      window_slope_qs)
from .errors import (HypothesisNotMet, NotRationalHomologySphere, reads_input,
                     require)
from .interval import is_lspace_slope, lspace_interval
from .projline import ProjInterval, meet_ranges
from .torsion import (FloerSimpleManifold, conj_record, dtau, manifold_from_json,
                      reversed_encoding, tauc_degree, validate_manifold)


@dataclass(frozen=True)
class SpliceProblem:
    y1: FloerSimpleManifold
    y2: FloerSimpleManifold
    phi: GluingMatrix

    def intervals(self):
        return (lspace_interval(self.y1, self.y1.witness),
                lspace_interval(self.y2, self.y2.witness))


@reads_input
def splice_from_json(doc):
    return SpliceProblem(y1=manifold_from_json(doc["y1"]),
                         y2=manifold_from_json(doc["y2"]),
                         phi=GluingMatrix.from_rows(doc["phi"]))


@dataclass(frozen=True)
class SplicedRecord:
    record: FloerSimpleManifold
    lam_slope: Slope
    gap_piece: int        # the three support pieces, as bitmasks over
    onesided_piece: int   # the classes of record.group
    cross_piece: int


@dataclass(frozen=True)
class SpliceVerdict:
    lspace: bool
    reason: str              # "cover" | "no-cover" | "NotRationalHomologySphere"
    used_open_intervals: bool


def overlap_region(prob):
    """phi_P(interior I1) intersect interior I2, pulled back to side one:
    the set of slopes usable as splice meridians."""
    i1, i2 = prob.intervals()
    pulled = i2.interval.interior().image(prob.phi.inverse())
    return i1.interval.interior(), pulled


def splice_is_lspace(prob):
    """Interval cover verdict for the gluing.

    Raises HypothesisNotMet when the interval interiors do not overlap.
    A gluing with q* = 0 has positive first Betti number and is reported
    as a definite non-L-space.
    """
    if prob.phi.q_star == 0:
        return SpliceVerdict(lspace=False, reason="NotRationalHomologySphere",
                             used_open_intervals=False)
    i1, i2 = prob.intervals()
    image1 = i1.interval.image(prob.phi)
    if not image1.interior().intersects(i2.interval.interior()):
        raise HypothesisNotMet("interval interiors do not overlap under the gluing")
    both_nonempty = any(dtau(prob.y1).rows) and any(dtau(prob.y2).rows)
    if both_nonempty:
        covered = image1.interior().covers_circle_with(i2.interval.interior())
    else:
        covered = image1.covers_circle_with(i2.interval)
    return SpliceVerdict(lspace=covered,
                         reason="cover" if covered else "no-cover",
                         used_open_intervals=both_nonempty)


# --- normalization and the judicious slope ---------------------------------

def _conj_problem(prob):
    """Flip the sign of both longitudes while reversing both orientations:
    q* changes sign and every verdict is preserved."""
    phi = GluingMatrix(prob.phi.e11, -prob.phi.e12, -prob.phi.e21, prob.phi.e22)
    return SpliceProblem(y1=conj_record(prob.y1), y2=conj_record(prob.y2), phi=phi)


def _reverse_side2(prob):
    """Negate the basis of the second boundary (same manifolds): the
    matrix negates, so q* changes sign and side-two slope signs flip."""
    phi = GluingMatrix(-prob.phi.e11, -prob.phi.e12, -prob.phi.e21, -prob.phi.e22)
    return SpliceProblem(y1=prob.y1, y2=reversed_encoding(prob.y2), phi=phi)


def normalize_splice(prob):
    """Re-encode so that q* > 0, preserving all verdicts."""
    if prob.phi.q_star == 0:
        raise NotRationalHomologySphere("q* = 0: the gluing has b_1 > 0")
    if prob.phi.q_star < 0:
        prob = _conj_problem(prob)
    return prob


@dataclass(frozen=True)
class JudiciousSlope:
    problem: SpliceProblem   # the (possibly re-encoded) problem
    mu1: Slope
    mu2: Slope
    lambda1: Slope
    p1: int
    q1: int
    p2: int
    q2: int
    q1_star: int
    q2_star: int
    p2_star: int
    q_star: int
    g1: int
    g2: int

    @property
    def qbar1(self):
        return self.q1_star % self.p1

    @property
    def qbar2(self):
        return self.q2_star % self.p2


def judicious_slope(prob):
    """Deterministic judicious splice meridian.

    Searches slopes mu1 = p1 m1 + q1 l1 by increasing p1, then |q1|, then
    positive sign, for the first slope inside the overlap region whose
    image has p2 > max(q*, bound) and which satisfies the coprimality
    constraints.  Such a slope lies on the arc of slopes whose raw image
    has p2 > 0.  When the overlap region misses that arc, the second
    side's basis is negated (with the q* sign repaired), which sends p2 to
    -p2, and the search runs in that encoding instead.
    """
    prob = normalize_splice(prob)
    i1_int, pulled = overlap_region(prob)
    if not i1_int.intersects(pulled):
        raise HypothesisNotMet("interval interiors do not overlap under the gluing")
    if not i1_int.intersects(pulled, _positive_arc(prob.phi)):
        # the overlap region is open, so it meets the arc where p2 < 0,
        # which the re-encoding turns into its arc where p2 > 0
        prob = _conj_problem(_reverse_side2(prob))
        i1_int, pulled = overlap_region(prob)
        require(i1_int.intersects(pulled, _positive_arc(prob.phi)),
                "the overlap region misses the p2 > 0 arc in both encodings")
    p1, q1, p2, q2 = _scan_judicious(prob, i1_int, pulled)
    # canonical longitude on side one; side two longitude is -phi(lambda1)
    lam1, q1s, _ = canonical_longitude(Slope(p1, q1))
    lx, ly = prob.phi.apply_raw(lam1.a, lam1.b)
    q2s, p2s = -lx, -ly
    require(p2 * p2s - q2 * q2s == 1, "mu2 does not pair to 1 with its longitude")
    require(q1s * p2 + q2s * p1 == prob.phi.q_star,
            "the splice longitudes do not pair to q*")
    return JudiciousSlope(problem=prob, mu1=Slope(p1, q1), mu2=Slope(p2, q2),
                          lambda1=lam1, p1=p1, q1=q1, p2=p2, q2=q2,
                          q1_star=q1s, q2_star=q2s, p2_star=p2s,
                          q_star=prob.phi.q_star, g1=validate_manifold(prob.y1).g,
                          g2=validate_manifold(prob.y2).g)


def _positive_arc(phi):
    """The open arc of side-one slopes p/q, p > 0, whose raw image has
    p2 = e11 p - q* q > 0 (q* > 0): from the longitude to
    phi^-1(l2) = q*/e11, through q*/(e11 - 1)."""
    q_star = phi.q_star
    return ProjInterval.arc_through(LONGITUDE, Slope(q_star, phi.e11),
                                    Slope(q_star, phi.e11 - 1), False, False)


def _scan_judicious(prob, i1_int, pulled):
    """The first judicious (p1, q1, p2, q2) of one encoding; the slopes
    mu1 are taken from i1_int meet pulled, its overlap region, which must
    meet the arc where p2 > 0.

    The scan ends.  That meeting is a nonempty open arc of slopes p1/q1
    with q1/p1 < e11/q*, so for growing p1 the window of q1 grows
    linearly in p1, and so does p2 = e11 p1 - q* q1 on it: the cut
    p2 > floor_p2 falls away.  A prime p1 above q* g2 and g1 has
    gcd(p1, q* g2) = 1.  A prime r of g1 that divides q* = -e12 leaves
    e11 a unit mod r (det = -1), so r never divides p2 = e11 p1 mod r;
    every other prime of g1 rules out one residue of q1.  So every run
    of 2R consecutive q1, R the product of the primes of g1, holds two q1
    with gcd(p2, g1) = 1, and once p1 > 2R one of them is not a multiple
    of p1.
    """
    phi = prob.phi
    q_star = phi.q_star  # > 0 in both encodings
    g1 = validate_manifold(prob.y1).g
    g2 = validate_manifold(prob.y2).g
    # an empty support has degree -1 and counts as degree 0, so that
    # p_i > floor_p2 gives p_i > deg_i on both sides
    floor_p2 = max(q_star, (1 + max(tauc_degree(prob.y1), 0))
                   * (1 + max(tauc_degree(prob.y2), 0)))
    for p1 in count(floor_p2 + 1):
        # gcd(p1, g2) = 1, and gcd(p1, p2) = gcd(p1, q* q1) = 1 once q1 is
        # prime to p1
        if gcd(p1, q_star * g2) != 1:
            continue
        # p2 = e11 p1 - q* q1 > floor_p2
        above = [(None, (phi.e11 * p1 - floor_p2 - 1) // q_star)]
        windows = meet_ranges(meet_ranges(i1_int.q_ranges(p1), pulled.q_ranges(p1)),
                              above)
        # gcd(p1, q1) and gcd(p2, g1) depend on q1 only mod lcm(p1, g1)
        for q1 in window_slope_qs(p1, windows, lcm(p1, g1)):
            p2, q2 = phi.apply_raw(p1, q1)
            if gcd(p2, g1) == 1:
                return (p1, q1, p2, q2)


# --- condition systems ------------------------------------------------------

def b_sets(js):
    """Residue sets indexing the difference sets relative to mu1, mu2:
    B_i = { [p_i gamma - q_i delta] mod p_i g_i } over all of D^tau."""
    out = []
    for Y, p, q, g in ((js.problem.y1, js.p1, js.q1, js.g1),
                       (js.problem.y2, js.p2, js.q2, js.g2)):
        bs = set()
        for d in dtau(Y).all:
            bs.add((p * d.gamma - q * d.delta) % (p * g))
        out.append(frozenset(bs))
    return tuple(out)


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    checks: tuple   # rows (tag, b or (b1, b2, b), floor-sum, threshold)


def _floor_sum(b, qbar1, p1, qbar2, p2):
    return (b * qbar1) // p1 + (b * qbar2) // p2


def condition_systems(js):
    """Evaluate the congruence-class systems (L) and (I).

    System (L) runs the floor-sum inequality over whole residue classes
    0 < b < p*g; system (I) evaluates it only at the indexing residues,
    with the mixed strict condition over all pairs.  Both decide
    L-space-ness of the gluing; equality of the two verdicts is part of
    the equivalence chain.
    """
    B1, B2 = (sorted(B) for B in b_sets(js))
    p1, p2, g1, g2 = js.p1, js.p2, js.g1, js.g2
    qbar1, qbar2 = js.qbar1, js.qbar2
    g0 = gcd(g1, g2)
    g = g1 * g2 // g0
    pg = p1 * p2 * g
    sides = ((B1, p1 * g1, "L.i", "I.i"), (B2, p2 * g2, "L.ii", "I.ii"))

    l_checks = []
    l_holds = True
    for B, step, tag, _ in sides:
        for bi in B:
            for b in range(bi if bi > 0 else step, pg, step):
                val = _floor_sum(b, qbar1, p1, qbar2, p2)
                l_checks.append((tag, b, val, b))
                l_holds = l_holds and val >= b
    for b1 in B1:
        for b2 in B2:
            if (b1 - b2) % g0:
                continue
            b = _crt(b1, p1 * g1, b2, p2 * g2)
            if b == 0:
                b = pg
            val = _floor_sum(b, qbar1, p1, qbar2, p2)
            l_checks.append(("L.iii", (b1, b2, b), val, b))
            l_holds = l_holds and val > b

    i_checks = []
    i_holds = True
    for B, _, _, tag in sides:
        for b in B:
            val = _floor_sum(b, qbar1, p1, qbar2, p2)
            i_checks.append((tag, b, val, b))
            i_holds = i_holds and val >= b
    for b1 in B1:
        for b2 in B2:
            val = Fraction((b1 * qbar1) // p1, b1) + Fraction((b2 * qbar2) // p2, b2)
            i_checks.append(("I.iii", (b1, b2), val, 1))
            i_holds = i_holds and val > 1

    return (ConditionReport(holds=l_holds, checks=tuple(l_checks)),
            ConditionReport(holds=i_holds, checks=tuple(i_checks)))


def _crt(b1, m1, b2, m2):
    g0 = gcd(m1, m2)
    require((b1 - b2) % g0 == 0, "residues %d, %d differ mod %d", b1, b2, g0)
    l = m1 // g0 * m2
    m1g, m2g = m1 // g0, m2 // g0
    # solve b = b1 + m1 * t = b2 (mod m2)
    t = ((b2 - b1) // g0 * pow(m1g, -1, m2g)) % m2g
    return (b1 + m1 * t) % l


# --- the spliced manifold record -------------------------------------------

@lru_cache(maxsize=None)
def spliced_manifold(js):
    """Torsion record of the complement of the connected-sum core.

    The group is (H1(Y1) + H1(Y2)) / (iota1(mu1) = iota2(mu2)).  The
    complement support is assembled from three disjoint pieces: the
    classes missed by the product of the two principal series, the two
    one-sided products of a complement support with the opposite meridian
    box, and the meridian-shifted product of the two complement supports.
    Each piece is a bitmask over the classes of the group, an OR of
    translates whose overlaps are refused, and the record holds their OR
    as its support.
    The witness is the image meridian, with surgery label 0.

    Returns (record, lambda_slope) where lambda_slope = q* m + p* l is the
    slope whose filling is the original gluing (surgery label 1/q*).
    """
    prob = js.problem
    Y1, Y2 = prob.y1, prob.y2
    G1, G2 = Y1.group, Y2.group
    im1 = Y1.iota(js.mu1)
    im2 = Y2.iota(js.mu2)
    # generators m-bar-1, T1, m-bar-2, T2; the meridian image is positive
    pad1 = [0] * (1 + len(G1.torsion_orders))
    pad2 = [0] * (1 + len(G2.torsion_orders))
    v1 = [im1.free, *im1.torsion]
    free_rank, orders, image = quotient_by_relation(
        [G1.torsion_orders, G2.torsion_orders],
        v1 + [-im2.free, *(-x for x in im2.torsion)], v1 + pad2)
    require(free_rank == 1, "spliced group has free rank %d", free_rank)
    group = FinAbGroup(orders)

    def f1(h):
        return image([h.free, *h.torsion, *pad2])

    def f2(h):
        return image([*pad1, h.free, *h.torsion])

    iota_muL = f1(im1)
    require(iota_muL == f2(im2), "the two meridian images differ")
    il1 = f1(Y1.iota(js.lambda1))
    il2 = f2(Y2.iota_ab(js.q2_star, js.p2_star))
    iota_lamL = group.add(il1, il2)

    p = js.p1 * js.p2
    q_star = js.q_star
    # iota(l) = p*iota(lambda_L) - q* iota(mu_L); iota(m) from the inverse
    iota_l = group.sub(group.scale(p, iota_lamL), group.scale(q_star, iota_muL))
    require(iota_l.free == 0, "spliced longitude is not torsion")
    g = group.torsion_order_of(iota_l)
    # mu_L = p m + q l with p p* - q q* = 1 and 0 <= q < p: the canonical
    # longitude of p m + q* l, read with q and q* swapped
    _, q, p_star = canonical_longitude(Slope(p, q_star))
    iota_m = group.sub(group.scale(p_star, iota_muL), group.scale(q, iota_lamL))
    # mu_L = p m + q l with p > 0 makes the meridian orientation determine
    # the free generator sign, so iota(m) is already positively oriented
    require(iota_m.free == g, "spliced meridian has free part %d, not g = %d",
            iota_m.free, g)

    g0 = gcd(js.g1, js.g2)
    require(g == js.g1 * js.g2 // g0, "spliced g = %d is not lcm(g1, g2)", g)

    box1 = _meridian_box(group, f1, G1, js.p1 * js.g1)
    box2 = _meridian_box(group, f2, G2, js.p2 * js.g2)
    tc1 = [f1(h) for h in Y1.tauc_support]
    tc2 = [f2(h) for h in Y2.tauc_support]
    bits1 = _sumset(group, 1, tc1, "complement support")
    bits2 = _sumset(group, 1, tc2, "complement support")
    # p_i > (1 + max(deg1, 0))(1 + max(deg2, 0)) gives p_i g_i > deg_i, so tc_i
    # lies in box_i and tc1*box2 + box1*tc2 - tc1*tc2 = tc1*(box2 \ tc2) + box1*tc2
    require(not bits1 & ~box1 and not bits2 & ~box2,
            "a complement support leaves its meridian box")
    gap = _principal_gap_piece(group, box1, f2, G2)
    onesided = _sumset(group, box2 & ~bits2, tc1, "support piece")
    part = _sumset(group, box1, tc2, "support piece")
    require(not onesided & part, "support piece is not multiplicity-free")
    onesided |= part
    cross = _sumset(group, _sumset(group, bits2, tc1, "cross product"), [iota_muL],
                    "cross product")
    require(not (gap & onesided or gap & cross or onesided & cross),
            "support pieces overlap")

    record = FloerSimpleManifold(group=group, iota_m=iota_m, iota_l=iota_l,
                                 tauc_bits=gap | onesided | cross,
                                 witness=Slope(p, q))
    validate_manifold(record)
    lam_slope = Slope(q_star, p_star)
    return SplicedRecord(record=record, lam_slope=lam_slope, gap_piece=gap,
                         onesided_piece=onesided, cross_piece=cross)


def _sumset(group, mask, shifts, what, window=-1):
    """The union of the translates of a bitmask by the given classes, cut
    to window; a class reached twice is refused."""
    levels = (mask.bit_length() - 1) // group.torsion_size + 1
    out = 0
    for h in shifts:
        part = group.translate(mask, h, levels) & window
        require(not out & part, "%s is not multiplicity-free", what)
        out |= part
    return out


def _multiples(group, mask, gen, count, what, window=-1):
    """_sumset(group, mask, [k gen for k in range(count)], what, window) by
    doubling: blocks of 1, 2, 4, ... multiples, each the union of the one
    before and its translate by size gen, are combined in binary, so
    about 2 log2(count) translates are taken.  gen has free part >= 0 and
    window is -1 or the classes below some free level.

    Every union refuses overlapping sides.  A class of the window reached
    by two multiples k < k' is then refused: either both lie in one half
    of a block or a combined range, and shifting down by that half's
    start (which keeps the class in the window) gives an earlier clash,
    or the class lies on both sides of the union that splits them."""
    require(gen.free >= 0, "multiples of %r fall below free part 0", gen)
    block, size, out, start = mask & window, 1, 0, 0
    while count:
        if count & 1:
            out = _union(out, _shift(group, block, start, gen) & window, what)
            start += size
        count >>= 1
        if count:
            block = _union(block, _shift(group, block, size, gen) & window, what)
            size *= 2
    return out


def _shift(group, mask, k, gen):
    if not k:
        return mask
    return group.translate(mask, group.scale(k, gen),
                           (mask.bit_length() - 1) // group.torsion_size + 1)


def _union(a, b, what):
    require(not a & b, "%s is not multiplicity-free", what)
    return a | b


def _meridian_box(group, f, side, levels):
    """The bitmask of the images under f of the classes of free part
    0..levels-1 of side: its torsion layer translated by the multiples of
    the image of its free generator."""
    layer = _sumset(group, 1, [f(t) for t in side.torsion_elements()], "torsion layer")
    gen = f(GroupElement(1, side.zero().torsion))
    return _multiples(group, layer, gen, levels, "meridian box")


def _principal_gap_piece(group, box1, f2, G2):
    """The bitmask of the classes of nonnegative free part missed by the
    product of the first meridian box with the second principal series,
    the images under f2 of the classes of nonnegative free part of G2.

    Every class is x + f2(y) for exactly one x in box1 and one y, so a
    missed class has free(y) < 0 and lies below the top of box1.  The
    product is taken up to one slab of width phi2 = free(f2(1)) above that
    top, and the slab must be covered: box1 plus the torsion layer of G2,
    then that sum's multiples of f2(1).
    """
    gen2 = f2(GroupElement(1, G2.zero().torsion))
    phi2 = gen2.free
    require(phi2 > 0, "the second free generator has image %d <= 0", phi2)
    top = (box1.bit_length() - 1) // group.torsion_size
    bound = top + phi2
    window = (1 << (bound + 1) * group.torsion_size) - 1
    layer = _sumset(group, box1, [f2(t) for t in G2.torsion_elements()],
                    "principal product", window)
    covered = _multiples(group, layer, gen2, bound // phi2 + 1,
                         "principal product", window)
    missing = window & ~covered
    require(missing >> (top + 1) * group.torsion_size == 0,
            "the principal product misses a class above the first box")
    return missing


def splice_equivalence(prob):
    """Run all four decision routes on one problem and return their
    verdicts as a dict (cover may raise HypothesisNotMet)."""
    cover = splice_is_lspace(prob)
    js = judicious_slope(prob)
    l_rep, i_rep = condition_systems(js)
    built = spliced_manifold(js)
    record, lam = built.record, built.lam_slope
    spliced = is_lspace_slope(record, record.witness, lam)
    return {
        "cover": cover.lspace,
        "conditions_l": l_rep.holds,
        "conditions_i": i_rep.holds,
        "spliced_interval": spliced,
    }
