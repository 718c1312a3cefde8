"""L-space filling predicates and the L-space interval.

Fix a witness slope mu_L = p*m + q*l from the interior of the L-space
interval.  Every element of the positive difference set, written as
delta*iota(m) + gamma*iota(l), contributes the residue

    b_plus = [p*gamma - q*delta] mod p*g,      b_minus = b_plus - p*g,

and a filling mu is an L-space filling exactly when its surgery label
(mu_L . mu)/(mu . l) lies in [b_minus/delta, b_plus/delta] for every such
element.  When the positive difference set is empty, every filling except
the longitude is an L-space.  The interval endpoints lift back to honest
slopes; the resulting closed interval is independent of the witness.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .abelian import LONGITUDE, Slope, canonical_longitude
from .errors import (MissingWitness, WitnessOnIntervalBoundary,
                     WitnessOnLongitude, require)
from .projline import ProjInterval
from .torsion import (DtauElement, dtau, hfk_support, milnor_invariants,
                      validate_manifold)


@dataclass(frozen=True)
class LSpaceIntervalResult:
    kind: str                  # "all-but-longitude" | "closed"
    interval: ProjInterval     # the set of L-space filling slopes
    lo: Slope = None           # closed-interval endpoints (lifts of the
    hi: Slope = None           # difference set), when applicable
    label_bounds: tuple = None # (max b_minus/delta, min b_plus/delta)
    achieving: tuple = None    # difference-set elements attaining the bounds


def _witness_or_default(Y, mu_L):
    if mu_L is None:
        mu_L = Y.witness
    if mu_L is None:
        raise MissingWitness("an interior L-space slope is required")
    return mu_L


@lru_cache(maxsize=None)
def validate_witness(Y, mu_L=None):
    """Check what the record can check of mu_L as an interior witness,
    and assemble the L-space interval from it in the same pass.

    Requires mu_L . l != 0 and a nonzero residue b_plus for every
    positive difference-set element; when the free part of iota(mu_L)
    exceeds the Thurston norm, also checks knot-Floer coherence at mu_L
    (this is the regime where a genuine interior witness must be
    coherent).

    With empty positive difference set, every slope but the longitude is
    an L-space slope.  Otherwise the surgery labels are pinched between
    max(b_minus/delta) and min(b_plus/delta), and the achieving elements
    lift to the closed interval's endpoints.  The label p b/a - q of a
    filling a m + b l with a > 0 increases with b/a, and the bounds have
    b_minus/delta < 0 < b_plus/delta since no residue vanishes; so the
    two lifts are distinct slopes, the labels between the bounds are the
    arc between them through mu_L, and that arc misses the longitude.

    D^tau is read by row.  On the row delta, with c = -q delta mod pg,
    b_plus(gamma) = (p gamma + c) mod pg rises with gamma except at one
    wrap, gamma_w = g - c // p, below which it is p gamma + c and from
    which on it is p gamma + c - pg.  So the row's least b_plus is at its
    lowest set gamma at or past gamma_w, or else at its lowest set gamma,
    and its greatest at its highest set gamma below gamma_w, or else at
    its highest set gamma.  A residue vanishes only when p divides c, at
    gamma_w mod g (gamma 0 for c = 0): one bit test per row.  The rows
    are read in increasing delta and compared strictly, so the first
    achieving element and the first vanishing residue in (delta, gamma)
    order are the ones reported.

    That mu_L lies in the interior of the L-space interval is the
    caller's precondition, as in the paper: the record cannot always
    check it.  The trefoil slopes 4/1 and -4 (Slope(4, -1)) have the same
    iota, so -4 passes here although it lies outside the interval
    [1, oo], and verdicts computed from it are wrong.
    """
    mu_L = _witness_or_default(Y, mu_L)
    g = validate_manifold(Y).g
    if mu_L.dot_l == 0:
        raise WitnessOnLongitude("the longitude is never an interior L-space slope")
    p, q = mu_L.a, mu_L.b
    pg = p * g
    # the running bounds b/delta are kept as (b, delta, gamma) and
    # compared by cross-multiplication (every delta is positive)
    lo = hi = None
    for delta, row in enumerate(dtau(Y).rows):
        if not row or not delta:
            continue
        c = -q * delta % pg
        wrap = g - c // p
        if c % p == 0 and row >> (wrap % g) & 1:
            raise WitnessOnIntervalBoundary(
                "residue vanishes at delta=%d, gamma=%d; supply a strictly "
                "interior slope" % (delta, wrap % g))
        below, past = row & (1 << wrap) - 1, row >> wrap
        if below:  # the greatest b_plus, which gives the greatest b_minus
            gamma = below.bit_length() - 1
            b_minus = p * gamma + c - pg
        else:
            gamma = row.bit_length() - 1
            b_minus = p * gamma + c - 2 * pg
        if lo is None or b_minus * lo[1] > lo[0] * delta:
            lo = (b_minus, delta, gamma)
        if past:  # the least b_plus
            gamma = wrap + (past & -past).bit_length() - 1
            b_plus = p * gamma + c - pg
        else:
            gamma = (row & -row).bit_length() - 1
            b_plus = p * gamma + c
        if hi is None or b_plus * hi[1] < hi[0] * delta:
            hi = (b_plus, delta, gamma)
    if p * g > milnor_invariants(Y).norm:
        hfk_support(Y, mu_L)  # raises NotFloerSimpleSlope on incoherence
    if lo is None:
        return LSpaceIntervalResult(
            kind="all-but-longitude",
            interval=ProjInterval.complement_of_point(LONGITUDE))
    ach_lo, ach_hi = DtauElement(*lo[1:]), DtauElement(*hi[1:])
    interval = ProjInterval.arc_through(endpoint_lifts(g, mu_L, ach_lo)[0],
                                        endpoint_lifts(g, mu_L, ach_hi)[1],
                                        via=mu_L)
    return LSpaceIntervalResult(
        kind="closed", interval=interval,
        lo=interval.lo, hi=interval.hi,
        label_bounds=(Fraction(lo[0], lo[1]), Fraction(hi[0], hi[1])),
        achieving=(ach_lo, ach_hi))


def lspace_interval(Y, mu_L=None):
    """The set of L-space filling slopes, as an interval with endpoints in
    the lifted difference set: the result validate_witness assembled for
    this witness (by default the record's own)."""
    return validate_witness(Y, _witness_or_default(Y, mu_L))


def is_lspace_slope(Y, mu_L, mu):
    """Is the filling along mu an L-space?  Decided from the witness mu_L."""
    return lspace_interval(Y, mu_L).interval.contains(mu)


def endpoint_lifts(g, mu_L, d):
    """The two lifts of a positive difference-set element adjacent to the
    witness, as slopes: (lift below, lift above), for a record whose
    longitude image has order g."""
    p, q = mu_L.a, mu_L.b
    up = -((-q * d.delta) // p)
    dn = (q * d.delta) // p
    hi = Slope(d.delta, up + (d.gamma - up) % g)
    lo = Slope(d.delta, dn - (dn - d.gamma) % g)
    return lo, hi


def nls_detected(Y, mu_L=None):
    """Closure of the complement of the L-space interval: the slopes whose
    fillings are detected as non-L-spaces."""
    result = lspace_interval(Y, mu_L)
    return result.interval.complement().closure()


def check_corollary_consistency(Y, mu_L, mu):
    """Evaluate the interval criterion along three routes and compare.

    Route one is membership in the interval that validate_witness
    assembled from the surgery-label bounds; the other two test every
    positive difference-set element on its own.  Route two rewrites mu as
    alpha*mu_L + beta*lambda_L for the canonical longitude and tests
    alpha/beta against the lifted endpoints' coordinates (the side of the
    inequality is picked by the sign of the label).  Route three tests the
    filling coordinates n/n' against the per-element closed intervals that
    exclude the longitude.  Returns True iff all three verdicts agree.
    """
    mu_L = _witness_or_default(Y, mu_L)
    verdict_thm = is_lspace_slope(Y, mu_L, mu)
    positive = dtau(Y).positive

    p, q, g = mu_L.a, mu_L.b, validate_manifold(Y).g
    pg = p * g
    beta, n = mu_L.pairing(mu), mu.dot_l
    lam, q_star, p_star = canonical_longitude(mu_L)

    # surgery-coefficient route
    if n == 0:
        verdict_surgery = False
    elif not positive:
        verdict_surgery = True
    else:
        alpha, rem = divmod(n - beta * q_star, p)
        require(rem == 0, "the reference slope does not divide n - beta q*")
        verdict_surgery = True
        for d in positive:
            b_plus = (p * d.gamma - q * d.delta) % pg
            b_minus = b_plus - pg
            a_plus, rem = divmod(d.delta - b_plus * q_star, p)
            require(rem == 0, "the reference slope does not divide delta - b+ q*")
            a_minus = a_plus + q_star * g
            if beta == 0:
                continue
            # n > 0, so the label beta/n has the sign of beta
            if beta < 0:
                ok = _ratio_le(alpha, beta, a_minus, b_minus)
            else:
                ok = _ratio_le(a_plus, b_plus, alpha, beta)
            if not ok:
                verdict_surgery = False
                break

    # filling-coordinate route
    if n == 0:
        verdict_filling = False
    elif not positive:
        verdict_filling = True
    else:
        verdict_filling = True
        for d in positive:
            lo, hi = endpoint_lifts(g, mu_L, d)
            if not ProjInterval.arc_through(lo, hi, via=mu_L).contains(mu):
                verdict_filling = False
                break

    return verdict_thm == verdict_surgery == verdict_filling


def _ratio_le(x, y, u, v):
    """x/y <= u/v for nonzero y and v, by cross-multiplication: the
    difference (x v - u y)/(y v) has the sign of (x v - u y) y v."""
    return (x * v - u * y) * y * v <= 0
