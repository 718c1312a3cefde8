"""Seifert fibered spaces over the two-sphere.

A space M(e0; r1/s1, ..., rn/sn) is the Dehn filling of a circle bundle
over the n+1 punctured sphere: slope e0 on the distinguished boundary and
noninteger slopes ri/si on the others.  Normal form puts every ri/si in
(0, 1) with integer parts absorbed into e0.

The classifier evaluates, over x in {1, ..., s-1} with s = lcm(si),

    A(x) = -(1/x)(-1 + sum ceil(ri x / si)),
    B(x) = -(1/x)( 1 + sum floor(ri x / si)),

and declares M not an L-space exactly when the Euler number
e = e0 + sum ri/si vanishes or min A - e0 < 0 < max B - e0.  An
equivalent form brackets the Euler number by remainder sums; both are
computed and must agree.  The difference set of the regular-fiber
complement is carried along explicitly, which lets the surgery-label
criterion re-derive every verdict by an independent route.  All of
these, and every fiber threshold, are integer sums of the terms
floor(ri x / si): one table of them per space serves both forms, the
thresholds and the difference-set route.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .errors import (IntegerFiberSlope, MalformedInput, TooFewFibers,
                     read_int, reads_input, require)


@dataclass(frozen=True)
class SeifertData:
    e0: int
    fibers: tuple  # pairs (r, s)

    def __post_init__(self):
        fibers = tuple((r, s) for r, s in self.fibers)
        for r, s in fibers:
            if s == 0:
                raise IntegerFiberSlope("fiber slope with zero denominator")
            if r % s == 0:
                raise IntegerFiberSlope("fiber slope %d/%d is an integer" % (r, s))
        object.__setattr__(self, "fibers", fibers)

    @property
    def n(self):
        return len(self.fibers)

    def euler(self):
        s = lcm(*[sd for _, sd in self.fibers])
        return Fraction(self.e0 * s + sum(r * (s // sd) for r, sd in self.fibers), s)


@reads_input
def sfs_from_json(doc):
    return SeifertData(e0=read_int(doc["e0"], "e0"), fibers=tuple(
        (read_int(r, "fibers"), read_int(s, "fibers")) for r, s in doc["fibers"]))


def sfs_normalize(d):
    """Reduce every fiber slope into (0, 1), absorbing integer parts into
    e0.  Normalized data comes back as it is, with no new object built."""
    e0 = d.e0
    fibers = []
    for r, s in d.fibers:
        if s < 0:
            r, s = -r, -s
        g = gcd(abs(r), s)
        r, s = r // g, s // g
        z = r // s
        e0 += z
        fibers.append((r - z * s, s))
    fibers = tuple(fibers)
    if (e0, fibers) == (d.e0, d.fibers):
        return d
    return SeifertData(e0=e0, fibers=fibers)


def sfs_flip(d):
    """The orientation reversal M(-e0; -r1/s1, ...), renormalized."""
    flipped = SeifertData(e0=-d.e0, fibers=tuple((-r, s) for r, s in d.fibers))
    return sfs_normalize(flipped)


class SfsVerdict(NamedTuple):
    lspace: bool
    reason: str              # "euler-zero" | "interval-criterion" | "criterion"
    euler: Fraction
    theorem_not_lspace: bool
    orbifold_not_lspace: bool
    min_side: Fraction       # min A(x) - e0  (None when n = 0)
    max_side: Fraction       # max B(x) - e0


@lru_cache(maxsize=8)
def _side_sums(fibers):
    """The floor table of normalized fibers over 0 <= x < s = lcm(si), in
    lists that every reader shares and none changes: s, T = sum ri s/si,
    each fiber's column floor(ri x / si), their total F(x), the count c(x)
    of fibers with si not dividing x, and R(x) = sum [ri x]_si s/si = x T - s F(x)."""
    s = lcm(*[sd for _, sd in fibers])
    total = sum(r * (s // sd) for r, sd in fibers)
    columns = [[r * x // sd for x in range(s)] for r, sd in fibers]
    floors = list(map(sum, zip(*columns)))
    misses = list(map(sum, zip(*[[x % sd > 0 for x in range(s)] for _, sd in fibers])))
    rems = [x * total - s * f for x, f in enumerate(floors)]
    return s, total, columns, floors, misses, rems


def _extremes(lows, highs, scale=1):
    """The least lows[x] / (scale x) and the greatest highs[x] / (scale x)
    over 1 <= x < len(lows), compared by cross-multiplication."""
    lo_a, lo_x, hi_b, hi_x = lows[1], 1, highs[1], 1
    for x in range(2, len(lows)):
        a, b = lows[x], highs[x]
        if a * lo_x < lo_a * x:
            lo_a, lo_x = a, x
        if b * hi_x > hi_b * x:
            hi_b, hi_x = b, x
    return Fraction(lo_a, scale * lo_x), Fraction(hi_b, scale * hi_x)


def _minmax_sides(fibers, j=None):
    """min A(x) and max B(x) over 1 <= x < s, with A(x) = 1 - F(x) - c(x)
    and B(x) = -1 - F(x) from the floor table.  With j, the sides of the
    other fibers over x below their lcm, a divisor of s: the j-th column
    and its bit come off the table."""
    _, _, columns, floors, misses, _ = _side_sums(fibers)
    if j is None:
        return _extremes([1 - f - c for f, c in zip(floors, misses)], [-1 - f for f in floors])
    sj, column = fibers[j][1], columns[j]
    stop = lcm(*[sd for i, (_, sd) in enumerate(fibers) if i != j])
    return _extremes([1 - f - c + k + (x % sj > 0)
                      for x, f, c, k in zip(range(stop), floors, misses, column)],
                     [-1 - f + k for f, k in zip(floors[:stop], column)])


def _remainder_bracket(fibers, s):
    """The remainder-sum bracket (lo, hi) of the Euler number: lo is the
    least (1 - sum [-ri x]_si / si) / x and hi the greatest
    (-1 + sum [ri x]_si / si) / x, over 1 <= x < s.  Over the common
    denominator s x their numerators are s - s c(x) + R(x) and R(x) - s."""
    *_, misses, rems = _side_sums(fibers)
    return _extremes([s - s * c + r for c, r in zip(misses, rems)], [r - s for r in rems], s)


def sfs_is_lspace(d):
    """Classify M(e0; r1/s1, ..., rn/sn), evaluating both criterion forms.

    Data is normalized first.  With no exceptional fibers the space is a
    lens-space-like filling and is an L-space iff e0 != 0.
    """
    d = sfs_normalize(d)
    e = d.euler()
    if d.n == 0:
        lspace = d.e0 != 0
        return SfsVerdict(lspace=lspace,
                          reason="criterion" if lspace else "euler-zero",
                          euler=Fraction(d.e0),
                          theorem_not_lspace=not lspace,
                          orbifold_not_lspace=not lspace,
                          min_side=None, max_side=None)
    s = lcm(*[sd for _, sd in d.fibers])
    min_side, max_side = (v - d.e0 for v in _minmax_sides(d.fibers))
    thm_not = (e == 0) or (min_side < 0 < max_side)
    # remainder-sum form bracketing the Euler number
    lo, hi = _remainder_bracket(d.fibers, s)
    orb_not = (e == 0) or (lo < e < hi)
    require(thm_not == orb_not, "criterion forms disagree on %r", d)
    reason = "euler-zero" if e == 0 else "interval-criterion" if thm_not else "criterion"
    return SfsVerdict(lspace=not thm_not, reason=reason, euler=e,
                      theorem_not_lspace=thm_not, orbifold_not_lspace=orb_not,
                      min_side=min_side, max_side=max_side)


# --- the fiber-complement difference set ----------------------------------

class SfsDtauEntry(NamedTuple):
    j: int
    x: int
    delta: int
    a_minus: int
    b_minus: int
    a_plus: int
    b_plus: int


class SfsDtau(NamedTuple):
    entries: tuple
    p: int
    q_star: int
    g: int
    s: int


def sfs_dtau(d):
    """Parameterized difference set of the regular-fiber complement.

    In the surgery basis given by the distinguished boundary, the
    complement of a regular fiber has difference-set elements indexed by
    j in {1..n-1} and x in {1..s-1}.  With the per-x remainder and floor
    sums

        R(x) = sum [ri x]_{si} (s/si),    F(x) = sum floor(ri x / si),

    the element is

        delta(j, x) = (R(x) - j s) / g,

    kept when it is nonnegative (it is always an integer), with
    coordinates a- = x, b- = -j - F(x), and the opposite lift
    a+ = a- - q* g = -(s - x), b+ = b- + p g.  Here g = gcd(sum ri s/si, s),
    p = (s/g) sum ri/si and q* = s/g, so p g = sum ri s/si.  No Fraction
    is built: R and F are read from the space's floor table.
    """
    d = sfs_normalize(d)
    if d.n == 0:
        return SfsDtau(entries=(), p=0, q_star=1, g=1, s=1)
    s, total, _, floors, _, rems = _side_sums(d.fibers)
    g = gcd(total, s)
    p, q_star = total // g, s // g
    # g divides s, so delta(j, x) = R(x)/g - j q* is an integer for every
    # j exactly when g divides R(x), and the lift x p + b- q* = delta
    # reads x p - F(x) q* = R(x)/g for every j
    lifts = []
    for x in range(1, s):
        r, rest = divmod(rems[x], g)
        require(rest == 0 and x * p - floors[x] * q_star == r,
                "residue %d does not lift the remainder sum %d over %d", x, rems[x], g)
        lifts.append((x, r, floors[x]))
    entries = []
    for j in range(1, d.n):
        for x, r, f in lifts:
            delta = r - j * q_star
            if delta < 0:
                continue
            b_minus = -j - f
            require(0 < -b_minus < total, "residue pair (%d, %d) does not lift %d",
                    x, b_minus, delta)
            entries.append(SfsDtauEntry(j, x, delta, x, b_minus,
                                        x - s, b_minus + total))
    return SfsDtau(entries=tuple(entries), p=p, q_star=q_star, g=g, s=s)


def sfs_is_lspace_via_dtau(d):
    """Independent verdict through the fiber-complement difference set.

    The space is the filling with surgery coefficients (alpha, beta) =
    (1, e0) relative to the distinguished fiber basis; the surgery-label
    inequalities over the positive entries decide L-space-ness.  Every
    entry has b+ > 0 > b-, so a+/b+ <= alpha/beta (positive label) and
    alpha/beta <= a-/b- (negative label) both read
    (alpha b - a beta) beta >= 0 for the lift (a, b) compared.
    """
    d = sfs_normalize(d)
    if d.n == 0:
        return d.e0 != 0
    data = sfs_dtau(d)
    n_pairing = data.q_star * d.e0 + data.p  # mu_0 . l = (s/g) * euler
    if n_pairing == 0:
        return False
    alpha, beta = 1, d.e0
    if beta == 0:
        return True
    label_positive = beta * n_pairing > 0
    for e in data.entries:
        if e.delta <= 0:
            continue
        a, b = (e.a_plus, e.b_plus) if label_positive else (e.a_minus, e.b_minus)
        if (alpha * b - a * beta) * beta < 0:
            return False
    return True


class FiberInterval(NamedTuple):
    t_lower: Fraction
    t_upper: Fraction

    def lspace_given(self, r, s, euler):
        """Verdict for the space with this fiber filled along r/s."""
        if euler == 0:
            return False
        v = Fraction(r, s)
        return v <= self.t_lower or v >= self.t_upper


def sfs_fiber_interval(d, j):
    """Threshold pair controlling L-space-ness as the j-th fiber varies.

    For the other fibers fixed (normalized), the space is an L-space iff
    the Euler number is nonzero and rj/sj <= first threshold or
    rj/sj >= second threshold, where the thresholds are the min/max sides
    evaluated without the j-th fiber (s = lcm of the other denominators).
    """
    if d.n < 2:
        raise TooFewFibers("need at least two exceptional fibers")
    if j not in range(d.n):
        raise MalformedInput("fiber index %r is not in 0..%d" % (j, d.n - 1))
    d = sfs_normalize(d)
    return FiberInterval(*(v - d.e0 for v in _minmax_sides(d.fibers, j)))
