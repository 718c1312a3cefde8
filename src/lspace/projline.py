"""Point-set topology of the projective slope line.

Slopes form a circle P^1(Q) = Q u {oo}.  The subsets arising here are:
the whole circle, the empty set, a single point, the complement of a
point, and an arc between two distinct endpoints with open/closed flags.
Two endpoints bound two complementary arcs; an arc is stored as an
ordered pair (lo, hi) and means the set of points swept out travelling
counterclockwise from lo to hi, where "counterclockwise" is the direction
of increasing rationals (0 -> 1 -> oo -> -1 -> 0).

All predicates (membership, intersection, covering the circle) are exact.
The endpoints of several such sets cut the circle into points and open
cells, and each set is a union of some of them, so membership is constant
on a cell.  Intersection and covering are therefore decided on one sample
slope per endpoint and per cell (see _samples).
"""

from dataclasses import dataclass

from .abelian import Slope


def ccw(p, q, r):
    """Orientation of a point triple: +1 if (p, q, r) is counterclockwise,
    -1 if clockwise, 0 if two points coincide."""
    d = p.pairing(q) * q.pairing(r) * r.pairing(p)
    return (d > 0) - (d < 0)


_EMPTY = "empty"
_EVERYTHING = "everything"
_POINT = "point"
_COMPLEMENT = "complement"
_ARC = "arc"


@dataclass(frozen=True)
class ProjInterval:
    """A connected (or cocconnected) subset of the projective slope line."""
    kind: str
    lo: Slope = None
    hi: Slope = None
    lo_closed: bool = True
    hi_closed: bool = True

    # --- constructors ---

    @classmethod
    def empty(cls):
        return cls(_EMPTY)

    @classmethod
    def everything(cls):
        return cls(_EVERYTHING)

    @classmethod
    def point(cls, s):
        return cls(_POINT, lo=s, hi=s)

    @classmethod
    def complement_of_point(cls, s):
        return cls(_COMPLEMENT, lo=s, hi=s, lo_closed=False, hi_closed=False)

    @classmethod
    def arc(cls, lo, hi, lo_closed=True, hi_closed=True):
        """The counterclockwise arc from lo to hi (lo != hi)."""
        if lo == hi:
            raise ValueError("arc endpoints must differ; use point/complement_of_point")
        return cls(_ARC, lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed)

    @classmethod
    def arc_through(cls, e1, e2, via, lo_closed=True, hi_closed=True):
        """The arc with endpoints e1, e2 whose interior contains via."""
        if ccw(e1, via, e2) > 0:
            return cls.arc(e1, e2, lo_closed, hi_closed)
        if ccw(e2, via, e1) > 0:
            return cls.arc(e2, e1, hi_closed, lo_closed)
        raise ValueError("via point coincides with an endpoint")

    # --- basic predicates ---

    def is_empty(self):
        return self.kind == _EMPTY

    def contains(self, s):
        if self.kind == _EMPTY:
            return False
        if self.kind == _EVERYTHING:
            return True
        if self.kind == _POINT:
            return s == self.lo
        if self.kind == _COMPLEMENT:
            return s != self.lo
        if s == self.lo:
            return self.lo_closed
        if s == self.hi:
            return self.hi_closed
        return ccw(self.lo, s, self.hi) > 0

    def q_ranges(self, p):
        """The q with p/q in the set, for fixed p >= 1: at most two
        disjoint integer ranges (lo, hi), lowest first, with None for an
        unbounded end.

        p/q is inside an arc exactly when det(lo, s) * det(s, hi) has the
        sign of det(hi, lo) for s = (p, q), and both determinants are
        linear in q; a zero of one is the endpoint itself."""
        if self.kind == _EMPTY:
            return []
        if self.kind == _EVERYTHING:
            return [(None, None)]
        if self.kind in (_POINT, _COMPLEMENT):
            a, b = self.lo.a, self.lo.b
            if a == 0 or (p * b) % a:
                # no p/q equals the point
                return [] if self.kind == _POINT else [(None, None)]
            q = p * b // a
            if self.kind == _POINT:
                return [(q, q)]
            return [(None, q - 1), (q + 1, None)]
        lo, hi = self.lo, self.hi
        c = 1 if hi.pairing(lo) > 0 else -1
        ranges = []
        for s_lo, s_hi in ((1, c), (-1, -c)):
            # s_lo * det(lo, s) > 0 and s_hi * det(s, hi) > 0, or = 0 at a closed end
            r = _meet(_positive_q(s_lo * lo.a, -s_lo * p * lo.b, self.lo_closed),
                      _positive_q(-s_hi * hi.a, s_hi * p * hi.b, self.hi_closed))
            if r is not None:
                ranges.append(r)
        return sorted(ranges, key=lambda r: (r[0] is not None, r[0] or 0))

    # --- unary operations ---

    def complement(self):
        if self.kind == _EMPTY:
            return ProjInterval.everything()
        if self.kind == _EVERYTHING:
            return ProjInterval.empty()
        if self.kind == _POINT:
            return ProjInterval.complement_of_point(self.lo)
        if self.kind == _COMPLEMENT:
            return ProjInterval.point(self.lo)
        return ProjInterval.arc(self.hi, self.lo, not self.hi_closed, not self.lo_closed)

    def interior(self):
        if self.kind == _POINT:
            return ProjInterval.empty()
        if self.kind == _ARC:
            return ProjInterval.arc(self.lo, self.hi, False, False)
        return self

    def closure(self):
        if self.kind == _COMPLEMENT:
            return ProjInterval.everything()
        if self.kind == _ARC:
            return ProjInterval.arc(self.lo, self.hi, True, True)
        return self

    def image(self, phi):
        """Image under a gluing matrix (an orientation-reversing
        homeomorphism of the circle, so endpoint roles swap)."""
        if self.kind in (_EMPTY, _EVERYTHING):
            return self
        if self.kind == _POINT:
            return ProjInterval.point(phi.apply_slope(self.lo))
        if self.kind == _COMPLEMENT:
            return ProjInterval.complement_of_point(phi.apply_slope(self.lo))
        return ProjInterval.arc(phi.apply_slope(self.hi), phi.apply_slope(self.lo),
                                self.hi_closed, self.lo_closed)

    # --- binary predicates, on one sample per cell ---

    def _endpoints(self):
        if self.kind in (_EMPTY, _EVERYTHING):
            return []
        if self.kind in (_POINT, _COMPLEMENT):
            return [self.lo]
        return [self.lo, self.hi]

    def intersects(self, *others):
        """Is the intersection of this point set with the others nonempty?"""
        sets = (self, *others)
        return any(all(x.contains(s) for x in sets) for s in _samples(*sets))

    def covers_circle_with(self, other):
        """Is the union of the two point sets the whole circle?"""
        return all(self.contains(s) or other.contains(s) for s in _samples(self, other))

    def is_subset(self, other):
        return not self.intersects(other.complement())

    def same_points(self, other):
        return self.is_subset(other) and other.is_subset(self)


def _positive_q(u, v, closed):
    """The q with u*q + v > 0 (>= 0 when closed) as a range (lo, hi),
    None for an unbounded end, or None when there is no such q."""
    if u == 0:
        return (None, None) if v > 0 or (closed and v == 0) else None
    if u > 0:
        return (-(v // u) if closed else (-v) // u + 1, None)
    return (None, v // -u if closed else -((-v) // -u) - 1)


def _meet(r1, r2):
    """The intersection of two integer ranges, or None when it is empty."""
    if r1 is None or r2 is None:
        return None
    lo = max((x for x in (r1[0], r2[0]) if x is not None), default=None)
    hi = min((x for x in (r1[1], r2[1]) if x is not None), default=None)
    return None if None not in (lo, hi) and lo > hi else (lo, hi)


def meet_ranges(a, b):
    """The intersection of two lists of disjoint integer ranges."""
    return [r for r in (_meet(x, y) for x in a for y in b) if r is not None]


def _samples(*sets):
    """Slopes meeting every endpoint of the sets and every open cell between
    them.  Of e + f and e - f, for distinct endpoints e and f, one lies on
    each of the two arcs between e and f, so every cell between consecutive
    endpoints holds one.  With fewer than two endpoints the rest of the
    circle is a single cell, and two of three fixed slopes lie in it."""
    ends = list(dict.fromkeys(e for x in sets for e in x._endpoints()))
    out = list(ends)
    for i, e in enumerate(ends):
        for f in ends[:i]:
            out += [Slope(e.a + f.a, e.b + f.b), Slope(e.a - f.a, e.b - f.b)]
    if len(ends) < 2:
        out += [Slope(1, 0), Slope(0, 1), Slope(1, 1)]
    return out
