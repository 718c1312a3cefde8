"""Point-set topology of the projective slope line.

Slopes form a circle P^1(Q) = Q u {oo}.  The subsets arising here are:
the whole circle, the empty set, a single point, the complement of a
point, and an arc between two distinct endpoints with open/closed flags.
Two endpoints bound two complementary arcs; an arc is stored as an
ordered pair (lo, hi) and means the set of points swept out travelling
counterclockwise from lo to hi, where "counterclockwise" is the direction
of increasing rationals (0 -> 1 -> oo -> -1 -> 0).

All predicates (membership, intersection, covering the circle) are exact.
Intersection and covering are decided by cutting the circle at a rational
point away from every endpoint and sweeping the resulting linear order.
"""

from dataclasses import dataclass
from functools import cmp_to_key

from .abelian import Slope


def _det(p, q):
    return p.a * q.b - q.a * p.b


def ccw(p, q, r):
    """Orientation of a point triple: +1 if (p, q, r) is counterclockwise,
    -1 if clockwise, 0 if two points coincide."""
    d = _det(p, q) * _det(q, r) * _det(r, p)
    return (d > 0) - (d < 0)


_EMPTY = "empty"
_EVERYTHING = "everything"
_POINT = "point"
_COMPLEMENT = "complement"
_ARC = "arc"

# sentinels for the cut order: BEGIN is just after the cut point, END just before
_BEGIN = ("begin",)
_END = ("end",)


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
        c = 1 if _det(hi, lo) > 0 else -1
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

    # --- binary predicates, via cutting the circle ---

    def _endpoints(self):
        if self.kind in (_EMPTY, _EVERYTHING):
            return []
        if self.kind in (_POINT, _COMPLEMENT):
            return [self.lo]
        return [self.lo, self.hi]

    def _pieces(self, cut):
        """Split into linear intervals of the circle cut at `cut`.

        Returns a list of (start, start_closed, end, end_closed) with
        start/end either Slope or the BEGIN/END sentinels.  `cut` must not
        be an endpoint of self.
        """
        if self.kind == _EMPTY:
            return []
        if self.kind == _EVERYTHING:
            return [(_BEGIN, True, _END, True)]
        if self.kind == _POINT:
            return [(self.lo, True, self.lo, True)]
        if self.kind == _COMPLEMENT:
            return [(_BEGIN, True, self.lo, False), (self.lo, False, _END, True)]
        if ccw(self.lo, cut, self.hi) > 0:
            # cut lies inside the arc: two pieces
            return [(_BEGIN, True, self.hi, self.hi_closed),
                    (self.lo, self.lo_closed, _END, True)]
        return [(self.lo, self.lo_closed, self.hi, self.hi_closed)]

    def intersects(self, other):
        """Is the intersection of the two point sets nonempty?"""
        cut = _pick_cut(self._endpoints() + other._endpoints())
        if self.contains(cut) and other.contains(cut):
            return True
        less = _cut_less(cut)
        for pa in self._pieces(cut):
            for pb in other._pieces(cut):
                if _linear_overlap(pa, pb, less):
                    return True
        return False

    def covers_circle_with(self, other):
        """Is the union of the two point sets the whole circle?"""
        cut = _pick_cut(self._endpoints() + other._endpoints())
        if not (self.contains(cut) or other.contains(cut)):
            return False
        less = _cut_less(cut)
        pieces = self._pieces(cut) + other._pieces(cut)
        return _linear_cover(pieces, less)

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


def _pick_cut(avoid):
    avoid = set(avoid)
    for cand in (Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(1, -1), Slope(2, 1),
                 Slope(1, 2), Slope(3, 1), Slope(1, 3), Slope(3, 2), Slope(2, 3),
                 Slope(5, 2), Slope(2, 5), Slope(5, 3), Slope(4, 1)):
        if cand not in avoid:
            return cand
    k = 5
    while True:
        cand = Slope(k, 1)
        if cand not in avoid:
            return cand
        k += 1


def _cut_less(cut):
    """Strict total order on circle points != cut: p < q iff p is met
    before q travelling counterclockwise from the cut."""
    def less(p, q):
        if p is _BEGIN:
            return q is not _BEGIN
        if p is _END or q is _BEGIN:
            return False
        if q is _END:
            return p is not _END
        if p == q:
            return False
        return ccw(cut, p, q) > 0
    return less


def _linear_overlap(pa, pb, less):
    sa, sac, ea, eac = pa
    sb, sbc, eb, ebc = pb
    # latest start and earliest end, with flags
    if less(sa, sb):
        s, sc = sb, sbc
    elif less(sb, sa):
        s, sc = sa, sac
    else:
        s, sc = sa, sac and sbc
    if less(ea, eb):
        e, ec = ea, eac
    elif less(eb, ea):
        e, ec = eb, ebc
    else:
        e, ec = ea, eac and ebc
    if less(s, e):
        return True
    if not less(e, s) and not isinstance(s, tuple):
        # s == e, an actual point: need it covered on both sides
        return sc and ec
    return False


def _linear_cover(pieces, less):
    """Do the linear pieces cover the whole cut-open circle?"""
    if not pieces:
        return False
    order = cmp_to_key(lambda x, y: -1 if less(x, y) else (1 if less(y, x) else 0))
    pieces = sorted(pieces, key=lambda p: (order(p[0]), not p[1]))
    first = pieces[0]
    if first[0] is not _BEGIN:
        return False
    frontier, frontier_closed = first[2], first[3]
    for s, sc, e, ec in pieces[1:]:
        if frontier is _END:
            break
        if less(frontier, s):
            return False
        if not less(s, frontier) and not (sc or frontier_closed):
            # s == frontier but the meeting point is covered by neither
            return False
        if less(frontier, e):
            frontier, frontier_closed = e, ec
        elif not less(e, frontier):
            frontier_closed = frontier_closed or ec
    return frontier is _END
