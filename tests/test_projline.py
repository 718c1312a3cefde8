from hypothesis import example, given
from hypothesis import strategies as st

from lspace.abelian import GluingMatrix, Slope
from lspace.projline import ProjInterval, ccw


def S(a, b=1):
    return Slope(a, b)


INF = Slope(1, 0)


def test_ccw_orientation():
    # counterclockwise direction is 0 -> 1 -> oo
    assert ccw(S(0), S(1), INF) == 1
    assert ccw(INF, S(1), S(0)) == -1
    assert ccw(S(1), S(2), S(3)) == 1
    assert ccw(S(1), S(1), S(2)) == 0
    # wrap through infinity: 2 -> oo -> -1 is counterclockwise
    assert ccw(S(2), INF, S(-1)) == 1


def test_arc_membership():
    arc = ProjInterval.arc(S(1), INF)   # [1, oo]
    assert arc.contains(S(1))
    assert arc.contains(INF)
    assert arc.contains(S(5, 2))
    assert not arc.contains(S(0))
    assert not arc.contains(S(-3))
    open_arc = ProjInterval.arc(S(1), INF, False, False)
    assert not open_arc.contains(S(1))
    assert not open_arc.contains(INF)
    assert open_arc.contains(S(2))


def test_wrapping_arc():
    # complement of [2, 3]: the arc counterclockwise from 3 to 2
    arc = ProjInterval.arc(S(3), S(2), False, False)
    assert arc.contains(S(0))
    assert arc.contains(INF)
    assert arc.contains(S(1))
    assert arc.contains(S(4))
    assert not arc.contains(S(5, 2))
    assert not arc.contains(S(2))
    assert not arc.contains(S(3))


def test_complement_roundtrip():
    arc = ProjInterval.arc(S(1), INF, True, False)
    c = arc.complement()
    assert c.contains(S(0)) and not c.contains(S(2))
    assert c.contains(INF) and not c.contains(S(1))
    assert arc.complement().complement().same_points(arc)


def test_point_sets():
    pt = ProjInterval.point(S(0))
    assert pt.contains(S(0)) and not pt.contains(S(1))
    co = pt.complement()
    assert co.kind == "complement"
    assert co.contains(S(1)) and not co.contains(S(0))
    assert pt.closure().same_points(pt)
    assert pt.interior().is_empty()
    assert co.closure().same_points(ProjInterval.everything())


def test_intersects_and_cover():
    a = ProjInterval.arc(S(1), INF, False, False)     # (1, oo)
    b = ProjInterval.arc(S(3), S(2), False, False)    # complement of [2, 3]
    assert a.intersects(b)
    assert a.covers_circle_with(b)                    # union misses nothing
    c = ProjInterval.arc(S(1), INF, False, False)
    assert not a.covers_circle_with(c)                # union still (1, oo)
    everything = ProjInterval.everything()
    assert a.covers_circle_with(everything)
    assert not a.intersects(ProjInterval.empty())
    # two closed arcs meeting only at endpoints cover the circle
    upper = ProjInterval.arc(S(0), INF)
    lower = ProjInterval.arc(INF, S(0))
    assert upper.covers_circle_with(lower)
    # but not if a shared endpoint is open on both sides
    upper_o = ProjInterval.arc(S(0), INF, True, False)
    lower_o = ProjInterval.arc(INF, S(0), False, True)
    assert not upper_o.covers_circle_with(lower_o)    # infinity uncovered
    assert upper_o.covers_circle_with(ProjInterval.arc(INF, S(0), True, True))


def test_subset_and_equality():
    a = ProjInterval.arc(S(1), INF)
    b = ProjInterval.arc(S(0), INF)
    assert a.is_subset(b)
    assert not b.is_subset(a)
    assert a.same_points(ProjInterval.arc(S(1), INF))
    assert not a.same_points(a.interior())
    assert a.interior().is_subset(a)


def test_gluing_example_shear():
    # shear fixing the slope-1 point: open (1, oo) maps to open (1, oo)
    phi = GluingMatrix(1, 0, 1, -1)
    arc = ProjInterval.arc(S(1), INF, False, False)
    image = arc.image(phi)
    # endpoint images: phi(1) = oo, phi(oo) = 1
    assert phi.apply_slope(S(1)) == INF
    assert phi.apply_slope(INF) == S(1)
    assert image.same_points(arc)
    # orientation reversal: sample three interior rationals
    for v in (S(2), S(3), S(3, 2)):
        assert image.contains(phi.apply_slope(v)) == arc.contains(v)


def test_gluing_example_wrap():
    # this map sends open (1, oo) onto the complement of closed [2, 3]
    phi = GluingMatrix(3, -5, 1, -2)
    arc = ProjInterval.arc(S(1), INF, False, False)
    image = arc.image(phi)
    assert phi.apply_slope(S(1)) == S(2)
    assert phi.apply_slope(INF) == S(3)
    assert phi.apply_slope(S(2)) == INF   # pole inside the source interval
    expected = ProjInterval.arc(S(3), S(2), False, False)
    assert image.same_points(expected)
    assert image.contains(S(0)) and image.contains(INF)
    assert not image.contains(S(5, 2))


def test_gluing_everything():
    phi = GluingMatrix(3, -5, 1, -2)
    assert ProjInterval.everything().image(phi).same_points(
        ProjInterval.everything())


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6), st.integers(-8, 8), st.integers(1, 8),
       st.integers(-8, 8), st.integers(1, 8), st.booleans(), st.booleans())
def test_gluing_interval_roundtrip(a, b, c, d, x1, y1, x2, y2, f1, f2):
    if a * d - b * c != -1:
        return
    try:
        lo, hi = Slope(x1, y1), Slope(x2, y2)
    except ValueError:
        return
    if lo == hi:
        return
    phi = GluingMatrix(a, b, c, d)
    arc = ProjInterval.arc(lo, hi, f1, f2)
    back = arc.image(phi).image(phi.inverse())
    assert back.same_points(arc)
    # membership is preserved pointwise
    for s in (Slope(0, 1), Slope(1, 0), Slope(1, 1), Slope(2, 3), Slope(-3, 1)):
        assert arc.contains(s) == arc.image(phi).contains(phi.apply_slope(s))


slope_coords = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda ab: ab != (0, 0))


@st.composite
def proj_sets(draw):
    kind = draw(st.sampled_from(["arc", "point", "complement", "everything", "empty"]))
    if kind == "everything":
        return ProjInterval.everything()
    if kind == "empty":
        return ProjInterval.empty()
    lo = Slope(*draw(slope_coords))
    if kind == "point":
        return ProjInterval.point(lo)
    if kind == "complement":
        return ProjInterval.complement_of_point(lo)
    hi = Slope(*draw(slope_coords.filter(lambda ab: Slope(*ab) != lo)))
    return ProjInterval.arc(lo, hi, draw(st.booleans()), draw(st.booleans()))


@given(proj_sets(), st.integers(1, 12))
def test_q_ranges_match_contains(iv, p):
    ranges = iv.q_ranges(p)
    assert len(ranges) <= 2
    ends = [(-10**9 if lo is None else lo, 10**9 if hi is None else hi)
            for lo, hi in ranges]
    assert all(lo <= hi for lo, hi in ends)
    assert all(a[1] < b[0] for a, b in zip(ends, ends[1:]))
    for q in range(-50, 51):
        assert any(lo <= q <= hi for lo, hi in ends) == iv.contains(Slope(p, q))


# every slope with |a|, |b| <= 12: the endpoints drawn by proj_sets have
# coordinates at most 6, so this grid holds every endpoint and, for each
# pair of endpoints e, f, both e + f and e - f, one inside each arc between
# them; so it meets every open cell and deciding by brute force is exact
GRID = sorted({Slope(a, b) for a in range(-12, 13) for b in range(-12, 13)
               if (a, b) != (0, 0)}, key=lambda s: (s.a, s.b))


@given(proj_sets(), proj_sets())
# equal open arcs meet, though neither holds an endpoint of the other
@example(ProjInterval.arc(S(0), S(1), False, False),
         ProjInterval.arc(S(0), S(1), False, False))
# complementary open arcs with shared endpoints: disjoint, and both
# endpoints are missed
@example(ProjInterval.arc(S(0), S(1), False, False),
         ProjInterval.arc(S(1), S(0), False, False))
# a point and its complement cover the circle without meeting
@example(ProjInterval.point(S(2)), ProjInterval.complement_of_point(S(2)))
def test_binary_predicates_match_brute_force(x, y):
    inx = [x.contains(s) for s in GRID]
    iny = [y.contains(s) for s in GRID]
    assert x.intersects(y) == any(a and b for a, b in zip(inx, iny))
    assert x.covers_circle_with(y) == all(a or b for a, b in zip(inx, iny))
    assert x.is_subset(y) == all(b for a, b in zip(inx, iny) if a)
