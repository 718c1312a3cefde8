"""Answers computed apart from lspace, used to check what lspace returns.

Nothing here imports the package.  Records are plain JSON documents in
the schema of the CLI; slopes are normalized integer pairs (a, b) for
a*m + b*l with a > 0, or (0, 1) for the longitude.
"""

from fractions import Fraction
from math import gcd


# --- torus knot exteriors and the other standard pieces ---------------------

def semigroup_gaps(a, b):
    """Gaps of the numerical semigroup <a, b> (a, b coprime, both >= 2).
    The largest gap is ab - a - b, the Frobenius number."""
    def reachable(v):
        return any((v - a * i) % b == 0 for i in range(v // a + 1))
    return tuple(v for v in range(1, (a - 1) * (b - 1)) if not reachable(v))


def torus_knot_threshold(a, b):
    """2g - 1 for the (a, b) torus knot: the lower end of its L-space
    interval of filling slopes, whose upper end is the meridian 1/0."""
    return a * b - a - b


def _elt(free, torsion=()):
    return {"free": free, "torsion": list(torsion)}


def torus_knot_record(a, b):
    """The T(a, b) exterior as a record over Z: the complement support is
    the gap set of <a, b>, with the interior witness 2(2g - 1) + 1."""
    gaps = semigroup_gaps(a, b)
    return {"torsion_orders": [], "iota_m": _elt(1), "iota_l": _elt(0),
            "tauc_support": [_elt(f) for f in gaps],
            "witness": {"a": 2 * gaps[-1] + 1, "b": 1}}


def n_g_record(g):
    """The fiber complement N_g, whose L-space slopes are every slope but
    the longitude."""
    support = [_elt(i, (t,)) for i in range(g - 1) for t in range(i + 1, g)]
    return {"torsion_orders": [g], "iota_m": _elt(g, (0,)),
            "iota_l": _elt(0, (1,)), "tauc_support": support,
            "witness": {"a": 1, "b": 0}}


def solid_torus_record():
    return {"torsion_orders": [], "iota_m": _elt(1), "iota_l": _elt(0),
            "tauc_support": [], "witness": {"a": 1, "b": 0}}


def normalize_slope(a, b):
    g = gcd(abs(a), abs(b))
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b


def parse_slope(text):
    num, _, den = text.partition("/")
    return normalize_slope(int(num), int(den))


def at_least(slope, threshold):
    """Does the slope a/b lie in [threshold, 1/0], i.e. is it 1/0 or a
    rational >= threshold > 0?"""
    a, b = slope
    return b == 0 or (b > 0 and Fraction(a, b) >= threshold)


def torus_knot_lspace(a, b, slope):
    return at_least(slope, torus_knot_threshold(a, b))


def solid_torus_gluing_lspace(knot, phi, knot_side):
    """Is T(a, b) glued to a solid torus an L-space?

    phi = [[e11, e12], [e21, e22]] maps side one to side two.  The disk
    boundary of the solid torus is its longitude (0, 1); the knot
    exterior is filled along the slope glued to it.  knot_side says which
    side of phi the knot exterior sits on.
    """
    (e11, e12), (e21, e22) = phi
    if knot_side == 1:
        slope = normalize_slope(e12, -e11)   # phi^-1 of (0, 1)
    else:
        slope = normalize_slope(e12, e22)    # phi of (0, 1)
    return torus_knot_lspace(*knot, slope)


def two_solid_tori_lspace(phi):
    """Two solid tori glue to a lens space unless the disk boundaries are
    identified (q* = -e12 = 0), which gives S^1 x S^2."""
    return phi[0][1] != 0


def gluing_lspace(pieces, phi, knots):
    """The verdict for a gluing with a solid torus, or None: `pieces` are
    the keys of the two sides, `knots` maps the torus knot keys to (a, b)
    and "ST" is the solid torus."""
    k1, k2 = pieces
    if k1 == k2 == "ST":
        return two_solid_tori_lspace(phi)
    if k1 == "ST" and k2 in knots:
        return solid_torus_gluing_lspace(knots[k2], phi, 2)
    if k2 == "ST" and k1 in knots:
        return solid_torus_gluing_lspace(knots[k1], phi, 1)
    return None


# --- arcs of the projective slope line --------------------------------------

def _cross(p, q):
    return p[1] * q[0] - p[0] * q[1]


def _angle_less(p, q):
    # slope (a, b) sits at the angle of the vector (b, a) in [0, pi), which
    # grows with the rational a/b; two such angles compare by the sign of
    # their cross product
    return _cross(p, q) > 0


def _cyclic(p, q, r):
    return ((_angle_less(p, q) and _angle_less(q, r)) or
            (_angle_less(q, r) and _angle_less(r, p)) or
            (_angle_less(r, p) and _angle_less(p, q)))


def arc_contains(lo, hi, s):
    """Is s on the closed arc from lo to hi in the direction of increasing
    rationals (0 -> 1 -> 1/0 -> -1 -> 0), the order the CLI prints?"""
    return s in (lo, hi) or _cyclic(lo, s, hi)


def interval_contains(doc, s):
    """Membership of slope s in an interval as the CLI prints it."""
    kind = doc["kind"]
    if kind == "all-but-longitude":
        return s != (0, 1)
    if kind == "complement-of-point":
        return s != parse_slope(doc["point"])
    return arc_contains(parse_slope(doc["lo"]), parse_slope(doc["hi"]), s)


# --- difference sets and reduced Alexander polynomials ----------------------

def _record_parts(doc):
    orders = tuple(doc.get("torsion_orders", ()))

    def elt(d):
        return (d["free"], tuple(t % n for t, n in zip(d.get("torsion", ()), orders)))
    return orders, elt(doc["iota_m"]), elt(doc["iota_l"]), \
        {elt(d) for d in doc.get("tauc_support", ())}


def _torsion_order(t, orders):
    k, cur = 1, t
    while any(cur):
        cur = tuple((a + b) % n for a, b, n in zip(cur, t, orders))
        k += 1
    return k


def difference_set(doc):
    """D^tau by brute force, as a set of (delta, gamma): the classes
    d = delta*m + gamma*l (delta >= 0, 0 <= gamma < g) with some
    complement class x such that x - d has nonnegative free part and lies
    outside the complement support."""
    orders, m, l, support = _record_parts(doc)
    g = _torsion_order(l[1], orders)
    top = max((x[0] for x in support), default=-1)
    found = set()
    for delta in range(top // g + 1 if top >= 0 else 0):
        for gamma in range(g):
            d = (delta * m[0],
                 tuple((delta * a + gamma * b) % n
                       for a, b, n in zip(m[1], l[1], orders)))
            for x in support:
                y = (x[0] - d[0],
                     tuple((a - b) % n for a, b, n in zip(x[1], d[1], orders)))
                if y[0] >= 0 and y not in support:
                    found.add((delta, gamma))
                    break
    return found


def alexander(doc):
    """(g, k, norm, monic, gst) from the reduced Alexander polynomial:
    the torsion series with T killed has coefficient |T| minus the number
    of complement classes at each level, and times (1 - t) gives the
    polynomial.  gst is deg < g; norm is deg - 1."""
    orders, _, l, support = _record_parts(doc)
    size = 1
    for n in orders:
        size *= n
    g = _torsion_order(l[1], orders)
    top = max((x[0] for x in support), default=-1)
    series = [size - sum(1 for x in support if x[0] == i) for i in range(top + 2)]
    poly = [series[0]] + [series[i] - series[i - 1] for i in range(1, len(series))]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    deg = len(poly) - 1
    return g, size // g, deg - 1, poly[-1] == 1, deg < g


# --- Seifert fibered spaces -------------------------------------------------

def sfs_normal_form(e0, fibers):
    """M(e0; r1/s1, ...) with every ri/si moved into (0, 1)."""
    out = []
    for r, s in fibers:
        if s < 0:
            r, s = -r, -s
        q, r = divmod(r, s)
        e0 += q
        out.append((r // gcd(r, s), s // gcd(r, s)))
    return e0, out


def sfs_euler(e0, fibers):
    return e0 + sum(Fraction(r, s) for r, s in fibers)


def sfs_forced_verdict(e0, fibers):
    """The verdict the normal form alone forces, or None.  A zero Euler
    number gives no L-space; e0 >= 0 or e0 <= -n gives an L-space."""
    e0, fibers = sfs_normal_form(e0, fibers)
    if sfs_euler(e0, fibers) == 0:
        return False
    if e0 >= 0 or e0 <= -len(fibers):
        return True
    return None


def sfs_reversed(e0, fibers):
    """Orientation reversal: M(-e0; -r1/s1, ...)."""
    return -e0, [(-r, s) for r, s in fibers]


def frac_text(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)
