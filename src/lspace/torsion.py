"""Floer simple manifolds presented by torsion data.

A manifold Y with torus boundary and b_1 = 1 is recorded by:

  * the torsion subgroup T of H_1(Y) (cyclic orders),
  * iota(m) and iota(l), the images of a boundary basis (m, l) with
    m . l = 1, where iota(l) is torsion of order g and iota(m) has free
    part exactly +g,
  * the finite support of the torsion complement: the normalized torsion
    series has 0/1 coefficients, equals 1 on every class of nonnegative
    free part outside this finite set, and vanishes on negative free parts;
    the record holds it as one bitmask over its group's ClassEncoding,
  * optionally a witness slope known to give an L-space filling from the
    interior of the L-space interval.

The difference set D^tau is the set of differences (complement support
minus torsion support) that land in the image of the boundary, split into
its torsion part (delta = 0) and positive part (delta > 0).  Everything
downstream (interval computation, gluing, coloring) consumes this record.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import NamedTuple

from .abelian import (FinAbGroup, GroupElement, Slope, bitmask,
                      quotient_by_relation)
from .errors import (BadMeridianFreePart, Lemma73Violation, LongitudeFilling,
                     NegativePhiInComplement, NonTorsionLongitude,
                     NotFloerSimpleSlope, ZeroInComplement, read_int,
                     reads_input, require)


@dataclass(frozen=True, init=False, repr=False)
class FloerSimpleManifold:
    """A torsion record.  The complement support is held as one bitmask,
    tauc_bits, over group.encoding.  Build a record from that mask
    (tauc_bits=) or from its classes (tauc_support=), which are encoded
    once; tauc_support decodes the mask on demand."""
    group: FinAbGroup
    iota_m: GroupElement
    iota_l: GroupElement
    tauc_bits: int
    witness: Slope = None

    def __init__(self, group, iota_m, iota_l, tauc_support=(), witness=None,
                 *, tauc_bits=None):
        if tauc_bits is None:
            tauc_bits = _support_bits(group, tauc_support)
        for name, value in (("group", group), ("iota_m", iota_m), ("iota_l", iota_l),
                            ("tauc_bits", tauc_bits), ("witness", witness)):
            object.__setattr__(self, name, value)

    @property
    def tauc_support(self):
        """The complement support as a frozenset of classes, decoded from
        tauc_bits on each read."""
        return frozenset(self.group.encoding.classes(self.tauc_bits))

    def __repr__(self):
        return ("FloerSimpleManifold(group=%r, iota_m=%r, iota_l=%r, tauc_support=%r, "
                "witness=%r)" % (self.group, self.iota_m, self.iota_l,
                                 self.tauc_support, self.witness))

    def iota(self, slope):
        """iota of a boundary slope, as an element of H_1(Y)."""
        return self.iota_ab(slope.a, slope.b)

    def iota_ab(self, a, b):
        """iota of the boundary class a*m + b*l, for any integers a, b."""
        g = self.group
        return g.add(g.scale(a, self.iota_m), g.scale(b, self.iota_l))


def _support_bits(group, classes):
    """The bitmask of a set of complement classes.  Raises
    NegativePhiInComplement for a class of negative free part, which no
    bit can hold, and ValueError for a class of another group."""
    enc = group.encoding
    codes = []
    for h in frozenset(classes):
        if h.free < 0:
            raise NegativePhiInComplement("complement class %r has negative free part" % (h,))
        if len(h.torsion) != len(enc.orders):
            raise ValueError("complement class %r does not match the group" % (h,))
        codes.append(enc.encode(group.element(h.free, h.torsion)))
    return bitmask(codes)


class ValidationReport(NamedTuple):
    g: int            # order of iota(l) in T
    k: int            # |T| / g
    torsion_size: int


class DtauElement(NamedTuple):
    """The class delta*iota(m) + gamma*iota(l) (Y.iota_ab(delta, gamma))."""
    delta: int      # free part divided by g
    gamma: int      # residue mod g


class DtauData(NamedTuple):
    all: tuple       # D^tau including torsion elements (delta = 0)
    positive: tuple  # the delta > 0 part


class MilnorReport(NamedTuple):
    delta_bar: tuple   # coefficients of the reduced Alexander polynomial
    norm: int          # deg(delta_bar) - 1, valid under boundary incompressibility
    monic: bool        # fibered detection for irreducible Y
    gst: bool          # deg(delta_bar) < g: generalized solid torus
    k: int


@lru_cache(maxsize=None)
def validate_manifold(Y):
    """Check the record invariants and compute g and k.

    Raises NonTorsionLongitude, BadMeridianFreePart or ZeroInComplement
    on malformed input (NegativePhiInComplement is raised when the record
    is built).
    """
    G = Y.group
    if Y.iota_l.free != 0:
        raise NonTorsionLongitude("iota(l) must be torsion, has free part %d" % Y.iota_l.free)
    g = G.torsion_order_of(Y.iota_l)
    if Y.iota_m.free != g:
        raise BadMeridianFreePart(
            "iota(m) must have free part %d (the order of iota(l)), has %d"
            % (g, Y.iota_m.free))
    if Y.tauc_bits & 1:
        raise ZeroInComplement("the zero class may not lie in the complement support")
    zero = G.zero()
    size = G.torsion_size
    # exact subgroup enumeration of <iota(l)>, cross-checked against g
    seen = {zero}
    cur = zero
    while True:
        cur = G.add(cur, Y.iota_l)
        if cur in seen:
            break
        seen.add(cur)
    require(len(seen) == g, "<iota(l)> has %d elements, not g = %d", len(seen), g)
    return ValidationReport(g=g, k=size // g, torsion_size=size)


def tau_coefficient(Y, h):
    """The 0/1 coefficient of the class h in the normalized torsion series."""
    validate_manifold(Y)
    if h.free < 0:
        return 0
    code = Y.group.encoding.encode(Y.group.element(h.free, h.torsion))
    return 0 if Y.tauc_bits >> code & 1 else 1


def tauc_degree(Y):
    """Max free part over the complement support; -1 if the support is empty."""
    return (Y.tauc_bits.bit_length() - 1) // Y.group.encoding.size


@lru_cache(maxsize=None)
def milnor_invariants(Y):
    """Reduced torsion invariants obtained by killing T.

    The reduced series has coefficient |T| minus the number of complement
    classes at each free level; multiplying by (1 - t) gives the reduced
    Alexander polynomial.  Its degree determines the Thurston norm
    (deg - 1, assuming boundary incompressibility), monicity detects
    fiberedness for irreducible Y, and deg < g characterizes generalized
    solid tori.  The coefficient sums over each residue class mod g must
    all equal k; a failure means no rational homology S^1 x D^2 has this
    torsion, and raises Lemma73Violation.
    """
    rep = validate_manifold(Y)
    size = rep.torsion_size
    # tau_bar coefficient at i is size minus the complement classes at
    # level i, counted in one pass over the mask's digits; the last
    # coefficient is the count of the top level, so it is never 0
    digits = bin(Y.tauc_bits)[:1:-1]
    delta_bar = []
    prev = 0
    for i in range(tauc_degree(Y) + 2):
        cur = size - digits.count("1", i * size, (i + 1) * size)
        delta_bar.append(cur - prev)
        prev = cur
    deg = len(delta_bar) - 1
    class_sums = [0] * rep.g
    for i, c in enumerate(delta_bar):
        class_sums[i % rep.g] += c
    if any(s != rep.k for s in class_sums):
        raise Lemma73Violation(
            "residue-class sums of the reduced Alexander polynomial are %r, expected %d each"
            % (class_sums, rep.k))
    return MilnorReport(delta_bar=tuple(delta_bar), norm=deg - 1,
                        monic=(delta_bar[-1] == 1), gst=(deg < rep.g), k=rep.k)


def iota_coordinates(Y, h):
    """Write h as delta*iota(m) + gamma*iota(l) if possible.

    Returns (delta, gamma) with gamma a residue mod g, or None when h is
    not an integer combination of iota(m) and iota(l).  delta is the free
    part of h divided by g.
    """
    rep = validate_manifold(Y)
    G = Y.group
    if h.free % rep.g:
        return None
    delta = h.free // rep.g
    want = G.sub(h, G.scale(delta, Y.iota_m))
    cur = G.zero()
    for gamma in range(rep.g):
        if cur == want:
            return (delta, gamma)
        cur = G.add(cur, Y.iota_l)
    return None


@lru_cache(maxsize=None)
def dtau(Y):
    """The difference set of the torsion supports, in boundary coordinates.

    A boundary-image class d = delta*iota(m) + gamma*iota(l) with
    delta >= 0 belongs to the set exactly when some complement class x
    has x - d of nonnegative free part outside the complement support.
    The complement support is one bitmask S (Y.tauc_bits), and d
    belongs exactly when translate(S, -d) & ~S is nonzero.  A torsion
    translate permutes each free level, so that is the row
    translate(S, -delta*iota(m)) meeting the translate of the window's
    complement by gamma*iota(l): the g complements are built once.  The
    row is S rotated by minus delta times the torsion part of iota(m) and
    shifted down by delta*g levels; the rotations repeat with the order
    of that torsion part, so only the first min(order, rows) are built,
    one translate each, and each row is one shift of one of them.
    """
    rep = validate_manifold(Y)
    G, S = Y.group, Y.tauc_bits
    enc = G.encoding
    degree = tauc_degree(Y)
    levels = degree + 1
    window = (1 << levels * enc.size) - 1
    outside = [enc.translate(window & ~S, G.scale(gamma, Y.iota_l), levels)
               for gamma in range(rep.g)]
    rows = degree // rep.g + 1
    cycle = G.torsion_order_of(Y.iota_m)
    step = G.neg(Y.iota_m)._replace(free=0)
    rotations = [S]  # translate(S, -delta*iota(m)) before the shift
    found = []
    for delta in range(rows):
        if 0 < delta < cycle:
            rotations.append(enc.translate(rotations[-1], step, levels))
        row = rotations[delta % cycle] >> delta * rep.g * enc.size
        for gamma in range(rep.g):
            if row & outside[gamma]:
                found.append(DtauElement(delta, gamma))
    positive = tuple(e for e in found if e.delta > 0)
    return DtauData(all=tuple(found), positive=positive)


def gamma_closed(Y, bound=None):
    """Check that the complement of D^tau in the image monoid is closed
    under addition, for all pairs with free-part sum <= bound.

    Past the largest free part of D^tau the check is vacuous, so passing
    bound=None checks everything that can fail.  Returns (True, None) or
    (False, (x, y)) with a counterexample pair of group elements.

    An image class is a pair (delta, gamma), the class
    delta*iota(m) + gamma*iota(l) of free part delta*g; pairs add as
    (delta1 + delta2, (gamma1 + gamma2) mod g).
    """
    g = validate_manifold(Y).g
    members = set(dtau(Y).all)
    if bound is None:
        bound = max((d * g for d, _ in members), default=-1) + g
    outside = [(delta, gamma) for delta in range(bound // g + 1) for gamma in range(g)
               if (delta, gamma) not in members]
    for i, (d1, c1) in enumerate(outside):
        for d2, c2 in outside[i:]:
            if (d1 + d2) * g <= bound and (d1 + d2, (c1 + c2) % g) in members:
                return (False, (Y.iota_ab(d1, c1), Y.iota_ab(d2, c2)))
    return (True, None)


@lru_cache(maxsize=None)
def _hfk_support_from_iota(Y, iota_mu):
    """Support of the knot Floer Euler characteristic for a filling whose
    meridian maps to iota_mu (free part > 0): classes where the torsion
    coefficient drops by one under translation.  The support size must
    match the filling's first homology order.

    Over the free levels 0..degree + free(iota_mu), tau is the window with
    the complement support cleared; the support is tau minus its translate
    by iota_mu, and a translate class outside tau is a difference of -1."""
    enc = Y.group.encoding
    levels = tauc_degree(Y) + 1 + iota_mu.free
    window = (1 << levels * enc.size) - 1
    tau = window & ~Y.tauc_bits
    shifted = enc.translate(tau, iota_mu, levels) & window
    drop = shifted & ~tau
    if drop:
        h = enc.classes(drop & -drop)[0]
        raise NotFloerSimpleSlope(
            "coefficient difference -1 at %r for iota(mu) = %r" % (h, iota_mu))
    support = tau & ~shifted
    if support.bit_count() != filling_homology_order(Y, iota_mu):
        raise NotFloerSimpleSlope(
            "support size %d does not match the filling homology order"
            % support.bit_count())
    return frozenset(enc.classes(support))


def hfk_support(Y, mu):
    """Knot Floer support of the core of the filling along mu.

    mu may be a Slope or a group element iota(mu).  The slope must not be
    the longitude; the sign is normalized so the free part is positive.
    Raises NotFloerSimpleSlope when some coefficient difference is -1.
    """
    validate_manifold(Y)
    if isinstance(mu, Slope):
        iota_mu = Y.iota(mu)
    else:
        iota_mu = mu
    if iota_mu.free == 0:
        raise LongitudeFilling("iota(mu) is torsion; the longitude cannot be used here")
    if iota_mu.free < 0:
        iota_mu = Y.group.neg(iota_mu)
    return _hfk_support_from_iota(Y, iota_mu)


def filling_homology_order(Y, mu):
    """|H_1(Y(mu))| computed from a Smith normal form of the quotient
    presentation; 0 means infinite."""
    iota_mu = Y.iota(mu) if isinstance(mu, Slope) else mu
    free_rank, orders, _ = quotient_by_relation(
        [Y.group.torsion_orders], [iota_mu.free, *iota_mu.torsion])
    return 0 if free_rank else prod(orders)


# --- re-encodings ---------------------------------------------------------

def retwist(Y, k):
    """Re-encode with m replaced by m + k*l.  The torsion data and group
    are unchanged; iota(m) and the witness pick up the twist."""
    witness = Y.witness
    if witness is not None:
        witness = Slope(witness.a, witness.b - k * witness.a)
    return FloerSimpleManifold(group=Y.group, iota_m=Y.iota_ab(1, k), iota_l=Y.iota_l,
                               tauc_bits=Y.tauc_bits, witness=witness)


def slope_after_retwist(slope, k):
    """Coordinates of a slope in the basis (m + k*l, l)."""
    return Slope(slope.a, slope.b - k * slope.a)


def _reverse_support(Y, negate_torsion):
    """Complement support after reversing the free direction.

    Re-expanding the torsion series with the free generator negated turns
    the complement support S into box(0..D x T) minus the reflection of S,
    with a torsion unit chosen so the zero class stays in the torsion
    support.  With negate_torsion the torsion coordinates reverse as well
    (orientation reversal); without it they are only translated (pure
    basis negation).
    """
    G = Y.group
    support = Y.tauc_support
    if not support:
        return frozenset()
    D = tauc_degree(Y)
    top = sorted(h.torsion for h in support if h.free == D)[0]
    reflected = set()
    for h in support:
        if negate_torsion:
            t = tuple((a - b) % n for a, b, n in zip(top, h.torsion, G.torsion_orders))
        else:
            t = tuple((b - a) % n for a, b, n in zip(top, h.torsion, G.torsion_orders))
        reflected.add(GroupElement(D - h.free, t))
    box = {GroupElement(f, t.torsion) for f in range(D + 1) for t in G.torsion_elements()}
    return frozenset(box - reflected)


def reversed_encoding(Y):
    """Re-encode in the basis (-m, -l) of the same oriented manifold.

    The free generator flips, so the complement support reverses inside
    its bounding box; torsion coordinates keep their signs up to the
    normalizing unit."""
    G = Y.group
    new_m = GroupElement(Y.iota_m.free,
                         tuple((-a) % n for a, n in zip(Y.iota_m.torsion, G.torsion_orders)))
    return FloerSimpleManifold(group=G, iota_m=new_m, iota_l=G.neg(Y.iota_l),
                               tauc_support=_reverse_support(Y, negate_torsion=False),
                               witness=Y.witness)


def conj_record(Y):
    """The record of the orientation-reversed manifold in the basis (m, -l).

    Torsion duality negates homology classes; re-expanding in the fixed
    free generator reflects the complement support and negates its torsion
    coordinates.  A slope (a, b) of Y corresponds to (a, -b) here, and
    L-space verdicts carry over unchanged."""
    G = Y.group
    witness = Y.witness
    if witness is not None:
        witness = Slope(witness.a, -witness.b)
    return FloerSimpleManifold(group=G, iota_m=Y.iota_m, iota_l=G.neg(Y.iota_l),
                               tauc_support=_reverse_support(Y, negate_torsion=True),
                               witness=witness)


# --- JSON schema ----------------------------------------------------------

@reads_input
def manifold_from_json(doc):
    group = FinAbGroup(read_int(n, "torsion_orders") for n in doc.get("torsion_orders", ()))
    def elt(d, key):
        return group.element(read_int(d["free"], key + ".free"),
                             (read_int(t, key + ".torsion") for t in d.get("torsion", ())))
    w = doc.get("witness")
    witness = None if w is None else Slope(*(read_int(w[c], "witness." + c) for c in "ab"))
    return FloerSimpleManifold(
        group=group,
        iota_m=elt(doc["iota_m"], "iota_m"),
        iota_l=elt(doc["iota_l"], "iota_l"),
        tauc_support=frozenset(elt(d, "tauc_support") for d in doc.get("tauc_support", ())),
        witness=witness)


def manifold_to_json(Y):
    def elt(h):
        return {"free": h.free, "torsion": list(h.torsion)}
    doc = {
        "torsion_orders": list(Y.group.torsion_orders),
        "iota_m": elt(Y.iota_m),
        "iota_l": elt(Y.iota_l),
        "tauc_support": [elt(h) for h in sorted(Y.tauc_support)],
    }
    if Y.witness is not None:
        doc["witness"] = {"a": Y.witness.a, "b": Y.witness.b}
    return doc
