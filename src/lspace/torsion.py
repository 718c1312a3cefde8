"""Floer simple manifolds presented by torsion data.

A manifold Y with torus boundary and b_1 = 1 is recorded by:

  * the torsion subgroup T of H_1(Y) (cyclic orders),
  * iota(m) and iota(l), the images of a boundary basis (m, l) with
    m . l = 1, where iota(l) is torsion of order g and iota(m) has free
    part exactly +g,
  * the finite support of the torsion complement: the normalized torsion
    series has 0/1 coefficients, equals 1 on every class of nonnegative
    free part outside this finite set, and vanishes on negative free parts;
    the record holds it as one bitmask over ClassEncoding,
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

from .abelian import (ClassEncoding, FinAbGroup, GroupElement, Slope,
                      bitmask, quotient_by_relation)
from .errors import (BadMeridianFreePart, Lemma73Violation, LongitudeFilling,
                     NegativePhiInComplement, NonTorsionLongitude,
                     NotFloerSimpleSlope, ZeroInComplement, reads_input,
                     require)


@dataclass(frozen=True, init=False, repr=False)
class FloerSimpleManifold:
    """A torsion record.  The complement support is held as one bitmask,
    tauc_bits, over ClassEncoding(group.torsion_orders).  Build a record
    from that mask (tauc_bits=) or from its classes (tauc_support=), which
    are encoded once; tauc_support decodes the mask on demand."""
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
        return frozenset(ClassEncoding(self.group.torsion_orders).classes(self.tauc_bits))

    def __repr__(self):
        return ("FloerSimpleManifold(group=%r, iota_m=%r, iota_l=%r, tauc_support=%r, "
                "witness=%r)" % (self.group, self.iota_m, self.iota_l,
                                 self.tauc_support, self.witness))

    def iota(self, slope):
        """iota of a boundary class a*m + b*l, as an element of H_1(Y)."""
        g = self.group
        return g.add(g.scale(slope.a, self.iota_m), g.scale(slope.b, self.iota_l))


def _support_bits(group, classes):
    """The bitmask of a set of complement classes.  Raises
    NegativePhiInComplement for a class of negative free part, which no
    bit can hold, and ValueError for a class of another group."""
    enc = ClassEncoding(group.torsion_orders)
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
    delta: int      # free part divided by g
    gamma: int      # residue mod g with element = delta*iota(m) + gamma*iota(l)
    element: GroupElement


class DtauData(NamedTuple):
    all: tuple       # D^tau including torsion elements (delta = 0)
    positive: tuple  # the delta > 0 part
    elements: frozenset


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
    enc, S, _ = complement_bits(Y)
    return 0 if S >> enc.encode(Y.group.element(h.free, h.torsion)) & 1 else 1


class ComplementBits(NamedTuple):
    encoding: ClassEncoding
    bits: int       # the complement support as a bitmask over encoding
    degree: int     # max free part over the support; -1 if it is empty


@lru_cache(maxsize=None)
def complement_bits(Y):
    """The record's complement-support mask with its encoding and degree."""
    enc = ClassEncoding(Y.group.torsion_orders)
    return ComplementBits(enc, Y.tauc_bits, (Y.tauc_bits.bit_length() - 1) // enc.size)


def tauc_degree(Y):
    """Max free part over the complement support; -1 if the support is empty."""
    return complement_bits(Y).degree


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
    enc, S, D = complement_bits(Y)
    level = (1 << enc.size) - 1
    # tau_bar coefficient at i is size minus the complement classes at level i
    delta_bar = []
    prev = 0
    for i in range(D + 2):
        cur = size - (S >> i * enc.size & level).bit_count()
        delta_bar.append(cur - prev)
        prev = cur
    while len(delta_bar) > 1 and delta_bar[-1] == 0:
        delta_bar.pop()
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
    The complement support is one bitmask S (complement_bits), and d
    belongs exactly when translate(S, -d) & ~S is nonzero.  A torsion
    translate permutes each free level, so that is the row
    translate(S, -delta*iota(m)) meeting the translate of the window's
    complement by gamma*iota(l): the g complements are built once, and the
    row is walked by one -iota(m) step per delta, exactly, because
    translates compose when free parts only fall.
    """
    rep = validate_manifold(Y)
    G = Y.group
    enc, S, degree = complement_bits(Y)
    levels = degree + 1
    window = (1 << levels * enc.size) - 1
    neg_m = G.neg(Y.iota_m)
    multiples = [G.scale(gamma, Y.iota_l) for gamma in range(rep.g)]
    outside = [enc.translate(window & ~S, h, levels) for h in multiples]
    found = []
    base = G.zero()  # delta*iota(m)
    row = S          # translate(S, -delta*iota(m))
    for delta in range(degree // rep.g + 1):
        for gamma in range(rep.g):
            if row & outside[gamma]:
                found.append(DtauElement(delta, gamma, G.add(base, multiples[gamma])))
        base = G.add(base, Y.iota_m)
        row = enc.translate(row, neg_m, levels)
    positive = tuple(e for e in found if e.delta > 0)
    return DtauData(all=tuple(found), positive=positive,
                    elements=frozenset(e.element for e in found))


def gamma_closed(Y, bound=None):
    """Check that the complement of D^tau in the image monoid is closed
    under addition, for all pairs with free-part sum <= bound.

    Past the largest free part of D^tau the check is vacuous, so passing
    bound=None checks everything that can fail.  Returns (True, None) or
    (False, (x, y)) with a counterexample pair.
    """
    rep = validate_manifold(Y)
    data = dtau(Y)
    max_phi = max((e.element.free for e in data.all), default=-1)
    if bound is None:
        bound = max_phi + rep.g
    gamma_members = []
    delta_max = bound // rep.g if rep.g else 0
    for delta in range(delta_max + 1):
        for gam in range(rep.g):
            elt = Y.group.add(Y.group.scale(delta, Y.iota_m),
                              Y.group.scale(gam, Y.iota_l))
            if elt not in data.elements:
                gamma_members.append(elt)
    for i, x in enumerate(gamma_members):
        for y in gamma_members[i:]:
            if x.free + y.free > bound:
                continue
            if Y.group.add(x, y) in data.elements:
                return (False, (x, y))
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
    enc, S, degree = complement_bits(Y)
    levels = degree + 1 + iota_mu.free
    window = (1 << levels * enc.size) - 1
    tau = window & ~S
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
    G = Y.group
    new_m = G.add(Y.iota_m, G.scale(k, Y.iota_l))
    witness = Y.witness
    if witness is not None:
        witness = Slope(witness.a, witness.b - k * witness.a)
    return FloerSimpleManifold(group=G, iota_m=new_m, iota_l=Y.iota_l,
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
    group = FinAbGroup(tuple(doc.get("torsion_orders", ())))
    def elt(d):
        return group.element(d["free"], tuple(d.get("torsion", ())))
    witness = None
    if doc.get("witness") is not None:
        witness = Slope(doc["witness"]["a"], doc["witness"]["b"])
    return FloerSimpleManifold(
        group=group,
        iota_m=elt(doc["iota_m"]),
        iota_l=elt(doc["iota_l"]),
        tauc_support=frozenset(elt(d) for d in doc.get("tauc_support", ())),
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
