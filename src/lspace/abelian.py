"""Exact arithmetic for finitely generated abelian groups and boundary slopes.

A manifold group is presented as Z + T where T is a finite abelian group
given by a list of cyclic orders.  Group elements are pairs
(free part, tuple of torsion residues).  Slopes are primitive classes
a*m + b*l in the rank-two boundary lattice, identified up to global sign;
we normalize so the first nonzero coordinate is positive.  All arithmetic
is exact (Python big integers and fractions.Fraction); no floating point
is used anywhere.
"""

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, prod
from typing import NamedTuple

from .errors import DeterminantError, read_int, require


class GroupElement(NamedTuple):
    """An element of Z + T: free coefficient plus torsion residues."""
    free: int
    torsion: tuple


def _radix_product(start, columns):
    """Every sum of one entry per column, the last column varying
    fastest: the mixed-radix order of the torsion residues."""
    out = [start]
    for column in columns:
        out = [a + b for a in out for b in column]
    return out


@dataclass(frozen=True)
class FinAbGroup:
    """The group Z + T, with T a product of cyclic groups of the given orders.

    Every order must be at least 2; an empty tuple means T is trivial.

    A class is also the integer free * |T| + tindex(torsion), with tindex
    the mixed-radix index of the torsion residues (the last order varies
    fastest, as in torsion_elements).  A set of classes of nonnegative
    free part is a bitmask: one Python int with bit free * |T| + tindex
    set for each member.
    """
    torsion_orders: tuple
    weights: tuple = field(init=False, repr=False, compare=False)  # of tindex
    torsion_size: int = field(init=False, repr=False, compare=False)  # |T|

    def __post_init__(self):
        orders = tuple(self.torsion_orders)
        if any(n < 2 for n in orders):
            raise ValueError("cyclic orders must be >= 2, got %r" % (orders,))
        object.__setattr__(self, "torsion_orders", orders)
        object.__setattr__(self, "weights",
                           tuple(prod(orders[i + 1:]) for i in range(len(orders))))
        object.__setattr__(self, "torsion_size", prod(orders))

    @cached_property
    def _residues(self):
        """The torsion residues of every element of T, in tindex order."""
        return _radix_product((), [[(r,) for r in range(n)] for n in self.torsion_orders])

    def element(self, free, torsion=()):
        """Build a reduced element from a free part and torsion residues."""
        torsion = tuple(torsion)
        if len(torsion) != len(self.torsion_orders):
            raise ValueError("torsion part has wrong length")
        return GroupElement(free, tuple(t % n for t, n in zip(torsion, self.torsion_orders)))

    def zero(self):
        return GroupElement(0, (0,) * len(self.torsion_orders))

    def add(self, x, y):
        return GroupElement(x.free + y.free,
                            tuple((a + b) % n for a, b, n in
                                  zip(x.torsion, y.torsion, self.torsion_orders)))

    def sub(self, x, y):
        return GroupElement(x.free - y.free,
                            tuple((a - b) % n for a, b, n in
                                  zip(x.torsion, y.torsion, self.torsion_orders)))

    def neg(self, x):
        return GroupElement(-x.free,
                            tuple((-a) % n for a, n in zip(x.torsion, self.torsion_orders)))

    def scale(self, k, x):
        return GroupElement(k * x.free,
                            tuple((k * a) % n for a, n in zip(x.torsion, self.torsion_orders)))

    def torsion_order_of(self, x):
        """Order of a purely torsion element (free part ignored must be 0)."""
        order = 1
        for a, n in zip(x.torsion, self.torsion_orders):
            if a:
                order = order * (n // gcd(a, n)) // gcd(order, n // gcd(a, n))
        return order

    def torsion_elements(self):
        """All elements of T, as elements with free part 0, in tindex order."""
        return [GroupElement(0, t) for t in self._residues]

    # --- classes as integers and bitmasks ---

    def tindex(self, torsion):
        return sum(a * w for a, w in zip(torsion, self.weights))

    def encode(self, h):
        return h.free * self.torsion_size + self.tindex(h.torsion)

    def add_table(self, torsion):
        """table[i] is the tindex of the i-th torsion class plus torsion."""
        return _radix_product(0, [[(c + t) % n * w for c in range(n)] for n, w, t in
                                  zip(self.torsion_orders, self.weights, torsion)])

    def translate(self, mask, h, levels):
        """The bitmask of the classes x + h for x in mask, dropping those
        of negative free part.  mask must lie in free levels
        0..levels-1; each cyclic factor rotates by two masked shifts."""
        size = self.torsion_size
        height = 1 << (levels - 1).bit_length()  # levels rounded up to a power of 2
        if h.free < 0:
            mask >>= -h.free * size
        for factor, (n, w, t) in enumerate(zip(self.torsion_orders, self.weights, h.torsion)):
            t %= n
            if t:
                low, high = _rotation_masks(self, factor, t, height)
                mask = (mask & low) << t * w | (mask & high) >> (n - t) * w
        return mask << h.free * size if h.free > 0 else mask

    def classes(self, mask):
        """The classes of a bitmask, in increasing bit order."""
        size, residues = self.torsion_size, self._residues
        digits = bin(mask)[:1:-1]
        out = []
        bit = digits.find("1")
        while bit >= 0:
            out.append(GroupElement(bit // size, residues[bit % size]))
            bit = digits.find("1", bit + 1)
        return out


@lru_cache(maxsize=256)
def _rotation_masks(group, factor, amount, levels):
    """The classes, over free levels 0..levels-1, whose residue in the
    given cyclic factor of the group stays below its order after adding
    amount, and the rest: one-level masks times the repunit of the
    levels.  Callers round levels up to a power of two, so one entry
    serves every mask up to that height."""
    n, w, size = group.torsion_orders[factor], group.weights[factor], group.torsion_size
    low = sum(1 << i for i in range(size) if i // w % n < n - amount)
    repunit = ((1 << levels * size) - 1) // ((1 << size) - 1)
    return low * repunit, ((1 << size) - 1 - low) * repunit


# --- Smith normal form ---------------------------------------------------

def smith_normal_form(mat):
    """Smith normal form with transforms.

    Returns (D, U, V) with U*mat*V = D, U and V unimodular, and D diagonal
    with d1 | d2 | ... (nonnegative).  mat is a list of rows; it is not
    modified.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [list(map(int, row)) for row in mat]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, k):  # row_i += k * row_j
        for c in range(cols):
            a[i][c] += k * a[j][c]
        for c in range(rows):
            u[i][c] += k * u[j][c]

    def col_op(i, j, k):  # col_i += k * col_j
        for r in range(rows):
            a[r][i] += k * a[r][j]
        for r in range(cols):
            v[r][i] += k * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def negate_row(i):
        for c in range(cols):
            a[i][c] = -a[i][c]
        for c in range(rows):
            u[i][c] = -u[i][c]

    n = min(rows, cols)
    t = 0
    while t < n:
        # find a pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t by repeated division
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_op(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_op(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            if any(a[t][j] for j in range(t + 1, cols)):
                continue
            break
        # pivot must divide the remaining block
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    row_op(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return [row[:] for row in a], u, v


def quotient_group(num_gens, relations):
    """The abelian group Z^num_gens / <relations>, with coordinates.

    relations is a list of integer vectors of length num_gens.  Returns
    (free_rank, orders, images) where orders lists the cyclic orders >= 2
    of the torsion part and images[j] is the coordinate vector of the j-th
    old generator: a list of free coordinates followed by torsion residues,
    matching (free_rank, orders).
    """
    rel_matrix = [[rel[i] for rel in relations] for i in range(num_gens)]
    d, u, _ = smith_normal_form(rel_matrix)
    diag = []
    for i in range(num_gens):
        entry = d[i][i] if (i < len(d) and i < len(d[i])) else 0
        diag.append(entry)
    # coordinate i of U*e_j is u[i][j]; coordinate i lives in Z/diag[i]
    free_idx = [i for i in range(num_gens) if diag[i] == 0]
    tors_idx = [i for i in range(num_gens) if diag[i] >= 2]
    orders = tuple(diag[i] for i in tors_idx)
    images = []
    for j in range(num_gens):
        frees = [u[i][j] for i in free_idx]
        tors = [u[i][j] % diag[i] for i in tors_idx]
        images.append((tuple(frees), tuple(tors)))
    return len(free_idx), orders, images


def quotient_by_relation(blocks, relation, positive=None):
    """The quotient of a direct sum of groups Z + T_i by one relation.

    blocks lists the torsion orders of each summand Z + T_i; a vector of
    the sum concatenates (free part, torsion residues) block by block.
    Returns (free_rank, orders, image) with orders the cyclic orders of
    the quotient's torsion.  When the free rank is one and positive is
    given, image(vector) is the class of a vector as a GroupElement of
    Z + orders, with the free generator oriented so that image(positive)
    has nonnegative free part; otherwise image is None.
    """
    num_gens = sum(1 + len(orders) for orders in blocks)
    relations = []
    start = 0
    for orders in blocks:
        for i, n in enumerate(orders):
            rel = [0] * num_gens
            rel[start + 1 + i] = n
            relations.append(rel)
        start += 1 + len(orders)
    relations.append(list(relation))
    free_rank, orders, images = quotient_group(num_gens, relations)
    if free_rank != 1 or positive is None:
        return free_rank, orders, None

    def image(vector):
        free = 0
        tors = [0] * len(orders)
        for c, (f, t) in zip(vector, images):
            free += c * f[0]
            for k, tk in enumerate(t):
                tors[k] += c * tk
        return GroupElement(flip * free, tuple(a % n for a, n in zip(tors, orders)))

    flip = 1  # image reads flip when called: orient it by positive
    if image(positive).free < 0:
        flip = -1
    return free_rank, orders, image


def bitmask(bits):
    """The int with the given bits set, built in time linear in its length
    (OR-ing the bits in one by one takes quadratic time)."""
    bits = list(bits)
    if not bits:
        return 0
    digits = bytearray(b"0" * (max(bits) + 1))
    for bit in bits:
        digits[bit] = ord("1")
    return int(digits[::-1], 2)


# --- slopes ---------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Slope:
    """A primitive class a*m + b*l on the boundary torus, up to sign.

    Normalization: gcd(|a|, |b|) = 1 and the first nonzero coordinate is
    positive.  The value a/b identifies the slope with a point of the
    projective line Q u {oo}; the longitude l = 0*m + 1*l has value 0 and
    the meridian direction m has value oo.
    """
    a: int
    b: int

    def __post_init__(self):
        a, b = self.a, self.b
        if a == 0 and b == 0:
            raise ValueError("slope (0,0) is not allowed")
        g = gcd(abs(a), abs(b))
        a, b = a // g, b // g
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def pairing(self, other):
        """Intersection pairing: (a m + b l) . (a' m + b' l) = a b' - b a'."""
        return self.a * other.b - self.b * other.a

    @property
    def dot_l(self):
        """Pairing with the longitude: mu . l = a."""
        return self.a

    def __str__(self):
        return "%d/%d" % (self.a, self.b)


LONGITUDE = Slope(0, 1)


def pairing_and_label(mu_L, mu):
    """Surgery label data of mu relative to the reference slope mu_L.

    Returns (beta, n, label) with beta = mu_L . mu, n = mu . l, and
    label = beta/n (None when n = 0, i.e. for the longitude).  The label
    measures the deviation of mu from mu_L: mu_L itself has label 0.
    """
    beta = mu_L.pairing(mu)
    n = mu.dot_l
    label = Fraction(beta, n) if n else None
    return beta, n, label


def canonical_longitude(mu):
    """The unique slope lambda = q* m + p* l with mu . lambda = 1 and
    0 <= q* < p, for mu = p m + q l with p > 0.

    Returns (lambda, q*, p*).
    """
    p, q = mu.a, mu.b
    q_star = (-pow(q, -1, p)) % p
    p_star = (1 + q * q_star) // p
    require(p * p_star - q * q_star == 1, "%d/%d has no canonical longitude", p, q)
    return Slope(q_star, p_star), q_star, p_star


def primitive_slope_qs(p, lo, hi):
    """The q of the primitive slopes p/q with lo <= q <= hi, for fixed
    p >= 1, by increasing |q| with q before -q.

    Slope(p, q) is already normalized for every q yielded.
    """
    if lo > hi:
        return
    for absq in range(0 if lo <= 0 <= hi else min(abs(lo), abs(hi)),
                      max(abs(lo), abs(hi)) + 1):
        if gcd(p, absq) == 1:
            if absq <= hi:
                yield absq
            if absq and -absq >= lo:
                yield -absq


def window_slope_qs(p, windows, period):
    """The q of the primitive slopes p/q in the disjoint integer ranges
    windows (None for an unbounded end), in the order of
    primitive_slope_qs.

    An unbounded end is cut one period past the finite end, or past 0.
    No q is lost for a test periodic in q with that period: a q beyond
    the cut passes it exactly when q - period (q + period on the negative
    side) does, and that q comes first in the order.
    """
    walks = []
    for lo, hi in windows:
        if lo is None:
            lo = min(0, 0 if hi is None else hi) - period
        if hi is None:
            hi = max(0, lo) + period
        walks.append(primitive_slope_qs(p, lo, hi))
    return heapq.merge(*walks, key=lambda q: (abs(q), q < 0))


# --- gluing matrices ------------------------------------------------------

@dataclass(frozen=True)
class GluingMatrix:
    """An orientation-reversing identification of two boundary tori.

    Acts by phi(m1) = e11*m2 + e21*l2 and phi(l1) = e12*m2 + e22*l2, so a
    class n*m1 + n'*l1 maps to (e11*n + e12*n')*m2 + (e21*n + e22*n')*l2.
    The determinant must be -1.
    """
    e11: int
    e12: int
    e21: int
    e22: int

    def __post_init__(self):
        if self.det != -1:
            raise DeterminantError("gluing matrix must have determinant -1, got %d" % self.det)

    @property
    def det(self):
        return self.e11 * self.e22 - self.e12 * self.e21

    @property
    def q_star(self):
        """The invariant q* = -e12 = lambda . l2 for any spliced longitude."""
        return -self.e12

    def apply_raw(self, n, nprime):
        return (self.e11 * n + self.e12 * nprime, self.e21 * n + self.e22 * nprime)

    def apply_slope(self, slope):
        n, nprime = self.apply_raw(slope.a, slope.b)
        return Slope(n, nprime)

    def inverse(self):
        # det = -1, so the inverse is -adj
        return GluingMatrix(-self.e22, self.e12, self.e21, -self.e11)

    @classmethod
    def from_rows(cls, rows):
        (e11, e12), (e21, e22) = rows
        return cls(*(read_int(e, "phi") for e in (e11, e12, e21, e22)))

