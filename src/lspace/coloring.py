"""Brute-force L-space oracle through proper colorings.

An integral surgery on a Floer simple knot is an L-space exactly when, in
every coset of the surgery class, reading the classes in order of the
projection never shows a red class strictly before a blue one.  Black
classes form the knot-Floer support; every other class decomposes
uniquely as a black class plus n times the meridian class and is colored
red for n > 0, blue for n < 0.

A rational filling nu of Y reduces to this integral picture: writing
nu = alpha*mu + beta*lambda for a Floer simple filling slope mu, the
filling is an integral surgery on a connected sum with a simple knot in a
lens space of order |beta|.  The combined first homology identifies the
two meridians, the combined support is the knot-Floer support of mu
spread over |beta| consecutive lens classes, and the surgery class is the
spliced longitude.

Every class is an integer of its group's encoding, free * |T| + tindex,
with a step by a fixed class one add_table lookup.  Two implementations of the
coset check are provided and cross-checked:

  * window_scale = 1 decides each filling by the pair condition.  A red
    class precedes a blue one in some coset exactly when two combined
    support classes differ by c*meridian + m*longitude with c >= 2 and
    m >= 1 (split c = a - b with a >= 1, b <= -1 to recover the colored
    pair).  Unfolding the combined group along the lens summand turns
    this into arithmetic inside H_1(Y): a support difference must equal
    m*iota(lambda_1) + j*iota(mu), oriented by the sign of nu . l, with
    j >= 2 + floor(m*alpha/beta) absorbing the lens coordinate.  One loop
    serves every group: each m encodes its first class once, and j steps
    through the encoding of H_1(Y).

  * window_scale >= 2 walks every coset of the combined group explicitly
    across a stabilization window around the support (outside it the
    colors are constant blue below and red above), from the lowest window
    class of each free residue and each torsion index, coloring each
    class by its decomposition.  Enlarging the window never changes a
    verdict.

The decomposition is one routine of the combined group's setup, and
color() reads it at lens order 1, where the combined group is H_1(Y).
Neither route consults the interval criterion; their agreement with it is
the package's central cross-validation.
"""

from functools import lru_cache

from .abelian import FinAbGroup, canonical_longitude, quotient_by_relation
from .errors import (LongitudeFilling, MalformedInput, MissingWitness,
                     NotFloerSimpleSlope, require)
from .torsion import hfk_support, validate_manifold


def color(Y, mu, h):
    """Color of a class of H_1(Y) relative to the filling slope mu:
    "black" on the knot-Floer support, "red" after adding a positive
    multiple of iota(mu), "blue" after a negative multiple.  Read from
    the combined group at lens order 1, which is H_1(Y) itself."""
    validate_manifold(Y)
    iota_mu = Y.iota(mu)
    if iota_mu.free == 0:
        raise LongitudeFilling("the longitude is not a filling slope here")
    G, image, decompose, _ = _combined_setup(Y, iota_mu, 1)
    c = image([h.free, *h.torsion, 0])
    return ("blue", "black", "red")[decompose(c.free, G.tindex(c.torsion)) + 1]


@lru_cache(maxsize=None)
def _support_differences(Y, iota_mu):
    """Pairwise differences of the knot-Floer support as encoded classes,
    with the free-part span and the add table of iota_mu's torsion."""
    support = hfk_support(Y, iota_mu)
    G = Y.group
    diffs = frozenset(G.encode(G.sub(x2, x1)) for x1 in support for x2 in support)
    frees = [x.free for x in support]
    return diffs, max(frees) - min(frees), G.add_table(iota_mu.torsion)


def _oracle_fast(Y, mu, lam1, beta, n_coeff, alpha):
    """Pair-condition verdict; beta > 0, n_coeff = nu . l for the oriented
    representative of nu, lam1 the canonical longitude of mu.

    Improper coloring means some support difference equals
    m * iota(lambda_1) + j * iota(mu) (orientation fixed by the sign of
    n_coeff) with m >= 1 and j >= 2 + floor(m * alpha / beta); the free
    window bounds j, and past m_cap the j window sits below the lens
    threshold for good.
    """
    G = Y.group
    iota_mu = Y.iota(mu)
    diffs, span, add_mu = _support_differences(Y, iota_mu)
    g = validate_manifold(Y).g
    sigma = 1 if n_coeff > 0 else -1
    alpha_o = sigma * alpha
    lam_a, lam_b = sigma * lam1.a, sigma * lam1.b  # the oriented longitude summand
    qg, pg = lam_a * g, iota_mu.free
    step = pg * G.torsion_size
    # the j window [(-span - m qg)/pg, (span - m qg)/pg] shrinks against
    # the lens threshold 2 + floor(m alpha_o / beta) at rate |n|/(p beta)
    m_cap = ((span + pg) * beta) // (g * abs(n_coeff)) + 2
    for m in range(1, m_cap + 1):
        j_lo = max(-((span + m * qg) // pg), 2 + (m * alpha_o) // beta)
        j_hi = (span - m * qg) // pg
        if j_lo > j_hi:
            continue
        h = Y.iota_ab(m * lam_a + j_lo * mu.a, m * lam_b + j_lo * mu.b)
        code, t = h.free * G.torsion_size, G.tindex(h.torsion)
        for _ in range(j_lo, j_hi + 1):  # code + t encodes m lam + j iota(mu)
            if code + t in diffs:
                return False
            code += step
            t = add_mu[t]
    return True


@lru_cache(maxsize=64)
def _combined_setup(Y, iota_mu, beta):
    """The connected sum of the mu-filling of Y with a lens space of order
    beta >= 1: its first homology group, the map from (m-bar, T, lens
    generator) vectors, the decomposition of a class and the free span of
    the black classes.

    decompose(f, t) reads the class of free part f and torsion index t as
    a black class plus k meridians and returns the sign of k: 0 black,
    1 red, -1 blue."""
    mu_vec = [iota_mu.free, *iota_mu.torsion]
    free_rank, orders, image = quotient_by_relation(
        [Y.group.torsion_orders, ()], mu_vec + [-beta], mu_vec + [0])
    if free_rank != 1:
        raise NotFloerSimpleSlope("combined filling has wrong free rank")
    G = FinAbGroup(orders)
    size = G.torsion_size
    lens = image([0] * len(mu_vec) + [1])
    add_lens = G.add_table(lens.torsion)
    blacks = set()
    for h in hfk_support(Y, iota_mu):  # each class, then its beta lens copies
        c = image([h.free, *h.torsion, 0])
        f, t = c.free, G.tindex(c.torsion)
        for _ in range(beta):
            blacks.add(f * size + t)
            f += lens.free
            t = add_lens[t]
    mu_free, mu_tors = image(mu_vec + [0])
    # transversality bookkeeping: one black class per meridian coset
    expected = mu_free * size
    if len(blacks) != expected:
        raise NotFloerSimpleSlope(
            "combined support has %d classes, expected %d" % (len(blacks), expected))
    black_frees = [c // size for c in blacks]
    lo, hi = min(black_frees), max(black_frees)
    add_mu = G.add_table(mu_tors)
    sub_mu = G.add_table([-a for a in mu_tors])

    def decompose(f, t):
        n_min = -((hi - f) // mu_free)
        n_max = (f - lo) // mu_free
        found = []
        tt, k = t, 0
        while k >= n_min:  # k = 0, -1, -2, ...: torsion gains mu each step
            if k <= n_max and (f - k * mu_free) * size + tt in blacks:
                found.append(k)
            tt, k = add_mu[tt], k - 1
        tt, k = sub_mu[t], 1
        while k <= n_max:  # k = 1, 2, ...: torsion loses mu each step
            if k >= n_min and (f - k * mu_free) * size + tt in blacks:
                found.append(k)
            tt, k = sub_mu[tt], k + 1
        if not found:
            raise NotFloerSimpleSlope("combined class does not decompose")
        if len(found) > 1:
            raise NotFloerSimpleSlope("combined class decomposes twice")
        return (found[0] > 0) - (found[0] < 0)

    return G, image, decompose, (lo, hi)


def _oracle_sweep(Y, mu, lam1, beta, alpha, window_scale):
    """Windowed coset sweep in the combined group: each coset of the
    spliced longitude is read upward from its lowest window class."""
    G, image, decompose, (lo_black, hi_black) = _combined_setup(Y, Y.iota(mu), beta)
    iota_lam1 = Y.iota(lam1)
    vec = [iota_lam1.free, *iota_lam1.torsion, alpha]
    lam = image(vec)
    if lam.free == 0:
        raise LongitudeFilling("spliced longitude class is torsion")
    if lam.free < 0:
        lam = image([-c for c in vec])
    add_lam = G.add_table(lam.torsion)
    margin = window_scale * lam.free
    lo, hi = lo_black - margin, hi_black + margin
    for start in range(lo, lo + lam.free):
        for t0 in range(G.torsion_size):  # every torsion index starts a coset
            t, seen_red = t0, False
            for f in range(start, hi + 1, lam.free):
                c = decompose(f, t)
                if c == 1:
                    seen_red = True
                elif c == -1 and seen_red:
                    return False
                t = add_lam[t]
    return True


def surgery_is_lspace_oracle(Y, mu, nu, window_scale=1):
    """Is the filling of Y along nu an L-space?  Decided by coloring
    relative to the Floer simple filling slope mu.

    nu must not be the longitude; nu = mu returns True directly (the
    filling along mu is an L-space by hypothesis).  window_scale selects
    the implementation: 1 for the pair condition, >= 2 for the explicit
    coset sweep with that window multiplier; verdicts never differ.  A
    scale below 1 leaves the window no margin past the support and is
    refused, and so is a missing mu (None, as the witness of a record
    that has none).
    """
    if window_scale < 1:
        raise MalformedInput("window scale must be at least 1, got %r" % (window_scale,))
    if mu is None:
        raise MissingWitness("a Floer simple filling slope is required")
    validate_manifold(Y)
    if nu.dot_l == 0:
        raise LongitudeFilling("the longitude filling is never an L-space here")
    if mu.dot_l == 0:
        raise LongitudeFilling("the reference slope may not be the longitude")
    beta = mu.pairing(nu)
    if beta == 0:
        hfk_support(Y, mu)
        return True
    orient = 1 if beta > 0 else -1
    beta = abs(beta)
    n_coeff = orient * nu.a
    lam1, q_star, _ = canonical_longitude(mu)
    alpha, rem = divmod(n_coeff - beta * q_star, mu.a)
    require(rem == 0, "the reference slope does not divide n - beta q*")
    if window_scale == 1:
        return _oracle_fast(Y, mu, lam1, beta, n_coeff, alpha)
    return _oracle_sweep(Y, mu, lam1, beta, alpha, window_scale)
