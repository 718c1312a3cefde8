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

Two implementations of the coset check are provided and cross-checked:

  * window_scale = 1 decides each filling by the pair condition.  A red
    class precedes a blue one in some coset exactly when two combined
    support classes differ by c*meridian + m*longitude with c >= 2 and
    m >= 1 (split c = a - b with a >= 1, b <= -1 to recover the colored
    pair).  Unfolding the combined group along the lens summand turns
    this into arithmetic inside H_1(Y): a support difference must equal
    m*iota(lambda_1) + j*iota(mu), oriented by the sign of nu . l, with
    j >= 2 + floor(m*alpha/beta) absorbing the lens coordinate.

  * window_scale >= 2 walks every coset of the combined group explicitly
    across a stabilization window around the support (outside it the
    colors are constant blue below and red above), coloring each class by
    its decomposition.  Enlarging the window never changes a verdict.

Neither route consults the interval criterion; their agreement with it is
the package's central cross-validation.
"""

from functools import lru_cache

from .abelian import ClassEncoding, canonical_longitude, quotient_by_relation
from .errors import (LongitudeFilling, MalformedInput, MissingWitness,
                     NotFloerSimpleSlope, require)
from .torsion import hfk_support, validate_manifold


def color(Y, mu, h):
    """Color of a class of H_1(Y) relative to the filling slope mu:
    "black" on the knot-Floer support, "red" after adding a positive
    multiple of iota(mu), "blue" after a negative multiple."""
    validate_manifold(Y)
    iota_mu = Y.iota(mu)
    if iota_mu.free == 0:
        raise LongitudeFilling("the longitude is not a filling slope here")
    blacks = hfk_support(Y, iota_mu)
    frees = [x.free for x in blacks]
    lo, hi = min(frees), max(frees)
    G = Y.group
    k_min = -((hi - h.free) // iota_mu.free)
    k_max = (h.free - lo) // iota_mu.free
    found = None
    for k in range(k_min, k_max + 1):
        if G.sub(h, G.scale(k, iota_mu)) in blacks:
            if found is not None:
                raise NotFloerSimpleSlope("class %r decomposes twice" % (h,))
            found = k
    if found is None:
        raise NotFloerSimpleSlope("class %r does not decompose" % (h,))
    return "black" if found == 0 else ("red" if found > 0 else "blue")


@lru_cache(maxsize=None)
def _support_differences(Y, iota_mu):
    """Pairwise differences of the knot-Floer support as encoded classes,
    with the free-part span."""
    support = hfk_support(Y, iota_mu)
    G, enc = Y.group, Y.group.encoding
    diffs = frozenset(enc.encode(G.sub(x2, x1)) for x1 in support for x2 in support)
    frees = [x.free for x in support]
    return diffs, max(frees) - min(frees)


def _oracle_fast(Y, mu, beta, n_coeff, alpha):
    """Pair-condition verdict; beta > 0, n_coeff = nu . l for the oriented
    representative of nu.

    Improper coloring means some support difference equals
    m * iota(lambda_1) + j * iota(mu) (orientation fixed by the sign of
    n_coeff) with m >= 1 and j >= 2 + floor(m * alpha / beta); the free
    window bounds j, and past m_cap the j window sits below the lens
    threshold for good.
    """
    G = Y.group
    iota_mu = Y.iota(mu)
    diffs, span = _support_differences(Y, iota_mu)
    lam1, q_star, p_star = canonical_longitude(mu)
    rep = validate_manifold(Y)
    g = rep.g
    pg = mu.a * g
    sigma = 1 if n_coeff > 0 else -1
    alpha_o = sigma * alpha
    qg = sigma * q_star * g  # free part of the oriented longitude summand
    orders = G.torsion_orders
    # the j window [(-span - m qg)/pg, (span - m qg)/pg] shrinks against
    # the lens threshold 2 + floor(m alpha_o / beta) at rate |n|/(p beta)
    m_cap = ((span + pg) * beta) // (g * abs(n_coeff)) + 2
    if not orders:
        cur = 0
        for m in range(1, m_cap + 1):
            cur += qg
            j_min = 2 + (m * alpha_o) // beta
            start = max(-((span + m * qg) // pg), j_min)
            for j in range(start, (span - m * qg) // pg + 1):
                if cur + j * pg in diffs:
                    return False
        return True
    tsize, weights = G.encoding.size, G.encoding.weights
    lam_t = tuple((sigma * a) % n for a, n in zip(Y.iota(lam1).torsion, orders))
    mu_t = iota_mu.torsion
    cur_free = 0
    cur_t = (0,) * len(orders)
    for m in range(1, m_cap + 1):
        cur_free += qg
        cur_t = tuple((a + b) % n for a, b, n in zip(cur_t, lam_t, orders))
        j_min = 2 + (m * alpha_o) // beta
        start = max(-((span + m * qg) // pg), j_min)
        for j in range(start, (span - m * qg) // pg + 1):
            t = sum(((a + j * b) % n) * w for a, b, n, w in
                    zip(cur_t, mu_t, orders, weights))
            if (cur_free + j * pg) * tsize + t in diffs:
                return False
    return True


@lru_cache(maxsize=64)
def _combined_setup(Y, iota_mu, beta):
    """The connected sum of the mu-filling of Y with a lens space of order
    beta >= 1 (sweep route): the encoding of its first homology, the map
    from (m-bar, T, lens generator) vectors, the meridian class and the
    encoded black classes."""
    mu_vec = [iota_mu.free, *iota_mu.torsion]
    free_rank, orders, image = quotient_by_relation(
        [Y.group.torsion_orders, ()], mu_vec + [-beta], mu_vec + [0])
    if free_rank != 1:
        raise NotFloerSimpleSlope("combined filling has wrong free rank")
    enc = ClassEncoding(orders)
    mu_img = image(mu_vec + [0])
    blacks = set()
    for h in hfk_support(Y, iota_mu):
        for k in range(beta):
            blacks.add(enc.encode(image([h.free, *h.torsion, k])))
    # transversality bookkeeping: one black class per meridian coset
    expected = mu_img.free * enc.size
    if len(blacks) != expected:
        raise NotFloerSimpleSlope(
            "combined support has %d classes, expected %d" % (len(blacks), expected))
    return enc, image, mu_img, frozenset(blacks)


def _oracle_sweep(Y, mu, beta, n_coeff, alpha, window_scale):
    """Windowed coset sweep in the combined group."""
    iota_mu = Y.iota(mu)
    enc, image, (mu_free, mu_tors), blacks = _combined_setup(Y, iota_mu, beta)
    orders = enc.orders
    lam1, q_star, p_star = canonical_longitude(mu)
    iota_lam1 = Y.iota(lam1)
    lam_free, lam_tors = image([iota_lam1.free, *iota_lam1.torsion, alpha])
    if lam_free == 0:
        raise LongitudeFilling("spliced longitude class is torsion")
    if lam_free < 0:
        lam_free = -lam_free
        lam_tors = tuple((-a) % n for a, n in zip(lam_tors, orders))

    size = enc.size
    black_frees = [c // size for c in blacks]
    lo_black, hi_black = min(black_frees), max(black_frees)
    margin = window_scale * lam_free
    lo, hi = lo_black - margin, hi_black + margin

    add_lam = enc.add_table(lam_tors)
    add_mu = enc.add_table(mu_tors)
    sub_mu = enc.add_table([-a for a in mu_tors])

    def color_of(f, t):
        n_min = -((hi_black - f) // mu_free)
        n_max = (f - lo_black) // mu_free
        found = None
        tt = t
        k = 0
        while k >= n_min:  # k = 0, -1, -2, ...: torsion gains mu each step
            if k <= n_max and (f - k * mu_free) * size + tt in blacks:
                if found is not None:
                    raise NotFloerSimpleSlope("combined class decomposes twice")
                found = k
            tt = add_mu[tt]
            k -= 1
        tt = sub_mu[t]
        k = 1
        while k <= n_max:
            if k >= n_min and (f - k * mu_free) * size + tt in blacks:
                if found is not None:
                    raise NotFloerSimpleSlope("combined class decomposes twice")
                found = k
            tt = sub_mu[tt]
            k += 1
        if found is None:
            raise NotFloerSimpleSlope("combined class does not decompose")
        return (found > 0) - (found < 0)

    inv_lam = enc.add_table([-a for a in lam_tors])
    for rep_free in range(lam_free):
        for rep_t in range(size):
            # move to the lowest window position of this coset
            k0 = -((rep_free - lo) // lam_free)
            f = rep_free + k0 * lam_free
            t = rep_t
            k = k0
            while k > 0:
                t = add_lam[t]
                k -= 1
            while k < 0:
                t = inv_lam[t]
                k += 1
            seen_red = False
            while f <= hi:
                c = color_of(f, t)
                if c == 1:
                    seen_red = True
                elif c == -1 and seen_red:
                    return False
                f += lam_free
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
    lam1, q_star, p_star = canonical_longitude(mu)
    alpha, rem = divmod(n_coeff - beta * q_star, mu.a)
    require(rem == 0, "the reference slope does not divide n - beta q*")
    if window_scale == 1:
        return _oracle_fast(Y, mu, beta, n_coeff, alpha)
    return _oracle_sweep(Y, mu, beta, n_coeff, alpha, window_scale)
