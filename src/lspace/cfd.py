"""Train-track graphs of the bordered invariant for Floer simple manifolds.

For a framing (mu, lambda) with mu in the interior of the L-space
interval, phi(iota(mu)) above the Thurston norm, and lambda = lambda0 -
N*mu for N large, the bordered invariant reduces to a bipartite digraph:
one vertex layer for the knot-Floer support of the mu-filling core, one
for the lambda-filling core, arrows of three kinds.  The first two kinds
are the translation j anchored at the maximal classes; the third connects
the vertices missed by the first kind to their meridian translates.
Every vertex ends up with valence two.

A generalized solid torus (reduced Alexander polynomial of degree < g) is
certified by rebuilding the graph after a longitude Dehn twist of the
framing and exhibiting the explicit shift x -> x + floor(phi(x)/g) * l as
a label-preserving isomorphism.
"""

from dataclasses import dataclass
from math import lcm

from .abelian import GroupElement, Slope, canonical_longitude, window_slope_qs
from .errors import (InvalidFraming, LSpaceError, MissingWitness,
                     NotGeneralizedSolidTorus, require)
from .interval import lspace_interval
from .torsion import (filling_homology_order, hfk_support, milnor_invariants,
                      validate_manifold)

D1, D3, D23 = "D1", "D3", "D23"


@dataclass(frozen=True)
class CfdGraph:
    v0: tuple       # sorted support classes of the mu-filling core
    v1: tuple       # sorted support classes of the lambda-filling core
    arrows: tuple   # sorted triples ((layer, class), (layer, class), label)

    def valences(self):
        counts = {("0", s): 0 for s in self.v0}
        counts.update({("1", s): 0 for s in self.v1})
        for src, dst, _ in self.arrows:
            counts[src] += 1
            counts[dst] += 1
        return counts

    def arrow_counts(self):
        out = {D1: 0, D3: 0, D23: 0}
        for _, _, label in self.arrows:
            out[label] += 1
        return out


@dataclass(frozen=True)
class CfdBuild:
    graph: CfdGraph
    mu: Slope
    lam: Slope
    lam0: Slope
    twist_count: int


def _phi_spread(support):
    frees = [h.free for h in support]
    return max(frees) - min(frees)


def _auto_mu(Y):
    """The first Floer simple slope p/q inside the interval, over the 63
    least p with p g above the norm (above 0 for the solid torus)."""
    g = validate_manifold(Y).g
    p_min = max(milnor_invariants(Y).norm, 0) // g + 1
    interval = lspace_interval(Y, Y.witness).interval.interior()
    for p in range(p_min, p_min + 63):
        # iota(p m + q l) depends on q only mod g, and primitivity mod p
        for q in window_slope_qs(p, interval.q_ranges(p), lcm(p, g)):
            s = Slope(p, q)
            try:
                hfk_support(Y, s)
            except LSpaceError:
                continue
            return s
    raise MissingWitness("no admissible framing slope found")


def build_cfd(Y, mu=None, lam=None):
    """Build the graph at the framing (mu, lambda).

    With mu omitted, the slope is auto-selected inside the interval with
    phi above the norm; with lambda omitted, lambda = lambda0 - N*mu for
    the canonical lambda0 and the minimal N clearing the support spread.
    """
    rep = validate_manifold(Y)
    if mu is None:
        mu = _auto_mu(Y)
    v0 = hfk_support(Y, mu)
    spread = _phi_spread(v0)
    if lam is None:
        lam0 = canonical_longitude(mu)[0]
        N = 1
        while abs(lam0.a - N * mu.a) * rep.g <= spread:
            N += 1
        raw = (lam0.a - N * mu.a, lam0.b - N * mu.b)
        lam = Slope(*raw)
    else:
        if abs(mu.pairing(lam)) != 1:
            raise InvalidFraming("mu . lambda is %d, not +-1" % mu.pairing(lam))
        # orient the representative so that mu . lambda = +1
        raw = (lam.a, lam.b) if mu.pairing(lam) == 1 else (-lam.a, -lam.b)
        lam0, N = None, 0
    graph = _graph_from_supports(Y, Y.iota(mu), Y.iota_ab(*raw))
    return CfdBuild(graph=graph, mu=mu, lam=lam, lam0=lam0, twist_count=N)


def _graph_from_supports(Y, iota_mu, iota_lam):
    """Assemble the graph from the two supports and the framing classes.

    iota_lam must have negative free part (the framing is heavily twisted
    downward); the second layer is computed from the reversed class."""
    G = Y.group
    if iota_mu.free <= 0 or iota_lam.free >= 0:
        raise InvalidFraming("need phi(iota(mu)) > 0 > phi(iota(lambda))")
    v0 = hfk_support(Y, iota_mu)
    v1 = hfk_support(Y, G.neg(iota_lam))
    if _phi_spread(v0) >= -iota_lam.free:
        raise InvalidFraming("framing twist too small for the support spread")
    # anchor the translation at the maximal classes
    max0 = max(h.free for h in v0)
    max1 = max(h.free for h in v1)
    shift_free = max1 - max0
    step = G.add(iota_lam, iota_mu)
    candidates = []
    for t in G.torsion_elements():
        c = GroupElement(shift_free, t.torsion)
        if all(G.add(s, c) in v1 for s in v0) and \
           all(G.add(G.add(s, c), step) in v1 for s in v0):
            candidates.append(c)
    if len(candidates) != 1:
        raise NotGeneralizedSolidTorus(
            "translation anchor is not unique (%d candidates)" % len(candidates))
    c = candidates[0]
    arrows = []
    image_d1 = set()
    image_d3 = set()
    for s in sorted(v0):
        t1 = G.add(s, c)
        t3 = G.add(t1, step)
        arrows.append((("0", s), ("1", t1), D1))
        arrows.append((("0", s), ("1", t3), D3))
        image_d1.add(t1)
        image_d3.add(t3)
    sources = v1 - image_d1
    for w in sorted(sources):
        target = G.add(w, iota_mu)
        require(target in v1, "the meridian translate of %r is not a vertex", w)
        arrows.append((("1", w), ("1", target), D23))
    # a vertex starts the third arrow kind exactly when its meridian
    # translate is not hit by the second kind
    require({G.add(w, iota_mu) for w in sources} == v1 - image_d3,
            "the third arrow kind does not start where the second misses")
    graph = CfdGraph(v0=tuple(sorted(v0)), v1=tuple(sorted(v1)),
                     arrows=tuple(sorted(arrows)))
    counts = graph.valences()
    require(all(v == 2 for v in counts.values()), "valence-two check failed")
    return graph


def euler_count_check(Y, build):
    """|v1| - |v0| equals the filling homology order at mu + lambda when
    that slope stays in the interval; returns None when not applicable."""
    mu, lam = build.mu, build.lam
    raw = (lam.a, lam.b) if mu.pairing(lam) == 1 else (-lam.a, -lam.b)
    s = Slope(mu.a + raw[0], mu.b + raw[1])
    interval = lspace_interval(Y).interval
    if not interval.contains(s):
        return None
    order = filling_homology_order(Y, s)
    return (len(build.graph.v1) - len(build.graph.v0)) == order


def cfd_to_dot(build):
    """DOT serialization; arrow labels follow the rho convention."""
    labels = {D1: "rho1", D3: "rho3", D23: "rho23"}
    names = {}
    lines = ["digraph cfd {"]
    for i, s in enumerate(build.graph.v0):
        names[("0", s)] = "v0_%d" % i
        lines.append('  v0_%d [label="%s" shape=circle];' % (i, _class_label(s)))
    for i, s in enumerate(build.graph.v1):
        names[("1", s)] = "v1_%d" % i
        lines.append('  v1_%d [label="%s" shape=square];' % (i, _class_label(s)))
    for src, dst, label in build.graph.arrows:
        lines.append('  %s -> %s [label="%s"];' % (names[src], names[dst], labels[label]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _class_label(h):
    if h.torsion:
        return "%d;%s" % (h.free, ",".join(str(t) for t in h.torsion))
    return str(h.free)


@dataclass(frozen=True)
class TwistCompareReport:
    gst: bool
    isomorphic: bool
    note: str


def cfd_twist_compare(Y):
    """Certify the Floer-homology-solid-torus property by the longitude
    Dehn twist.

    Builds the graphs at (m, l - N m) and at the twisted framing
    (m + l, lambda - N l) and checks that x -> x + floor(phi(x)/g) * l
    carries one onto the other, arrows and labels included.  For records
    failing the generalized-solid-torus inequality the comparison still
    runs and is expected to fail (often because the meridian framing is
    not even Floer simple).
    """
    rep = validate_manifold(Y)
    gst = milnor_invariants(Y).gst
    note = "" if gst else NotGeneralizedSolidTorus.__name__
    G = Y.group
    try:
        v0 = hfk_support(Y, Slope(1, 0))
        spread = _phi_spread(v0)
        N = 1
        while N * rep.g <= spread:
            N += 1
        graph = _graph_from_supports(Y, Y.iota_ab(1, 0), Y.iota_ab(-N, 1))
        graph2 = _graph_from_supports(Y, Y.iota_ab(1, 1), Y.iota_ab(-N, 1 - N))
    except LSpaceError as exc:
        return TwistCompareReport(gst=gst, isomorphic=False,
                                  note=note or str(exc))

    def shift(h):
        k = h.free // rep.g
        return G.add(h, G.scale(k, Y.iota_l))

    if set(map(shift, graph.v0)) != set(graph2.v0) or \
       set(map(shift, graph.v1)) != set(graph2.v1):
        return TwistCompareReport(gst=gst, isomorphic=False, note=note)
    arrows2 = set(graph2.arrows)
    for (l1, s), (l2, t), label in graph.arrows:
        if ((l1, shift(s)), (l2, shift(t)), label) not in arrows2:
            return TwistCompareReport(gst=gst, isomorphic=False, note=note)
    return TwistCompareReport(gst=gst, isomorphic=True, note=note)
