"""Reference manifold records and the randomized record generator.

The fixed records are the standard small examples: the solid torus, the
torus knot exteriors with one and two positive-level gaps, and the family
N_g of fiber complements with trivial positive difference set.  Random
records are generated from two realizable-by-construction families and
filtered through full validation, the cyclic congruence, and semigroup
closure of the difference-set complement.
"""

import random

from .abelian import FinAbGroup, GroupElement, Slope, primitive_slope_qs
from .errors import LSpaceError
from .interval import validate_witness
from .torsion import (FloerSimpleManifold, gamma_closed, milnor_invariants,
                      tauc_degree, validate_manifold)


def gap_record(gaps, witness=None):
    """A record over Z with the given complement support (knot-exterior style)."""
    gaps = tuple(sorted(gaps))
    if witness is None:
        witness = Slope(2 * max(gaps) + 1, 1) if gaps else Slope(1, 0)
    group = FinAbGroup(())
    return FloerSimpleManifold(group=group,
                               iota_m=GroupElement(1, ()),
                               iota_l=GroupElement(0, ()),
                               tauc_support=frozenset(GroupElement(f, ()) for f in gaps),
                               witness=witness)


def solid_torus():
    return gap_record((), Slope(1, 0))


def trefoil():
    """Right-handed trefoil exterior: gap support {1}."""
    return gap_record((1,), Slope(3, 1))


def negative_trefoil():
    """Left-handed trefoil exterior: same torsion record, mirrored witness."""
    return gap_record((1,), Slope(3, -1))


def t25():
    """(2,5) torus knot exterior: gap support {1, 3}."""
    return gap_record((1, 3), Slope(4, 1))


def n_g(g):
    """The fiber complement N_g: torsion Z/g, homological longitude of
    order g, complement support {(i, a) : 0 <= i <= g-2, i < a <= g-1}."""
    if g < 2:
        raise ValueError("N_g needs g >= 2, got %r" % (g,))
    group = FinAbGroup((g,))
    support = set()
    for i in range(g - 1):
        for a in range(i + 1, g):
            support.add(GroupElement(i, (a,)))
    return FloerSimpleManifold(group=group,
                               iota_m=GroupElement(g, (0,)),
                               iota_l=GroupElement(0, (1,)),
                               tauc_support=frozenset(support),
                               witness=Slope(1, 0))


def standard_corpus():
    return {
        "solid_torus": solid_torus(),
        "trefoil": trefoil(),
        "t25": t25(),
        "n2": n_g(2),
        "n3": n_g(3),
    }


def _record_ok(Y, max_torsion=4, max_degree=5):
    try:
        validate_manifold(Y)
        if Y.group.torsion_size > max_torsion:
            return False
        if tauc_degree(Y) > max_degree:
            return False
        milnor_invariants(Y)
        ok, _ = gamma_closed(Y)
        if not ok:
            return False
        validate_witness(Y, Y.witness)
    except (LSpaceError, ValueError):
        return False
    return True


def is_valid_witness(Y, s):
    """Does validate_witness accept the slope s for Y?"""
    try:
        validate_witness(Y, s)
    except LSpaceError:
        return False
    return True


def _numerical_semigroup_gaps(gens, cap=64):
    reachable = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = v + g
                if w <= cap and w not in reachable:
                    reachable.add(w)
                    nxt.append(w)
        frontier = nxt
    conductor = 0
    run = 0
    for v in range(cap + 1):
        if v in reachable:
            run += 1
            if run >= max(gens):
                conductor = v - run + 1
                break
        else:
            run = 0
    return tuple(v for v in range(1, cap + 1) if v not in reachable and v < conductor + max(gens))


def random_records(seed, count=5, max_torsion=4, max_degree=5):
    """Deterministic stream of validated random records.

    Mixes semigroup-gap records over Z with rejection-sampled torsion
    records of longitude order two; every emitted record passes full
    validation, the congruence check, semigroup closure, and has a valid
    witness installed.
    """
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 20000:
        attempts += 1
        if rng.random() < 0.5:
            gens = sorted(rng.sample([2, 3, 4, 5, 6, 7], rng.choice([2, 3])))
            gaps = _numerical_semigroup_gaps(gens)
            if not gaps or max(gaps) > max_degree:
                continue
            Y = gap_record(gaps, witness=None)
        else:
            group = FinAbGroup((2,))
            d = rng.randint(1, max_degree)
            support = set()
            for f in range(d + 1):
                for t in (0, 1):
                    if rng.random() < 0.4:
                        support.add(GroupElement(f, (t,)))
            support.discard(GroupElement(0, (0,)))
            if not support:
                continue
            Y = FloerSimpleManifold(group=group,
                                    iota_m=GroupElement(2, (rng.choice([0, 1]),)),
                                    iota_l=GroupElement(0, (1,)),
                                    tauc_support=frozenset(support),
                                    witness=None)
            w = None
            try:
                validate_manifold(Y)
                milnor_invariants(Y)
            except (LSpaceError, ValueError):
                continue
            slopes = (Slope(p, q) for p in range(1, 13) for q in primitive_slope_qs(p, -12, 12))
            w = next((s for s in slopes if is_valid_witness(Y, s)), None)
            if w is None:
                continue
            Y = FloerSimpleManifold(group=Y.group, iota_m=Y.iota_m,
                                    iota_l=Y.iota_l,
                                    tauc_bits=Y.tauc_bits, witness=w)
        if not _record_ok(Y, max_torsion, max_degree):
            continue
        if any(Y == prev for prev in out):
            continue
        out.append(Y)
    if len(out) < count:
        raise RuntimeError("record generator exhausted its attempt budget")
    return out
