"""Cross-validation corpus runner shared by the CLI and the test suite.

Each criterion below is an exact check; `full=True` runs the sizes used
for acceptance, the default runs reduced sizes suitable for a quick
command-line verification.  Every function returns (name, passed, detail)
records so callers can print one line per criterion.
"""

import random
import time
from dataclasses import dataclass
from itertools import product
from math import gcd

from .abelian import LONGITUDE, GluingMatrix, Slope, primitive_slope_qs
from .cfd import build_cfd, cfd_twist_compare
from .coloring import surgery_is_lspace_oracle
from .corpus import (is_valid_witness, n_g, negative_trefoil, random_records,
                     solid_torus, standard_corpus, t25, trefoil)
from .errors import HypothesisNotMet, NotFloerSimpleSlope
from .gluing import (SpliceProblem, condition_systems, judicious_slope,
                     splice_equivalence, splice_is_lspace)
from .interval import (check_corollary_consistency, is_lspace_slope,
                       lspace_interval)
from .seifert import (SeifertData, sfs_fiber_interval, sfs_is_lspace,
                      sfs_is_lspace_via_dtau)
from .torsion import (dtau, filling_homology_order, gamma_closed, hfk_support,
                      milnor_invariants, retwist, slope_after_retwist)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def all_slopes(bound):
    """The longitude, then every slope a/b with 1 <= a <= bound and
    |b| <= bound, by a and then b."""
    return [LONGITUDE] + [Slope(a, b) for a in range(1, bound + 1)
                          for b in sorted(primitive_slope_qs(a, -bound, bound))]


def valid_witnesses(Y, bound):
    """The slopes of all_slopes(bound) that validate_witness accepts."""
    return [s for s in all_slopes(bound) if is_valid_witness(Y, s)]


def criterion_trefoil_interval():
    r = lspace_interval(trefoil())
    ok = (r.kind == "closed" and {r.lo, r.hi} == {Slope(1, 1), Slope(1, 0)})
    return ok, "interval [%s, %s]" % (r.lo, r.hi)


def criterion_t25_interval():
    r = lspace_interval(t25())
    ok = (r.kind == "closed" and {r.lo, r.hi} == {Slope(3, 1), Slope(1, 0)})
    return ok, "interval [%s, %s]" % (r.lo, r.hi)


def criterion_n_family():
    for g in (2, 3, 4, 5):
        Y = n_g(g)
        if dtau(Y).positive:
            return False, "positive difference set nonempty for g=%d" % g
        if lspace_interval(Y, Slope(1, 0)).kind != "all-but-longitude":
            return False, "interval wrong for g=%d" % g
        mil = milnor_invariants(Y)  # raises on the congruence failure
        if not mil.gst:
            return False, "gst flag false for g=%d" % g
        if not cfd_twist_compare(Y).isomorphic:
            return False, "twist comparison failed for g=%d" % g
    return True, "g in {2,3,4,5}"


def _normalized_fibers(max_s):
    out = []
    for s in range(2, max_s + 1):
        for r in range(1, s):
            if gcd(r, s) == 1:
                out.append((r, s))
    return out


def criterion_seifert_sweep(max_n=3, max_s=6, max_e0=3):
    fibers = _normalized_fibers(max_s)
    cases = 0
    for n in range(1, max_n + 1):
        for combo in product(fibers, repeat=n):
            for e0 in range(-max_e0, max_e0 + 1):
                d = SeifertData(e0=e0, fibers=combo)
                v = sfs_is_lspace(d)
                if v.theorem_not_lspace != v.orbifold_not_lspace:
                    return False, "criterion forms disagree on %r" % (d,)
                if sfs_is_lspace_via_dtau(d) != v.lspace:
                    return False, "difference-set route disagrees on %r" % (d,)
                if n >= 2:
                    for j in range(n):
                        iv = sfs_fiber_interval(d, j)
                        r, s = d.fibers[j]
                        if iv.lspace_given(r, s, d.euler()) != v.lspace:
                            return False, "fiber predicate disagrees on %r j=%d" % (d, j)
                cases += 1
    return True, "%d cases, three routes agree" % cases


def criterion_named_sfs():
    checks = [
        (SeifertData(-1, ((1, 2), (1, 2))), False, "euler-zero"),
        (SeifertData(0, ((1, 2), (1, 3), (1, 5))), True, None),
        (SeifertData(-1, ((1, 2), (1, 3), (1, 7))), False, None),
    ]
    for d, want, want_reason in checks:
        v = sfs_is_lspace(d)
        if v.lspace != want:
            return False, "wrong verdict on %r" % (d,)
        if want_reason and v.reason != want_reason:
            return False, "wrong reason on %r" % (d,)
    return True, "three named verdicts"


def criterion_oracle_cross_validation(seed, slope_bound=12, witness_bound=12,
                                      random_count=5):
    records = list(standard_corpus().values())
    records += random_records(seed=seed, count=random_count)
    slopes = all_slopes(slope_bound)
    mismatches = 0
    comparisons = 0
    for Y in records:
        for w in valid_witnesses(Y, witness_bound):
            for nu in slopes:
                if nu.dot_l == 0:
                    continue
                try:
                    got = surgery_is_lspace_oracle(Y, w, nu)
                except NotFloerSimpleSlope:
                    continue
                want = is_lspace_slope(Y, w, nu)
                comparisons += 1
                if got != want:
                    mismatches += 1
                if not check_corollary_consistency(Y, w, nu):
                    mismatches += 1
    return mismatches == 0, "%d comparisons, %d mismatches" % (comparisons, mismatches)


def _random_det_minus_one(rng, max_entry=4):
    while True:
        m = [[1, 0], [0, 1]]
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(-2, 2)
            if rng.random() < 0.5:
                m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
            else:
                m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
        m = [m[0], [-m[1][0], -m[1][1]]]
        if max(abs(x) for row in m for x in row) <= max_entry:
            return GluingMatrix.from_rows(m)


def criterion_gluing_equivalences(seed, instance_count=500):
    # the two named instances first
    v1 = splice_is_lspace(SpliceProblem(y1=trefoil(), y2=trefoil(),
                                        phi=GluingMatrix(1, 0, 1, -1)))
    if v1.lspace:
        return False, "shear instance should not be an L-space"
    prob2 = SpliceProblem(y1=trefoil(), y2=trefoil(),
                          phi=GluingMatrix(3, -5, 1, -2))
    js = judicious_slope(prob2)
    l_rep, _ = condition_systems(js)
    rows = [row for row in l_rep.checks if row[0] == "L.iii"]
    if rows != [("L.iii", (5, 9, 35), 37, 35)]:
        return False, "mixed-condition transcript mismatch: %r" % (rows,)
    if not splice_is_lspace(prob2).lspace:
        return False, "cover instance should be an L-space"

    rng = random.Random(seed)
    pieces = [trefoil(), t25(), solid_torus(), n_g(2), n_g(3), n_g(4), n_g(5)]
    done = attempts = 0
    while done < instance_count and attempts < 40 * instance_count:
        attempts += 1
        phi = _random_det_minus_one(rng)
        prob = SpliceProblem(y1=rng.choice(pieces), y2=rng.choice(pieces), phi=phi)
        if phi.q_star == 0:
            if splice_is_lspace(prob).lspace:
                return False, "q*=0 instance declared an L-space"
            continue
        try:
            verdicts = splice_equivalence(prob)
        except HypothesisNotMet:
            continue
        if len(set(verdicts.values())) != 1:
            return False, "routes disagree: %r on %r" % (verdicts, prob)
        done += 1
    if done < instance_count:
        return False, "only %d instances found" % done
    return True, "%d instances, four routes agree" % done


def criterion_structural_suites(seed, slope_bound=8):
    records = list(standard_corpus().values())
    records += random_records(seed=seed, count=5)
    slopes = all_slopes(slope_bound)
    for Y in records:
        ok, pair = gamma_closed(Y)
        if not ok:
            return False, "semigroup closure fails: %r" % (pair,)
        witnesses = valid_witnesses(Y, slope_bound)
        base = lspace_interval(Y, witnesses[0])
        interior = base.interval.interior()
        for w in witnesses:
            if interior.contains(w):
                r = lspace_interval(Y, w)
                if not r.interval.same_points(base.interval):
                    return False, "witness dependence: %r at %s" % (Y, w)
        # basis covariance under two retwists
        for k in (-1, 2):
            Yk = retwist(Y, k)
            wk = slope_after_retwist(witnesses[0], k)
            for s in slopes[:40]:
                sk = slope_after_retwist(s, k)
                if is_lspace_slope(Y, witnesses[0], s) != is_lspace_slope(Yk, wk, sk):
                    return False, "basis covariance: %r" % (Y,)
        # black count and window doubling on a slope sample
        w = witnesses[0]
        if len(hfk_support(Y, w)) != filling_homology_order(Y, w):
            return False, "support count: %r" % (Y,)
        for nu in slopes:
            if nu.dot_l == 0:
                continue
            try:
                v1 = surgery_is_lspace_oracle(Y, w, nu, window_scale=1)
            except NotFloerSimpleSlope:
                continue
            if v1 != surgery_is_lspace_oracle(Y, w, nu, window_scale=2):
                return False, "window doubling: %r at %s" % (Y, nu)
    return True, "%d records" % len(records)


def criterion_cfd_figure():
    b = build_cfd(negative_trefoil(), mu=Slope(5, -1), lam=Slope(-9, 2))
    ok = (len(b.graph.v0) == 5 and len(b.graph.v1) == 9 and
          b.graph.arrow_counts() == {"D1": 5, "D3": 5, "D23": 4} and
          all(v == 2 for v in b.graph.valences().values()))
    return ok, "|v0|=%d |v1|=%d arrows=%r" % (len(b.graph.v0), len(b.graph.v1),
                                              b.graph.arrow_counts())


def run_selftest(seed=0, full=False, echo=False):
    """Run every acceptance criterion; reduced sizes unless full=True."""
    plans = [
        ("1-trefoil-interval", criterion_trefoil_interval, {}),
        ("2-t25-interval", criterion_t25_interval, {}),
        ("3-n-family", criterion_n_family, {}),
        ("4-seifert-sweep", criterion_seifert_sweep,
         {} if full else {"max_n": 2, "max_s": 4, "max_e0": 2}),
        ("5-named-sfs", criterion_named_sfs, {}),
        ("6-oracle-cross-validation", criterion_oracle_cross_validation,
         {"seed": seed} if full else
         {"seed": seed, "slope_bound": 6, "witness_bound": 4, "random_count": 2}),
        ("7-gluing-equivalences", criterion_gluing_equivalences,
         {"seed": seed, "instance_count": 500 if full else 25}),
        ("8-cfd-figure", criterion_cfd_figure, {}),
        ("9-structural-suites", criterion_structural_suites,
         {"seed": seed} if full else {"seed": seed, "slope_bound": 5}),
    ]
    results = []
    for name, fn, kwargs in plans:
        start = time.time()
        try:
            passed, detail = fn(**kwargs)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.time() - start
        results.append(CriterionResult(name=name, passed=passed,
                                       detail=detail, seconds=elapsed))
        if echo:
            print("%s %-28s %5.1fs  %s" % ("PASS" if passed else "FAIL",
                                           name, elapsed, detail))
    return results
