"""The four workloads: seeded inputs, the timed operations and the checks.

A workload builds its inputs as a list of rounds.  A run repeats whole
rounds, so every run attempts the same operations in the same
proportions.  `run_round` times each operation.  `check_round` compares
every answer of a round with what reference.py computes apart from
lspace, or with a property the method must have; it calls no lspace
code, so it runs between rounds and nothing is kept.  `check_end` runs
after the timed phase on the first round's answers and may call lspace
(a second route on a sample).  Failed operations are counted, not
checked.
"""

import contextlib
import io
import json
import os
import random
import sys
import time

import batch_requests
import reference as ref

perf = time.perf_counter


class Failure:
    """An operation that raised instead of answering."""

    def __init__(self, exc):
        self.name = type(exc).__name__


def _timed(ops, run_op, mark, before=None):
    latencies, results = [], []
    for op in ops:
        if before:
            before()
        if mark:
            mark()
        start = perf()
        try:
            result = run_op(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = Failure(exc)
        latencies.append(perf() - start)
        results.append(result)
    return latencies, results


def clear_caches():
    """Empty every lru_cache in the loaded lspace modules."""
    for name, module in list(sys.modules.items()):
        if name == "lspace" or name.startswith("lspace."):
            for value in vars(module).values():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    value.cache_clear()


def _answered(ops, results):
    """The answered (op, result) pairs of a round and the number of
    operations that failed."""
    pairs = [(op, res) for op, res in zip(ops, results) if not isinstance(res, Failure)]
    return pairs, len(ops) - len(pairs)


def _sample(rng, items, count):
    return items if len(items) <= count else rng.sample(items, count)


# --- glue-sweep --------------------------------------------------------------

class GlueSweep:
    """splice_equivalence on seeded gluings of the standard pieces.

    The gluing matrices are those of batch_requests.gluing_matrices(2)
    with q* < 0, six of them.  A round glues every unordered pair of the
    seven pieces once and adds the paper's two named gluings of trefoils
    and one solid-torus gluing with q* = 0.  Each pair walks through its
    usable matrices in a seeded order, one per round, so the six rounds
    of a pass meet each of them equally often (every pair has six usable
    matrices, or three: T(2,3) with itself or with T(2,5)) and the seed
    sets which gluings share a round, their order and the q* = 0 gluings.
    Every operation starts with cold caches, cleared outside its timed
    span, so its cost and the memory it holds do not depend on which
    gluings came before it.  Pairs with N_4 or
    N_5 give the heavy spliced records.  N_4 with N_5 and N_5 with N_5
    are left out: each takes 2-5 s, so a run would hold only a few of
    them and its throughput would swing by a tenth from seed to seed.
    The matrices with q* > 0 are left out so that a pass takes about six
    seconds and a run holds several whole passes.
    """

    MATRIX_BOUND = 2
    LEFT_OUT = ({"N4", "N5"}, {"N5"})

    def __init__(self, seed):
        from lspace.abelian import GluingMatrix
        from lspace.corpus import n_g, solid_torus, t25, trefoil
        from lspace.errors import HypothesisNotMet
        from lspace.gluing import SpliceProblem, splice_is_lspace

        rng = random.Random(seed)
        pieces = [("T23", trefoil()), ("T25", t25()), ("ST", solid_torus())]
        pieces += [("N%d" % g, n_g(g)) for g in (2, 3, 4, 5)]
        mats = [rows for rows in batch_requests.gluing_matrices(self.MATRIX_BOUND)
                if rows[0][1] < 0]
        pairs = []
        for i in range(len(pieces)):
            for j in range(i, len(pieces)):
                if {pieces[i][0], pieces[j][0]} in self.LEFT_OUT:
                    continue
                usable = []
                for rows in rng.sample(mats, len(mats)):
                    prob = SpliceProblem(pieces[i][1], pieces[j][1],
                                         GluingMatrix.from_rows(rows))
                    try:
                        splice_is_lspace(prob)
                    except HypothesisNotMet:
                        continue
                    usable.append((pieces[i][0], pieces[j][0], rows, prob, None))
                if len(mats) % max(len(usable), 1):
                    raise RuntimeError("%s+%s: %d usable matrices do not fill a pass"
                                       % (pieces[i][0], pieces[j][0], len(usable)))
                if usable:
                    pairs.append(usable)
        tref = pieces[0][1]
        st = pieces[2][1]
        named = [("T23", "T23", batch_requests.WORKED_EXAMPLE, "worked"),
                 ("T23", "T23", batch_requests.SHEAR, "shear")]
        self.rounds = []
        for r in range(len(mats)):
            ops = [usable[r % len(usable)] for usable in pairs]
            for k1, k2, rows, tag in named:
                ops.append((k1, k2, rows, SpliceProblem(
                    tref, tref, GluingMatrix.from_rows(rows)), tag))
            sign = rng.choice((1, -1))
            rows = ((sign, 0), (rng.randint(-2, 2), -sign))
            ops.append(("ST", "ST", rows,
                        SpliceProblem(st, st, GluingMatrix.from_rows(rows)), None))
            rng.shuffle(ops)
            self.rounds.append(ops)

    def run_round(self, ops, mark=None):
        from lspace.gluing import splice_equivalence, splice_is_lspace

        def decide(op):
            prob = op[3]
            if prob.phi.q_star == 0:
                # the other routes need a rational homology sphere
                return {"cover": splice_is_lspace(prob).lspace}
            return splice_equivalence(prob)
        return _timed(ops, decide, mark, before=clear_caches)

    def check_round(self, ops, results):
        pairs, failed = _answered(ops, results)
        problems = []
        for (k1, k2, rows, prob, tag), res in pairs:
            verdicts = set(res.values())
            where = "%s+%s phi=%s" % (k1, k2, rows)
            if len(verdicts) != 1:
                problems.append("routes disagree on %s: %r" % (where, res))
                continue
            lspace = verdicts.pop()
            want = {"worked": True, "shear": False}.get(tag)
            if want is None:
                want = ref.gluing_lspace((k1, k2), rows, batch_requests.KNOTS)
            if want is not None and lspace != want:
                problems.append("%s: lspace=%s, expected %s" % (where, lspace, want))
        return failed, problems

    def check_end(self, ops, results, rng):
        from lspace.gluing import condition_systems, judicious_slope

        worked = next(op[3] for op in ops if op[4] == "worked")
        l_rep, _ = condition_systems(judicious_slope(worked))
        rows = [row for row in l_rep.checks if row[0] == "L.iii"]
        if rows != [("L.iii", (5, 9, 35), 37, 35)]:
            return ["worked example transcript: %r" % (rows,)]
        return []


# --- oracle-sweep ------------------------------------------------------------

class OracleSweep:
    """(record, witness, slope) triples over the standard corpus, six
    torus knot exteriors and seeded random records, four over Z and four
    with torsion.  Each triple asks the coloring oracle (pair route), the
    interval criterion and the three-route consistency check.  Every
    record enters with the same number of witnesses, so the seed changes
    which random records are asked about but not how much weight each
    record has."""

    TORUS_KNOTS = ((2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (4, 5))
    RANDOM_RECORDS = 4   # of each family
    WITNESSES = 3
    WITNESS_BOUND = 4
    SLOPE_BOUND = 10
    ROUND = 500
    SWEEP_SAMPLE = 150

    def __init__(self, seed):
        from lspace.abelian import Slope
        from lspace.corpus import random_records, standard_corpus
        from lspace.errors import LSpaceError
        from lspace.interval import validate_witness
        from lspace.torsion import hfk_support, manifold_from_json

        rng = random.Random(seed)
        truths = {"trefoil": ("knot", 2, 3), "t25": ("knot", 2, 5)}
        records = [(name, Y, truths.get(name, ("all",)))
                   for name, Y in standard_corpus().items()]
        for a, b in self.TORUS_KNOTS:
            records.append(("T(%d,%d)" % (a, b),
                            manifold_from_json(ref.torus_knot_record(a, b)),
                            ("knot", a, b)))
        for family in ("Z", "T"):
            found = [Y for Y in random_records(seed=seed, count=30)
                     if bool(Y.group.torsion_orders) == (family == "T")]
            records += [("random-%s%d" % (family, i), Y, ("free",))
                        for i, Y in enumerate(found[:self.RANDOM_RECORDS])]
        self.records = records

        def slopes(bound):
            return [Slope(a, b) for a, b in batch_requests.slopes(bound) if a]
        triples = []
        for name, Y, truth in records:
            witnesses = []
            for w in slopes(self.WITNESS_BOUND):
                if truth[0] == "knot" and not (
                        w.b > 0 and w.a > w.b * ref.torus_knot_threshold(*truth[1:])):
                    continue  # a witness must lie inside the L-space interval
                try:
                    validate_witness(Y, w)
                    hfk_support(Y, w)  # the oracle needs a coherent witness
                except LSpaceError:
                    continue
                witnesses.append(w)
            for w in _sample(rng, witnesses, self.WITNESSES):
                triples += [(name, Y, truth, w, nu) for nu in slopes(self.SLOPE_BOUND)]
        rng.shuffle(triples)
        self.rounds = [triples[i:i + self.ROUND]
                       for i in range(0, len(triples) - self.ROUND + 1, self.ROUND)]

    def run_round(self, ops, mark=None):
        from lspace.coloring import surgery_is_lspace_oracle
        from lspace.interval import check_corollary_consistency, is_lspace_slope

        def ask(op):
            _, Y, _, w, nu = op
            return (surgery_is_lspace_oracle(Y, w, nu), is_lspace_slope(Y, w, nu),
                    check_corollary_consistency(Y, w, nu))
        return _timed(ops, ask, mark)

    def check_round(self, ops, results):
        pairs, failed = _answered(ops, results)
        problems = []
        for (name, _, truth, w, nu), (oracle, crit, consistent) in pairs:
            where = "%s witness %s slope %s" % (name, w, nu)
            if oracle != crit:
                problems.append("oracle %s, criterion %s on %s" % (oracle, crit, where))
            if not consistent:
                problems.append("corollary routes disagree on " + where)
            if truth[0] == "knot":
                want = ref.torus_knot_lspace(truth[1], truth[2], (nu.a, nu.b))
            elif truth[0] == "all":
                want = True
            else:
                continue
            if crit != want:
                problems.append("%s: lspace=%s, expected %s" % (where, crit, want))
        return failed, problems

    def check_end(self, ops, results, rng):
        from lspace.abelian import Slope
        from lspace.coloring import surgery_is_lspace_oracle
        from lspace.interval import lspace_interval

        problems = []
        pairs, _ = _answered(ops, results)
        for (name, Y, _, w, nu), res in _sample(rng, pairs, self.SWEEP_SAMPLE):
            if surgery_is_lspace_oracle(Y, w, nu, window_scale=2) != res[0]:
                problems.append("coset sweep disagrees on %s %s %s" % (name, w, nu))
        for name, Y, truth in self.records:
            if truth[0] == "knot":
                r = lspace_interval(Y)
                want = (Slope(ref.torus_knot_threshold(truth[1], truth[2]), 1), Slope(1, 0))
                if (r.kind, r.lo, r.hi) != ("closed",) + want:
                    problems.append("%s interval [%s, %s]" % (name, r.lo, r.hi))
        return problems


# --- sfs-sweep ---------------------------------------------------------------

class SfsSweep:
    """Seifert spaces M(e0; r1/s1, ...) with three or four exceptional
    fibers.  Each runs the classifier, the difference-set route and the
    threshold pair of every fiber.  The cost follows the lcm of the
    denominators, so a round holds every multiset of three denominators
    from 2..8 and of four from 2..7, and the seed draws the numerators,
    e0 and the order.  The two named spaces close every round.  A pass of
    four rounds takes four to five seconds."""

    ROUNDS = 4
    DENOMINATORS = {3: range(2, 9), 4: range(2, 8)}
    FLIP_SAMPLE = 100

    def __init__(self, seed):
        from itertools import combinations_with_replacement

        from lspace.seifert import SeifertData

        rng = random.Random(seed)
        self.rounds = []
        for _ in range(self.ROUNDS):
            ops = [(e0, fibers, want) for (e0, fibers), want in batch_requests.NAMED_SFS]
            for n, span in self.DENOMINATORS.items():
                for dens in combinations_with_replacement(span, n):
                    fibers = [batch_requests.fiber(rng, s) for s in rng.sample(dens, n)]
                    ops.append((rng.randint(-n, 0), fibers, None))
            rng.shuffle(ops)
            self.rounds.append([(e0, fibers, want, SeifertData(e0, tuple(fibers)))
                                for e0, fibers, want in ops])

    def run_round(self, ops, mark=None):
        from lspace.seifert import (sfs_fiber_interval, sfs_is_lspace,
                                    sfs_is_lspace_via_dtau)

        def classify(op):
            d = op[3]
            verdict = sfs_is_lspace(d)
            euler = d.euler()
            fibers = tuple(sfs_fiber_interval(d, j).lspace_given(r, s, euler)
                           for j, (r, s) in enumerate(d.fibers))
            return verdict.lspace, verdict.reason, sfs_is_lspace_via_dtau(d), fibers
        return _timed(ops, classify, mark)

    def check_round(self, ops, results):
        pairs, failed = _answered(ops, results)
        problems = []
        for (e0, fibers, want, _), (lspace, reason, via_dtau, by_fiber) in pairs:
            where = "M(%d; %s)" % (e0, fibers)
            if via_dtau != lspace or any(v != lspace for v in by_fiber):
                problems.append("routes disagree on %s" % where)
            forced = ref.sfs_forced_verdict(e0, fibers)
            if want is None:
                want = forced
            if want is not None and lspace != want:
                problems.append("%s: lspace=%s, expected %s" % (where, lspace, want))
            if (ref.sfs_euler(e0, fibers) == 0) != (reason == "euler-zero"):
                problems.append("%s: reason %s" % (where, reason))
        return failed, problems

    def check_end(self, ops, results, rng):
        from lspace.seifert import SeifertData, sfs_is_lspace

        problems = []
        pairs, _ = _answered(ops, results)
        for (e0, fibers, _, _), res in _sample(rng, pairs, self.FLIP_SAMPLE):
            e0r, fibr = ref.sfs_reversed(e0, fibers)
            if sfs_is_lspace(SeifertData(e0r, tuple(fibr))).lspace != res[0]:
                problems.append("orientation reversal changes M(%d; %s)" % (e0, fibers))
        return problems


# --- cli-batch ---------------------------------------------------------------

class _Stamped(io.TextIOBase):
    """The batch entry's output stream: keeps each response line with the
    time it was written."""

    def __init__(self, mark):
        self.lines = []
        self.mark = mark

    def write(self, text):
        self.lines.append((perf(), text))
        if self.mark:
            self.mark()
        return len(text)


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


class CliBatch:
    """One seeded request file answered by `lspace --batch`, repeated.

    One operation is one request line; its service time is the gap
    between the timestamps of consecutive response lines."""

    def __init__(self, seed, out_dir):
        self.lines, self.pool = batch_requests.expectations(seed)
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, "requests-seed%d.jsonl" % seed)
        with open(self.path, "w") as fh:
            for req, _ in self.lines:
                fh.write(json.dumps(req, sort_keys=True) + "\n")
        self.rounds = [self.lines]

    def run_round(self, ops, mark=None):
        from lspace import cli

        out = _Stamped(mark)
        if mark:
            mark()
        start = perf()
        # argparse prints its usage text on stderr for refused requests
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_Discard()):
            try:
                cli.main(["--batch", self.path])
            except Exception as exc:  # a crash leaves later lines unanswered
                out.lines.append((perf(), Failure(exc)))
        latencies, texts = [], []
        for stamp, text in out.lines:
            latencies.append(stamp - start)
            texts.append(text)
            start = stamp
        return latencies, texts

    def check_round(self, ops, results):
        return check_batch(ops, results, self.pool)

    def check_end(self, ops, results, rng):
        return []


def _parse_dot(text):
    v0 = text.count("shape=circle")
    v1 = text.count("shape=square")
    labels = {k: text.count('[label="%s"]' % k) for k in ("rho1", "rho3", "rho23")}
    valence = {}
    for line in text.splitlines():
        if "->" in line:
            src, _, rest = line.strip().partition(" -> ")
            dst = rest.split(" ", 1)[0]
            for node in (src, dst):
                valence[node] = valence.get(node, 0) + 1
    return v0, v1, labels, valence


def check_batch(lines, texts, pool):
    """Check one answered request file: every line answered once, in
    order and with its index, and each answer obeying the properties of
    its subcommand.  Returns (failed, problems)."""
    problems = []
    failed = 0
    answers = []
    for text in texts:
        if isinstance(text, Failure):
            problems.append("batch raised %s" % text.name)
            continue
        try:
            answers.append(json.loads(text))
        except ValueError:
            problems.append("unparsable response line %r" % text[:80])
    if len(answers) < len(lines):
        failed += len(lines) - len(answers)
    if [a.get("index") for a in answers] != list(range(len(answers))) or \
            len(answers) > len(lines):
        problems.append("responses out of order or duplicated: %r"
                        % [a.get("index") for a in answers][:20])
        return failed, problems
    intervals = {}
    for (req, exp), ans in zip(lines, answers):
        if exp["cmd"] == "interval" and "error" not in ans:
            intervals.setdefault(exp["key"], ans)
    verdicts = {}
    for i, ((req, exp), ans) in enumerate(zip(lines, answers)):
        if "error" in ans:
            failed += 1
            if not exp.get("may_fail"):
                problems.append("line %d refused: %s" % (i, ans["error"]))
            continue
        try:
            problem = _check_answer(exp, ans, pool, intervals, verdicts, i)
        except (KeyError, TypeError, ValueError) as exc:
            problem = "malformed answer %r (%s)" % (ans, type(exc).__name__)
        if problem:
            problems.append("line %d (%s): %s" % (i, exp["cmd"], problem))
    return failed, problems


def _slope_expectation(exp, pool, intervals):
    truth = pool[exp["key"]][1]
    slope = exp["slope"]
    if truth[0] == "knot":
        return ref.torus_knot_lspace(truth[1], truth[2], slope)
    if truth[0] == "all":
        return slope != (0, 1)
    iv = intervals.get(exp["key"])
    return None if iv is None else ref.interval_contains(iv, slope)


def _check_answer(exp, ans, pool, intervals, verdicts, index):
    cmd = exp["cmd"]
    if cmd == "interval":
        doc, truth = pool[exp["key"]]
        if truth[0] == "knot":
            want = {"kind": "closed", "lo": "%d/1" % ref.torus_knot_threshold(*truth[1:]),
                    "hi": "1/0"}
        elif truth[0] == "all":
            want = {"kind": "all-but-longitude"}
        else:
            w = ref.normalize_slope(doc["witness"]["a"], doc["witness"]["b"])
            ends = [ref.parse_slope(ans[k]) for k in ("lo", "hi", "point") if k in ans]
            if w in ends or not ref.interval_contains(ans, w):
                return "witness %s not inside %r" % (w, ans)
            return None
        return None if ans == dict(want, index=index) else "got %r" % ans
    if cmd in ("check", "oracle"):
        if cmd == "check" and ans.get("consistent") is not True:
            return "inconsistent routes"
        want = _slope_expectation(exp, pool, intervals)
        if want is not None and ans.get("lspace") is not want:
            return "lspace=%r, expected %s" % (ans.get("lspace"), want)
        return None
    if cmd == "dtau":
        found = ref.difference_set(pool[exp["key"]][0])
        got = {(d["delta"], d["gamma"]) for d in ans["dtau"]}
        pos = {(d["delta"], d["gamma"]) for d in ans["dtau_positive"]}
        if got != found or pos != {d for d in found if d[0] > 0}:
            return "difference set %r, expected %r" % (sorted(got), sorted(found))
        return None
    if cmd == "gst":
        g, k, norm, monic, gst = ref.alexander(pool[exp["key"]][0])
        if (ans["g"], ans["k"], ans["norm"], ans["monic"], ans["gst"]) != \
                (g, k, norm, monic, gst):
            return "got %r, expected g=%d k=%d norm=%d monic=%s gst=%s" % (
                ans, g, k, norm, monic, gst)
        if gst and not ans["twist_compare"]:
            return "a generalized solid torus failed the twist comparison"
        return None
    if cmd == "cfd":
        gst = ref.alexander(pool[exp["key"]][0])[4]
        if exp["twist"]:
            if ans["gst"] != gst or (gst and not ans["twist_compare"]):
                return "twist comparison %r, gst expected %s" % (ans, gst)
            return None
        v0, v1, labels, valence = _parse_dot(ans["dot"])
        if not ans["dot"].startswith("digraph cfd {") or v0 == 0 or \
                labels != {"rho1": v0, "rho3": v0, "rho23": v1 - v0} or \
                len(valence) != v0 + v1 or set(valence.values()) != {2}:
            return "train track with %d+%d vertices, arrows %r" % (v0, v1, labels)
        return None
    if cmd == "sfs":
        e0, fibers = exp["data"]
        euler = ref.sfs_euler(*ref.sfs_normal_form(e0, fibers))
        if ans["euler"] != ref.frac_text(euler):
            return "euler %s, expected %s" % (ans["euler"], ref.frac_text(euler))
        want = exp["want"]
        if want is None:
            want = ref.sfs_forced_verdict(e0, fibers)
        if want is not None and ans["lspace"] is not want:
            return "lspace=%s, expected %s" % (ans["lspace"], want)
        if (euler == 0) != (ans["reason"] == "euler-zero"):
            return "reason %s" % ans["reason"]
        if exp["fiber"] is not None:
            r, s = ref.sfs_normal_form(e0, fibers)[1][exp["fiber"]]
            lo, hi = (ref.Fraction(t) for t in ans["fiber_thresholds"])
            by_fiber = euler != 0 and (ref.Fraction(r, s) <= lo or ref.Fraction(r, s) >= hi)
            if by_fiber != ans["lspace"]:
                return "fiber thresholds %r disagree" % ans["fiber_thresholds"]
        verdicts[index] = ans["lspace"]
        if "same_as" in exp and verdicts.get(exp["same_as"]) not in (None, ans["lspace"]):
            return "orientation reversal changed the verdict"
        return None
    # glue
    phi = exp["phi"]
    if phi[0][1] == 0:
        if ans["lspace"] or ans["reason"] != "NotRationalHomologySphere":
            return "q* = 0 but %r" % ans
        return None
    cond = ans["conditions"]
    if not cond["L"] == cond["I"] == ans["lspace"]:
        return "condition systems %s/%s, cover %s" % (cond["L"], cond["I"], ans["lspace"])
    if exp.get("worked"):
        rows = [r for r in cond["transcript"] if r["tag"] == "L.iii"]
        if not ans["lspace"] or rows != [{"tag": "L.iii", "at": [5, 9, 35],
                                          "value": 37, "threshold": 35}]:
            return "worked example: %r" % rows
        return None
    want = ref.gluing_lspace(exp["pieces"], phi, batch_requests.KNOTS)
    if want is not None and ans["lspace"] != want:
        return "lspace=%s, expected %s" % (ans["lspace"], want)
    return None


WORKLOADS = {"glue-sweep": GlueSweep, "oracle-sweep": OracleSweep,
             "sfs-sweep": SfsSweep, "cli-batch": CliBatch}
