"""Tests of the benchmark itself: the independent references, every
checker's refusal of corrupted answers, and very small runs.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import os
import random
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _answers(workload, ops):
    return ops, workload.run_round(ops)[1]


def _replace(results, index, change):
    """A copy of a round's answers with one answer changed."""
    results = list(results)
    results[index] = change(results[index])
    return results


def _refused(workload, ops, results):
    """Does the checker find a problem with these answers?"""
    failed, problems = workload.check_round(ops, results)
    return bool(problems)


# --- references -------------------------------------------------------------

def test_semigroup_gaps_and_thresholds():
    assert ref.semigroup_gaps(2, 3) == (1,)
    assert ref.semigroup_gaps(2, 5) == (1, 3)
    assert ref.semigroup_gaps(3, 4) == (1, 2, 5)
    assert ref.torus_knot_threshold(3, 4) == ref.semigroup_gaps(3, 4)[-1]


def test_difference_set_and_alexander():
    assert ref.difference_set(ref.torus_knot_record(2, 5)) == {(1, 0), (3, 0)}
    assert not {d for d in ref.difference_set(ref.n_g_record(3)) if d[0] > 0}
    assert ref.alexander(ref.torus_knot_record(2, 3)) == (1, 1, 1, True, False)
    assert ref.alexander(ref.n_g_record(4))[4] is True


def test_arcs_and_gluing_formulas():
    # the trefoil's interval [1/1, 1/0], and its complement [1/0, 1/1]
    lo, hi = (1, 1), (1, 0)
    assert ref.arc_contains(lo, hi, (5, 2)) and ref.arc_contains(lo, hi, hi)
    assert not ref.arc_contains(lo, hi, (1, 2))
    assert not ref.arc_contains(lo, hi, (1, -1))
    assert ref.arc_contains(hi, lo, (1, -1)) and ref.arc_contains(hi, lo, (0, 1))
    assert ref.gluing_lspace(("ST", "T23"), [[1, -1], [0, -1]], {"T23": (2, 3)})
    # T(2,3) on side one: filled along phi^-1(0/1) = (e12, -e11)
    assert ref.solid_torus_gluing_lspace((2, 3), [[-1, 1], [0, 1]], 1)      # 1/1
    assert not ref.solid_torus_gluing_lspace((2, 3), [[1, 1], [0, -1]], 1)  # -1/1
    assert not ref.two_solid_tori_lspace([[1, 0], [2, -1]])
    assert ref.sfs_forced_verdict(-1, [(1, 2), (1, 2)]) is False
    assert ref.sfs_forced_verdict(-3, [(1, 2), (1, 3), (1, 5)]) is True
    assert ref.sfs_forced_verdict(-1, [(1, 2), (1, 3), (1, 5)]) is None


# --- checkers refuse corrupted answers ----------------------------------------

@pytest.fixture(scope="module")
def glue():
    wl = workloads.GlueSweep(seed=5)
    light = [op for op in wl.rounds[0]
             if op[0] in ("T23", "ST", "N2") and op[1] in ("T23", "ST", "N2", "N3")]
    return wl, _answers(wl, light)


def test_glue_checker(glue):
    wl, (ops, results) = glue
    assert wl.check_round(ops, results) == (0, [])
    assert wl.check_end(ops, results, random.Random(0)) == []
    knot_st = next(i for i, op in enumerate(ops) if {op[0], op[1]} == {"T23", "ST"})
    assert _refused(wl, ops, _replace(results, knot_st,
                                      lambda r: {k: not v for k, v in r.items()}))
    assert _refused(wl, ops, _replace(results, 0, lambda r: dict(r, cover=not r["cover"])))
    failed = _replace(results, 0, lambda r: workloads.Failure(ValueError()))
    assert wl.check_round(ops, failed) == (1, [])


def test_glue_pass_mix_does_not_depend_on_seed():
    def mix(seed):
        return Counter((op[0], op[1], tuple(map(tuple, op[2])))
                       for ops in workloads.GlueSweep(seed).rounds for op in ops
                       if op[2][0][1])  # the seeded q* = 0 gluings aside
    assert mix(1) == mix(2)


@pytest.fixture(scope="module")
def oracle():
    wl = workloads.OracleSweep(seed=5)
    return wl, _answers(wl, wl.rounds[0])


def test_oracle_checker(oracle):
    wl, (ops, results) = oracle
    assert wl.check_round(ops, results) == (0, [])
    assert wl.check_end(ops, results, random.Random(0)) == []
    assert _refused(wl, ops, _replace(results, 0, lambda r: (not r[0],) + r[1:]))
    knot = next(i for i, op in enumerate(ops) if op[2][0] == "knot")
    assert _refused(wl, ops, _replace(results, knot, lambda r: (not r[0], not r[1], r[2])))
    assert _refused(wl, ops, _replace(results, 0, lambda r: r[:2] + (False,)))
    # the end check compares the coset sweep with the recorded pair route
    flipped = [(not r[0],) + r[1:] for r in results]
    assert wl.check_end(ops, flipped, random.Random(0))


@pytest.fixture(scope="module")
def sfs():
    wl = workloads.SfsSweep(seed=5)
    return wl, _answers(wl, wl.rounds[0])


def test_sfs_checker(sfs):
    wl, (ops, results) = sfs
    assert wl.check_round(ops, results) == (0, [])
    assert wl.check_end(ops, results, random.Random(0)) == []
    named = next(i for i, op in enumerate(ops) if op[2] is not None)
    assert _refused(wl, ops, _replace(results, named, lambda r: (
        not r[0], r[1], not r[2], tuple(not v for v in r[3]))))
    assert _refused(wl, ops, _replace(results, 0, lambda r: (r[0], r[1], not r[2], r[3])))
    flipped = [(not r[0],) + r[1:] for r in results]
    assert wl.check_end(ops, flipped, random.Random(0))


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    wl = workloads.CliBatch(seed=5, out_dir=str(tmp_path_factory.mktemp("out")))
    return wl, _answers(wl, wl.rounds[0])


def _edit_line(wl, ops, texts, pick):
    index = next(i for i, (req, exp) in enumerate(ops) if pick(req, exp))
    return index, json.loads(texts[index])


def test_batch_mix_is_even(batch):
    wl, _ = batch
    counts = Counter(req["cmd"] for req, _ in wl.lines)
    assert len(counts) == 8 and len(set(counts.values())) == 1, counts


def test_batch_checker(batch):
    wl, (ops, texts) = batch
    negative = len(workloads.batch_requests.NEGATIVE_SLOPE_LINES)
    assert wl.check_round(ops, texts) == (negative, [])
    assert _refused(wl, ops, texts[:10] + texts[11:])
    assert _refused(wl, ops, texts[:10] + [texts[11], texts[10]] + texts[12:])

    def changed(pick, change):
        index, answer = _edit_line(wl, ops, texts, pick)
        return _replace(texts, index, lambda text: json.dumps(change(answer)) + "\n")

    assert _refused(wl, ops, changed(
        lambda req, exp: exp["cmd"] == "interval" and wl.pool[exp["key"]][1][0] == "knot",
        lambda ans: dict(ans, lo="9/1")))
    assert _refused(wl, ops, changed(
        lambda req, exp: exp["cmd"] == "check" and wl.pool[exp["key"]][1][0] != "free"
        and not exp.get("may_fail"),
        lambda ans: dict(ans, lspace=not ans["lspace"])))
    assert _refused(wl, ops, changed(
        lambda req, exp: exp["cmd"] == "glue" and req["input"]["phi"][0][1] != 0,
        lambda ans: dict(ans, lspace=not ans["lspace"])))
    # a batch that stops early leaves its last lines unanswered: failed
    assert wl.check_round(ops, texts[:-3])[0] == negative + 3


# --- very small runs ----------------------------------------------------------

def test_tiny_glue_run(glue):
    wl, (ops, _) = glue
    wl.rounds = [ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = worker.measure(wl, 0, tracer, array("d"))
    finally:
        tracer.uninstall()
    assert run["attempted"] >= worker.MIN_OPS
    assert run["attempted"] % len(ops) == 0  # whole passes
    assert len(run["pass_throughputs"]) == run["attempted"] // len(ops)
    assert (run["failed"], run["problem_count"]) == (0, 0)
    layers = tracer.metrics(run["attempted"], 0)
    assert layers["gluing.spliced_manifold.calls"]["value"] > 0
    assert layers["gluing.spliced_manifold.support_classes"]["value"] > 0


@pytest.mark.parametrize("workload", ["oracle-sweep", "sfs-sweep", "cli-batch"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= worker.MIN_OPS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == names


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.metric_specs()


def test_refuses_without_source_tree(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload",
                           "sfs-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""
