"""The invariants are named errors, not assertions: they hold under
python -O and reach the command line as InvariantViolation."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lspace.gluing
import lspace.seifert
from lspace.abelian import FinAbGroup, GroupElement, Slope
from lspace.cli import handle
from lspace.errors import InvariantViolation
from lspace.torsion import FloerSimpleManifold, validate_manifold

ROOT = Path(__file__).parent.parent


def test_gluing_suite_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(ROOT / "tests" / name) for name in
           ("test_gluing.py", "test_seifert.py", "test_cfd.py", "test_golden_cli.py",
            "test_torsion.py", "test_interval.py", "test_abelian.py", "test_corpus.py",
            "test_projline.py", "test_input_types.py"))],
        capture_output=True, text=True, cwd=ROOT, env=env)
    assert run.returncode == 0, run.stdout + run.stderr
    assert " passed" in run.stdout


def test_invariant_violation_reaches_handle(monkeypatch):
    # a longitude that does not pair to 1 with the meridian breaks the
    # Bezout identity of the judicious slope
    monkeypatch.setattr(lspace.gluing, "canonical_longitude",
                        lambda mu: (Slope(0, 1), 0, 1))
    document = json.loads((ROOT / "tests" / "data" / "glue_true.json").read_text())
    code, answer = handle({"cmd": "glue", "input": document})
    assert code == 1
    assert answer["error"] == "InvariantViolation"
    assert answer["message"]


def test_seifert_forms_disagreeing_is_named(monkeypatch):
    # a remainder bracket around the Euler number makes the orbifold form
    # call an L-space a non-L-space
    monkeypatch.setattr(lspace.seifert, "_remainder_bracket",
                        lambda fibers, s: (Fraction(-100), Fraction(100)))
    document = json.loads((ROOT / "tests" / "data" / "sfs_poincare_like.json").read_text())
    code, answer = handle({"cmd": "sfs", "input": document})
    assert code == 1
    assert answer["error"] == "InvariantViolation"
    assert answer["message"].startswith("criterion forms disagree")


def test_longitude_order_mismatch_is_named(monkeypatch):
    # an order of iota(l) that its enumeration does not confirm
    monkeypatch.setattr(FinAbGroup, "torsion_order_of", lambda self, x: 2)
    Y = FloerSimpleManifold(group=FinAbGroup(()), iota_m=GroupElement(2, ()),
                            iota_l=GroupElement(0, ()), tauc_support=())
    with pytest.raises(InvariantViolation, match="<iota\\(l\\)> has 1 elements, not g = 2"):
        validate_manifold(Y)
