"""Byte-for-byte CLI output on the sample records in tests/data.

Each case names one command line; tests/data/golden/<case>.out holds its
standard output and exit_codes.json its exit code.  All the cases sent as
one --batch file must give the same documents, each tagged with its index.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lspace.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
MANIFOLDS = ("trefoil", "t25", "n2", "n3", "solid_torus")
ORACLE_SLOPES = {"trefoil": ("2/1", "-1/1", "5/2"), "t25": ("7/2", "-3/1"),
                 "n2": ("3/1", "-1/2"), "n3": ("2/1", "-5/3"),
                 "solid_torus": ("4/3", "-1/1")}
CHECK_SLOPES = ("-1/1", "2/1", "1/0", "0/1", "7/3", "-5/2")


def _cases():
    cases = {}
    for name in MANIFOLDS:
        path = "%s.json" % name
        cases["interval_%s" % name] = ("interval", path)
        cases["dtau_%s" % name] = ("dtau", path)
        cases["gst_%s" % name] = ("gst", path)
        cases["cfd_%s" % name] = ("cfd", path)
        cases["cfd_twist_%s" % name] = ("cfd", path, "--twist-compare")
        for i, slope in enumerate(CHECK_SLOPES):
            cases["check_%s_%d" % (name, i)] = ("check", path, "--slope", slope)
        for i, nu in enumerate(ORACLE_SLOPES[name]):
            for scale in ("1", "2"):
                cases["oracle_%s_%d_w%s" % (name, i, scale)] = (
                    "oracle", path, "--nu", nu, "--window-scale", scale)
    cases["interval_trefoil_witness"] = ("interval", "trefoil.json", "--witness", "2/1")
    cases["check_trefoil_witness"] = ("check", "trefoil.json", "--slope", "4/1",
                                      "--witness", "5/1")
    cases["oracle_trefoil_mu"] = ("oracle", "trefoil.json", "--mu", "2/1", "--nu", "-1/1")
    cases["cfd_trefoil_mu"] = ("cfd", "trefoil.json", "--mu", "5/1")
    cases["sfs"] = ("sfs", "sfs_poincare_like.json")
    for j in range(3):
        cases["sfs_fiber_%d" % j] = ("sfs", "sfs_poincare_like.json", "--fiber", str(j))
    cases["glue_true"] = ("glue", "glue_true.json")
    cases["glue_false"] = ("glue", "glue_false.json")
    cases["interval_trefoil_boundary_witness"] = ("interval", "trefoil.json",
                                                  "--witness", "1/1")
    cases["oracle_trefoil_longitude"] = ("oracle", "trefoil.json", "--nu", "0/1")
    return cases


CASES = _cases()


def run_case(argv):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    code, out = run_case(CASES[case])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[case]
    assert out == (GOLDEN / ("%s.out" % case)).read_text()


def _request(argv):
    """The --batch request for a golden command line."""
    cmd, path, *rest = argv
    args, i = {}, 0
    while i < len(rest):
        if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            args[rest[i][2:]] = rest[i + 1]
            i += 2
        else:
            args[rest[i][2:]] = True
            i += 1
    return {"cmd": cmd, "input": json.loads((DATA / path).read_text()), "args": args}


def test_batch_matches_single_commands(tmp_path):
    names = sorted(CASES)
    batch = tmp_path / "golden.jsonl"
    batch.write_text("".join(json.dumps(_request(CASES[n])) + "\n" for n in names))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--batch", str(batch)])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == max(codes[n] for n in names)
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(rows) == len(names)
    for index, (name, row) in enumerate(zip(names, rows)):
        single = (GOLDEN / ("%s.out" % name)).read_text()
        if single.startswith("digraph"):
            expected = {"dot": single.rstrip("\n")}
        else:
            expected = json.loads(single)
        assert row == dict(expected, index=index), name
