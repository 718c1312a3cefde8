import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import lspace
from lspace.cli import COMMANDS, main

DATA = Path(__file__).parent / "data"
TREFOIL = str(DATA / "trefoil.json")


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_interval_trefoil():
    code, out = run_cli("interval", str(DATA / "trefoil.json"))
    assert code == 0
    assert json.loads(out) == {"kind": "closed", "lo": "1/1", "hi": "1/0"}


def test_interval_all_but_longitude():
    code, out = run_cli("interval", str(DATA / "n2.json"))
    assert code == 0
    assert json.loads(out) == {"kind": "all-but-longitude"}


def test_check_negative_slope():
    code, out = run_cli("check", str(DATA / "trefoil.json"), "--slope", "-1/1")
    assert code == 0
    assert json.loads(out) == {"lspace": False, "consistent": True}


def test_sfs_inline_euler_zero():
    code, out = run_cli("sfs", '{"e0":-1,"fibers":[[1,2],[1,2]]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["lspace"] is False
    assert doc["reason"] == "euler-zero"


def test_sfs_fiber_flag():
    code, out = run_cli("sfs", '{"e0":-1,"fibers":[[1,2],[1,3],[1,5]]}',
                        "--fiber", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["lspace"] is True
    assert doc["fiber_thresholds"] == ["0/1", "1/5"]


def test_dtau_listing():
    code, out = run_cli("dtau", str(DATA / "t25.json"))
    assert code == 0
    doc = json.loads(out)
    assert [d["delta"] for d in doc["dtau_positive"]] == [1, 3]


def test_glue_true_with_transcript():
    code, out = run_cli("glue", str(DATA / "glue_true.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["lspace"] is True
    assert doc["conditions"]["L"] and doc["conditions"]["I"]
    rows = [r for r in doc["conditions"]["transcript"] if r["tag"] == "L.iii"]
    assert rows == [{"tag": "L.iii", "at": [5, 9, 35], "value": 37,
                     "threshold": 35}]


def test_glue_not_qhs():
    code, out = run_cli("glue", str(DATA / "glue_false.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["lspace"] is False
    assert doc["reason"] == "NotRationalHomologySphere"


def test_glue_hypothesis_exit_code():
    doc = json.loads((DATA / "glue_true.json").read_text())
    doc["phi"] = [[1, 1], [4, 3]]
    code, out = run_cli("glue", json.dumps(doc))
    assert code == 2
    assert json.loads(out)["error"] == "HypothesisNotMet"


def test_validation_error_exit_code():
    bad = {"torsion_orders": [], "iota_m": {"free": 1, "torsion": []},
           "iota_l": {"free": 0, "torsion": []},
           "tauc_support": [{"free": 0, "torsion": []}]}
    code, out = run_cli("dtau", json.dumps(bad))
    assert code == 1
    assert json.loads(out)["error"] == "ZeroInComplement"


def test_parse_error_reports_location():
    code, out = run_cli("dtau", '{"torsion_orders": [,]}')
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "ParseError"
    assert "line" in doc and "column" in doc


def test_oracle_subcommand():
    code, out = run_cli("oracle", str(DATA / "trefoil.json"), "--nu", "2/1")
    assert code == 0
    assert json.loads(out) == {"lspace": True}
    code, out = run_cli("oracle", str(DATA / "trefoil.json"),
                        "--mu", "3/1", "--nu", "-1/1")
    assert json.loads(out) == {"lspace": False}


def test_cfd_dot_and_twist():
    code, out = run_cli("cfd", str(DATA / "n2.json"))
    assert code == 0
    assert out.startswith("digraph cfd {")
    code, out = run_cli("cfd", str(DATA / "n2.json"), "--twist-compare")
    assert json.loads(out) == {"twist_compare": True, "gst": True}


def test_gst_report():
    code, out = run_cli("gst", str(DATA / "n3.json"))
    doc = json.loads(out)
    assert doc["gst"] is True and doc["twist_compare"] is True
    assert doc["g"] == 3 and doc["k"] == 1


def test_deterministic_output():
    first = run_cli("interval", str(DATA / "t25.json"))
    second = run_cli("interval", str(DATA / "t25.json"))
    assert first == second
    d1 = run_cli("cfd", str(DATA / "n3.json"))
    d2 = run_cli("cfd", str(DATA / "n3.json"))
    assert d1 == d2


def test_batch_mode(tmp_path):
    trefoil_doc = json.loads((DATA / "trefoil.json").read_text())
    lines = [
        {"cmd": "interval", "input": trefoil_doc},
        {"cmd": "sfs", "input": {"e0": -1, "fibers": [[1, 2], [1, 2]]}},
        {"cmd": "check", "input": trefoil_doc, "args": {"slope": "2/1"}},
    ]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out = run_cli("--batch", str(batch))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["index"] for r in rows] == [0, 1, 2]
    assert rows[0]["kind"] == "closed"
    assert rows[1]["reason"] == "euler-zero"
    assert rows[2]["lspace"] is True


def test_selftest_runs():
    os.environ["LSPACE_SELFTEST_SEED"] = "0"
    code, out = run_cli("selftest")
    assert code == 0
    assert out.count("PASS") == 9
    assert json.loads(out.strip().splitlines()[-1])["ok"] is True


def test_batch_negative_slope_matches_single(tmp_path):
    trefoil_doc = json.loads((DATA / "trefoil.json").read_text())
    lines = [{"cmd": "check", "input": trefoil_doc, "args": {"slope": "-1/1"}},
             {"cmd": "oracle", "input": trefoil_doc, "args": {"nu": "-1/1"}}]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out = run_cli("--batch", str(batch))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    _, single = run_cli("check", str(DATA / "trefoil.json"), "--slope", "-1/1")
    assert rows[0] == dict(json.loads(single), index=0)
    assert rows[1] == {"lspace": False, "index": 1}


def _trefoil_with(**changes):
    doc = json.loads((DATA / "trefoil.json").read_text())
    doc.update(changes)
    return doc


def _data_with(name, value, *path):
    """The document tests/data/NAME with the node at PATH set to VALUE."""
    doc = json.loads((DATA / name).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


SFS = {"e0": -1, "fibers": [[1, 2], [1, 3], [1, 5]]}

# an integer field takes a JSON integer only, so from "torsion-float-l" on
# each float or bool below is MalformedInput, not a number read as an int
MALFORMED = {
    "order-one": ("interval", json.dumps(_trefoil_with(torsion_orders=[1]))),
    "no-iota-l": ("interval", json.dumps({k: v for k, v in _trefoil_with().items()
                                          if k != "iota_l"})),
    "list-record": ("dtau", json.dumps([_trefoil_with()])),
    "torsion-float-l": ("interval",
                        json.dumps(_data_with("n2.json", [1.5], "iota_l", "torsion"))),
    "torsion-float-m": ("interval",
                        json.dumps(_data_with("n2.json", [1.5], "iota_m", "torsion"))),
    "free-float": ("interval", json.dumps(_data_with("n2.json", 2.0, "iota_m", "free"))),
    "witness-bool": ("interval", json.dumps(_data_with("n2.json", True, "witness", "a"))),
    "order-float": ("interval", json.dumps(_data_with("n2.json", [2.0], "torsion_orders"))),
    "e0-float": ("sfs", json.dumps(dict(SFS, e0=0.5))),
    "fiber-bool": ("sfs", json.dumps(dict(SFS, fibers=[[1, 2], [True, 3], [1, 5]]))),
    "phi-float": ("glue",
                  json.dumps(_data_with("glue_true.json", [[1.5, 1], [4, 3]], "phi"))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_record(case):
    code, out = run_cli(*MALFORMED[case])
    assert code == 1
    assert json.loads(out)["error"] == "MalformedInput"


def test_malformed_slope():
    code, out = run_cli("check", str(DATA / "trefoil.json"), "--slope", "0/0")
    assert code == 1
    assert json.loads(out)["error"] == "MalformedInput"


def test_batch_answers_lines_after_malformed(tmp_path):
    trefoil_doc = _trefoil_with()
    lines = [{"cmd": "interval", "input": _trefoil_with(torsion_orders=[1])},
             {"cmd": "check", "input": trefoil_doc, "args": {"slope": "0/0"}},
             {"cmd": "interval",
              "input": _data_with("n2.json", [1.5], "iota_l", "torsion")},
             {"cmd": "interval", "input": trefoil_doc}]
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out = run_cli("--batch", str(batch))
    assert code == 1
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    assert rows[0]["error"] == rows[1]["error"] == rows[2]["error"] == "MalformedInput"
    assert rows[3]["kind"] == "closed"


def _run_batch_lines(tmp_path, lines):
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join(lines) + "\n")
    code, out = run_cli("--batch", str(batch))
    return code, [json.loads(line) for line in out.strip().splitlines()]


NOT_REQUESTS = ['[1, 2]', '"x"', '{"cmd": ["a"]}', '{"cmd": "interval", "args": [1]}']


@pytest.mark.parametrize("line", NOT_REQUESTS)
def test_batch_line_not_a_request(tmp_path, line):
    good = json.dumps({"cmd": "interval", "input": _trefoil_with()})
    code, rows = _run_batch_lines(tmp_path, [line, good])
    assert code == 1
    assert rows[0] == {"error": "ParseError", "index": 0}
    assert rows[1] == {"kind": "closed", "lo": "1/1", "hi": "1/0", "index": 1}


REFUSED_ARGS = {
    "missing-required": ("check", {}),
    "unknown-option": ("check", {"slope": "2/1", "extra": "1"}),
    "underscore-name": ("oracle", {"nu": "2/1", "window_scale": 2}),
    "value-for-flag": ("cfd", {"twist-compare": "true"}),
    "flag-for-value": ("check", {"slope": True}),
    "not-an-int": ("oracle", {"nu": "2/1", "window-scale": 2.0}),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ARGS))
def test_batch_refuses_options_as_the_command_line_does(tmp_path, case):
    cmd, args = REFUSED_ARGS[case]
    line = json.dumps({"cmd": cmd, "input": _trefoil_with(), "args": args})
    code, rows = _run_batch_lines(tmp_path, [line])
    assert code == 1
    assert rows == [{"error": "ParseError", "index": 0}]


@pytest.mark.parametrize("case", sorted(REFUSED_ARGS))
def test_command_line_refuses_what_a_batch_line_refuses(tmp_path, capsys, case):
    cmd, args = REFUSED_ARGS[case]
    options = ["--" + name if value is True else "--%s=%s" % (name, value)
               for name, value in args.items()]
    code, out = run_cli(cmd, TREFOIL, *options)
    line = json.dumps({"cmd": cmd, "input": _trefoil_with(), "args": args})
    _, rows = _run_batch_lines(tmp_path, [line])
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out) == {k: v for k, v in rows[0].items() if k != "index"}
    assert capsys.readouterr().err == ""


USAGE_ERRORS = {
    "abbreviated-option": ["oracle", TREFOIL, "--nu", "2/1", "--window", "2"],
    "abbreviated-flag": ["cfd", TREFOIL, "--twist"],
    "repeated-option": ["check", TREFOIL, "--slope", "2/1", "--slope", "-1/1"],
    "not-an-int": ["sfs", str(DATA / "sfs_poincare_like.json"), "--fiber", "abc"],
    "no-input": ["interval"],
    "two-inputs": ["interval", TREFOIL, TREFOIL],
    "unknown-command": ["intervals", TREFOIL],
    "no-command": [],
    "batch-without-file": ["--batch"],
    "selftest-option": ["selftest", "--fast"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_command_line_usage_error_is_parse_error(capsys, case):
    assert run_cli(*USAGE_ERRORS[case]) == (1, '{"error": "ParseError"}\n')
    assert capsys.readouterr().err == ""


def test_option_spellings_and_places_give_one_answer():
    answers = {run_cli(*argv) for argv in [
        ("check", TREFOIL, "--slope", "-1/1"), ("check", TREFOIL, "--slope=-1/1"),
        ("check", "--slope", "-1/1", TREFOIL), ("check", "--slope=-1/1", TREFOIL)]}
    assert answers == {(0, '{"consistent": true, "lspace": false}\n')}
    n2 = str(DATA / "n2.json")
    answers = {run_cli(*argv) for argv in [("cfd", n2, "--twist-compare"),
                                           ("cfd", "--twist-compare", n2)]}
    assert answers == {(0, '{"gst": true, "twist_compare": true}\n')}


def test_process_streams_and_exit_codes():
    env = dict(os.environ, PYTHONPATH=str(Path(lspace.__file__).parents[1]))

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "lspace.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    assert run("check", TREFOIL) == (1, '{"error": "ParseError"}\n', "")
    doc = json.loads((DATA / "glue_true.json").read_text())
    doc["phi"] = [[1, 1], [4, 3]]
    code, out, err = run("glue", json.dumps(doc))
    assert (code, json.loads(out)["error"], err) == (2, "HypothesisNotMet", "")
    code, out, err = run("--help")
    assert (code, err) == (0, "")
    for name, command in COMMANDS.items():
        assert name in out
        for option in command.options:
            assert "--" + option in out


def test_oracle_without_mu_or_witness_is_missing_witness(tmp_path):
    record = {k: v for k, v in _trefoil_with().items() if k != "witness"}
    code, out = run_cli("oracle", json.dumps(record), "--nu", "2/1")
    assert code == 1
    assert json.loads(out)["error"] == "MissingWitness"
    lines = [json.dumps({"cmd": "oracle", "input": doc, "args": {"nu": "2/1"}})
             for doc in (record, _trefoil_with())]
    code, rows = _run_batch_lines(tmp_path, lines)
    assert code == 1
    assert rows == [dict(json.loads(out), index=0), {"lspace": True, "index": 1}]


def test_batch_reads_option_values_as_strings(tmp_path):
    lines = [json.dumps({"cmd": "oracle", "input": _trefoil_with(),
                         "args": {"nu": "5/2", "window-scale": scale}})
             for scale in (2, "2")]
    code, rows = _run_batch_lines(tmp_path, lines)
    _, single = run_cli("oracle", str(DATA / "trefoil.json"), "--nu", "5/2",
                        "--window-scale", "2")
    assert code == 0
    assert rows == [dict(json.loads(single), index=i) for i in (0, 1)]


@pytest.mark.parametrize("argv", [("--framing", "1/1"),
                                  ("--mu", "5/1", "--framing", "1/1")],
                         ids=["auto-mu", "pairing-4"])
def test_cfd_bad_framing_is_named(argv):
    code, out = run_cli("cfd", str(DATA / "trefoil.json"), *argv)
    assert code == 1
    assert json.loads(out)["error"] == "InvalidFraming"


@pytest.mark.parametrize("data,fiber,error", [
    ('{"e0":0,"fibers":[[1,2],[1,3]]}', "-1", "MalformedInput"),
    ('{"e0":0,"fibers":[[1,2],[1,3]]}', "2", "MalformedInput"),
    ('{"e0":0,"fibers":[[1,2]]}', "0", "TooFewFibers"),
], ids=["negative", "past-end", "one-fiber"])
def test_sfs_fiber_out_of_range(data, fiber, error):
    code, out = run_cli("sfs", data, "--fiber", fiber)
    assert code == 1
    assert json.loads(out)["error"] == error


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_oracle_window_scale_below_one(scale):
    code, out = run_cli("oracle", str(DATA / "trefoil.json"), "--nu", "2/1",
                        "--window-scale", scale)
    assert code == 1
    assert json.loads(out)["error"] == "MalformedInput"


def test_selftest_exit_code_on_failure(monkeypatch):
    import lspace.selftest
    from lspace.selftest import CriterionResult
    monkeypatch.setattr(lspace.selftest, "run_selftest",
                        lambda **kwargs: [CriterionResult("broken", False, "", 0.0)])
    code, out = run_cli("selftest")
    assert code == 1
    assert json.loads(out) == {"passed": 0, "failed": 1, "ok": False}


def test_selftest_seed_not_an_integer(monkeypatch):
    monkeypatch.setenv("LSPACE_SELFTEST_SEED", "x")
    code, out = run_cli("selftest")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "MalformedInput"
    assert "LSPACE_SELFTEST_SEED" in doc["message"]


def test_batch_file_missing(tmp_path):
    code, out = run_cli("--batch", str(tmp_path / "missing.jsonl"))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "MalformedInput"
    assert doc["message"].startswith("FileNotFoundError")


def test_document_is_a_directory(tmp_path):
    code, out = run_cli("dtau", str(tmp_path))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "MalformedInput"
    assert doc["message"].startswith("IsADirectoryError")


@pytest.mark.parametrize("arg", ["missing.json", "records/t25.json", "5"])
def test_mistyped_path_is_malformed_input(arg):
    # neither an existing path nor JSON text: a path that is not there
    code, out = run_cli("dtau", arg)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "MalformedInput"
    assert doc["message"].startswith("FileNotFoundError")
    assert repr(arg) in doc["message"]


def test_batch_file_not_utf8(tmp_path):
    path = tmp_path / "batch.jsonl"
    path.write_bytes(b'\xff\xfe{"cmd": "dtau", "input": {}}\n')
    code, out = run_cli("--batch", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "MalformedInput"
    assert doc["message"].startswith("UnicodeDecodeError")


def test_glue_retwisted_piece_finds_a_judicious_slope():
    from lspace.corpus import trefoil
    from lspace.torsion import manifold_to_json, retwist
    doc = {"y1": manifold_to_json(retwist(trefoil(), 10)),
           "y2": manifold_to_json(trefoil()), "phi": [[-1, 1], [0, 1]]}
    code, out = run_cli("glue", json.dumps(doc))
    assert code == 0
    answer = json.loads(out)
    assert answer["lspace"] is False
    assert answer["judicious"]["mu1"] == "5/-46"
    assert answer["conditions"]["L"] is False and answer["conditions"]["I"] is False


def test_glue_search_exhausted_is_named(monkeypatch):
    import lspace.gluing
    monkeypatch.setattr(lspace.gluing, "JUDICIOUS_MAX_P", 1)
    code, out = run_cli("glue", str(DATA / "glue_true.json"))
    assert code == 1
    assert json.loads(out)["error"] == "SearchExhausted"
