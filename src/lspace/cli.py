"""Command-line interface: JSON in, JSON (or DOT) out.

Inputs are file paths or inline JSON documents.  All rationals are
serialized as "numerator/denominator" strings; slopes use the (m, l)
Dehn-filling basis with the sign normalization.  A command line
COMMAND INPUT [OPTIONS] becomes the request {"cmd", "input", "args"} that
a --batch line holds, and handle() alone reads and checks its options
(spelled in full, at most once each) from the rows of COMMANDS.  Exit
codes: 0 on success, 2 when the gluing hypothesis is not met, and 1 on
validation errors (the error class name is reported verbatim in the
"error" field), on a usage error (ParseError), on a file that cannot be
read and on a failed selftest.
"""

import errno
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from .abelian import Slope
from .cfd import build_cfd, cfd_to_dot, cfd_twist_compare
from .coloring import surgery_is_lspace_oracle
from .errors import HypothesisNotMet, LSpaceError, MalformedInput, reads_input
from .gluing import (condition_systems, judicious_slope, splice_from_json,
                     splice_is_lspace)
from .interval import (check_corollary_consistency, is_lspace_slope,
                       lspace_interval)
from .seifert import sfs_fiber_interval, sfs_from_json, sfs_is_lspace
from .torsion import (dtau, manifold_from_json, milnor_invariants,
                      validate_manifold)


def _load_document(arg):
    """A document given as a file path or as inline JSON text.  An
    argument that is neither an existing path nor text opening a JSON
    object, list or string is taken for a mistyped path."""
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            return json.load(fh)
    if not arg.lstrip().startswith(("{", "[", '"')):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), arg)
    return json.loads(arg)


def _unreadable(exc):
    """The answer to a file that cannot be read: MalformedInput."""
    return {"error": MalformedInput.__name__,
            "message": "%s: %s" % (type(exc).__name__, exc)}


@reads_input
def _slope_arg(text):
    num, _, den = text.partition("/")
    return Slope(int(num), int(den if den else 1))


def _frac(x):
    if x is None:
        return "1/0"
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def _interval_doc(result):
    if result.kind == "all-but-longitude":
        return {"kind": "all-but-longitude"}
    return {"kind": "closed", "lo": str(result.lo), "hi": str(result.hi)}


def cmd_interval(manifold, witness=None):
    Y = manifold_from_json(manifold)
    witness = _slope_arg(witness) if witness else None
    return _interval_doc(lspace_interval(Y, witness))


def cmd_check(manifold, slope, witness=None):
    Y = manifold_from_json(manifold)
    witness = _slope_arg(witness) if witness else Y.witness
    mu = _slope_arg(slope)
    return {"lspace": is_lspace_slope(Y, witness, mu),
            "consistent": check_corollary_consistency(Y, witness, mu)}


def cmd_dtau(manifold):
    Y = manifold_from_json(manifold)
    data = dtau(Y)
    def row(d):
        element = Y.iota_ab(d.delta, d.gamma)
        return {"delta": d.delta, "gamma": d.gamma,
                "element": {"free": element.free, "torsion": list(element.torsion)}}
    return {"dtau": [row(d) for d in data.all],
            "dtau_positive": [row(d) for d in data.positive]}


def cmd_sfs(data, fiber=None):
    d = sfs_from_json(data)
    verdict = sfs_is_lspace(d)
    out = {"lspace": verdict.lspace, "reason": verdict.reason,
           "euler": _frac(verdict.euler)}
    if fiber is not None:
        iv = sfs_fiber_interval(d, fiber)
        out["fiber_thresholds"] = [_frac(iv.t_lower), _frac(iv.t_upper)]
    return out


def cmd_glue(data):
    prob = splice_from_json(data)
    verdict = splice_is_lspace(prob)
    out = {"lspace": verdict.lspace, "reason": verdict.reason}
    if verdict.reason != "NotRationalHomologySphere":
        js = judicious_slope(prob)
        l_rep, i_rep = condition_systems(js)
        out["judicious"] = {"mu1": str(js.mu1), "mu2": str(js.mu2),
                            "q_star": js.q_star}
        out["conditions"] = {
            "L": l_rep.holds, "I": i_rep.holds,
            "transcript": [
                {"tag": tag, "at": list(at) if isinstance(at, tuple) else at,
                 "value": _frac(val) if isinstance(val, Fraction) else val,
                 "threshold": thr}
                for tag, at, val, thr in l_rep.checks + i_rep.checks],
        }
    return out


def cmd_oracle(manifold, nu, mu=None, window_scale=1):
    Y = manifold_from_json(manifold)
    mu = _slope_arg(mu) if mu else Y.witness
    nu = _slope_arg(nu)
    return {"lspace": surgery_is_lspace_oracle(Y, mu, nu,
                                               window_scale=window_scale)}


def cmd_cfd(manifold, mu=None, framing=None, twist_compare=False):
    Y = manifold_from_json(manifold)
    if twist_compare:
        rep = cfd_twist_compare(Y)
        out = {"twist_compare": rep.isomorphic, "gst": rep.gst}
        if rep.note:
            out["note"] = rep.note
        return out
    mu = _slope_arg(mu) if mu else None
    lam = _slope_arg(framing) if framing else None
    build = build_cfd(Y, mu=mu, lam=lam)
    return cfd_to_dot(build)


def cmd_gst(manifold):
    Y = manifold_from_json(manifold)
    rep = validate_manifold(Y)
    mil = milnor_invariants(Y)
    twist = cfd_twist_compare(Y)
    out = {"g": rep.g, "k": rep.k, "norm": mil.norm, "monic": mil.monic,
           "gst": mil.gst, "twist_compare": twist.isomorphic}
    if twist.note:
        out["note"] = twist.note
    return out


def cmd_selftest(full):
    from .selftest import run_selftest
    try:
        seed = int(os.environ.get("LSPACE_SELFTEST_SEED", "0"))
    except ValueError as exc:
        return {"error": MalformedInput.__name__, "message": "LSPACE_SELFTEST_SEED: %s" % exc}
    results = run_selftest(seed=seed, full=full, echo=True)
    return {"passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
            "ok": all(r.passed for r in results)}


Command = namedtuple("Command", "handler help input options required",
                     defaults=((),))

# Every subcommand but selftest.  An option, named as on the command line
# without "--", is a slope string (str), an int or a flag (bool).
COMMANDS = {
    "interval": Command(cmd_interval, "L-space filling interval", "manifold",
                        {"witness": str}),
    "check": Command(cmd_check, "decide one filling slope", "manifold",
                     {"slope": str, "witness": str}, ("slope",)),
    "dtau": Command(cmd_dtau, "difference set listing", "manifold", {}),
    "sfs": Command(cmd_sfs, "Seifert fibered classifier", "data", {"fiber": int}),
    "glue": Command(cmd_glue, "torus gluing verdict", "data", {}),
    "oracle": Command(cmd_oracle, "coloring oracle verdict", "manifold",
                      {"mu": str, "nu": str, "window-scale": int}, ("nu",)),
    "cfd": Command(cmd_cfd, "train-track graph (DOT)", "manifold",
                   {"mu": str, "framing": str, "twist-compare": bool}),
    "gst": Command(cmd_gst, "generalized solid torus report", "manifold", {}),
}


def _option(kind, value):
    """A request's option value as the command line reads "--name=value":
    str(value) in the option's type.  A flag is the bare "--name", so only
    true."""
    if (kind is bool) != (value is True):
        raise ValueError(value)
    return True if kind is bool else kind(str(value))


def handle(request):
    """Answer one request {"cmd": name, "input": document, "args": options}.

    Returns (exit code, answer), the answer a dict or DOT text.  A request
    whose command, option names or option values the table refuses is
    answered ParseError."""
    try:
        command = COMMANDS[request["cmd"]]
        args = request.get("args", {})
        kwargs = {name.replace("-", "_"): _option(command.options[name], value)
                  for name, value in args.items()}
        if not set(command.required) <= set(args):
            raise KeyError(command.required)
    except (AttributeError, KeyError, TypeError, ValueError):
        return 1, {"error": "ParseError"}
    try:
        return 0, command.handler(request.get("input", {}), **kwargs)
    except HypothesisNotMet as exc:
        return 2, {"error": exc.name, "message": str(exc)}
    except LSpaceError as exc:
        return 1, {"error": exc.name, "message": str(exc)}


def _emit(doc, out):
    if isinstance(doc, str):
        out.write(doc)
    else:
        out.write(json.dumps(doc, sort_keys=True) + "\n")


def _run_batch(path, out):
    worst = 0
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        _emit(_unreadable(exc), out)
        return 1
    for index, line in enumerate(lines):
        try:
            code, answer = handle(json.loads(line))
        except json.JSONDecodeError:
            code, answer = 1, {"error": "ParseError"}
        if isinstance(answer, str):
            answer = {"dot": answer.rstrip("\n")}
        out.write(json.dumps(dict(answer, index=index), sort_keys=True) + "\n")
        worst = max(worst, code)
    return worst


def _usage():
    """The help text, written from COMMANDS."""
    lines = ["usage: lspace COMMAND INPUT [OPTIONS]   (INPUT: a path or inline JSON)",
             "       lspace --batch FILE              (one JSON request per line)",
             "       lspace selftest [--full]         (the cross-validation corpus)",
             "Options are spelled in full, each at most once.  Commands:"]
    for name, command in COMMANDS.items():
        words = [name, command.input.upper()]
        for option, kind in command.options.items():
            word = "--" + option + {bool: "", int: " N", str: " SLOPE"}[kind]
            words.append(word if option in command.required else "[%s]" % word)
        lines += ["  " + " ".join(words), "      " + command.help]
    return "\n".join(lines) + "\n"


def _request(argv):
    """The request of a command line COMMAND INPUT [OPTIONS], INPUT still
    unread, or None for any other line or an option given twice.  Options
    stay raw text: "--name=value", "--name value" (the next word, whatever
    its sign) or a bare "--name" (True) for a flag or a last word."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    words, options = [], {}
    rest = iter(argv)
    for word in rest:
        if not word.startswith("--"):
            words.append(word)
            continue
        name, eq, value = word[2:].partition("=")
        if not eq:
            value = True if command.options.get(name) is bool else next(rest, True)
        if name in options:
            return None
        options[name] = value
    if len(words) != 2:
        return None
    return {"cmd": words[0], "input": words[1], "args": options}


def main(argv=None):
    """Answer one command line and return its exit code.  Any line but
    --help, --batch FILE, selftest [--full] or a request is answered
    ParseError, as a --batch line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] in (["-h"], ["--help"]):
        sys.stdout.write(_usage())
        return 0
    if argv[:1] == ["--batch"] and len(argv) == 2:
        return _run_batch(argv[1], sys.stdout)
    if argv[:1] == ["selftest"] and argv[1:] in ([], ["--full"]):
        answer = cmd_selftest(full=len(argv) == 2)
        _emit(answer, sys.stdout)
        return 0 if answer.get("ok") else 1
    request = _request(argv)
    if request is None:
        _emit({"error": "ParseError"}, sys.stdout)
        return 1
    try:
        request["input"] = _load_document(request["input"])
    except json.JSONDecodeError as exc:
        _emit({"error": "ParseError", "message": exc.msg, "line": exc.lineno,
               "column": exc.colno}, sys.stdout)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        _emit(_unreadable(exc), sys.stdout)
        return 1
    code, answer = handle(request)
    _emit(answer, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
