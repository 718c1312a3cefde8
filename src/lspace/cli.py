"""Command-line interface: JSON in, JSON (or DOT) out.

Inputs are file paths or inline JSON documents.  All rationals are
serialized as "numerator/denominator" strings; slopes use the (m, l)
Dehn-filling basis with the sign normalization.  Exit codes: 0 on
success, 1 on validation errors (the error class name is reported
verbatim in the "error" field), on a file that cannot be read and on a
failed selftest, 2 when the gluing hypothesis is not met.
Every subcommand but selftest is one row of COMMANDS, and handle()
answers it alike for the command line and for each --batch line.
"""

import argparse
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


def cmd_selftest(args):
    from .selftest import run_selftest
    seed = int(os.environ.get("LSPACE_SELFTEST_SEED", "0"))
    results = run_selftest(seed=seed, full=args.full, echo=True)
    ok = all(r.passed for r in results)
    return {"passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
            "ok": ok}


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lspace",
        description="L-space intervals, Seifert classification, torus "
                    "gluings, and coloring oracles from torsion data")
    parser.add_argument("--batch", help="process one JSON request per line")
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        # options not given stay out of the namespace, as out of a request
        p = sub.add_parser(name, help=command.help,
                           argument_default=argparse.SUPPRESS)
        p.add_argument(command.input)
        for option, kind in command.options.items():
            if kind is bool:
                p.add_argument("--" + option, action="store_true")
            else:
                p.add_argument("--" + option, type=kind,
                               required=option in command.required)

    p = sub.add_parser("selftest", help="run the cross-validation corpus")
    p.add_argument("--full", action="store_true")
    return parser


def _option(kind, value):
    """A request's option value as argparse reads "--name=value": str(value)
    in the option's type.  A flag is the bare "--name", so only true."""
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


_SLOPE_FLAGS = {"--" + option for command in COMMANDS.values()
                for option, kind in command.options.items() if kind is str}


def _merge_slope_flags(argv):
    """Join slope flags with negative values ("--slope -1/1") so argparse
    does not mistake the value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _SLOPE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_slope_flags(list(argv)))
    if args.batch:
        return _run_batch(args.batch, sys.stdout)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "selftest":
        answer = cmd_selftest(args)
        _emit(answer, sys.stdout)
        return 0 if answer["ok"] else 1
    command = COMMANDS[args.command]
    try:
        document = _load_document(getattr(args, command.input))
    except json.JSONDecodeError as exc:
        _emit({"error": "ParseError", "message": exc.msg, "line": exc.lineno,
               "column": exc.colno}, sys.stdout)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        _emit(_unreadable(exc), sys.stdout)
        return 1
    options = {key.replace("_", "-"): value for key, value in vars(args).items()
               if key not in ("batch", "command", command.input)}
    code, answer = handle({"cmd": args.command, "input": document, "args": options})
    _emit(answer, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
