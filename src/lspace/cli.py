"""Command-line interface: JSON in, JSON (or DOT) out.

Inputs are file paths or inline JSON documents.  All rationals are
serialized as "numerator/denominator" strings; slopes use the (m, l)
Dehn-filling basis with the sign normalization.  Exit codes: 0 on
success, 1 on validation errors (the error class name is reported
verbatim in the "error" field), 2 when the gluing hypothesis is not met.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .abelian import Slope
from .cfd import build_cfd, cfd_to_dot, cfd_twist_compare
from .coloring import surgery_is_lspace_oracle
from .errors import HypothesisNotMet, LSpaceError, reads_input
from .gluing import (condition_systems, judicious_slope, splice_from_json,
                     splice_is_lspace)
from .interval import (check_corollary_consistency, is_lspace_slope,
                       lspace_interval)
from .seifert import (sfs_fiber_interval, sfs_from_json, sfs_is_lspace,
                      sfs_normalize)
from .torsion import (dtau, manifold_from_json, milnor_invariants,
                      validate_manifold)


def _load_document(arg):
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    else:
        text = arg
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ParseFailure(exc)


class _ParseFailure(Exception):
    def __init__(self, exc):
        self.detail = {"error": "ParseError", "message": exc.msg,
                       "line": exc.lineno, "column": exc.colno}


@reads_input
def _slope_arg(text):
    num, _, den = text.partition("/")
    return Slope(int(num), int(den if den else 1))


def _frac(x):
    if x is None:
        return "1/0"
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def _slope_str(s):
    return "%d/%d" % (s.a, s.b)


def _interval_doc(result):
    if result.kind == "all-but-longitude":
        return {"kind": "all-but-longitude"}
    if result.kind == "complement-of-point":
        return {"kind": "complement-of-point", "point": _slope_str(result.lo)}
    return {"kind": "closed", "lo": _slope_str(result.lo),
            "hi": _slope_str(result.hi)}


def cmd_interval(args):
    Y = manifold_from_json(_load_document(args.manifold))
    witness = _slope_arg(args.witness) if args.witness else None
    return _interval_doc(lspace_interval(Y, witness))


def cmd_check(args):
    Y = manifold_from_json(_load_document(args.manifold))
    witness = _slope_arg(args.witness) if args.witness else Y.witness
    mu = _slope_arg(args.slope)
    return {"lspace": is_lspace_slope(Y, witness, mu),
            "consistent": check_corollary_consistency(Y, witness, mu)}


def cmd_dtau(args):
    Y = manifold_from_json(_load_document(args.manifold))
    data = dtau(Y)
    def row(d):
        return {"delta": d.delta, "gamma": d.gamma,
                "element": {"free": d.element.free,
                            "torsion": list(d.element.torsion)}}
    return {"dtau": [row(d) for d in data.all],
            "dtau_positive": [row(d) for d in data.positive]}


def cmd_sfs(args):
    d = sfs_from_json(_load_document(args.data))
    verdict = sfs_is_lspace(d)
    out = {"lspace": verdict.lspace, "reason": verdict.reason,
           "euler": _frac(verdict.euler)}
    if args.fiber is not None:
        norm, _ = sfs_normalize(d)
        iv = sfs_fiber_interval(norm, args.fiber)
        out["fiber_thresholds"] = [_frac(iv.t_lower), _frac(iv.t_upper)]
    return out


def cmd_glue(args):
    prob = splice_from_json(_load_document(args.data))
    verdict = splice_is_lspace(prob)
    out = {"lspace": verdict.lspace, "reason": verdict.reason}
    if verdict.reason != "NotRationalHomologySphere":
        js = judicious_slope(prob)
        l_rep, i_rep = condition_systems(js)
        out["judicious"] = {"mu1": _slope_str(js.mu1), "mu2": _slope_str(js.mu2),
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


def cmd_oracle(args):
    Y = manifold_from_json(_load_document(args.manifold))
    mu = _slope_arg(args.mu) if args.mu else Y.witness
    nu = _slope_arg(args.nu)
    return {"lspace": surgery_is_lspace_oracle(Y, mu, nu,
                                               window_scale=args.window_scale)}


def cmd_cfd(args):
    Y = manifold_from_json(_load_document(args.manifold))
    if args.twist_compare:
        rep = cfd_twist_compare(Y)
        out = {"twist_compare": rep.isomorphic, "gst": rep.gst}
        if rep.note:
            out["note"] = rep.note
        return out
    mu = _slope_arg(args.mu) if args.mu else None
    lam = _slope_arg(args.framing) if args.framing else None
    build = build_cfd(Y, mu=mu, lam=lam)
    return cfd_to_dot(build)


def cmd_gst(args):
    Y = manifold_from_json(_load_document(args.manifold))
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lspace",
        description="L-space intervals, Seifert classification, torus "
                    "gluings, and coloring oracles from torsion data")
    parser.add_argument("--batch", help="process one JSON request per line")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("interval", help="L-space filling interval")
    p.add_argument("manifold")
    p.add_argument("--witness")
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("check", help="decide one filling slope")
    p.add_argument("manifold")
    p.add_argument("--slope", required=True)
    p.add_argument("--witness")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dtau", help="difference set listing")
    p.add_argument("manifold")
    p.set_defaults(func=cmd_dtau)

    p = sub.add_parser("sfs", help="Seifert fibered classifier")
    p.add_argument("data")
    p.add_argument("--fiber", type=int)
    p.set_defaults(func=cmd_sfs)

    p = sub.add_parser("glue", help="torus gluing verdict")
    p.add_argument("data")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("oracle", help="coloring oracle verdict")
    p.add_argument("manifold")
    p.add_argument("--mu")
    p.add_argument("--nu", required=True)
    p.add_argument("--window-scale", type=int, default=1)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("cfd", help="train-track graph (DOT)")
    p.add_argument("manifold")
    p.add_argument("--mu")
    p.add_argument("--framing")
    p.add_argument("--twist-compare", action="store_true")
    p.set_defaults(func=cmd_cfd)

    p = sub.add_parser("gst", help="generalized solid torus report")
    p.add_argument("manifold")
    p.set_defaults(func=cmd_gst)

    p = sub.add_parser("selftest", help="run the cross-validation corpus")
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return parser


def _emit(doc, out):
    if isinstance(doc, str):
        out.write(doc)
    else:
        out.write(json.dumps(doc, sort_keys=True) + "\n")


def _run_single(args, out):
    try:
        doc = args.func(args)
    except _ParseFailure as exc:
        _emit(exc.detail, out)
        return 1
    except HypothesisNotMet as exc:
        _emit({"error": exc.name, "message": str(exc)}, out)
        return 2
    except LSpaceError as exc:
        _emit({"error": exc.name, "message": str(exc)}, out)
        return 1
    _emit(doc, out)
    return 0


BATCH_COMMANDS = {"interval", "check", "dtau", "sfs", "glue", "oracle",
                  "cfd", "gst"}


def _run_batch(path, out):
    parser = build_parser()
    worst = 0
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    for index, line in enumerate(lines):
        try:
            request = json.loads(line)
            cmd = request["cmd"]
            if cmd not in BATCH_COMMANDS:
                raise KeyError(cmd)
            argv = [cmd, json.dumps(request.get("input", {}))]
            for key, value in request.get("args", {}).items():
                # one word per option, so a value such as "-1/1" stays a value
                if value is True:
                    argv.append("--%s" % key)
                else:
                    argv.append("--%s=%s" % (key, value))
            args = parser.parse_args(argv)
        except (json.JSONDecodeError, KeyError, SystemExit):
            out.write(json.dumps({"index": index, "error": "ParseError"},
                                 sort_keys=True) + "\n")
            worst = max(worst, 1)
            continue
        import io
        buf = io.StringIO()
        code = _run_single(args, buf)
        payload = buf.getvalue().rstrip("\n")
        try:
            body = json.loads(payload)
        except json.JSONDecodeError:
            body = {"dot": payload}
        body["index"] = index
        out.write(json.dumps(body, sort_keys=True) + "\n")
        worst = max(worst, code)
    return worst


_SLOPE_FLAGS = {"--slope", "--witness", "--mu", "--nu", "--framing"}


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
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    return _run_single(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
