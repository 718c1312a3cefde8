"""Seeded request file for the cli-batch workload.

Each line is one `lspace --batch` request; `expectations(seed)` pairs
every line with what its answer must satisfy.  Regenerate a file with

    PYTHONPATH=src python3 bench/batch_requests.py --seed 3 > requests.jsonl

The mix is synthetic: there is no recorded batch traffic to follow, so
every one of the eight subcommands gets the same number of lines.  That
number is the number of glue lines, which the pieces fix: every usable
matrix on every pair of small pieces once (a few of them cost forty times
the rest, so they are not drawn), the paper's worked example and shear,
and one q* = 0 gluing of each pair in QSTAR0_PIECES.  Within a
subcommand the variants take turns.  The seed draws the random records,
the slopes, the Seifert data and the order of the lines.
"""

import argparse
import json
import random
import sys
from itertools import combinations_with_replacement
from math import gcd

import reference as ref

# The leading minus is read by argparse as an option, so these two
# requests are refused with ParseError (see CHANGES.md).  They do not
# depend on the seed and sit at fixed lines, so every run of the file has
# the same share of failed requests.
NEGATIVE_SLOPE_LINES = {
    100: ("check", "T23", {"slope": "-1/1"}),
    600: ("oracle", "T23", {"nu": "-1/1"}),
}

KNOTS = {"T23": (2, 3), "T25": (2, 5), "T27": (2, 7), "T34": (3, 4), "T35": (3, 5)}
RANDOM_RECORDS = 2   # of each family: over Z, and with torsion Z/2
GLUE_PIECES = ("T23", "T25", "ST", "N2", "N3")
WORKED_EXAMPLE = [[3, -5], [1, -2]]
NAMED_SFS = (((-1, [(1, 2), (1, 3), (1, 5)]), True),
             ((-1, [(1, 2), (1, 3), (1, 7)]), False))
SHEAR = [[1, 0], [1, -1]]
QSTAR0_PIECES = (("ST", "ST"), ("T23", "ST"), ("N2", "N3"))


def gluing_matrices(bound):
    """Determinant -1 matrices with entries in [-bound, bound], q* != 0 and
    a nonzero diagonal, one of each pair {phi, -phi} (they give the same
    spliced record).  A zero diagonal entry lets the judicious search run
    far out (p = 52 for T(2,5) with N_5), which makes the cost of a pair
    bimodal."""
    span = range(-bound, bound + 1)
    return [((a, b), (c, d)) for a in span for b in span for c in span for d in span
            if a * d - b * c == -1 and b and a > 0 and d]


def slopes(bound):
    """Every slope (a, b) with 0 <= a <= bound and abs(b) <= bound."""
    return [(a, b) for a in range(0, bound + 1) for b in range(-bound, bound + 1)
            if (a, b) != (0, 0) and ref.normalize_slope(a, b) == (a, b)]


def _text(slope):
    return "%d/%d" % slope


def record_pool(seed):
    """Records by key, with what is known about them apart from lspace:
    ("knot", a, b), ("all",) for every slope but the longitude, or
    ("free",) for seeded random records."""
    from lspace.corpus import random_records
    from lspace.errors import LSpaceError
    from lspace.torsion import hfk_support, manifold_to_json

    pool = {key: (ref.torus_knot_record(*ab), ("knot",) + ab)
            for key, ab in KNOTS.items()}
    pool["ST"] = (ref.solid_torus_record(), ("all",))
    for g in (2, 3, 4, 5):
        pool["N%d" % g] = (ref.n_g_record(g), ("all",))
    taken = {"Z": 0, "T": 0}
    for Y in random_records(seed=seed, count=24):
        family = "T" if Y.group.torsion_orders else "Z"
        if taken[family] == RANDOM_RECORDS:
            continue
        try:
            hfk_support(Y, Y.witness)  # the oracle needs a coherent witness
        except LSpaceError:
            continue
        pool["R%s%d" % (family, taken[family])] = (manifold_to_json(Y), ("free",))
        taken[family] += 1
    if sum(taken.values()) != 2 * RANDOM_RECORDS:
        raise RuntimeError("seed %d gives too few usable random records" % seed)
    return pool


def _glue_docs(pool):
    """Every gluing of two small pieces by a matrix of gluing_matrices(2)
    that meets the overlap hypothesis."""
    from lspace.errors import HypothesisNotMet
    from lspace.gluing import splice_from_json, splice_is_lspace

    out = []
    for i, k1 in enumerate(GLUE_PIECES):
        for k2 in GLUE_PIECES[i:]:
            for rows in gluing_matrices(2):
                doc = {"y1": pool[k1][0], "y2": pool[k2][0],
                       "phi": [list(r) for r in rows]}
                try:
                    splice_is_lspace(splice_from_json(doc))
                except HypothesisNotMet:
                    continue
                out.append((doc, {"pieces": (k1, k2)}))
    return out


def fiber(rng, s):
    """An exceptional fiber r/s with a seeded numerator 0 < r < s prime to s."""
    return rng.choice([r for r in range(1, s) if gcd(r, s) == 1]), s


def _sfs_data(rng, dens):
    return rng.randint(-3, 0), [fiber(rng, s) for s in rng.sample(dens, len(dens))]


def _glue_lines(rng, pool):
    """The glue lines: _glue_docs, the worked example and the shear on two
    trefoils, and a seeded q* = 0 gluing of each QSTAR0_PIECES pair."""
    glue = _glue_docs(pool)
    trefoils = {"y1": pool["T23"][0], "y2": pool["T23"][0]}
    glue.append((dict(trefoils, phi=WORKED_EXAMPLE), {"worked": True}))
    glue.append((dict(trefoils, phi=SHEAR), {"pieces": ("T23", "T23")}))
    for k1, k2 in QSTAR0_PIECES:
        sign = rng.choice((1, -1))
        phi = [[sign, 0], [rng.randint(-2, 2), -sign]]
        glue.append(({"y1": pool[k1][0], "y2": pool[k2][0], "phi": phi},
                     {"pieces": (k1, k2)}))
    return [[("glue", None, None, dict(exp, doc=doc, phi=doc["phi"]))]
            for doc, exp in glue]


def _units(rng, pool, per_command):
    """Every request but the opening interval lines and the fixed negative
    slope lines, as units of lines that stay together: per_command lines
    of each subcommand, counting those fixed lines.  Records and Seifert
    denominators take turns rather than being drawn, since their cost
    differs several times over; with variants that alternate, each record
    takes two lines in turn so that it meets both variants."""
    keys = sorted(pool)
    known = [k for k in keys if pool[k][1][0] != "free"]
    all_slopes = slopes(8)
    nus = [s for s in all_slopes if s[0] != 0]
    fixed = [cmd for cmd, _, _ in NEGATIVE_SLOPE_LINES.values()]
    units = []
    for i in range(per_command - len(keys)):
        units.append([("interval", keys[i % len(keys)], None, {})])
    for i in range(per_command - fixed.count("check")):
        slope = rng.choice(all_slopes)
        units.append([("check", keys[i % len(keys)], {"slope": _text(slope)},
                       {"slope": slope})])
    # the cost of a window-2 sweep grows with the slope, so slopes take
    # turns in a seeded order, each meeting both windows
    nus = rng.sample(nus, len(nus))
    for i in range(per_command - fixed.count("oracle")):
        nu = nus[i // 2 % len(nus)]
        args = {"nu": _text(nu), "window-scale": 2} if i % 2 else {"nu": _text(nu)}
        units.append([("oracle", keys[i // 2 % len(keys)], args, {"slope": nu})])
    for i in range(per_command):
        units.append([("dtau", keys[i % len(keys)], None, {})])
        units.append([("gst", known[i % len(known)], None, {})])
        twist = bool(i % 2)
        units.append([("cfd", known[i // 2 % len(known)],
                       {"twist-compare": True} if twist else None, {"twist": twist})])
    # a space, then its orientation reversal asked with --fiber; the named
    # spaces open the list, then every multiset of three denominators in 2..7
    # in turn
    denominators = list(combinations_with_replacement(range(2, 8), 3))
    for i in range(0, per_command, 2):
        j = i // 2 - len(NAMED_SFS)
        data, want = NAMED_SFS[i // 2] if j < 0 else \
            (_sfs_data(rng, denominators[j % len(denominators)]), None)
        unit = [_sfs_line(data, want, None)]
        if i + 1 < per_command:
            unit.append(_sfs_line(ref.sfs_reversed(*data), want, rng.randrange(len(data[1])),
                                  same_as_first=True))
        units.append(unit)
    return units


def _sfs_line(data, want, fiber_index, same_as_first=False):
    doc = {"e0": data[0], "fibers": [list(f) for f in data[1]]}
    exp = {"doc": doc, "data": data, "want": want, "fiber": fiber_index}
    if same_as_first:
        exp["same_as"] = None  # the unit's first line, set when laid out
    args = None if fiber_index is None else {"fiber": fiber_index}
    return "sfs", None, args, exp


def expectations(seed):
    """The request lines of one file and, for each, the expectation its
    answer is checked against."""
    rng = random.Random(seed)
    pool = record_pool(seed)
    glue = _glue_lines(rng, pool)
    units = _units(rng, pool, len(glue)) + glue
    rng.shuffle(units)
    lines = []

    def add(cmd, key, args, exp):
        while len(lines) in NEGATIVE_SLOPE_LINES:
            neg_cmd, neg_key, neg_args = NEGATIVE_SLOPE_LINES[len(lines)]
            slope = ref.parse_slope(next(iter(neg_args.values())))
            lines.append(({"cmd": neg_cmd, "input": pool[neg_key][0], "args": neg_args},
                          {"cmd": neg_cmd, "key": neg_key, "slope": slope, "may_fail": True}))
        req = {"cmd": cmd, "input": pool[key][0] if key else exp.pop("doc")}
        if args:
            req["args"] = args
        exp.update(cmd=cmd, key=key)
        lines.append((req, exp))
        return len(lines) - 1

    # every record's interval comes first: the slope lines of a random
    # record are checked against it
    for key in sorted(pool):
        add("interval", key, None, {})
    for unit in units:
        first = None
        for cmd, key, args, exp in unit:
            if "same_as" in exp:
                exp["same_as"] = first
            index = add(cmd, key, args, exp)
            first = index if first is None else first
    if len(lines) != 8 * len(glue):
        raise RuntimeError("request file has %d lines, not %d" % (len(lines), 8 * len(glue)))
    return lines, pool


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    lines, _ = expectations(args.seed)
    for req, _ in lines:
        sys.stdout.write(json.dumps(req, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
