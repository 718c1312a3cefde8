import pytest

from lspace.abelian import GroupElement, Slope
from lspace.coloring import color, surgery_is_lspace_oracle
from lspace.corpus import n_g, random_records, solid_torus, t25, trefoil
from lspace.errors import (LongitudeFilling, LSpaceError, MalformedInput,
                           NotFloerSimpleSlope)
from lspace.interval import is_lspace_slope
from lspace.selftest import all_slopes, valid_witnesses
from lspace.torsion import filling_homology_order, hfk_support


def test_color_examples():
    Y = trefoil()
    mu = Slope(3, 1)
    assert color(Y, mu, GroupElement(6, ())) == "red"     # 6 = 0 + 2*3
    assert color(Y, mu, GroupElement(-1, ())) == "blue"   # -1 = 2 - 3
    assert color(Y, mu, GroupElement(2, ())) == "black"


def reference_color(Y, mu, h):
    """color by decomposing h in H_1(Y) itself: h = black + k iota(mu)
    for exactly one k in the free window of the support."""
    iota_mu = Y.iota(mu)
    if iota_mu.free == 0:
        raise LongitudeFilling("the longitude is not a filling slope here")
    blacks = hfk_support(Y, iota_mu)
    frees = [x.free for x in blacks]
    G = Y.group
    found = [k for k in range(-((max(frees) - h.free) // iota_mu.free),
                              (h.free - min(frees)) // iota_mu.free + 1)
             if G.sub(h, G.scale(k, iota_mu)) in blacks]
    if len(found) != 1:
        raise NotFloerSimpleSlope("class %r decomposes %d times" % (h, len(found)))
    return "black" if found[0] == 0 else ("red" if found[0] > 0 else "blue")


def _answer(f, *args):
    try:
        return f(*args)
    except LSpaceError as exc:
        return type(exc)


def test_color_matches_decomposition_in_h1_on_torsion_records():
    records = [n_g(2), n_g(3), n_g(4)]
    records += [Y for Y in random_records(seed=0) if Y.group.torsion_orders]
    compared = 0
    for Y in records:
        torsions = [t.torsion for t in Y.group.torsion_elements()]
        for w in valid_witnesses(Y, 4):
            for free in range(-4, 10):
                for t in torsions:
                    h = GroupElement(free, t)
                    assert _answer(color, Y, w, h) == _answer(reference_color, Y, w, h), (Y, w, h)
                    compared += 1
    assert compared > 3000


def test_oracle_examples():
    assert surgery_is_lspace_oracle(solid_torus(), Slope(1, 0), Slope(7, 3))
    assert surgery_is_lspace_oracle(trefoil(), Slope(3, 1), Slope(2, 1))
    assert not surgery_is_lspace_oracle(t25(), Slope(4, 1), Slope(2, 1))
    with pytest.raises(LongitudeFilling):
        surgery_is_lspace_oracle(trefoil(), Slope(3, 1), Slope(0, 1))
    with pytest.raises(NotFloerSimpleSlope):
        surgery_is_lspace_oracle(trefoil(), Slope(1, 0), Slope(5, 1))


@pytest.mark.parametrize("scale", [0, -1])
def test_oracle_refuses_window_scale_below_one(scale):
    with pytest.raises(MalformedInput):
        surgery_is_lspace_oracle(trefoil(), Slope(3, 1), Slope(2, 1), window_scale=scale)


def test_black_count_matches_homology():
    for Y, mu in ((trefoil(), Slope(3, 1)), (t25(), Slope(4, 1)),
                  (n_g(2), Slope(1, 0)), (n_g(3), Slope(2, 1))):
        assert len(hfk_support(Y, mu)) == filling_homology_order(Y, mu)


def cross_validate(Y, witnesses, slopes, window_scale=1):
    mismatches = []
    skipped = 0
    for w in witnesses:
        for nu in slopes:
            if nu.dot_l == 0:
                continue
            try:
                got = surgery_is_lspace_oracle(Y, w, nu, window_scale=window_scale)
            except NotFloerSimpleSlope:
                skipped += 1
                continue
            want = is_lspace_slope(Y, w, nu)
            if got != want:
                mismatches.append((w, nu, got, want))
    return mismatches, skipped


@pytest.mark.parametrize("name", ["trefoil", "t25", "n2", "solid"])
def test_oracle_agrees_with_interval_criterion(name):
    Y = {"trefoil": trefoil(), "t25": t25(), "n2": n_g(2),
         "solid": solid_torus()}[name]
    witnesses = valid_witnesses(Y, 6)
    slopes = all_slopes(8)
    mismatches, _ = cross_validate(Y, witnesses, slopes)
    assert not mismatches, mismatches[:5]


def test_oracle_on_random_records():
    for Y in random_records(seed=7, count=3):
        witnesses = valid_witnesses(Y, 5)[:6]
        mismatches, _ = cross_validate(Y, witnesses, all_slopes(6))
        assert not mismatches, (Y, mismatches[:5])


def test_window_doubling_stability():
    # N_3, N_4 and a random record with torsion walk cosets whose torsion moves
    torsion_record = next(Y for Y in random_records(seed=0) if Y.group.torsion_orders)
    for Y, w in ((trefoil(), Slope(3, 1)), (t25(), Slope(4, 1)),
                 (n_g(2), Slope(1, 0)), (n_g(3), Slope(1, 0)), (n_g(4), Slope(1, 0)),
                 (torsion_record, torsion_record.witness)):
        for nu in all_slopes(6):
            if nu.dot_l == 0:
                continue
            try:
                v1 = surgery_is_lspace_oracle(Y, w, nu, window_scale=1)
            except NotFloerSimpleSlope:
                continue
            v2 = surgery_is_lspace_oracle(Y, w, nu, window_scale=2)
            assert v1 == v2
