import pytest

from lspace.abelian import GroupElement, Slope
from lspace.coloring import color, surgery_is_lspace_oracle
from lspace.corpus import n_g, random_records, solid_torus, t25, trefoil
from lspace.errors import LongitudeFilling, MalformedInput, NotFloerSimpleSlope
from lspace.interval import is_lspace_slope
from lspace.selftest import all_slopes, valid_witnesses
from lspace.torsion import filling_homology_order, hfk_support


def test_color_examples():
    Y = trefoil()
    mu = Slope(3, 1)
    assert color(Y, mu, GroupElement(6, ())) == "red"     # 6 = 0 + 2*3
    assert color(Y, mu, GroupElement(-1, ())) == "blue"   # -1 = 2 - 3
    assert color(Y, mu, GroupElement(2, ())) == "black"


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
    for Y, w in ((trefoil(), Slope(3, 1)), (t25(), Slope(4, 1)),
                 (n_g(2), Slope(1, 0))):
        for nu in all_slopes(6):
            if nu.dot_l == 0:
                continue
            try:
                v1 = surgery_is_lspace_oracle(Y, w, nu, window_scale=1)
            except NotFloerSimpleSlope:
                continue
            v2 = surgery_is_lspace_oracle(Y, w, nu, window_scale=2)
            assert v1 == v2
