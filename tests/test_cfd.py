import pytest

from lspace.abelian import Slope
from lspace.cfd import (build_cfd, cfd_to_dot, cfd_twist_compare,
                        euler_count_check)
from lspace.corpus import (gap_record, n_g, negative_trefoil, solid_torus, t25,
                           trefoil)

# the T(2,65) exterior: norm 63, so its framing slope has p = 64
T265 = gap_record(tuple(range(1, 64, 2)))
from lspace.errors import InvalidFraming
from lspace.torsion import filling_homology_order, retwist


def test_figure_reproduction():
    b = build_cfd(negative_trefoil(), mu=Slope(5, -1), lam=Slope(-9, 2))
    assert len(b.graph.v0) == 5
    assert len(b.graph.v1) == 9
    assert b.graph.arrow_counts() == {"D1": 5, "D3": 5, "D23": 4}
    assert all(v == 2 for v in b.graph.valences().values())


def test_solid_torus_chain():
    b = build_cfd(solid_torus())
    assert len(b.graph.v0) == 1
    assert all(v == 2 for v in b.graph.valences().values())


def test_cardinalities_match_homology():
    for Y in (negative_trefoil(), solid_torus(), n_g(2), n_g(3), T265):
        b = build_cfd(Y)
        assert len(b.graph.v0) == filling_homology_order(Y, b.mu)
        assert len(b.graph.v1) == filling_homology_order(Y, b.lam)


def test_euler_count():
    for Y in (negative_trefoil(), n_g(2), n_g(3), T265):
        b = build_cfd(Y)
        assert euler_count_check(Y, b) is True


def test_framing_stability():
    # rebuilding with one extra meridian twist gives an isomorphic graph
    Y = negative_trefoil()
    b1 = build_cfd(Y)
    lam_raw = (b1.lam0.a - (b1.twist_count + 1) * b1.mu.a,
               b1.lam0.b - (b1.twist_count + 1) * b1.mu.b)
    b2 = build_cfd(Y, mu=b1.mu, lam=Slope(*lam_raw))
    assert len(b2.graph.v0) == len(b1.graph.v0)
    assert b2.graph.arrow_counts()["D1"] == b1.graph.arrow_counts()["D1"]
    assert all(v == 2 for v in b2.graph.valences().values())


@pytest.mark.parametrize("piece,k,sizes", [(t25, 70, (4, 9)), (trefoil, 100, (2, 5))],
                         ids=["t25", "trefoil"])
def test_auto_framing_covariant_under_retwist(piece, k, sizes):
    # the untwisted records take mu = 4/1 and 2/1; in the basis
    # (m + k l, l) that slope is 4/(1 - 4k) and 2/(1 - 2k)
    for Y in (piece(), retwist(piece(), k)):
        b = build_cfd(Y)
        assert (len(b.graph.v0), len(b.graph.v1)) == sizes


@pytest.mark.parametrize("mu", [None, Slope(5, 1)])
def test_framing_refused_by_name(mu):
    with pytest.raises(InvalidFraming):
        build_cfd(trefoil(), mu=mu, lam=Slope(1, 1))


def test_twist_compare_family():
    for g in (2, 3, 4, 5):
        rep = cfd_twist_compare(n_g(g))
        assert rep.gst and rep.isomorphic
    assert cfd_twist_compare(solid_torus()).isomorphic


def test_twist_compare_non_gst():
    rep = cfd_twist_compare(trefoil())
    assert not rep.gst
    assert not rep.isomorphic
    assert rep.note == "NotGeneralizedSolidTorus"
    assert not cfd_twist_compare(t25()).isomorphic


def test_dot_output():
    b = build_cfd(negative_trefoil(), mu=Slope(5, -1), lam=Slope(-9, 2))
    dot = cfd_to_dot(b)
    assert dot.startswith("digraph cfd {")
    assert dot.count("rho1") == 5
    assert dot.count("rho3") == 5
    assert dot.count("rho23") == 4
    # deterministic output
    assert dot == cfd_to_dot(build_cfd(negative_trefoil(), mu=Slope(5, -1),
                                       lam=Slope(-9, 2)))
