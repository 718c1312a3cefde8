import pytest

from lspace.abelian import GluingMatrix
from lspace.corpus import n_g, trefoil
from lspace.errors import HypothesisNotMet
from lspace.gluing import SpliceProblem, judicious_slope, spliced_manifold


def glue_sweep_matrices():
    """The determinant -1 matrices with entries in [-2, 2], a nonzero
    diagonal and a negative upper-right entry."""
    span = range(-2, 3)
    return [GluingMatrix.from_rows([[a, b], [c, d]])
            for a in span for b in span for c in span for d in span
            if a * d - b * c == -1 and b < 0 and a > 0 and d]


@pytest.fixture(scope="session")
def spliced_records():
    """Spliced records with torsion and long supports: Y12, the worked
    example's gluing of two trefoils, and N_3 glued to N_5 under every
    matrix of glue_sweep_matrices whose interval interiors overlap."""
    records = [spliced_manifold(judicious_slope(SpliceProblem(
        trefoil(), trefoil(), GluingMatrix.from_rows([[3, -5], [1, -2]])))).record]
    for phi in glue_sweep_matrices():
        try:
            js = judicious_slope(SpliceProblem(n_g(3), n_g(5), phi))
        except HypothesisNotMet:
            continue
        records.append(spliced_manifold(js).record)
    return records
