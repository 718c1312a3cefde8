"""Exact-arithmetic computation of L-space Dehn-filling intervals from
torsion data, with a Seifert fibered classifier, torus-gluing criteria,
and an independent coloring oracle cross-validating every decision path.
"""

from .abelian import (FinAbGroup, GluingMatrix, GroupElement, Slope,
                      pairing_and_label, smith_normal_form)
from .projline import ProjInterval
from .torsion import (FloerSimpleManifold, dtau, gamma_closed, hfk_support,
                      iota_coordinates, manifold_from_json, manifold_to_json,
                      milnor_invariants, tau_coefficient, validate_manifold)
from .interval import (check_corollary_consistency, is_lspace_slope,
                       lspace_interval, nls_detected, validate_witness)

__all__ = [
    "FinAbGroup", "GroupElement", "Slope", "GluingMatrix", "ProjInterval",
    "FloerSimpleManifold", "smith_normal_form", "pairing_and_label",
    "validate_manifold", "tau_coefficient",
    "milnor_invariants", "dtau", "gamma_closed", "hfk_support",
    "iota_coordinates", "manifold_from_json", "manifold_to_json",
    "validate_witness", "is_lspace_slope", "lspace_interval",
    "check_corollary_consistency", "nls_detected",
]
