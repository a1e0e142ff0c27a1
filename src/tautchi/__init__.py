"""Exact Euler characteristics of induced (tautological) bundles on Hilbert
schemes of points on a surface.  The brute-force verification of the
underlying chain complexes, `tautchi.complexes`, is imported only on use."""

from .surface import (BundleSpec, ChernCharacter, DivisorClass, SurfaceModel,
                      ch_add, ch_dual, ch_hom, ch_sym_cotangent, ch_tensor,
                      hrr_chi, k3, p1xp1, p2, sym_pow_chi)
from .euler import (ChiResult, chi_ext_power_two, chi_hom_pair_two,
                    chi_product_invariants, chi_sym_power_two, chi_taut,
                    chi_taut_product_two, chi_taut_triple, diagonal_multiplicity,
                    global_sections_dim, top_cohomology_dim)

__all__ = [
    "BundleSpec", "ChernCharacter", "ChiResult", "DivisorClass",
    "SurfaceModel", "ch_add", "ch_dual", "ch_hom", "ch_sym_cotangent",
    "ch_tensor", "chi_ext_power_two", "chi_hom_pair_two",
    "chi_product_invariants", "chi_sym_power_two", "chi_taut",
    "chi_taut_product_two", "chi_taut_triple", "diagonal_multiplicity",
    "global_sections_dim", "hrr_chi", "k3", "p1xp1", "p2", "sym_pow_chi",
    "top_cohomology_dim",
]

__version__ = "0.1.0"
