"""Exact Euler characteristics of induced (tautological) bundles on Hilbert
schemes of points on a surface, with brute-force verification of the
underlying combinatorial chain complexes."""

from .surface import (BundleSpec, ChernCharacter, DivisorClass, SurfaceModel,
                      ch_add, ch_dual, ch_hom, ch_sym_cotangent, ch_tensor,
                      hrr_chi, k3, p1xp1, p2, sym_pow_chi)
from .euler import (ChiResult, chi_ext_power_two, chi_hom_pair_two,
                    chi_product_invariants, chi_sym_power_two, chi_taut,
                    chi_taut_product_two, chi_taut_triple, global_sections_dim,
                    top_cohomology_dim)
from .complexes import (build_complex, diagonal_multiplicity,
                        swap_invariant_kernel_dim, sym_power_multiplicity,
                        verify_exactness)

__all__ = [
    "BundleSpec", "ChernCharacter", "ChiResult", "DivisorClass",
    "SurfaceModel", "build_complex", "ch_add", "ch_dual", "ch_hom",
    "ch_sym_cotangent", "ch_tensor", "chi_ext_power_two", "chi_hom_pair_two",
    "chi_product_invariants", "chi_sym_power_two", "chi_taut",
    "chi_taut_product_two", "chi_taut_triple", "diagonal_multiplicity",
    "global_sections_dim", "hrr_chi", "k3", "p1xp1",
    "p2", "swap_invariant_kernel_dim", "sym_power_multiplicity",
    "sym_pow_chi", "top_cohomology_dim", "verify_exactness",
]

__version__ = "0.1.0"
