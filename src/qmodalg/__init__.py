"""Exact symbolic engine for braided module algebras of classical quantum groups."""

from .algebras import (
    AlgebraHandle,
    GeneratorRef,
    build_akl,
    build_am,
    build_exterior,
    build_sq,
    tensor_oracle_product,
)
from .braiding import projectors, rcheck, rcheck_cabled, verify_braid_and_skein
from .invariants import (
    exterior_highest_weight,
    fft_verify,
    phi_partial,
    psi,
    psi_monomial_span,
    skew_duality_check,
    verify_relation_suite,
)
from .ncpoly import NCPolynomial, RewriteSystem
from .rootdata import (
    LieTypeSpec,
    irrep_dim_gl,
    natural_rep,
    quantum_dimension,
    rho_pairing,
    sigma_candidate,
)
from .scalar import Scalar, parse_scalar
from .uqaction import (
    act,
    invariant_basis,
    invariant_basis_json,
    invariant_pair_vector,
    is_invariant,
)

__all__ = [
    "AlgebraHandle",
    "GeneratorRef",
    "LieTypeSpec",
    "NCPolynomial",
    "RewriteSystem",
    "Scalar",
    "act",
    "build_akl",
    "build_am",
    "build_exterior",
    "build_sq",
    "exterior_highest_weight",
    "fft_verify",
    "invariant_basis",
    "invariant_basis_json",
    "invariant_pair_vector",
    "irrep_dim_gl",
    "is_invariant",
    "natural_rep",
    "parse_scalar",
    "phi_partial",
    "projectors",
    "psi",
    "psi_monomial_span",
    "quantum_dimension",
    "rcheck",
    "rcheck_cabled",
    "rho_pairing",
    "sigma_candidate",
    "skew_duality_check",
    "tensor_oracle_product",
    "verify_braid_and_skein",
    "verify_relation_suite",
]
__version__ = "0.1.0"
