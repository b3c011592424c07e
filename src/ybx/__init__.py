"""Exact solver for all anti-commuting solutions of AXA = XAX.

Given a square complex matrix A with exact spectral data, this package finds
every matrix B with A*B = -B*A and A*B*A = B*A*B, working entirely over the
Gaussian rationals.  The computation runs through the Jordan structure of A:
the linear anti-commuting constraint is solved block pair by block pair, the
quadratic condition reduces to the nilpotent part, and the resulting small
polynomial system is split into explicit solution branches with side
conditions.  Independent oracles (vectorized kernels, grid enumeration,
randomized membership checks) verify the results.
"""

from . import errors
from .anticommutant import (
    AnticommutantBasis,
    anticommutant_basis,
    anticommutant_in_original,
)
from .jordan import (
    JordanBlockSpec,
    JordanSpec,
    SimilarityData,
    assemble_jordan,
    jordan_form,
    nilpotent_part,
    similarity_from_jordan,
    validate_similarity,
)
from .matrices import ExactMatrix, mat_inverse, mat_mul, null_space_basis, rref
from .oracle import (
    OracleReport,
    cross_check_anticommutant,
    grid_enumerate_solutions,
    kron_anticommutant_kernel,
    verify_family_membership,
)
from .polynomials import (
    ParamMatrix,
    ParamPolynomial,
    RationalFunction,
    format_polynomial,
    format_rational_function,
    parse_polynomial,
    parse_rational_function,
)
from .scalars import GaussianRational, format_scalar, parse_scalar
from .solver import (
    SolutionBranch,
    SolutionFamily,
    branch_matrix,
    build_constraint_system,
    residual_ybe,
    sample,
    solve,
    solve_branches,
    to_original,
)

__version__ = "0.1.0"

__all__ = [
    "AnticommutantBasis",
    "ExactMatrix",
    "GaussianRational",
    "JordanBlockSpec",
    "JordanSpec",
    "OracleReport",
    "ParamMatrix",
    "ParamPolynomial",
    "RationalFunction",
    "SimilarityData",
    "SolutionBranch",
    "SolutionFamily",
    "anticommutant_basis",
    "anticommutant_in_original",
    "assemble_jordan",
    "branch_matrix",
    "build_constraint_system",
    "cross_check_anticommutant",
    "errors",
    "format_polynomial",
    "format_rational_function",
    "format_scalar",
    "grid_enumerate_solutions",
    "jordan_form",
    "kron_anticommutant_kernel",
    "mat_inverse",
    "mat_mul",
    "nilpotent_part",
    "null_space_basis",
    "parse_polynomial",
    "parse_rational_function",
    "parse_scalar",
    "residual_ybe",
    "rref",
    "sample",
    "similarity_from_jordan",
    "solve",
    "solve_branches",
    "to_original",
    "validate_similarity",
    "verify_family_membership",
]
