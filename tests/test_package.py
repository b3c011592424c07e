import ybx

# the public surface, spelled out so that adding or removing a name is a
# deliberate edit here
PUBLIC_NAMES = [
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


def test_public_surface_is_pinned():
    assert sorted(ybx.__all__) == PUBLIC_NAMES
    assert all(getattr(ybx, name, None) is not None for name in ybx.__all__)
