"""Bundled example problems 4.1 and 4.2 with their expected (golden) results.

Example 4.1 is an 8x8 rational matrix with eigenvalues {0, 1, -1} whose
anti-commuting solution set is a single two-parameter family; the golden data
pins every entry of the original-coordinates template.  Example 4.2 is the
nilpotent Jordan matrix diag[J_3(0), J_4(0)] given directly by its block
data; the golden data pins the reduced six-equation constraint system and the
four solution families, stated in the as-given block order (3 before 4)
with the short parameter names k11..k44.  The canonical layout used by the
solver puts the size-4 block first; COORDS_42_CANONICAL_TO_GIVEN translates.
"""

from __future__ import annotations

from fractions import Fraction

from .formats import ProblemInput
from .jordan import JordanSpec
from .matrices import ExactMatrix
from .polynomials import ParamMatrix, ParamPolynomial, parse_polynomial, parse_rational_function
from .scalars import GaussianRational, _over
from .solver import SolutionBranch

# -- example 4.1 ------------------------------------------------------------

_A41_NUMERATORS = [
    [12, 9, -66, 21, 36, 36, 0, 9],
    [-12, 57, 0, 12, -36, 30, 33, 57],
    [64, 4, 88, -64, -72, -72, 0, 4],
    [2, -4, -55, 31, 39, 6, 0, -4],
    [90, 18, 99, -90, -93, -93, 0, 18],
    [-8, 16, 22, 8, -24, 9, 0, 16],
    [11, -22, -55, -11, 33, 33, -66, 11],
    [52, -5, 55, -52, -42, -42, -33, -5],
]
_A41_DENOMINATOR = 33

_W41 = [
    [1, 2, 2, 1, 1, 1, 0, 0],
    [1, 1, 0, 0, 2, 2, 1, 0],
    [4, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [6, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 2, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, 1],
    [3, 0, 0, 0, 0, 0, -1, 0],
]

_SPEC41_PAIRS = [(0, (3,)), (1, (3,)), (-1, (2,))]

# template coefficients of x and y, each times 33
_B41_X33 = [
    [4, -8, -11, -4, 12, 12, 0, -8],
    [4, -8, -11, -4, 12, 12, 0, -8],
    [16, -32, -44, -16, 48, 48, 0, -32],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [24, -48, -66, -24, 72, 72, 0, -48],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [12, -24, -33, -12, 36, 36, 0, -24],
]
_B41_Y33 = [
    [8, 17, 44, -8, -42, -42, 0, 17],
    [12, 9, 33, -12, -30, -30, 0, 9],
    [64, 4, 88, -64, -72, -72, 0, 4],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [96, 6, 132, -96, -108, -108, 0, 6],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [48, 3, 66, -48, -54, -54, 0, 3],
]


def example_41_matrix() -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[Fraction(x, _A41_DENOMINATOR) for x in row] for row in _A41_NUMERATORS]
    )


def example_41_w() -> ExactMatrix:
    return ExactMatrix.from_rows(_W41)


def example_41_spec() -> JordanSpec:
    return JordanSpec.from_pairs(_SPEC41_PAIRS)


def example_41_problem() -> ProblemInput:
    """The (matrix, eigenvalues) form of example 4.1."""
    return ProblemInput(
        matrix=example_41_matrix(),
        eigenvalues=(GaussianRational(0), GaussianRational(1), GaussianRational(-1)),
    )


def example_41_problem_jw() -> ProblemInput:
    """The direct (jordan, w) form of example 4.1."""
    return ProblemInput(spec=example_41_spec(), w=example_41_w())


def example_41_golden_template() -> ParamMatrix:
    """The expected original-coordinates template, entries (cx*x + cy*y)/33."""
    entries = (
        ParamPolynomial.from_dict({("x",): _over(cx, 0, 33), ("y",): _over(cy, 0, 33)})
        for rx, ry in zip(_B41_X33, _B41_Y33)
        for cx, cy in zip(rx, ry)
    )
    return ParamMatrix(8, 8, tuple(entries))


# -- example 4.2 ------------------------------------------------------------

_SPEC42_PAIRS = [(0, (3, 4))]  # as-given block order: J_3(0) first


def example_42_spec() -> JordanSpec:
    return JordanSpec.from_pairs(_SPEC42_PAIRS)


def example_42_problem() -> ProblemInput:
    return ProblemInput(spec=example_42_spec(), w=None)


# Short names: k1m..k4m are the pattern coefficients of the four blocks of a
# 2x2 block partition in the as-given (3, 4) order: K1 is 3x3, K2 is 3x4,
# K3 is 4x3, K4 is 4x4.
GOLDEN_42_SYSTEM = (
    "k11",
    "k41",
    "k22*k31",
    "k22+k12*k22+k22*k42",
    "-k31+k12*k31-k31*k42",
    "k23*k31-k22*k32-k42-k42*k42",
)

# The four expected solution families over those names: pinned parameters and
# side conditions; everything unmentioned is free.
GOLDEN_42_FAMILIES = (
    {
        "assignments": {"k11": "0", "k41": "0", "k22": "0", "k31": "0", "k42": "0"},
        "disequalities": (),
    },
    {
        "assignments": {"k11": "0", "k41": "0", "k22": "0", "k31": "0", "k42": "-1"},
        "disequalities": (),
    },
    {
        "assignments": {
            "k11": "0",
            "k41": "0",
            "k31": "0",
            "k12": "-1-k42",
            "k32": "(-k42-k42*k42)/(k22)",
        },
        "disequalities": ("k22",),
    },
    {
        "assignments": {
            "k11": "0",
            "k41": "0",
            "k22": "0",
            "k12": "1+k42",
            "k23": "(k42+k42*k42)/(k31)",
        },
        "disequalities": ("k31",),
    },
)

ALL_42_NAMES = (
    "k11", "k12", "k13",
    "k22", "k23", "k24",
    "k31", "k32", "k33",
    "k41", "k42", "k43", "k44",
)

# Structural parameter names (k{gi}_{bi}_{gj}_{bj}_{m}) to short names, for
# the canonical block order (4, 3) and the as-given order (3, 4).
NAMES_CANONICAL_TO_SHORT = {
    **{f"k1_1_1_1_{m}": f"k4{m}" for m in range(1, 5)},
    **{f"k1_1_1_2_{m}": f"k3{m}" for m in range(1, 4)},
    **{f"k1_2_1_1_{m}": f"k2{m + 1}" for m in range(1, 4)},
    **{f"k1_2_1_2_{m}": f"k1{m}" for m in range(1, 4)},
}
NAMES_AS_GIVEN_TO_SHORT = {
    **{f"k1_1_1_1_{m}": f"k1{m}" for m in range(1, 4)},
    **{f"k1_1_1_2_{m}": f"k2{m + 1}" for m in range(1, 4)},
    **{f"k1_2_1_1_{m}": f"k3{m}" for m in range(1, 4)},
    **{f"k1_2_1_2_{m}": f"k4{m}" for m in range(1, 5)},
}

# position_map[new] = old between the canonical 7x7 layout diag(J4, J3) and
# the as-given layout diag(J3, J4): canonical coordinate i sits at
# as-given coordinate COORDS_42_CANONICAL_TO_GIVEN[i].
COORDS_42_CANONICAL_TO_GIVEN = (3, 4, 5, 6, 0, 1, 2)


def golden_42_system() -> list[ParamPolynomial]:
    return [parse_polynomial(text) for text in GOLDEN_42_SYSTEM]


def golden_42_families() -> list[SolutionBranch]:
    """The expected families as branches over the short-name parameter space."""
    out = []
    for fam in GOLDEN_42_FAMILIES:
        assignments = tuple(
            sorted((name, parse_rational_function(text)) for name, text in fam["assignments"].items())
        )
        assigned = {name for name, _ in assignments}
        out.append(
            SolutionBranch(
                assignments,
                tuple(parse_polynomial(t) for t in fam["disequalities"]),
                (),
                tuple(n for n in ALL_42_NAMES if n not in assigned),
            )
        )
    return out
