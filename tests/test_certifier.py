"""Exact certificates for the branch search's families.

A fully solved branch is sound when every equation of the constraint
system, with the branch's assignments substituted, is 0 as a rational
function (oracle.first_unsatisfied).  A residual branch, with residual
system R and side-condition product d, is certified with sympy (test-only,
never a runtime dependency).  One Groebner basis of <R, 1 - z*d> decides
emptiness: the ideal is (1) exactly when no point has R = 0 and d != 0.
Otherwise each equation e left after the substitution must reduce to 0
modulo that basis, or pass the radical membership test
1 in <R, 1 - z*d, 1 - y*e> (Cox, Little and O'Shea, Ideals, Varieties, and
Algorithms, ch. 4 section 2).
"""

import functools

import pytest
from sympy import I, QQ, Rational
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring

from ybx.bundled import NAMES_CANONICAL_TO_SHORT, example_42_problem, golden_42_system
from ybx.formats import similarity_from_problem
from ybx.oracle import branch_within, first_unsatisfied
from ybx.polynomials import ParamPolynomial, RationalFunction, parse_polynomial
from ybx.scalars import GaussianRational
from ybx.solver import SolutionBranch, build_constraint_system, solve, solve_branches

from conftest import partitions as _partitions

LADDER = [
    (2, 2), (3, 3), (4, 3), (4, 4), (2, 2, 2), (3, 3, 1),
    (3, 3, 2), (5, 3), (4, 2, 2), (5, 5), (6, 4), (2, 2, 2, 2),
]


# the ladder and every multi-block nilpotent partition with n <= 8
PARTITIONS = sorted(
    set(LADDER) | {p for n in range(2, 9) for p in _partitions(n, n) if len(p) > 1},
    key=lambda p: (sum(p), p),
)

# empty residual branches per partition at the default depth: the baseline
# that polynomial-algebra rules in the branch search should drive to 0
EMPTY_RESIDUAL_BRANCHES = {
    (2, 2, 2): 0, (2, 2, 2, 1): 0, (2, 2, 2, 1, 1): 0, (2, 2, 2, 2): 11,
}

# n = 9 and 10 partitions that the grade-order search solves in well under a
# second: (3, 3, 3) fully, (3, 3, 2, 2) up to one residual branch
WIDE = [(3, 3, 3), (3, 3, 2, 2)]


@functools.cache
def _system(sizes) -> tuple[ParamPolynomial, ...]:
    return tuple(build_constraint_system(sizes)[1])


def _ids(p) -> str:
    return "-".join(map(str, p))


# -- fully solved branches: exact substitution --------------------------------


def test_partition_list(nilpotent_branches):
    assert len(PARTITIONS) == 60
    assert sum(b.is_fully_solved() for p in PARTITIONS for b in nilpotent_branches(p)) == 171


def test_grade_order_solves_333_fully(nilpotent_branches):
    branches = nilpotent_branches((3, 3, 3))
    assert len(branches) == 11
    assert all(b.is_fully_solved() for b in branches)


@pytest.mark.parametrize("sizes", PARTITIONS + WIDE, ids=_ids)
def test_fully_solved_branches_satisfy_the_system(sizes, nilpotent_branches):
    solved = [b for b in nilpotent_branches(sizes) if b.is_fully_solved()]
    assert first_unsatisfied(solved, _system(sizes)) is None


@pytest.mark.parametrize(
    "sizes",
    [p for p in LADDER if p != (2, 2, 2, 2)]
    + [(3, 3, 1, 1), (4, 2), (4, 2, 1), (4, 2, 1, 1)]
    + WIDE,
    ids=_ids,
)
def test_fully_solved_branches_lie_only_within_themselves(sizes, nilpotent_branches):
    # the leaves are disjoint, so no fully solved branch lies within another;
    # (2, 2, 2, 2) is left out: its 33 x 52 checks take about 29 s on a
    # 2-CPU x86_64 machine
    branches = nilpotent_branches(sizes)
    for i, inner in enumerate(branches):
        if inner.is_fully_solved():
            assert [branch_within(inner, outer) for outer in branches] == [
                j == i for j in range(len(branches))
            ]


def test_first_unsatisfied_names_branch_and_equation():
    family = solve(similarity_from_problem(example_42_problem()))
    branches = [b.rename(NAMES_CANONICAL_TO_SHORT) for b in family.branches]
    system = golden_42_system()
    assert first_unsatisfied(branches, system) is None
    # branch 2 has k42 = -1-k12; k42 = -k12 leaves k22 in the fourth equation
    assignments = dict(branches[2].assignments)
    assignments["k42"] = RationalFunction.from_polynomial(-parse_polynomial("k12"))
    branches[2] = SolutionBranch(
        tuple(sorted(assignments.items())),
        branches[2].disequalities,
        (),
        branches[2].free_parameters,
    )
    assert first_unsatisfied(branches, system) == (2, system[3])


def test_first_unsatisfied_reports_a_residual_branch(nilpotent_branches):
    template, system = build_constraint_system((4, 3))
    (stuck,) = solve_branches(system, depth_limit=0, parameters=template.variables())
    # depth 0 still solves k1_1_1_1_1 = 0, which settles the first equation
    # but leaves the second to the residual system
    assert stuck.residual_system and stuck.assignments
    solved = nilpotent_branches((4, 3))
    assert all(b.is_fully_solved() for b in solved)
    assert first_unsatisfied([*solved, stuck], system) == (len(solved), system[1])


def test_first_unsatisfied_edge_cases(nilpotent_branches):
    system = _system((4, 3))
    assert first_unsatisfied(nilpotent_branches((4, 3)), []) is None
    assert first_unsatisfied([], system) is None
    # a branch without assignments settles no nonzero equation
    unsolved = SolutionBranch((), (), tuple(system), ())
    assert first_unsatisfied([unsolved], system) == (0, system[0])


# -- residual branches: Groebner bases (sympy) --------------------------------


def _certify(branch: SolutionBranch, system) -> str:
    """'empty', 'sound' or 'unsound' for one branch over its constraint system."""
    mapping = branch.assignment_map()
    left = [e for e in (p.substitute_rational(mapping).numerator for p in system) if e]
    polys = [*branch.residual_system, *branch.disequalities, *left]
    names = sorted({v for p in polys for v in p.variables()})
    imaginary = any(c.im for p in polys for _, c in p.terms)
    domain = QQ.algebraic_field(I) if imaginary else QQ
    r, *gens = ring(["z_", "y_", *names], domain, grevlex)
    z, y = gens[:2]
    index = {name: k for k, name in enumerate(names, start=2)}

    def convert(p: ParamPolynomial):
        terms = {}
        for mono, c in p.terms:
            exponents = [0] * len(gens)
            for v in mono:
                exponents[index[v]] += 1
            coefficient = Rational(c.re.numerator, c.re.denominator)
            if c.im:
                coefficient += I * Rational(c.im.numerator, c.im.denominator)
            terms[tuple(exponents)] = domain.from_sympy(coefficient)
        return r.from_dict(terms)

    d = r.one
    for p in branch.disequalities:
        d *= convert(p)
    ideal = [convert(p) for p in branch.residual_system] + [1 - z * d]
    basis = groebner(ideal, r)
    if basis == [r.one]:
        return "empty"
    for e in map(convert, left):
        if e.rem(basis) and groebner([*ideal, 1 - y * e], r) != [r.one]:
            return "unsound"
    return "sound"


def test_certifier_flags_unsound_and_empty_branches():
    x, w = (ParamPolynomial.variable(v) for v in "xw")
    i = ParamPolynomial.constant(GaussianRational(0, 1))

    def branch(residual, conditions=()):
        return SolutionBranch((), tuple(conditions), tuple(residual), ("w", "x"))

    system = [x * w, x * x - x]
    assert _certify(branch([x * x - x, x * w]), system) == "sound"
    assert _certify(branch([x - 1, w]), system) == "sound"
    assert _certify(branch([x - 1]), system) == "unsound"
    assert _certify(branch([x], [x]), system) == "empty"
    # w is not in <w*w> but lies in its radical
    assert _certify(branch([w * w]), [w]) == "sound"
    # Q(i) coefficients
    assert _certify(branch([x - i]), [x * x + 1]) == "sound"
    assert _certify(branch([x - i]), [x * x - 1]) == "unsound"


def test_residual_partitions(nilpotent_branches):
    residual = {
        p for p in PARTITIONS if not all(b.is_fully_solved() for b in nilpotent_branches(p))
    }
    assert residual == set(EMPTY_RESIDUAL_BRANCHES)


@pytest.mark.parametrize("sizes", list(EMPTY_RESIDUAL_BRANCHES), ids=_ids)
def test_residual_branches_are_sound(sizes, nilpotent_branches):
    branches = nilpotent_branches(sizes)
    verdicts = [_certify(b, _system(sizes)) for b in branches if b.residual_system]
    assert "unsound" not in verdicts
    assert verdicts.count("empty") == EMPTY_RESIDUAL_BRANCHES[sizes]
