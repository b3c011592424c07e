import dataclasses
import logging
import math
import operator
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ybx.anticommutant import anticommutant_basis
from ybx.bundled import (
    example_41_golden_template,
    example_41_matrix,
    example_41_spec,
    example_41_w,
    example_42_problem,
    golden_42_families,
    golden_42_system,
)
from ybx.errors import (
    DisequalityViolated,
    MissingParameter,
    ResidualNonzero,
)
from ybx.jordan import (
    JordanSpec,
    assemble_jordan,
    jordan_block,
    similarity_from_jordan,
    validate_similarity,
)
from ybx.formats import dumps_canonical, family_to_json, similarity_from_problem
from ybx.matrices import ExactMatrix, mat_mul
from ybx.oracle import random_branch_values, random_gaussian
from ybx.polynomials import ParamMatrix, ParamPolynomial, RationalFunction, parse_polynomial
from ybx.scalars import GaussianRational
from ybx.solver import (
    _RULES,
    SolutionBranch,
    SolutionFamily,
    _branch_polynomials,
    _branch_values,
    _entering,
    branch_matrix,
    branch_satisfied_by,
    branch_values,
    build_constraint_system,
    constraint_weights,
    residual_ybe,
    residuals,
    sample,
    solve,
    solve_branches,
    to_original,
)

from conftest import partitions as _partitions
from conftest import _matmul_reference, random_spec, single_block_family, spec


def bundled_sim_41():
    return validate_similarity(example_41_matrix(), example_41_w(), example_41_spec())


# -- residuals ---------------------------------------------------------------


def test_residual_ybe_trivial_cases(rng):
    a = assemble_jordan(spec((0, [2]), (3, [1])))
    assert residual_ybe(a, ExactMatrix.zeros(3, 3)).is_zero()
    assert residual_ybe(a, a).is_zero()


def test_residual_ybe_example_41_at_33_0():
    sim = bundled_sim_41()
    family = to_original(solve(sim), sim)
    b = sample(family, 0, {"x": GaussianRational(33), "y": GaussianRational(0)})
    assert residual_ybe(sim.a, b).is_zero()
    assert residuals(sim.a, b)[0].is_zero()


def test_residual_anticommute_cases():
    j2 = jordan_block(0, 2)
    k = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert residuals(j2, k)[0].is_zero()
    identity = ExactMatrix.identity(2)
    assert residuals(identity, identity)[0] == identity * GaussianRational(2)


# -- equivalence of the quadratic equation with the product form -------------


def check_equivalence_lemma(a, b):
    """For anti-commuting b: whether A*B*A = B*A*B and whether B*(B-A)*A = 0.

    The lemma says the two agree; ValueError when b does not anti-commute.
    """
    anti, ybe = residuals(a, b)
    if not anti.is_zero():
        raise ValueError("inputs do not anti-commute")
    return ybe.is_zero(), mat_mul(mat_mul(b, b - a), a).is_zero()


def test_equivalence_lemma_zero_solution():
    a = assemble_jordan(spec((0, [3])))
    assert check_equivalence_lemma(a, ExactMatrix.zeros(3, 3)) == (True, True)


def test_equivalence_lemma_corner_family_member():
    j3 = jordan_block(0, 3)
    k = ExactMatrix.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]])  # y=1, x=0
    assert check_equivalence_lemma(j3, k) == (True, True)


def test_equivalence_lemma_alternating_diagonal_fails_both():
    j3 = jordan_block(0, 3)
    k = anticommutant_basis(spec((0, [3])), spec((0, [3]))).basis[0]
    assert k[0, 0] == GaussianRational(1)
    assert check_equivalence_lemma(j3, k) == (False, False)


def test_equivalence_lemma_requires_anticommuting():
    identity = ExactMatrix.identity(2)
    with pytest.raises(ValueError):
        check_equivalence_lemma(identity, identity)


def test_equivalence_lemma_random_members(rng):
    # both product forms K(K-J)J and J(K-J)K decide the equation
    seen = {True: 0, False: 0}
    for _ in range(60):
        s = random_spec(rng, max_n=5, require_zero=True)
        basis = anticommutant_basis(s, s)
        j = assemble_jordan(s)
        k = ExactMatrix.zeros(s.n, s.n)
        for element in basis.basis:
            k = k + element * random_gaussian(rng)
        lhs, rhs = check_equivalence_lemma(j, k)
        assert lhs == rhs
        mirrored = mat_mul(mat_mul(j, k - j), k).is_zero()
        assert mirrored == lhs
        seen[lhs] += 1
    assert seen[True] and seen[False]


def test_remark_sufficiency_directed():
    # K with K*J = J*J solves the equation (k1=0, k2=1 in the 3x3 pattern)
    j3 = jordan_block(0, 3)
    for x in (GaussianRational(0), GaussianRational(5, 2)):
        k = ExactMatrix.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]]) + ExactMatrix.from_rows(
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
        ) * x
        assert mat_mul(k, j3) == mat_mul(j3, j3)
        assert residual_ybe(j3, k).is_zero()


def test_remark_sufficiency_random(rng):
    hit = 0
    for _ in range(80):
        s = random_spec(rng, max_n=4, require_zero=True)
        basis = anticommutant_basis(s, s)
        j = assemble_jordan(s)
        k = ExactMatrix.zeros(s.n, s.n)
        for element in basis.basis:
            k = k + element * random_gaussian(rng)
        kj = mat_mul(k, j)
        if kj == mat_mul(k, k) or kj == mat_mul(j, j):
            hit += 1
            assert residual_ybe(j, k).is_zero()
    assert hit  # at least the 1x1 nilpotent cases trigger the condition


# -- single block families ----------------------------------------------------


def test_single_block_family_small_sizes():
    f1 = single_block_family(1)
    assert len(f1.branches) == 1 and f1.parameters() == ("x",)
    f2 = single_block_family(2)
    assert str(f2.template[0, 1]) == "x"
    assert f2.template[0, 0].is_zero() and f2.template[1, 1].is_zero()
    f3 = single_block_family(3)
    assert str(f3.template[0, 1]) == "y"
    assert str(f3.template[0, 2]) == "x"
    assert str(f3.template[1, 2]) == "-y"


@pytest.mark.parametrize("n", [0, -1])
def test_single_block_family_rejects_nonpositive_size(n):
    with pytest.raises(ValueError):
        single_block_family(n)


def brute_force_solutions(n, values):
    j = jordan_block(0, n)
    found = []
    for entries in product(values, repeat=n * n):
        k = ExactMatrix(n, n, tuple(GaussianRational(v) for v in entries))
        if not residuals(j, k)[0].is_zero():
            continue
        if residual_ybe(j, k).is_zero():
            found.append(k.entries)
    return set(found)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_single_block_completeness_brute_force(n):
    family = single_block_family(n)
    values = (-1, 0, 1)
    family_points = set()
    names = family.branches[0].free_parameters
    for combo in product(values, repeat=len(names)):
        assignment = {name: GaussianRational(v) for name, v in zip(names, combo)}
        family_points.add(sample(family, 0, assignment).entries)
    assert brute_force_solutions(n, values) == family_points


def test_single_block_size_4_has_two_branches():
    family = single_block_family(4)
    assert len(family.branches) == 2
    maps = [dict(b.assignments) for b in family.branches]
    second_coeffs = sorted(str(m["k1_1_1_1_2"]) for m in maps)
    assert second_coeffs == ["-1", "0"]
    for m in maps:
        assert str(m["k1_1_1_1_1"]) == "0"
    # both branches instantiate to genuine solutions
    j4 = jordan_block(0, 4)
    for index in range(2):
        k = sample(family, index, {"k1_1_1_1_3": GaussianRational(2), "k1_1_1_1_4": GaussianRational(-3)})
        assert residual_ybe(j4, k).is_zero()
        assert residuals(j4, k)[0].is_zero()


def test_single_block_size_4_matches_grid_oracle():
    from ybx.oracle import grid_enumerate_solutions

    family = single_block_family(4)
    points = set()
    for branch_index, branch in enumerate(family.branches):
        for combo in product((-1, 0, 1), repeat=len(branch.free_parameters)):
            assignment = {
                name: GaussianRational(v)
                for name, v in zip(branch.free_parameters, combo)
            }
            points.add(sample(family, branch_index, assignment).entries)
    oracle_points = {
        k.entries for k in grid_enumerate_solutions(jordan_block(0, 4), (-1, 0, 1))
    }
    assert points == oracle_points
    assert len(oracle_points) == 18


@pytest.mark.parametrize("n", range(5, 21))
def test_large_single_blocks_match_general_engine(n):
    family = single_block_family(n)
    assert len(family.branches) == 1
    assert family.parameters() == ("x", "y")
    template, system = build_constraint_system((n,))
    branches = solve_branches(system, parameters=template.variables())
    assert len(branches) == 1
    assigned = dict(branches[0].assignments)
    assert set(branches[0].free_parameters) == {f"k1_1_1_1_{n - 1}", f"k1_1_1_1_{n}"}
    assert all(str(rf) == "0" for rf in assigned.values())


@pytest.mark.parametrize("n", [4, 5])
def test_single_block_depth_zero_leaves_honest_residual(n):
    family = solve(similarity_from_jordan(spec((0, [n]))), depth_limit=0)
    assert len(family.branches) == 1
    assert family.branches[0].residual_system
    assert family.branches[0].reason == "depth_limit"
    assert "reason" not in family_to_json(family)["branches"][0]
    assert all(name.startswith("k1_1_1_1_") for name in family.parameters())


@pytest.mark.parametrize("n", range(1, 9))
def test_single_block_depth_one_gives_default_family(n):
    sim = similarity_from_jordan(spec((0, [n])))
    shallow = dumps_canonical(family_to_json(solve(sim, depth_limit=1)))
    assert shallow == dumps_canonical(family_to_json(solve(sim)))


@pytest.mark.parametrize("sizes", [(2, 1), (3, 1)])
def test_multiblock_completeness_against_grid(sizes):
    # anticommutant dimension stays <= 6, so exhaustive enumeration is cheap
    from ybx.oracle import grid_enumerate_solutions

    sim = similarity_from_jordan(spec((0, list(sizes))))
    family = solve(sim)
    values = (-1, 0, 1)
    points = set()
    for branch_index, branch in enumerate(family.branches):
        assert branch.is_fully_solved()
        for combo in product(values, repeat=len(branch.free_parameters)):
            assignment = {
                name: GaussianRational(v)
                for name, v in zip(branch.free_parameters, combo)
            }
            try:
                points.add(sample(family, branch_index, assignment).entries)
            except DisequalityViolated:
                continue  # that point belongs to another branch
    oracle_points = {
        k.entries for k in grid_enumerate_solutions(family.matrix, values)
    }
    assert points == oracle_points


def _coordinates_in_basis(names, elements, k):
    # unique exact coordinates of k in the span of the independent elements
    from ybx.matrices import rref

    dim = len(elements)
    flat = [list(e.entries) for e in elements]
    rows = []
    for idx in range(len(k.entries)):
        rows.append([flat[b][idx] for b in range(dim)] + [k.entries[idx]])
    reduced, rank, pivots = rref(ExactMatrix.from_rows(rows))
    assert dim not in pivots, "matrix is outside the span"
    coords = {name: GaussianRational(0) for name in names}
    for row_index, pivot in enumerate(pivots):
        coords[names[pivot]] = reduced[row_index, dim]
    return coords


def test_direct_sums_of_single_block_solutions_lie_in_two_block_family():
    # diag(B1, B2) solves the 8x8 two-block problem whenever B1 and B2 solve
    # their own 4x4 problems; every such combination must hit a branch
    from ybx.matrices import block_diag

    fam4 = single_block_family(4)
    sim = similarity_from_jordan(spec((0, [4, 4])))
    fam44 = solve(sim)
    assert all(b.is_fully_solved() for b in fam44.branches)
    basis = anticommutant_basis(sim.spec, sim.spec)
    pieces = []
    for index, branch in enumerate(fam4.branches):
        assignment = {
            name: GaussianRational(3 + 2 * index + pos)
            for pos, name in enumerate(branch.free_parameters)
        }
        pieces.append(sample(fam4, index, assignment))
    for left in pieces:
        for right in pieces:
            combined = block_diag([left, right])
            assert residual_ybe(fam44.matrix, combined).is_zero()
            values = _coordinates_in_basis(basis.parameter_names, basis.basis, combined)
            assert any(
                branch_satisfied_by(branch, values) for branch in fam44.branches
            ), "direct sum escaped every branch"


def _orbit_frame(family):
    """The centralizer of the family's J0 (C J0 = J0 C), its kernel basis
    as the rows of one matrix over the n*n entries, and the first +-1
    template entry of each parameter."""
    from ybx.oracle import kron_anticommutant_kernel

    j0 = family.matrix
    kernel = kron_anticommutant_kernel(j0, -j0)
    entries = tuple(x for e in kernel for x in e.entries)
    centralizer = ExactMatrix(len(kernel), j0.rows * j0.cols, entries)
    first_entry = {}
    for index, entry in enumerate(family.template.entries):
        if not entry.is_zero():
            ((name,), sign), = entry.terms
            first_entry.setdefault(name, (index, sign))
    return centralizer, first_entry


def _conjugated_values(family, frame, x, rng):
    """Coordinates of C X C^-1, for C a random invertible integer
    combination of the centralizer basis.  If X solves both equations, so
    does C X C^-1: A C X C^-1 A = C A X A C^-1, and likewise for the
    anti-commutation.  The coordinates are read off the first +-1 template
    entry of each parameter."""
    from ybx.errors import SingularMatrix
    from ybx.matrices import mat_inverse

    centralizer, first_entry = frame
    while True:
        draws = tuple(GaussianRational(rng.randint(-2, 2)) for _ in range(centralizer.rows))
        combination = mat_mul(ExactMatrix(1, len(draws), draws), centralizer)
        c = ExactMatrix(family.n, family.n, combination.entries)
        try:
            y = c @ x @ mat_inverse(c)
            break
        except SingularMatrix:
            continue
    assert all(r.is_zero() for r in residuals(family.matrix, y))
    values = {name: y.entries[index] * sign for name, (index, sign) in first_entry.items()}
    assert family.template.evaluate(values) == y
    return values


def _centralizer_orbit_misses(family, sizes, points, seed, branches=None):
    """How many of `points` conjugated solutions escape every branch.

    Centralizer-orbit completeness oracle for the Jordan-frame family of the
    nilpotent partition `sizes` (non-increasing).  Each point starts from a
    block-diagonal sum of single-block solutions (a random draw on a random
    branch of single_block_family(s), one per block) and is conjugated by
    _conjugated_values.  A point that no branch (of `branches`, default all)
    satisfies is a miss.  The orbits need not reach every branch, so
    dropping a branch can go unseen: a lower-dimensional one in general, and
    on (4, 3) even branches 2 and 3, whose side conditions ask for a nonzero
    coupling between the two blocks and which no orbit point lands in.
    _branch_orbit_misses seeds from the branches themselves.
    """
    from ybx.matrices import block_diag

    rng = random.Random(seed)
    branches = family.branches if branches is None else branches
    frame = _orbit_frame(family)
    singles = {s: single_block_family(s) for s in set(sizes)}
    misses = 0
    for _ in range(points):
        pieces = []
        for s in sizes:
            values = None
            while values is None:
                values = random_branch_values(rng.choice(singles[s].branches), rng)
            pieces.append(singles[s].template.evaluate(values))
        values = _conjugated_values(family, frame, block_diag(pieces), rng)
        misses += not any(branch_satisfied_by(b, values) for b in branches)
    return misses


def _branch_orbit_misses(family, seed, branches=None):
    """How many conjugated points seeded from the branches escape every branch.

    The same oracle as _centralizer_orbit_misses, seeded from one random
    point of every fully solved branch of the family instead of from
    block-diagonal sums, so the orbits start inside the coupling branches
    too.  A point that no branch (of `branches`, default all) satisfies is
    a miss.
    """
    rng = random.Random(seed)
    branches = family.branches if branches is None else branches
    frame = _orbit_frame(family)
    misses = 0
    for branch in family.branches:
        if branch.is_fully_solved():
            x = family.template.evaluate(random_branch_values(branch, rng))
            values = _conjugated_values(family, frame, x, rng)
            # every split lists its nonzero side last, so the generic leaf,
            # where most conjugates land, is among the last branches
            misses += not any(branch_satisfied_by(b, values) for b in reversed(branches))
    return misses


def _multiblock_partitions(max_n):
    return [p for n in range(2, max_n + 1) for p in _partitions(n, n) if len(p) > 1]


ORBIT_POINTS = 10
ORBIT_PARTITIONS = [
    # the ladder
    (2, 2), (3, 3), (4, 3), (4, 4), (2, 2, 2), (3, 3, 1),
    (3, 3, 2), (5, 3), (4, 2, 2), (5, 5), (6, 4), (2, 2, 2, 2),
    # small partitions with a size-1 block
    (2, 1), (3, 1), (2, 1, 1), (3, 2, 1),
    # n = 9, fully solved by the grade-order search
    (3, 3, 3),
]
# the ladder and every multi-block nilpotent partition with n <= 8: 60 in all
BRANCH_ORBIT_PARTITIONS = sorted(
    set(ORBIT_PARTITIONS) | set(_multiblock_partitions(8)), key=lambda p: (sum(p), p)
)


@pytest.mark.parametrize("sizes", ORBIT_PARTITIONS, ids=lambda p: "-".join(map(str, p)))
def test_centralizer_orbit_completeness(sizes):
    family = solve(similarity_from_jordan(spec((0, list(sizes)))))
    assert _centralizer_orbit_misses(family, sizes, ORBIT_POINTS, seed=sum(sizes)) == 0


def test_centralizer_orbit_oracle_sees_a_dropped_branch():
    family = solve(similarity_from_jordan(spec((0, [4, 3]))))
    misses = _centralizer_orbit_misses(
        family, (4, 3), ORBIT_POINTS, seed=7, branches=family.branches[1:]
    )
    assert misses > 0


@pytest.mark.parametrize("sizes", BRANCH_ORBIT_PARTITIONS, ids=lambda p: "-".join(map(str, p)))
def test_branch_orbit_completeness(sizes):
    family = solve(similarity_from_jordan(spec((0, list(sizes)))))
    assert _branch_orbit_misses(family, seed=sum(sizes)) == 0


@pytest.mark.parametrize("dropped", range(4))
def test_branch_orbit_oracle_sees_any_dropped_branch(dropped):
    family = solve(similarity_from_jordan(spec((0, [4, 3]))))
    assert len(family.branches) == 4
    kept = [b for i, b in enumerate(family.branches) if i != dropped]
    assert _branch_orbit_misses(family, seed=7, branches=kept) > 0


def test_two_block_size_44_family_soundness():
    from ybx.oracle import verify_family_membership

    family = solve(similarity_from_jordan(spec((0, [4, 4]))))
    report = verify_family_membership(family, family.matrix, 15, seed=44)
    assert report.span_match


@pytest.mark.parametrize("n", [5, 6])
def test_large_single_block_grid_matches_closed_form(n):
    from ybx.oracle import grid_enumerate_solutions

    family = single_block_family(n)
    points = set()
    for combo in product((-1, 0, 1), repeat=2):
        assignment = {"x": GaussianRational(combo[0]), "y": GaussianRational(combo[1])}
        points.add(sample(family, 0, assignment).entries)
    oracle_points = {
        k.entries for k in grid_enumerate_solutions(jordan_block(0, n), (-1, 0, 1))
    }
    assert points == oracle_points


# -- constraint systems -------------------------------------------------------


def test_constraint_system_single_block_3():
    template, system = build_constraint_system((3,))
    branches = solve_branches(system, parameters=template.variables())
    assert len(branches) == 1
    assignments = dict(branches[0].assignments)
    assert list(assignments) == ["k1_1_1_1_1"]
    assert str(assignments["k1_1_1_1_1"]) == "0"
    assert branches[0].free_parameters == ("k1_1_1_1_2", "k1_1_1_1_3")


def test_constraint_system_all_size_one_blocks_is_empty():
    template, system = build_constraint_system((1, 1))
    assert system == []
    assert len(template.variables()) == 4


def test_constraint_system_degree_bound(rng):
    for sizes in [(3,), (2, 2), (3, 4), (4, 3, 1)]:
        _, system = build_constraint_system(sizes)
        assert all(p.degree() <= 2 for p in system)


def _reference_weight(sizes, name):
    """Weight of k1_u_1_v_m: pattern m of block pair (u, v) lies on the
    diagonal col - row = s_v - min(s_u, s_v) + m - 1 of its block."""
    _, u, _, v, m = (int(part) for part in name[1:].split("_"))
    s_u, s_v = sizes[u - 1], sizes[v - 1]
    return s_v - min(s_u, s_v) + m - 1


def test_constraint_system_is_graded():
    # with weight w per unknown, every term of an equation has the same
    # sum of (w - 1), so an equation has a degree D = that sum + 3 (a
    # quadratic term's weights sum to D - 1, a linear term's weight is
    # D - 2), and the degree-1 equations are quadratic in the weight-0
    # unknowns only: over all 138 nilpotent partitions with n <= 10
    partitions = [p for n in range(1, 11) for p in _partitions(n, n)]
    assert len(partitions) == 138
    for sizes in partitions:
        template, system = build_constraint_system(sizes)
        names = template.variables()
        assert constraint_weights(sizes, names) == {v: _reference_weight(sizes, v) for v in names}
        starts = [sum(sizes[:k]) for k in range(len(sizes))]
        block = [k for k, s in enumerate(sizes) for _ in range(s)]
        for index, entry in enumerate(template.entries):
            if not entry.is_zero():
                ((name,), _), = entry.terms
                row, col = divmod(index, template.cols)
                local = (col - starts[block[col]]) - (row - starts[block[row]])
                assert _reference_weight(sizes, name) == local, (sizes, name)
        for eq in system:
            grades = {
                sum(_reference_weight(sizes, v) - 1 for v in mono) for mono, _ in eq.terms
            }
            assert len(grades) == 1, (sizes, eq)
            if grades == {-2}:
                assert eq.degree() == 2, (sizes, eq)
                assert all(_reference_weight(sizes, v) == 0 for v in eq.variables()), (sizes, eq)


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_weight_zero_equations_are_the_square_of_the_block_corners(s, k):
    # k equal blocks of size s: the equations in the weight-0 unknowns alone
    # are, up to units, the nonzero entries of K^2 for the k x k matrix K of
    # the template's entries at the blocks' first rows and columns
    template, system = build_constraint_system((s,) * k)
    weights = constraint_weights((s,) * k, template.variables())
    graded = {
        eq.monic()[0].terms for eq in system if not any(weights[v] for v in eq.variables())
    }
    corners = [[template[u * s, v * s] for v in range(k)] for u in range(k)]
    zero = ParamPolynomial.zero()
    square = [
        sum((corners[u][w] * corners[w][v] for w in range(k)), zero)
        for u in range(k)
        for v in range(k)
    ]
    assert len(graded) == k * k
    assert graded == {entry.monic()[0].terms for entry in square if not entry.is_zero()}


@pytest.mark.parametrize(
    "sizes, by_name, by_grade", [((3, 3), (4, 1), (4, 0)), ((3, 3, 2), (11, 4), (7, 0))]
)
def test_grade_order_solves_what_name_order_leaves_residual(sizes, by_name, by_grade):
    # (branches, residual branches): without weights the search keeps name
    # order over all equations
    template, system = build_constraint_system(sizes)
    names = template.variables()
    for weights, expected in ((None, by_name), (constraint_weights(sizes, names), by_grade)):
        branches = solve_branches(system, parameters=names, weights=weights)
        assert (len(branches), sum(not b.is_fully_solved() for b in branches)) == expected


@pytest.mark.parametrize("sizes", [(2, 2, 2), (2, 2, 2, 2)])
def test_search_logs_each_rule_and_leaf_at_debug(sizes, caplog):
    """At DEBUG the search logs every rule that fires, by its _RULES name,
    and every leaf with its branch's reason, in the order it returns them;
    at the default level it logs nothing, and never at WARNING."""
    template, system = build_constraint_system(sizes)
    names = template.variables()
    weights = constraint_weights(sizes, names)
    quiet = solve_branches(system, parameters=names, weights=weights)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="ybx.solver"):
        branches = solve_branches(system, parameters=names, weights=weights)
    assert branches == quiet
    records = [r for r in caplog.records if r.name == "ybx.solver"]
    leaves = [r.args[1] for r in records if r.msg.startswith("leaf")]
    rules = [r.args[0] for r in records if r.msg.startswith("rule")]
    assert leaves == [b.reason for b in branches]
    assert any(leaves) and rules
    assert set(rules) <= {name for name, _, _ in _RULES}
    assert len(leaves) + len(rules) == len(records)
    assert not any(r.levelno >= logging.WARNING for r in caplog.records)


def test_constraint_system_two_blocks_equals_golden_six(rng):
    template, system = build_constraint_system((3, 4))
    # (3, 4) block order aligns the structural names with the short names
    rename = {
        **{f"k1_1_1_1_{m}": f"k1{m}" for m in range(1, 4)},
        **{f"k1_1_1_2_{m}": f"k2{m + 1}" for m in range(1, 4)},
        **{f"k1_2_1_1_{m}": f"k3{m}" for m in range(1, 4)},
        **{f"k1_2_1_2_{m}": f"k4{m}" for m in range(1, 5)},
    }
    generated = [p.rename(rename) for p in system]
    golden = golden_42_system()
    branches = [b.rename(rename) for b in solve_branches(system, parameters=template.variables())]
    assert len(branches) == 4
    # every branch point satisfies the golden system, and golden-family points
    # satisfy the generated system
    for bi, branch in enumerate(branches):
        for trial in range(60):
            values = random_branch_values(branch, random.Random(f"g:{bi}:{trial}"))
            if values is None:
                continue
            assert all(not p.evaluate(values) for p in golden)
    for gi, fam in enumerate(golden_42_families()):
        for trial in range(60):
            values = random_branch_values(fam, random.Random(f"h:{gi}:{trial}"))
            if values is None:
                continue
            assert all(not p.evaluate(values) for p in generated)


def test_as_given_order_branches_match_golden_exactly():
    template, system = build_constraint_system((3, 4))
    rename = {
        **{f"k1_1_1_1_{m}": f"k1{m}" for m in range(1, 4)},
        **{f"k1_1_1_2_{m}": f"k2{m + 1}" for m in range(1, 4)},
        **{f"k1_2_1_1_{m}": f"k3{m}" for m in range(1, 4)},
        **{f"k1_2_1_2_{m}": f"k4{m}" for m in range(1, 5)},
    }
    branches = [b.rename(rename) for b in solve_branches(system, parameters=template.variables())]
    golden = golden_42_families()
    matched = set()
    for fam in golden:
        fam_sig = {
            name: (rf.numerator, rf.denominator) for name, rf in fam.assignments
        }
        hits = [
            i
            for i, branch in enumerate(branches)
            if {n: (rf.numerator, rf.denominator) for n, rf in branch.assignments} == fam_sig
            and {p for p in branch.disequalities} == set(fam.disequalities)
            and branch.free_parameters == fam.free_parameters
        ]
        assert len(hits) == 1, f"golden family not reproduced exactly: {fam}"
        matched.add(hits[0])
    assert matched == {0, 1, 2, 3}


LADDER = (
    (2, 2), (3, 3), (4, 3), (4, 4), (2, 2, 2), (3, 3, 1),
    (3, 3, 2), (5, 3), (4, 2, 2), (5, 5), (6, 4), (2, 2, 2, 2),
)


def _dense_constraint_system(sizes):
    """Reference: one dense scaled ParamMatrix per basis element, summed."""
    s = JordanSpec(((GaussianRational(0), tuple(sizes)),))
    basis = anticommutant_basis(s, s)
    template = ParamMatrix.zeros(s.n, s.n)
    for name, element in zip(basis.parameter_names, basis.basis):
        var = ParamPolynomial.variable(name)
        template = template + ParamMatrix(s.n, s.n, tuple(var * c for c in element.entries))
    j0 = assemble_jordan(s)
    # T (T - J0) J0 as (T T - T J0) J0
    product = _matmul_reference(
        _matmul_reference(template, template) - _matmul_reference(template, j0), j0
    )
    system, seen = [], set()
    for entry in product.entries:
        if entry.is_zero():
            continue
        key = entry.monic()[0].terms
        if key not in seen:
            seen.add(key)
            system.append(entry)
    return template, system


_DENSE_SIZES = LADDER + ((1, 1), (2, 1), (3, 3, 3), (4, 4, 1))


@pytest.mark.parametrize(
    "sizes",
    _DENSE_SIZES
    + tuple(
        p for n in range(1, 9) for p in _partitions(n, n) if p not in _DENSE_SIZES
    ),
)
def test_constraint_system_matches_dense_construction(sizes):
    template, system = build_constraint_system(sizes)
    dense_template, dense_system = _dense_constraint_system(sizes)
    assert template == dense_template
    assert system == dense_system  # same entries in the same order


# -- branch search ------------------------------------------------------------


def test_solve_branches_single_linear():
    k1 = ParamPolynomial.variable("k1")
    branches = solve_branches([k1])
    assert len(branches) == 1
    assert str(dict(branches[0].assignments)["k1"]) == "0"
    assert branches[0].disequalities == ()


def test_solve_branches_square_forces_zero():
    x = ParamPolynomial.variable("x")
    branches = solve_branches([x * x])
    assert len(branches) == 1
    assert str(dict(branches[0].assignments)["x"]) == "0"


def test_solve_branches_product_splits():
    system = [parse_polynomial("a*b")]
    branches = solve_branches(system)
    assert len(branches) == 2
    assert {str(dict(b.assignments).get("a", "")) for b in branches} == {"0", ""}


def test_solve_branches_inconsistent_system():
    one = ParamPolynomial.constant(1)
    assert solve_branches([one]) == []


def test_solve_branches_quadratic_with_rational_roots():
    # x*x - 3*x + 2 factors as (x-1)(x-2)
    branches = solve_branches([parse_polynomial("2-3*x+x*x")])
    values = sorted(str(dict(b.assignments)["x"]) for b in branches)
    assert values == ["1", "2"]


def test_solve_branches_irreducible_quadratic_is_residual():
    branches = solve_branches([parse_polynomial("2+x*x")], depth_limit=4)
    assert len(branches) == 1
    assert branches[0].residual_system
    assert branches[0].reason == "no_rule"
    assert branches[0].free_parameters == ("x",)


def test_solve_branches_depth_limit_leaves_residuals():
    system = [parse_polynomial(t) for t in ("a*b", "c*d", "e*f")]
    branches = solve_branches(system, depth_limit=1)
    assert any(b.residual_system for b in branches)
    for b in branches:
        assert b.reason == ("depth_limit" if b.residual_system else "")
        # rename carries the reason, and equality ignores it
        assert b.rename({"a": "z"}).reason == b.reason
        assert b == dataclasses.replace(b, reason="no_rule")
    total = solve_branches(system, depth_limit=8)
    assert all(not b.residual_system and not b.reason for b in total)
    assert len(total) == 8


def test_solve_branches_fuzz_soundness(rng):
    # random quadratic systems: the search terminates, solved branches satisfy
    # every input equation, residual branches re-report their leftovers
    names = ("a", "b", "c", "d")
    for _ in range(30):
        system = []
        for _ in range(rng.randint(1, 4)):
            poly = ParamPolynomial.zero()
            for _ in range(rng.randint(1, 3)):
                term = ParamPolynomial.constant(rng.choice([1, -1, 2, 0]))
                for _ in range(rng.randint(0, 2)):
                    term = term * ParamPolynomial.variable(rng.choice(names))
                poly = poly + term
            system.append(poly)
        branches = solve_branches(system, depth_limit=6, parameters=names)
        for branch in branches:
            values = random_branch_values(branch, random.Random(rng.random()))
            if values is None:
                continue
            if branch.residual_system:
                if any(p.evaluate(values) for p in branch.residual_system):
                    continue
            for eq in system:
                assert not eq.evaluate(values), (system, branch)


def test_solve_with_mixed_spectrum_and_size_4_block():
    sim = similarity_from_jordan(spec((0, [4]), (2, [1])))
    family = solve(sim)
    assert len(family.branches) == 2
    for branch_index, branch in enumerate(family.branches):
        assignment = {name: GaussianRational(3) for name in branch.free_parameters}
        k = sample(family, branch_index, assignment)
        assert all(not k[i, 4] for i in range(5))
        assert all(not k[4, j] for j in range(5))


def test_solve_branches_reduced_system_from_text():
    system = [parse_polynomial(t) for t in (
        "k11",
        "k41",
        "k22*k31",
        "k22+k12*k22+k22*k42",
        "-k31+k12*k31-k31*k42",
        "k23*k31-k22*k32-k42-k42*k42",
    )]
    branches = solve_branches(system)
    assert len(branches) == 4
    diseq_names = sorted(
        str(b.disequalities[0]) for b in branches if b.disequalities
    )
    assert diseq_names == ["k22", "k31"]


def _random_product_system(rng):
    # each equation is a product of two linear forms in a, b, c
    def linear_form():
        monomials = ((), ("a",), ("b",), ("c",))
        return ParamPolynomial.from_dict(
            {m: GaussianRational(rng.randint(-2, 2)) for m in monomials}
        )

    return [linear_form() * linear_form() for _ in range(rng.randint(1, 3))]


def _assert_leaves_disjoint(branches):
    # no two leaves are equal, and none has the assignments and residual
    # system of another with a strict superset of its side conditions
    assert len(set(branches)) == len(branches)
    groups = {}
    for branch in branches:
        key = (branch.assignments, branch.residual_system)
        groups.setdefault(key, []).append(set(branch.disequalities))
    for conditions in groups.values():
        for mine in conditions:
            assert not any(theirs < mine for theirs in conditions)


def test_solve_branches_leaves_are_disjoint():
    # every split partitions the solution set (f = 0 against f != 0,
    # coefficient = 0 against != 0) and a linear solve is a bijection, so
    # no leaf can repeat or be nested in another without a merge step
    for sizes in _multiblock_partitions(8):
        _, system = build_constraint_system(sizes)
        for depth in (1, 8):
            _assert_leaves_disjoint(solve_branches(system, depth))
    rng = random.Random(14)
    for index in range(300):
        system = _random_product_system(rng)
        _assert_leaves_disjoint(solve_branches(system, index % 7, parameters=("a", "b", "c")))


def test_solve_branches_depth_counts_only_splits():
    # two linear solves and no split: depth 0 already finishes the search
    system = [parse_polynomial(t) for t in ("x-1", "x*y-2")]
    branches = solve_branches(system, depth_limit=0)
    assert len(branches) == 1
    assert branches[0].is_fully_solved()
    assert {n: str(rf) for n, rf in branches[0].assignments} == {"x": "1", "y": "2"}


def test_solve_branches_keeps_root_order_of_entering_equation():
    # y := -1 turns the second equation into -(x - 1)(x - 2); its roots must
    # come out in the order of the monic form, x = 2 first
    system = [parse_polynomial(t) for t in ("y+1", "x*x*y+3*x-2")]
    branches = solve_branches(system)
    assert [str(b.assignment_map()["x"]) for b in branches] == ["2", "1"]
    assert all(str(b.assignment_map()["y"]) == "-1" for b in branches)


# _normalize tests "known nonzero" on each factor by lookup alone, which is
# sound only because every factor of a record _entering builds is already
# atomic.  The branch search keeps each equation's factors instead of
# factoring it again, which gives the same answer only because the factors
# are invariant under units and stable on products of their own.
def _factors(p):
    return _entering(p).factors


monomials = st.lists(st.sampled_from(("a", "b", "c")), max_size=2).map(lambda v: tuple(sorted(v)))
small = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-1, 1))
at_most_quadratic = st.dictionaries(monomials, small, max_size=5).map(ParamPolynomial.from_dict)
linear = st.dictionaries(
    st.sampled_from([(), ("a",), ("b",), ("c",)]), small, max_size=3
).map(ParamPolynomial.from_dict)
linear_in_a = st.dictionaries(st.sampled_from([(), ("a",)]), small).map(ParamPolynomial.from_dict)
# products of two linear forms reach the shared-variable and root splits; a
# shared variable times a quadratic in a gives up to three factors
quadratics = st.one_of(
    at_most_quadratic,
    st.builds(operator.mul, linear, linear),
    st.builds(operator.mul, linear_in_a, linear_in_a),
    st.builds(
        operator.mul,
        st.sampled_from(("a", "b")).map(ParamPolynomial.variable),
        st.builds(operator.mul, linear_in_a, linear_in_a),
    ),
)
UNITS = (GaussianRational(-1), GaussianRational(0, 1), GaussianRational(2, -1))
units = st.sampled_from(UNITS)


def _assert_factors_atomic(p, unit):
    factors = _factors(p)
    assert len({f.terms for f in factors}) == len(factors), (p, factors)
    for f in factors:
        assert f.monic()[0] == f, (p, f)
        assert _factors(f) == [f], (p, f)
    assert _factors(p * unit) == factors, (p, unit)
    for keep in product((False, True), repeat=len(factors)):
        sub = [f for f, kept in zip(factors, keep) if kept]
        assert _factors(math.prod(sub, start=ParamPolynomial.constant(1))) == sub, (p, sub)


@given(quadratics, units)
def test_factors_are_atomic(p, unit):
    _assert_factors_atomic(p, unit)


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 3)])
def test_constraint_system_factors_are_atomic(sizes):
    _, system = build_constraint_system(sizes)
    for eq in system:
        for unit in UNITS:
            _assert_factors_atomic(eq, unit)


def _hand_made_equations():
    x, y = ParamPolynomial.variable("x"), ParamPolynomial.variable("y")
    one = ParamPolynomial.constant(1)
    return [
        x * x * y,
        (x - one) * (x - one) * y,
        parse_polynomial("2*x*x-3*x+1"),  # roots 1 and 1/2
        parse_polynomial("x*x+x+1"),  # no root in Q(i)
        parse_polynomial("3/2"),
    ]


def test_entering_records_its_product_factors_and_names():
    # every equation of every partition with n <= 8, and hand-made ones that
    # collapse a repeated content variable or a double root, or do not split
    partitions = [p for n in range(1, 9) for p in _partitions(n, n)]
    system = [eq for sizes in partitions for eq in build_constraint_system(sizes)[1]]
    for p in system + _hand_made_equations():
        record = _entering(p)
        if p.is_constant():
            assert (record.product, record.factors) == (p, [])
        else:
            assert record.product == math.prod(record.factors, start=ParamPolynomial.constant(1))
            assert record.product.terms[-1][1] == GaussianRational(1)
        assert sorted(record.names) == list(record.product.variables())
        terms = record.product.terms
        once = {v for v in record.names if all(mono.count(v) <= 1 for mono, _ in terms)}
        assert record.linear == once, p
    # the repeats collapse; the others keep the monic p itself as the product
    records = [_entering(p) for p in _hand_made_equations()]
    assert [[str(f) for f in r.factors] for r in records] == [
        ["x", "y"], ["y", "-1+x"], ["-1+x", "-1/2+x"], ["1+x+x*x"], []
    ]
    assert [str(r.product) for r in records[:2]] == ["x*y", "-y+x*y"]
    assert all(r.product == p.monic()[0] for r, p in zip(records[2:4], _hand_made_equations()[2:4]))


# knows_nonzero against its factor-only reference, over side conditions that
# are monic variables and linear forms over three or four names
def _condition(names):
    forms = st.lists(st.integers(-2, 2), min_size=len(names) + 1, max_size=len(names) + 1)
    return st.one_of(
        st.sampled_from(names).map(ParamPolynomial.variable),
        forms.filter(lambda cs: any(cs[1:])).map(
            lambda cs: ParamPolynomial.from_dict(
                dict(zip([(), *((v,) for v in names)], map(GaussianRational, cs)))
            )
        ),
    )


@given(st.data())
def test_knows_nonzero_matches_the_factor_reference(data):
    from ybx.solver import _BranchState  # noqa: PLC2701 - the search's side conditions

    names = ("a", "b", "c", "d")[: data.draw(st.integers(3, 4))]
    conditions = data.draw(st.lists(_condition(names), min_size=1, max_size=4))
    state = _BranchState([], {}, {})
    for condition in conditions:
        state.add_disequality(condition)
    recorded = data.draw(st.lists(st.sampled_from(conditions), min_size=1, max_size=3))
    pool = st.sampled_from(conditions) | _condition(names)
    mixed = data.draw(st.lists(pool, min_size=1, max_size=3))
    unit = ParamPolynomial.constant(data.draw(st.sampled_from(UNITS)))
    # "z" is a name no condition uses
    foreign = ParamPolynomial.variable("z") + data.draw(_condition(names))
    p = data.draw(
        st.sampled_from(
            [
                ParamPolynomial.constant(data.draw(small)),
                math.prod(recorded, start=unit),
                math.prod(mixed, start=unit),
                mixed[0] * mixed[0] * unit,
                math.prod(mixed, start=foreign),
            ]
        )
    )
    if p.is_constant():
        expected = p != ParamPolynomial.zero()
    else:
        expected = all(f.terms in state.disequalities for f in _factors(p))
    assert state.knows_nonzero(p) == expected, (conditions, p)


# -- full solve ---------------------------------------------------------------


def test_solve_nonsingular_is_zero_family():
    sim = similarity_from_jordan(spec((2, [2]), (-3, [1])))
    family = solve(sim)
    assert len(family.branches) == 1
    assert family.template.is_zero()
    assert family.branches[0].free_parameters == ()


def test_solve_paired_nonsingular_is_zero_family():
    sim = similarity_from_jordan(spec((1, [1]), (-1, [1])))
    family = solve(sim)
    assert family.template.is_zero()
    assert len(family.branches) == 1


def test_solve_example_41_jordan_frame():
    sim = bundled_sim_41()
    family = solve(sim)
    assert len(family.branches) == 1
    assert family.parameters() == ("x", "y")
    # support is the leading 3x3 corner pattern
    expected = {
        (0, 1): "y",
        (0, 2): "x",
        (1, 2): "-y",
    }
    for i in range(8):
        for j in range(8):
            entry = family.template[i, j]
            if (i, j) in expected:
                assert str(entry) == expected[i, j]
            else:
                assert entry.is_zero()


def test_solve_canonicalizes_input_order():
    shuffled = spec((1, [3]), (0, [3]), (-1, [2]))
    family = solve(similarity_from_jordan(shuffled))
    assert family.matrix == assemble_jordan(shuffled.canonical()[0])
    assert family.matrix[0, 1] == GaussianRational(1)
    assert family.matrix[0, 0] == GaussianRational(0)


def test_to_original_identity_w():
    sim = similarity_from_jordan(spec((0, [3])))
    family = solve(sim)
    original = to_original(family, sim)
    assert original.template == family.template
    assert original.frame == "original"


def test_to_original_example_41_matches_golden():
    sim = bundled_sim_41()
    original = to_original(solve(sim), sim)
    golden = example_41_golden_template()
    assert original.template == golden


def test_to_original_zero_family():
    sim = similarity_from_jordan(spec((2, [2])))
    original = to_original(solve(sim), sim)
    assert original.template.is_zero()


def test_to_original_rejects_foreign_family():
    family = solve(similarity_from_jordan(spec((0, [3]))))
    other = similarity_from_jordan(spec((0, [2])))
    with pytest.raises(Exception) as err:
        to_original(family, other)
    assert "to_original" in str(err.value) or "belong" in str(err.value)
    already = to_original(family, similarity_from_jordan(spec((0, [3]))))
    with pytest.raises(ValueError):
        to_original(already, similarity_from_jordan(spec((0, [3]))))


def test_sample_example_41():
    sim = bundled_sim_41()
    original = to_original(solve(sim), sim)
    zero = sample(original, 0, {"x": GaussianRational(0), "y": GaussianRational(0)})
    assert zero.is_zero()
    b = sample(original, 0, {"x": GaussianRational(1), "y": GaussianRational(1)})
    assert b[0, 0] == GaussianRational(12) / GaussianRational(33)


def test_sample_errors():
    sim = similarity_from_jordan(spec((0, [4, 3])))
    family = solve(sim)
    constrained = next(
        i for i, b in enumerate(family.branches) if b.disequalities
    )
    branch = family.branches[constrained]
    pinned = str(branch.disequalities[0])
    assignment = {name: GaussianRational(1) for name in branch.free_parameters}
    assignment[pinned] = GaussianRational(0)
    with pytest.raises(DisequalityViolated):
        sample(family, constrained, assignment)
    with pytest.raises(MissingParameter):
        sample(family, constrained, {})
    with pytest.raises(ValueError):
        sample(family, 0, {"nope": GaussianRational(1), **{
            name: GaussianRational(1) for name in family.branches[0].free_parameters
        }})


def test_sampled_solutions_satisfy_both_equations(rng):
    for _ in range(15):
        s = random_spec(rng, max_n=6, require_zero=True)
        sim = similarity_from_jordan(s)
        family = solve(sim)
        for branch_index, branch in enumerate(family.branches):
            if branch.residual_system:
                continue
            values = random_branch_values(branch, random.Random(rng.random()))
            if values is None:
                continue
            k = sample(family, branch_index, {n: values[n] for n in branch.free_parameters})
            assert residual_ybe(family.matrix, k).is_zero()


def test_support_invariant(rng):
    from ybx.jordan import nilpotent_part

    for _ in range(12):
        s = random_spec(rng, max_n=6, require_zero=True)
        sim = similarity_from_jordan(s)
        family = solve(sim)
        _, dim = nilpotent_part(sim.canonicalized().spec)
        for branch_index, branch in enumerate(family.branches):
            values = random_branch_values(branch, random.Random(rng.random()))
            if values is None or branch.residual_system:
                continue
            k = sample(family, branch_index, {n: values[n] for n in branch.free_parameters})
            for i in range(s.n):
                for j in range(s.n):
                    if i >= dim or j >= dim:
                        assert not k[i, j]


def test_scalar_frame_consistency(rng):
    from conftest import random_invertible
    from ybx.matrices import mat_inverse

    base = spec((0, [3]), (2, [1]))
    w = random_invertible(rng, 4)
    a = mat_mul(mat_mul(w, assemble_jordan(base)), mat_inverse(w))
    sim = validate_similarity(a, w, base)
    jordan_family = solve(sim)
    original = to_original(jordan_family, sim)
    assignment = {"x": GaussianRational(2, 1), "y": GaussianRational(-1, 3)}
    k = sample(jordan_family, 0, assignment)
    b = sample(original, 0, assignment)
    assert b == mat_mul(mat_mul(w, k), mat_inverse(w))


def test_branch_matrix_symbolic():
    sim = similarity_from_jordan(spec((0, [4, 3])))
    family = solve(sim)
    constrained = next(i for i, b in enumerate(family.branches) if b.disequalities)
    grid = branch_matrix(family, constrained)
    assert any(
        not cell.is_polynomial() for row in grid for cell in row
    )


def test_branch_satisfied_by_roundtrip(rng):
    sim = similarity_from_jordan(spec((0, [4, 3])))
    family = solve(sim)
    for branch in family.branches:
        values = random_branch_values(branch, random.Random("q"))
        assert values is not None
        assert branch_satisfied_by(branch, values)


def test_branch_satisfied_by_agrees_with_branch_values_on_a_vanishing_denominator():
    # x = y/z with no recorded side condition: at z = 0 branch_values refuses
    # the point, so it lies outside the branch even though x*z = y holds
    y, z = ParamPolynomial.variable("y"), ParamPolynomial.variable("z")
    branch = SolutionBranch((("x", RationalFunction.make(y, z)),), (), (), ("y", "z"))
    g = GaussianRational
    with pytest.raises(DisequalityViolated):
        branch_values(branch, {"y": g(0), "z": g(0)})
    assert not branch_satisfied_by(branch, {"x": g(5), "y": g(0), "z": g(0)})
    assert branch_satisfied_by(branch, {"x": g(2), "y": g(4), "z": g(2)})
    assert not branch_satisfied_by(branch, {"x": g(3), "y": g(4), "z": g(2)})
    with pytest.raises(MissingParameter):
        branch_satisfied_by(branch, {"x": g(5), "y": g(0)})


def test_branch_values_reports_the_first_violated_condition_then_a_vanishing_denominator():
    y, z = ParamPolynomial.variable("y"), ParamPolynomial.variable("z")
    one = ParamPolynomial.constant(1)
    branch = SolutionBranch(
        (("w", RationalFunction.make(y, y - one)), ("x", RationalFunction.make(z, z + one))),
        (y + z, z),
        (),
        ("y", "z"),
    )
    g = GaussianRational

    def message(values):
        with pytest.raises(DisequalityViolated) as caught:
            branch_values(branch, values)
        return str(caught.value)

    # both conditions fail: the first is named, before any denominator
    assert message({"y": g(0), "z": g(0)}) == "side condition violated: y+z must be nonzero"
    # the second condition fails, and so does the first denominator
    assert message({"y": g(1), "z": g(0)}) == "side condition violated: z must be nonzero"
    # conditions hold: the first vanishing denominator, in assignment order
    assert message({"y": g(1), "z": g(2)}) == "side condition violated: -1+y must be nonzero"
    assert message({"y": g(2), "z": g(-1)}) == "side condition violated: 1+z must be nonzero"
    assert branch_values(branch, {"y": g(2), "z": g(1)}) == {
        "y": g(2), "z": g(1), "w": g(2), "x": g(Fraction(1, 2))
    }
    with pytest.raises(MissingParameter):
        branch_values(branch, {"y": g(2)})


def _values_or_message(fn, *args):
    try:
        return fn(*args)
    except DisequalityViolated as exc:
        return str(exc)


@pytest.mark.parametrize("which", ["4.2", "2,2,2,2"])
def test_prescaled_branch_values_match_branch_values(which, nilpotent_branches):
    # the branch's polynomials scaled once serve every draw: the same
    # valuation, or the same violated side condition or denominator
    if which == "4.2":
        branches = solve(similarity_from_problem(example_42_problem())).branches
    else:
        branches = nilpotent_branches((2, 2, 2, 2))
    violated = 0
    for index, branch in enumerate(branches):
        scaled = _branch_polynomials(branch)
        rng = random.Random(f"prescaled:{which}:{index}")
        draws = [{name: random_gaussian(rng) for name in branch.free_parameters} for _ in range(3)]
        # each free name at 0 in turn, so that draws land on side conditions
        draws += [{**draws[0], name: GaussianRational(0)} for name in branch.free_parameters]
        for draw in draws:
            expected = _values_or_message(branch_values, branch, draw)
            assert _values_or_message(_branch_values, branch, draw, scaled) == expected
            violated += isinstance(expected, str)
    assert violated


def test_assignment_denominators_are_listed(rng):
    for _ in range(10):
        s = random_spec(rng, max_n=6, require_zero=True)
        family = solve(similarity_from_jordan(s))
        for branch in family.branches:
            listed = {p.terms for p in branch.disequalities}
            for _, rf in branch.assignments:
                den = rf.denominator
                if den.is_constant():
                    continue
                factors = _factors(den)
                assert den.monic()[0].terms in listed or all(
                    f.terms in listed for f in factors
                )


def test_assign_drops_a_state_whose_assignment_denominator_vanishes():
    from ybx.solver import _BranchState  # noqa: PLC2701 - the search's infeasibility exit

    x, y = ParamPolynomial.variable("x"), ParamPolynomial.variable("y")
    one = ParamPolynomial.constant(1)

    def state():
        return _BranchState([], {"a": RationalFunction.make(x, y - one)}, {})

    assert not state().assign("y", RationalFunction.from_polynomial(one))
    feasible = state()
    assert feasible.assign("y", RationalFunction.from_polynomial(x))
    assert feasible.assignments == {
        "a": RationalFunction.make(x, x - one),
        "y": RationalFunction.from_polynomial(x),
    }


def test_assign_drops_a_state_whose_assignment_denominator_cancels():
    from ybx.solver import _BranchState  # noqa: PLC2701 - the search's infeasibility exit

    # the denominator y - x cancels against the value y := x, not a constant
    x, y = ParamPolynomial.variable("x"), ParamPolynomial.variable("y")
    state = _BranchState([], {"a": RationalFunction.make(x, y - x)}, {})
    assert not state.assign("y", RationalFunction.from_polynomial(x))


def test_assign_substitutes_into_an_assignment():
    from ybx.solver import _BranchState  # noqa: PLC2701 - assign's rewrite of assignments

    x, y = ParamPolynomial.variable("x"), ParamPolynomial.variable("y")
    one = ParamPolynomial.constant(1)
    state = _BranchState([], {"a": RationalFunction.make(x, y)}, {})
    assert state.assign("y", RationalFunction.make(one, x))
    assert state.assignments == {
        "a": RationalFunction.from_polynomial(x * x),
        "y": RationalFunction.make(one, x),
    }


def test_assign_drops_a_state_whose_side_condition_vanishes():
    from ybx.solver import _BranchState  # noqa: PLC2701 - the search's infeasibility exit

    x, y = ParamPolynomial.variable("x"), ParamPolynomial.variable("y")
    state = _BranchState([], {}, {})
    state.add_disequality(y - x)
    assert not state.assign("y", RationalFunction.from_polynomial(x))


ZERO_VALUE = RationalFunction.from_polynomial(ParamPolynomial.zero())


def test_assign_drops_a_state_whose_side_condition_a_zero_kills():
    from ybx.solver import _BranchState  # noqa: PLC2701 - the search's infeasibility exit

    a, b = ParamPolynomial.variable("a"), ParamPolynomial.variable("b")
    state = _BranchState([], {}, {})
    state.add_disequality(a * b)
    assert not state.assign("a", ZERO_VALUE)


def test_assign_drops_a_state_whose_assignment_denominator_a_zero_kills():
    from ybx.solver import _BranchState  # noqa: PLC2701 - the search's infeasibility exit

    a, x = ParamPolynomial.variable("a"), ParamPolynomial.variable("x")
    state = _BranchState([], {"c": RationalFunction.make(x, a)}, {})
    assert not state.assign("a", ZERO_VALUE)


def test_normalize_drops_an_equation_a_zero_kills():
    from ybx.solver import _BranchState, _normalize  # noqa: PLC2701 - assign, then a search pass

    a, b, x = (ParamPolynomial.variable(v) for v in "abx")
    one = ParamPolynomial.constant(1)
    state = _BranchState([_entering(a * b), _entering(a * b + x - one)], {}, {})
    assert state.assign("a", ZERO_VALUE)
    assert state.equations[0].product.is_zero()
    assert state.equations[1] == _entering(x - one)
    assert _normalize(state)
    assert state.equations == [_entering(x - one)]
    assert state.assignments == {"a": ZERO_VALUE}


def test_assign_keeps_an_equation_without_the_name(monkeypatch):
    import ybx.solver
    from ybx.solver import _BranchState  # noqa: PLC2701 - assign's rewrite

    x, y, z = (ParamPolynomial.variable(v) for v in "xyz")
    untouched, rewritten = _entering(x * z), _entering(x * y - z)
    state = _BranchState([untouched, rewritten], {}, {})
    # _entering builds every record assign makes: it sees the rewrite alone
    factored = []
    monkeypatch.setattr(ybx.solver, "_entering", lambda p: factored.append(p) or _entering(p))
    assert state.assign("y", RationalFunction.from_polynomial(z))
    assert factored == [x * z - z]
    assert state.equations[0] is untouched
    assert state.equations[1] == _entering(x * z - z)
    assert untouched.product not in factored

def test_residual_branch_sampling_raises():
    template, system = build_constraint_system((4, 3))
    branches = solve_branches(system, depth_limit=0, parameters=template.variables())
    assert len(branches) == 1 and branches[0].residual_system
    sim = similarity_from_jordan(spec((0, [4, 3])))
    from ybx.solver import SolutionFamily

    stuck = SolutionFamily(7, "jordan", tuple(branches), solve(sim).template, solve(sim).matrix)
    assignment = {name: GaussianRational(1) for name in branches[0].free_parameters}
    with pytest.raises(ResidualNonzero):
        sample(stuck, 0, assignment)
    zeros = {name: GaussianRational(0) for name in branches[0].free_parameters}
    assert sample(stuck, 0, zeros).is_zero()


def test_sample_names_the_first_nonzero_residual_entry():
    """A perturbed original-frame template fails anti-commutation, and
    diag(t, -t) anti-commutes with a conjugated J(2) but fails the
    equation; each error names its residual and the first nonzero entry."""
    w = ExactMatrix.from_rows([[1, 2, 0], [0, 1, -1], [3, 0, 1]])
    sim = similarity_from_jordan(spec((0, [3])), w)
    family = to_original(solve(sim), sim)
    t = family.template
    bent = t.entries[:4] + (t.entries[4] + GaussianRational(0, 1),) + t.entries[5:]
    broken = SolutionFamily(
        family.n, family.frame, family.branches, ParamMatrix(3, 3, bent), family.matrix
    )
    ones = {name: GaussianRational(1) for name in family.branches[0].free_parameters}
    with pytest.raises(ResidualNonzero) as err:
        sample(broken, 0, ones)
    assert (err.value.which, err.value.position) == ("anti-commutation", (0, 1))

    w2 = ExactMatrix.from_rows([[2, 1], [1, 1]])
    sim2 = similarity_from_jordan(spec((0, [2])), w2)
    t_var = ParamPolynomial.variable("t")
    diagonal = ParamMatrix.from_rows([[t_var, ParamPolynomial.zero()], [ParamPolynomial.zero(), -t_var]])
    template = _matmul_reference(_matmul_reference(w2, diagonal), sim2.w_inv)
    family2 = SolutionFamily(2, "original", (SolutionBranch((), (), (), ("t",)),), template, sim2.a)
    with pytest.raises(ResidualNonzero) as err:
        sample(family2, 0, {"t": GaussianRational(Fraction(1, 3), 2)})
    assert (err.value.which, err.value.position) == ("equation", (0, 0))
    assert sample(family2, 0, {"t": GaussianRational(0)}).is_zero()


def test_branch_state_keeps_the_names_of_its_side_conditions():
    from ybx.solver import _BranchState  # noqa: PLC2701 - the names knows_nonzero rules out

    x, y, z = (ParamPolynomial.variable(v) for v in "xyz")
    state = _BranchState([], {}, {})
    assert state.recorded == set()
    assert state.add_disequality(x * y - ParamPolynomial.constant(1))
    assert state.recorded == {"x", "y"}
    child = state.clone()
    assert child.add_disequality(z)
    assert (state.recorded, child.recorded) == ({"x", "y"}, {"x", "y", "z"})
    assert child.assign("y", RationalFunction.from_polynomial(ParamPolynomial.constant(2)))
    assert child.recorded == {"x", "z"}
    half = ParamPolynomial.constant(GaussianRational(Fraction(1, 2)))
    assert child.knows_nonzero((x - half) * z)
    assert not child.knows_nonzero(x * y)
