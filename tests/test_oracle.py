import functools
import hashlib
import random
from fractions import Fraction

import pytest

from ybx.bundled import (
    ALL_42_NAMES,
    NAMES_CANONICAL_TO_SHORT,
    example_41_problem,
    example_42_problem,
    golden_42_families,
)
from ybx.errors import GridTooLarge, ResidualNonzero
from ybx.formats import similarity_from_problem
from ybx.jordan import assemble_jordan, similarity_from_jordan
from ybx.matrices import ExactMatrix, _bits, _integer_form, mat_inverse, mat_mul, residuals
from ybx.oracle import (
    OracleReport,
    _vectorized_operator,
    branch_within,
    branches_agree,
    cross_check_anticommutant,
    grid_enumerate_solutions,
    kron_anticommutant_kernel,
    random_branch_values,
    random_gaussian,
    unvec,
    vec,
    verify_family_membership,
)
from ybx.polynomials import ParamMatrix, ParamPolynomial, parse_polynomial, parse_rational_function
from ybx.scalars import GaussianRational, format_scalar
from ybx.solver import SolutionBranch, SolutionFamily, sample, solve, to_original

from conftest import kron, random_matrix, random_spec, single_block_family, spec
from test_family_bytes import W8


def test_vectorization_identity(rng):
    for _ in range(10):
        u = random_matrix(rng, 3, 3)
        v = random_matrix(rng, 2, 2)
        x = random_matrix(rng, 3, 2)
        operator = kron(ExactMatrix.identity(2), u) + kron(v.transpose(), ExactMatrix.identity(3))
        assert mat_mul(operator, vec(x)) == vec(mat_mul(u, x) + mat_mul(x, v))
        assert unvec(vec(x), 3, 2) == x


def test_vectorized_operator_matches_kronecker_products(rng):
    """Pairs of different sizes with Fraction and imaginary entries, and
    Jordan inputs with zero, nonzero and opposite eigenvalues."""
    pairs = [(random_matrix(rng, 3, 3), random_matrix(rng, 2, 2)) for _ in range(5)]
    u = ExactMatrix.from_rows([["1/2", "2-1/3i", 0], [0, "1i", 0], [3, 0, "-5/7"]])
    pairs.append((u, ExactMatrix.from_rows([["-1/2", 0], ["1+1i", "2/9"]])))
    jordan = [
        spec((0, [3])), spec((0, [2, 1]), (1, [2])), spec((1, [2]), (-1, [1])), spec((5, [1]))
    ]
    pairs += [(assemble_jordan(s), assemble_jordan(t)) for s in jordan for t in jordan]
    for u, v in pairs:
        expected = kron(ExactMatrix.identity(v.rows), u) + kron(
            v.transpose(), ExactMatrix.identity(u.rows)
        )
        assert _vectorized_operator(u, v) == expected


def test_kernel_trivial():
    one = ExactMatrix.from_rows([[1]])
    assert kron_anticommutant_kernel(one, one) == []


def test_kernel_shift_block():
    j3 = assemble_jordan(spec((0, [3])))
    assert len(kron_anticommutant_kernel(j3, j3)) == 3


def test_kernel_opposite_pair():
    u = assemble_jordan(spec((1, [2])))
    v = assemble_jordan(spec((-1, [2])))
    assert len(kron_anticommutant_kernel(u, v)) == 2


def test_cross_check_example_41_dimensions():
    s = spec((0, [3]), (1, [3]), (-1, [2]))
    report = cross_check_anticommutant(s, s)
    assert report.span_match
    assert report.expected_dimension == report.oracle_dimension == 7


def test_cross_check_disjoint():
    s = spec((5, [3]))
    report = cross_check_anticommutant(s, s)
    assert report.span_match
    assert report.expected_dimension == report.oracle_dimension == 0


def test_cross_check_random_specs(rng):
    for _ in range(15):
        u = random_spec(rng, max_n=6)
        v = random_spec(rng, max_n=6)
        report = cross_check_anticommutant(u, v)
        assert report.span_match, (u, v, report)


def test_grid_single_shift_block_size_3():
    j3 = assemble_jordan(spec((0, [3])))
    solutions = grid_enumerate_solutions(j3, [-1, 0, 1])
    assert len(solutions) == 9
    family = single_block_family(3)
    family_points = set()
    for xv in (-1, 0, 1):
        for yv in (-1, 0, 1):
            family_points.add(
                family.template.evaluate(
                    {"x": GaussianRational(xv), "y": GaussianRational(yv)}
                ).entries
            )
    assert {s.entries for s in solutions} == family_points


def test_grid_nonzero_eigenvalue_only_zero():
    j = assemble_jordan(spec((1, [2])))
    solutions = grid_enumerate_solutions(j, [-1, 0, 1])
    assert solutions == [ExactMatrix.zeros(2, 2)]


def test_grid_zero_matrix_everything_solves():
    j = ExactMatrix.zeros(2, 2)
    solutions = grid_enumerate_solutions(j, [0, 1])
    assert len(solutions) == 16


def test_grid_guard():
    j = ExactMatrix.zeros(3, 3)  # anticommutant dimension 9 > 6
    with pytest.raises(GridTooLarge):
        grid_enumerate_solutions(j, [0, 1])


def test_membership_example_family(rng):
    sim = similarity_from_jordan(spec((0, [3]), (1, [3]), (-1, [2])))
    family = solve(sim)
    report = verify_family_membership(family, family.matrix, 50, seed=7)
    assert report.span_match
    assert report.expected_dimension == report.oracle_dimension == 50


def test_membership_two_block_family_all_branches():
    sim = similarity_from_jordan(spec((0, [3, 4])))
    family = solve(sim)
    assert len(family.branches) == 4
    report = verify_family_membership(family, family.matrix, 50, seed=13)
    assert report.span_match
    assert report.counterexample is None


def test_membership_detects_corruption():
    family = single_block_family(3)
    # flip the sign of the (1, 2) entry: no longer anti-commutes
    broken_template = ParamMatrix.from_rows(
        [
            [family.template[0, 0], family.template[0, 1], family.template[0, 2]],
            [family.template[1, 0], family.template[1, 1], -family.template[1, 2]],
            [family.template[2, 0], family.template[2, 1], family.template[2, 2]],
        ]
    )
    broken = SolutionFamily(3, family.frame, family.branches, broken_template, family.matrix)
    report = verify_family_membership(broken, family.matrix, 20, seed=3)
    assert not report.span_match
    assert report.counterexample is not None


def test_membership_deterministic():
    family = single_block_family(4)
    first = verify_family_membership(family, family.matrix, 10, seed=11)
    second = verify_family_membership(family, family.matrix, 10, seed=11)
    assert first == second


def test_membership_counts_residual_draws_as_skipped():
    """A depth-0 search leaves (4,) one residual branch that random draws miss."""
    family = solve(similarity_from_jordan(spec((0, [4]))), 0)
    assert not family.branches[0].is_fully_solved()
    report = verify_family_membership(family, family.matrix, 5, seed=3)
    assert report.residual_skipped == report.expected_dimension == report.oracle_dimension == 5


def test_membership_reports_pinned_at_fixed_seed():
    """Pins the draws of every (branch, trial): a changed redraw loop moves them."""
    family = solve(similarity_from_jordan(spec((0, [4, 3]))))
    assert len(family.branches) == 4
    report = verify_family_membership(family, family.matrix, 3, seed=5)
    assert (report.expected_dimension, report.oracle_dimension, report.span_match) == (12, 12, True)
    assert report.residual_skipped == 0
    t = family.template
    flipped = (t.entries[0], -t.entries[1]) + t.entries[2:]
    broken = SolutionFamily(
        family.n, family.frame, family.branches, ParamMatrix(t.rows, t.cols, flipped), family.matrix
    )
    report = verify_family_membership(broken, family.matrix, 3, seed=5)
    assert (report.expected_dimension, report.oracle_dimension, report.span_match) == (12, 3, False)
    assert [str(x) for x in report.counterexample.entries if x] == [
        "1", "2", "-6+3i", "2/3-6i", "7/3+8/3i", "1", "-2", "-2/3+6i",
        "-1", "-2/3", "-5+1/4i", "7/4-6i", "4-4/3i", "2/3", "-7/4+6i",
    ]


@pytest.mark.parametrize(
    "seed, draws",
    [
        (0, ["3/5+8i", "1+3i", "2-3i", "-7/5", "6-8/5i"]),
        ("draw:7", ["-3/8+1/3i", "-9/8-5i", "1/3+3i", "9/5-5i", "-4/3+8/9i"]),
    ],
)
def test_random_gaussian_draws_pinned(seed, draws):
    rng = random.Random(seed)
    assert [format_scalar(random_gaussian(rng)) for _ in draws] == draws


def test_random_branch_values_respects_disequalities(rng):
    from ybx.solver import build_constraint_system, solve_branches

    template, system = build_constraint_system((3, 4))
    branches = solve_branches(system, parameters=template.variables())
    constrained = [b for b in branches if b.disequalities]
    assert constrained
    for branch in constrained:
        values = random_branch_values(branch, random.Random("x"))
        assert values is not None
        for condition in branch.disequalities:
            assert condition.evaluate(values)


def test_branches_agree_is_symmetric_and_discriminating():
    from ybx.solver import build_constraint_system, solve_branches

    template, system = build_constraint_system((3, 4))
    branches = solve_branches(system, parameters=template.variables())
    assert branches_agree(branches[0], branches[0], 20, seed=5)
    for other in branches[1:]:
        assert not branches_agree(branches[0], other, 20, seed=5)


def _example_42_branches():
    family = solve(similarity_from_problem(example_42_problem()))
    return [b.rename(NAMES_CANONICAL_TO_SHORT) for b in family.branches]


def test_branch_within_pairs_example_42_like_branches_agree():
    candidates = [*golden_42_families(), *_example_42_branches()]
    exact = [
        [branch_within(a, b) and branch_within(b, a) for b in candidates] for a in candidates
    ]
    sampled = [[branches_agree(a, b, 20, seed=3) for b in candidates] for a in candidates]
    assert exact == sampled
    # family i is branch i, and no two families or branches are the same set
    assert exact == [[i % 4 == j % 4 for j in range(8)] for i in range(8)]


def test_branch_within_across_different_free_names():
    # family 2 solves k12 = -1-k42 with k42 free; the solver solves k42 = -1-k12
    family, branch = golden_42_families()[2], _example_42_branches()[2]
    assert set(family.free_parameters) != set(branch.free_parameters)
    assert branch_within(family, branch) and branch_within(branch, family)


def test_branch_within_rejects_a_vanishing_side_condition_or_denominator():
    family = golden_42_families()[2]  # k32 = (-k42-k42*k42)/k22 with k22 != 0
    pinned = {"k11": "0", "k12": "-1", "k22": "0", "k31": "0", "k41": "0", "k42": "0"}
    inner = SolutionBranch(
        tuple((name, parse_rational_function(text)) for name, text in pinned.items()),
        (),
        (),
        tuple(n for n in ALL_42_NAMES if n not in pinned),
    )
    # inner satisfies both of family 2's assignments cross-multiplied, but
    # zeroes its side condition and its denominator k22
    assert not branch_within(inner, family)
    unconditioned = SolutionBranch(family.assignments, (), (), family.free_parameters)
    assert not branch_within(inner, unconditioned)
    assert branch_within(inner, SolutionBranch((), (), (), ALL_42_NAMES))
    k22 = (parse_polynomial("k22"),)
    assert not branch_within(inner, SolutionBranch((), k22, (), ALL_42_NAMES))


def test_branch_within_rejects_a_residual_inner():
    from ybx.solver import build_constraint_system, solve_branches

    template, system = build_constraint_system((4, 3))
    (stuck,) = solve_branches(system, depth_limit=0, parameters=template.variables())
    assert stuck.residual_system
    assert not branch_within(stuck, stuck)
    # refused even where containment holds: every point lies in the whole space
    whole = SolutionBranch((), (), (), template.variables())
    assert not branch_within(stuck, whole)


def test_report_shape():
    report = OracleReport(1, 1, True, None)
    assert report.span_match and report.counterexample is None


def test_membership_finds_an_entry_that_breaks_only_the_equation():
    """One branch of (3,) gains a diagonal pattern that still anti-commutes
    with J but breaks A X A = X A X: the first draw is the counterexample."""
    family = solve(similarity_from_jordan(spec((0, [3]))))
    t = family.template
    x = parse_polynomial("x")
    bent = list(t.entries)
    bent[0], bent[4], bent[8] = bent[0] + x, bent[4] - x, bent[8] + x
    broken = SolutionFamily(
        family.n, family.frame, family.branches, ParamMatrix(3, 3, tuple(bent)), family.matrix
    )
    report = verify_family_membership(broken, family.matrix, 4, seed=2)
    assert (report.expected_dimension, report.span_match) == (4, False)
    k = report.counterexample
    assert mat_mul(family.matrix, k) == -mat_mul(k, family.matrix)
    assert report.oracle_dimension == 0
    assert [str(z) for z in k.entries] == [
        "-2/7-1/4i", "-3/7-7i", "-2/7-1/4i", "0", "2/7+1/4i", "3/7+7i", "0", "0", "-2/7-1/4i",
    ]


# -- one chain width per family --------------------------------------------


def _membership_one_draw_at_a_time(family: SolutionFamily, trials: int, seed: int) -> OracleReport:
    """verify_family_membership's report, each draw instantiated with
    ParamMatrix.evaluate and tested alone with matrices.residuals."""
    completed = skipped = 0
    counterexample = None
    for b, branch in enumerate(family.branches):
        for t in range(trials):
            values = random_branch_values(branch, random.Random(f"{seed}:{b}:{t}"))
            if values is None or any(p.evaluate(values) for p in branch.residual_system):
                completed += 1
                skipped += values is not None
                continue
            x = family.template.evaluate(values)
            if all(r.is_zero() for r in residuals(family.matrix, x)):
                completed += 1
            elif counterexample is None:
                counterexample = x
    planned = len(family.branches) * trials
    return OracleReport(planned, completed, counterexample is None and completed == planned,
                        counterexample, skipped)


def _conjugated_2x2_family(entries, branches) -> SolutionFamily:
    """W M W^-1 for the 2 x 2 polynomial matrix M given by the texts of its
    entries, over A = W J2 W^-1, with W dense and rational."""
    w = ExactMatrix.from_rows([[1, GaussianRational(Fraction(2, 3))], [3, 7]])
    w_inv = mat_inverse(w)
    m = [[parse_polynomial(t) for t in row] for row in entries]
    t = [
        [sum((m[k][l] * (w[i, k] * w_inv[l, j]) for k in range(2) for l in range(2)),
             ParamPolynomial.zero()) for j in range(2)]
        for i in range(2)
    ]
    a = mat_mul(mat_mul(w, ExactMatrix.from_rows([[0, 1], [0, 0]])), w_inv)
    return SolutionFamily(2, "original", tuple(branches), ParamMatrix.from_rows(t), a)


def _branch(assignments: dict, free: tuple) -> SolutionBranch:
    parsed = tuple(sorted((n, parse_rational_function(t)) for n, t in assignments.items()))
    diseqs = tuple({rf.denominator for _, rf in parsed if not rf.is_polynomial()})
    return SolutionBranch(parsed, diseqs, (), free)


# X = [[a, b], [0, -a]] anti-commutes with J2 and solves J X J = X J X only
# where a = 0: b quartic over a linear denominator gives draws whose
# integer forms differ widely in size
_QUARTIC = "(y*y*y*y+3)/(y+2)"
_WIDE_BRANCHES = (
    _branch({"a": "0", "b": _QUARTIC}, ("y",)),
    _branch({"a": "0"}, ("b",)),
)


def test_membership_at_one_width_matches_each_draw_alone():
    family = _conjugated_2x2_family([["a", "b"], ["0", "-a"]], _WIDE_BRANCHES)
    sizes = []
    for t in range(12):
        values = random_branch_values(family.branches[0], random.Random(f"5:0:{t}"))
        sizes.append(_bits(_integer_form(family.template.evaluate(values))[0]))
    assert max(sizes) - min(sizes) >= 20
    report = verify_family_membership(family, family.matrix, 12, seed=5)
    assert report == _membership_one_draw_at_a_time(family, 12, 5)
    assert report.span_match and report.oracle_dimension == 24


@pytest.mark.parametrize(
    "entries, which",
    [
        # a quartic a breaks only the equation: the quadratic residual
        ([["a", "b"], ["0", "-a"]], 1),
        # an entry below the diagonal breaks the anti-commutation
        ([["a", "b"], ["a", "-a"]], 0),
    ],
)
def test_membership_at_one_width_reports_the_first_failing_draw(entries, which):
    """The first branch passes every draw; the second and third fail at
    every draw with a nonzero, and the report names the first failure in
    (branch, trial) order, as testing each draw alone does."""
    branches = (
        *_WIDE_BRANCHES[:1],
        _branch({"a": _QUARTIC}, ("b", "y")),
        _branch({"a": "y", "b": _QUARTIC}, ("y",)),
    )
    family = _conjugated_2x2_family(entries, branches)
    report = verify_family_membership(family, family.matrix, 6, seed=9)
    assert report == _membership_one_draw_at_a_time(family, 6, 9)
    assert not report.span_match and report.oracle_dimension == 6
    first = next(
        family.template.evaluate(values)
        for t in range(6)
        if (values := random_branch_values(branches[1], random.Random(f"9:1:{t}")))["a"]
    )
    assert report.counterexample == first
    assert not residuals(family.matrix, first)[which].is_zero()


# -- pinned reports: draws, accounting and counterexamples -------------------


@functools.cache
def _pinned_family(name: str) -> SolutionFamily:
    """Example 4.1 in the original frame, example 4.2, the fixed-W8
    original-frame family of test_family_bytes and (2, 2, 2), whose residual
    branches some draws miss."""
    if name == "4.1":
        sim = similarity_from_problem(example_41_problem())
        return to_original(solve(sim), sim)
    if name == "4.2":
        return solve(similarity_from_problem(example_42_problem()))
    if name == "w8":
        jordan = spec((0, [3, 2]), (1, [2]), (-1, [1]))
        sim = similarity_from_jordan(jordan, ExactMatrix.from_rows(W8))
        return to_original(solve(sim), sim)
    return solve(similarity_from_jordan(spec((0, [2, 2, 2]))))


def _report_row(report: OracleReport) -> tuple:
    return (
        report.expected_dimension,
        report.oracle_dimension,
        report.span_match,
        report.residual_skipped,
        report.counterexample,
    )


# (family, trials, seed) -> (planned, completed, span_match, residual_skipped)
MEMBERSHIP_REPORTS = {
    ("4.1", 25, 0): (25, 25, True, 0),
    ("4.1", 25, 7): (25, 25, True, 0),
    ("4.2", 25, 0): (100, 100, True, 0),
    ("4.2", 25, 7): (100, 100, True, 0),
    ("w8", 5, 0): (10, 10, True, 0),
    ("w8", 5, 7): (10, 10, True, 0),
    ("2-2-2", 5, 0): (35, 35, True, 5),
    ("2-2-2", 5, 7): (35, 35, True, 5),
}


@pytest.mark.parametrize("name, trials, seed", sorted(MEMBERSHIP_REPORTS))
def test_membership_reports_pinned(name, trials, seed):
    family = _pinned_family(name)
    report = verify_family_membership(family, family.matrix, trials, seed)
    assert _report_row(report) == (*MEMBERSHIP_REPORTS[name, trials, seed], None)


def _corrupted(name: str, kind: str) -> SolutionFamily:
    """For "flip", the family with one template entry negated, so that it no
    longer anti-commutes with its matrix: entry 30 for example 4.2, entry 0
    for example 4.1.  For "double", the template times 2: it still
    anti-commutes, but A(2X)A = (2X)A(2X) fails wherever XAX != 0."""
    family = _pinned_family(name)
    t = family.template
    if kind == "double":
        entries = tuple(p * 2 for p in t.entries)
    else:
        k = 30 if name == "4.2" else 0
        entries = t.entries[:k] + (-t.entries[k],) + t.entries[k + 1 :]
    return SolutionFamily(
        family.n, family.frame, family.branches, ParamMatrix(t.rows, t.cols, entries), family.matrix
    )


# (kind, seed) -> (planned, completed, span_match, residual_skipped), and the
# counterexample's nonzero entries in row-major order
CORRUPTED_42_REPORTS = {
    ("flip", 0): (
        (100, 0, False, 0),
        ["-1/6+1/9i", "4+1i", "-9/5+9/5i", "1+2/7i", "1/6-1/9i", "9/5-9/5i",
         "-1-2/3i", "-3/4-4/9i", "3+7/5i", "1/2+9i", "-1-2/3i", "-3-7/5i"],
    ),
    ("flip", 7): (
        (100, 0, False, 0),
        ["-9-7/2i", "-1+2/3i", "-1/3+3/2i", "1-5/2i", "9+7/2i", "1/3-3/2i",
         "-2-1/3i", "-3/8-3/2i", "7/6+1/5i", "-9/5+1/3i", "-2-1/3i", "-7/6-1/5i"],
    ),
    ("double", 0): (
        (100, 25, False, 0),
        ["-2", "-3/2-2/3i", "7/3+12i", "-4", "-4/9+12/7i", "2", "3/2+2/3i", "4",
         "-2", "2/3+3i", "-1/3-8i", "7+1i", "-2-2/3i", "-2/3-3i", "-7-1i"],
    ),
    ("double", 7): (
        (100, 25, False, 0),
        ["-2", "3/2+9/4i", "14/3+14/5i", "10/3-8i", "3+18i", "2", "-3/2-9/4i",
         "-10/3+8i", "-2", "16/5+2i", "-1/4", "-10-6/5i", "4/3+12/7i", "-16/5-2i",
         "10+6/5i"],
    ),
}


@pytest.mark.parametrize("kind, seed", sorted(CORRUPTED_42_REPORTS))
def test_membership_counterexamples_pinned(kind, seed):
    broken = _corrupted("4.2", kind)
    counts, entries = CORRUPTED_42_REPORTS[kind, seed]
    *row, counterexample = _report_row(verify_family_membership(broken, broken.matrix, 25, seed))
    assert tuple(row) == counts
    assert [str(x) for x in counterexample.entries if x] == entries


def test_membership_dense_counterexample_pinned():
    broken = _corrupted("4.1", "flip")
    *row, counterexample = _report_row(verify_family_membership(broken, broken.matrix, 25, 7))
    assert tuple(row) == (25, 0, False, 0)
    text = " ".join(map(str, counterexample.entries))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ffadc3db2cad898ed1c50b801caf5e4c9cd3c06a950ff151c4451313d09224fa"
    )


# (family, corruption, branch, ResidualNonzero message of sample)
SAMPLE_RESIDUAL_MESSAGES = [
    ("4.2", "flip", 0, "anti-commutation residual is nonzero at entry (4, 3)"),
    ("4.2", "double", 1, "equation residual is nonzero at entry (0, 3)"),
    ("4.1", "flip", 0, "anti-commutation residual is nonzero at entry (0, 0)"),
]


@pytest.mark.parametrize("name, kind, branch, message", SAMPLE_RESIDUAL_MESSAGES)
def test_sample_residual_messages_pinned(name, kind, branch, message):
    broken = _corrupted(name, kind)
    free = broken.branches[branch].free_parameters
    values = {n: GaussianRational(k + 2, 1) for k, n in enumerate(free)}
    with pytest.raises(ResidualNonzero) as caught:
        sample(broken, branch, values)
    assert str(caught.value) == message
