"""Independent verification machinery.

Nothing here reuses the structural block-pattern construction.  The
anticommutant is recomputed from scratch through the vectorization identity
vec(U X + X V) = (I kron U + V^T kron I) vec(X) and an exact kernel; the
operator is written entry by entry from the nonzero entries of U and V
(_vectorized_operator), with no Kronecker product built.  Small solution
sets are enumerated over a finite grid of anticommutant coordinates, and
solution families are spot-checked at pseudorandom rational parameter
values in Gaussian integers: a draw's assigned values come from
solver.branch_values, through the split its branch keeps for every draw,
and verify_family_membership evaluates the template at every draw first,
takes one digit width for all of them (matrices._chain_width), scales and
packs A once at it, and tests each draw on the integer residual parts
(matrices._first_residual).  A random
part is read from a fixed table of the 19 x 18 rationals num/den that
random_gaussian can draw, with the same generator calls as building it.
Example 4.2's systems and its family-to-branch pairing are decided by
exact substitution (first_unsatisfied, branch_within); only family
membership is still re-verified at random draws.  Agreement between these
oracles and the structural path is what the test suite leans on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from itertools import product as _cartesian
from typing import Sequence

from .anticommutant import anticommutant_basis
from .errors import DimensionMismatch, DisequalityViolated, GridTooLarge, NotSquare
from .jordan import JordanSpec, assemble_jordan
from .matrices import ExactMatrix, RowSpan, _chain_width, _exact, _first_residual, _form
from .matrices import _integer_form, _scaled, null_space_basis
from .polynomials import ParamPolynomial, _integer_forms, _substitute
from .scalars import ZERO, GaussianRational, _make, as_gaussian
from .solver import SolutionBranch, SolutionFamily, branch_satisfied_by, branch_values

_GRID_DIMENSION_LIMIT = 6
_GRID_POINT_LIMIT = 10**6
_REDRAW_LIMIT = 100
_DENOMINATORS = tuple(d for d in range(-9, 10) if d)
# every part random_gaussian draws: row num + 9 holds Fraction(num, den) for
# each den of _DENOMINATORS, in their order, an integral one as its int
_PARTS = tuple(
    tuple(_make(Fraction(num, den), 0).re for den in _DENOMINATORS) for num in range(-9, 10)
)


@dataclass(frozen=True, slots=True)
class OracleReport:
    """Outcome of an oracle comparison.

    For span checks the dimensions are the structural count versus the kernel
    count; for membership checks they are planned versus completed trials,
    and residual_skipped counts the completed trials whose draw missed a
    branch's residual system, so that nothing was checked.  span_match true
    implies the dimensions agree and no counterexample was found.
    """

    expected_dimension: int
    oracle_dimension: int
    span_match: bool
    counterexample: ExactMatrix | None = None
    residual_skipped: int = 0


def vec(m: ExactMatrix) -> ExactMatrix:
    """Column-stacking vectorization: vec(m)[j*rows + i] = m[i, j]."""
    return ExactMatrix.column([m[i, j] for j in range(m.cols) for i in range(m.rows)])


def unvec(v: ExactMatrix, rows: int, cols: int) -> ExactMatrix:
    if v.cols != 1 or v.rows != rows * cols:
        raise DimensionMismatch("unvec", v.shape, (rows * cols, 1))
    return ExactMatrix.from_rows(
        [[v[j * rows + i, 0] for j in range(cols)] for i in range(rows)]
    )


def kron_anticommutant_kernel(u: ExactMatrix, v: ExactMatrix) -> list[ExactMatrix]:
    """Basis of {X : U X + X V = 0} straight from the vectorized kernel."""
    if not u.is_square():
        raise NotSquare("kron_anticommutant_kernel u", u.shape)
    if not v.is_square():
        raise NotSquare("kron_anticommutant_kernel v", v.shape)
    return [unvec(w, u.rows, v.rows) for w in null_space_basis(_vectorized_operator(u, v))]


def _vectorized_operator(u: ExactMatrix, v: ExactMatrix) -> ExactMatrix:
    """I kron U + V^T kron I for square U (n x n) and V (m x m), written entry
    by entry: U[q, s] sits at (p*n + q, p*n + s) in each diagonal block p,
    and V[r, p] at (p*n + q, r*n + q) for each q."""
    n, m = u.rows, v.rows
    size = n * m
    entries = [ZERO] * (size * size)
    u_entries = [(divmod(k, n), x) for k, x in enumerate(u.entries) if x]
    for p in range(m):
        for (q, s), x in u_entries:
            entries[(p * n + q) * size + p * n + s] = x
    for k, x in enumerate(v.entries):
        if x:
            r, p = divmod(k, m)
            for q in range(n):
                entries[(p * n + q) * size + r * n + q] += x
    return ExactMatrix(size, size, tuple(entries))


def cross_check_anticommutant(u_spec: JordanSpec, v_spec: JordanSpec) -> OracleReport:
    """Structural anticommutant basis versus the vectorized kernel.

    Dimensions must agree and each structural element must lie in the kernel
    span (the kernel basis is independent by construction, and the structural
    elements are checked independent too, so equal spans follow).
    """
    structural = anticommutant_basis(u_spec, v_spec)
    kernel = kron_anticommutant_kernel(assemble_jordan(u_spec), assemble_jordan(v_spec))
    expected = structural.dimension
    oracle_dim = len(kernel)

    kernel_span = RowSpan(element.entries for element in kernel)
    structural_span = RowSpan()
    counterexample = None
    independent = True
    for element in structural.basis:
        if not structural_span.add(element.entries):
            independent = False
            counterexample = element
            break
        if not kernel_span.contains(element.entries):
            counterexample = element
            break
    span_match = (
        expected == oracle_dim and independent and counterexample is None
    )
    return OracleReport(expected, oracle_dim, span_match, counterexample)


def grid_enumerate_solutions(
    j: ExactMatrix, entry_set: Sequence
) -> list[ExactMatrix]:
    """Every anti-commuting solution with anticommutant coordinates in entry_set.

    Sound and complete relative to the grid: enumeration runs over
    coordinates in the vectorized-kernel basis of {X : JX + XJ = 0} (every
    solution anti-commutes, so nothing outside that subspace is missed), and
    each candidate is checked against both equations exactly, in Gaussian
    integers; only a solution becomes an ExactMatrix.  Refuses with
    GridTooLarge when the coordinate count exceeds 6 or the grid 10^6 points.
    """
    values = [as_gaussian(v) for v in entry_set]
    basis = kron_anticommutant_kernel(j, j)
    dim = len(basis)
    count = len(values) ** dim if values else 0
    if dim > _GRID_DIMENSION_LIMIT or count > _GRID_POINT_LIMIT:
        raise GridTooLarge(dim, count)
    # every value times every basis element, scaled once over one d: a
    # candidate's integer form is the sum of one of these per element
    (re, im), d = _scaled([c * x for e in basis for c in values for x in e.entries])
    size, n = j.rows * j.cols, len(values)
    multiples, _ = _form(re, im, d, size)
    # a candidate's entries are sums of dim of the multiples' entries, so
    # one width for the multiples with dim.bit_length() bits more holds all
    a, zero, solutions = _integer_form(j), [0] * size, []
    width = _chain_width(a, [(multiples, d)], dim.bit_length())
    for picks in _cartesian(*(multiples[t * n : (t + 1) * n] for t in range(dim))):
        k_re = [sum(col) for col in zip(zero, *(p for p, _ in picks))]
        k_im = im and [sum(col) for col in zip(zero, *(q for _, q in picks))]
        form = _form(k_re, k_im if k_im and any(k_im) else None, d, j.cols)
        if _first_residual(a, form, *width) is None:
            solutions.append(_exact(*form))
    return solutions


def random_gaussian(rng: random.Random) -> GaussianRational:
    """Small random scalar: both parts have numerator and denominator in [-9, 9].

    Each part is a randint for the numerator, then a choice of the
    denominator, read from _PARTS: the same calls, and so the same stream,
    as building Fraction(num, den) for each draw."""
    re = rng.choice(_PARTS[rng.randint(-9, 9) + 9])
    return _make(re, rng.choice(_PARTS[rng.randint(-9, 9) + 9]))


def first_unsatisfied(
    branches: Sequence[SolutionBranch], system: Sequence[ParamPolynomial]
) -> tuple[int, ParamPolynomial] | None:
    """(branch index, equation) of the first equation that a branch's
    assignments, substituted exactly, leave with a nonzero numerator; None
    when every branch satisfies every equation identically.  A residual
    branch's unsettled equations count as unsatisfied: its residual system
    is not used."""
    for index, branch in enumerate(branches):
        substituted = _substitute(system, branch.assignment_map())
        bad = next((e for e, rf in zip(system, substituted) if rf.numerator), None)
        if bad is not None:
            return index, bad
    return None


def branch_within(inner: SolutionBranch, outer: SolutionBranch) -> bool:
    """Whether the fully solved branch `inner` lies within `outer`, generically.

    Both branches range over the same parameter names.  True when `inner`'s
    assignments, substituted exactly, satisfy each outer assignment
    x = num/den as x*den - num = 0 and outer's residual system, and leave no
    outer side condition or assignment denominator with a zero numerator.
    This is generic containment: inner's free parameters range over a dense
    open set, so a polynomial vanishes there only if it is identically zero.
    A residual `inner` gives False, since deciding membership in its
    residual system needs a radical test that stays test-only.  Whether the
    two side-condition sets are equal is left to the caller.
    """
    if not inner.is_fully_solved():
        return False
    equations = [
        ParamPolynomial.variable(name) * rf.denominator - rf.numerator
        for name, rf in outer.assignments
    ]
    vanishing = [*equations, *outer.residual_system]
    nonzero = [*outer.disequalities, *(rf.denominator for _, rf in outer.assignments)]
    substituted = _substitute([*vanishing, *nonzero], inner.assignment_map())
    return not any(rf.numerator for rf in islice(substituted, len(vanishing))) and all(
        rf.numerator for rf in substituted
    )


def random_branch_values(
    branch: SolutionBranch, rng: random.Random
) -> dict[str, GaussianRational] | None:
    """A random full valuation lying in the branch, or None when every draw
    hits a side condition (degenerate at this sampling grid)."""
    for _ in range(_REDRAW_LIMIT):
        candidate = {name: random_gaussian(rng) for name in branch.free_parameters}
        try:
            return branch_values(branch, candidate)
        except DisequalityViolated:
            continue
    return None


def branches_agree(
    left: SolutionBranch, right: SolutionBranch, trials: int, seed: int
) -> bool:
    """Randomized two-sided containment check of two branch strata.

    Both branches must range over the same parameter name space.  Each side
    is sampled `trials` times and the values must satisfy the other branch;
    any miss means the strata differ.  The shipped commands pair branches
    exactly with branch_within; this is kept as the acceptance suite's
    randomized cross-check.
    """
    for tag, (src, dst) in enumerate(((left, right), (right, left))):
        for trial in range(trials):
            rng = random.Random(f"{seed}:{tag}:{trial}")
            values = random_branch_values(src, rng)
            if values is None:
                continue
            if any(poly.evaluate(values) for poly in src.residual_system):
                continue
            if not branch_satisfied_by(dst, values):
                return False
    return True


def verify_family_membership(
    family: SolutionFamily, j: ExactMatrix, trials: int, seed: int
) -> OracleReport:
    """Random instantiations of every branch, re-verified against both equations.

    Each (branch, trial) pair derives its own generator from the seed, draws
    small random rationals for the free parameters, redraws up to 100 times
    while a side condition lands on zero (exhaustion counts the trial as
    degenerate-at-grid, not a failure), and checks both residuals of the
    instantiated matrix against j.  A draw that misses a branch's residual
    system checks nothing; it counts as completed and in residual_skipped.
    Each draw's values come from branch_values, through the split of the
    side conditions and assignments that its branch makes once and keeps;
    the template is evaluated at all the other draws in one call, to
    integer forms, and j is scaled and packed once, at one digit
    width that holds every draw's residual chain.  The first failure, in
    (branch, trial) order, is reported as a counterexample.
    """
    if j.shape != (family.n, family.n):
        raise DimensionMismatch("verify_family_membership", j.shape, (family.n, family.n))
    planned = len(family.branches) * trials
    completed = residual_skipped = 0
    draws = []
    for branch_index, branch in enumerate(family.branches):
        for trial in range(trials):
            rng = random.Random(f"{seed}:{branch_index}:{trial}")
            values = random_branch_values(branch, rng)
            if values is None:
                completed += 1  # degenerate at this grid; not a failure
            elif any(poly.evaluate(values) for poly in branch.residual_system):
                completed += 1  # draw misses the unresolved constraints; skip
                residual_skipped += 1
            else:
                draws.append(values)
    counterexample = None
    a, forms = _integer_form(j), list(_integer_forms(family.template, draws))
    width = _chain_width(a, forms)
    for k in forms:
        if _first_residual(a, k, *width) is None:
            completed += 1
        elif counterexample is None:
            rows, d = k
            counterexample = _exact(rows, d)
    span_match = counterexample is None and completed == planned
    return OracleReport(planned, completed, span_match, counterexample, residual_skipped)
