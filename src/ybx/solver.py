"""Anti-commuting solutions of the quadratic matrix equation A X A = X A X.

The solution set is computed in three stages.  First, every anti-commuting
candidate lies in the anticommutant of the Jordan form, which has an explicit
block-structured basis; a solution is additionally supported only on the
nilpotent (zero-eigenvalue) diagonal block, because blocks against nonzero
eigenvalues are killed by the quadratic condition.  Second, writing Y as a
linear template over the anticommutant parameters, the equation is (for
anti-commuting Y) equivalent to the quadratic system Y*(Y - J0)*J0 = 0 on the
nilpotent part.  The template is built from the block-pair patterns: their
supports are disjoint, so each entry is zero or one signed parameter.
Third, that degree-<=2 polynomial system is split into explicit branches:
parameter assignments plus "must stay nonzero" side conditions, with honest
residual systems when the case split cannot finish within the depth limit.
One depth-first worklist loop runs the split; depth counts splits only, and
every branch comes from its one leaf site.  An equation enters the search
once (_entering), as a record of its monic product, factors and names that
the steps read instead of its terms.  The loop tries one ordered table
of named rules (_RULES): "linear" solves and substitutes, and the splits
"factor" and "coefficient" apply only below the depth limit.  A leaf with a
residual system records why the search stopped there, as the branch's
reason: "depth_limit" when a split would still apply (told from the
equations, without building children), "no_rule" when none does.  At
DEBUG level the "ybx.solver" logger gets each rule that fires, by its
_RULES name, with its depth, and each leaf with its branch's reason; the
level is read once per search (_debug_logger), so the default search pays
nothing per node.  The loop visits the system in grade order: each unknown
has a weight from its block sizes, every equation is homogeneous in those
weights, the equations in the weight-0 unknowns (K0^2 = 0 for the weight-0
part K0) are split first, and the unknowns of higher weight, which then
mostly enter linearly, are solved from the highest weight down.  Each
split partitions the solution set, so the branches are disjoint and none
is merged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate, chain, pairwise, product
from typing import Iterable, Mapping, NamedTuple, Sequence

from .anticommutant import anticommutant_basis
from .errors import (
    DimensionMismatch,
    DisequalityViolated,
    MissingParameter,
    ResidualNonzero,
)
from .jordan import (
    JordanSpec,
    SimilarityData,
    assemble_jordan,
    nilpotent_part,
)
from .matrices import ExactMatrix, _chain_width, _conjugates, _exact, _first_residual
from .matrices import _integer_form, block_diag, residuals
from .polynomials import ParamMatrix, ParamPolynomial, RationalFunction
from .polynomials import _Coefficients, _coefficients, _evaluate, _integer_forms, _polynomial
from .polynomials import _substitute
from .scalars import ZERO, GaussianRational, _over, as_gaussian

JORDAN_FRAME = "jordan"
ORIGINAL_FRAME = "original"
DEFAULT_DEPTH_LIMIT = 8


def _debug_logger():
    """The "ybx.solver" logger when it is enabled for DEBUG, else None.  Only
    a program that has imported logging can have set it up, so the package
    does not import logging itself (the import costs about 0.8 MB)."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(__name__)
    return log if log.isEnabledFor(logging.DEBUG) else None


def residual_ybe(a: ExactMatrix, x: ExactMatrix) -> ExactMatrix:
    """A*X*A - X*A*X; zero exactly when x solves the equation for a."""
    return residuals(a, x)[1]


@dataclass(frozen=True, slots=True)
class SolutionBranch:
    """One stratum of the solution set.

    `assignments` pins some parameters to rational functions of the free
    ones, `disequalities` are polynomials that must evaluate nonzero, and a
    nonempty `residual_system` marks a branch the case split could not finish
    (its equations must additionally vanish).  The search gives such a
    branch its `reason`: "depth_limit" when a split still applied but the
    depth limit stopped it, "no_rule" when no rule applied.  It is empty on
    every other branch and on a branch read from a file, and it takes no
    part in equality.
    """

    assignments: tuple[tuple[str, RationalFunction], ...]
    disequalities: tuple[ParamPolynomial, ...]
    residual_system: tuple[ParamPolynomial, ...]
    free_parameters: tuple[str, ...]
    reason: str = field(default="", compare=False)

    def assignment_map(self) -> dict[str, RationalFunction]:
        return dict(self.assignments)

    def is_fully_solved(self) -> bool:
        return not self.residual_system

    def rename(self, mapping: Mapping[str, str]) -> "SolutionBranch":
        """The same branch over renamed parameters."""
        return SolutionBranch(
            tuple(sorted((mapping.get(n, n), rf.rename(mapping)) for n, rf in self.assignments)),
            tuple(p.rename(mapping) for p in self.disequalities),
            tuple(p.rename(mapping) for p in self.residual_system),
            tuple(mapping.get(n, n) for n in self.free_parameters),
            self.reason,
        )


@dataclass(frozen=True, slots=True)
class SolutionFamily:
    """All anti-commuting solutions of M Y M = Y M Y for one matrix M.

    `template` is the pre-branch linear parameterization; instantiating any
    branch at values satisfying its side conditions yields a matrix K with
    M*K + K*M = 0 and M*K*M = K*M*K, where M is `matrix` (the canonical
    Jordan form in the jordan frame, the original matrix after conversion).
    """

    n: int
    frame: str
    branches: tuple[SolutionBranch, ...]
    template: ParamMatrix
    matrix: ExactMatrix

    def parameters(self) -> tuple[str, ...]:
        return self.template.variables()


def _empty_branch(free: Sequence[str]) -> SolutionBranch:
    return SolutionBranch((), (), (), tuple(free))


def build_constraint_system(
    j0_sizes: Sequence[int],
) -> tuple[ParamMatrix, list[ParamPolynomial]]:
    """Linear template and quadratic constraint system for a nilpotent part.

    The template is the generic anticommutant member of the all-zero-eigenvalue
    Jordan matrix with the given block sizes, written entry by entry from the
    nonzero +-1 pattern entries of its basis elements.  The system collects
    the nonzero entries of template * (template - J0) * J0, deduplicated in
    row-major order.  Each entry is summed from the template's signed names
    with Python-int coefficients and made one GaussianRational per term.
    Solutions of the system are exactly the template instances that solve
    the quadratic matrix equation.
    """
    if not j0_sizes or any(s < 1 for s in j0_sizes):
        raise ValueError("need at least one nilpotent block of positive size")
    sizes = tuple(int(s) for s in j0_sizes)
    spec = JordanSpec(((as_gaussian(0), sizes),))
    basis = anticommutant_basis(spec, spec)
    n0 = spec.n
    entries = [ParamPolynomial.zero()] * (n0 * n0)
    signed: list[tuple[str, int] | None] = [None] * (n0 * n0)
    for name, element in zip(basis.parameter_names, basis.basis):
        for idx, sign in enumerate(element.entries):
            if sign:
                entries[idx] = ParamPolynomial((((name,), sign),))
                signed[idx] = (name, int(sign.re))
    template = ParamMatrix(n0, n0, tuple(entries))
    rows = [[(k, e) for k in range(n0) if (e := signed[i * n0 + k])] for i in range(n0)]
    # column j of M @ J0 is column j - 1 of M inside a block and zero in a
    # block's first column; there J0's 1 in column j - 1 sits in row j - 2
    starts = set(accumulate(sizes, initial=0))
    system: list[ParamPolynomial] = []
    seen: set[tuple] = set()
    for i, j in product(range(n0), range(n0)):
        if j in starts:
            continue
        acc: dict[tuple[str, ...], int] = {}
        for k, (a, s) in rows[i]:
            if b := signed[k * n0 + j - 1]:
                mono = (a, b[0]) if a <= b[0] else (b[0], a)
                acc[mono] = acc.get(mono, 0) + s * b[1]
        if j - 1 not in starts and (t := signed[i * n0 + j - 2]):
            acc[(t[0],)] = -t[1]
        entry = _polynomial({mono: (c, 0) for mono, c in acc.items()})
        if entry.is_zero():
            continue
        key = entry.monic()[0].terms
        if key not in seen:
            seen.add(key)
            system.append(entry)
    return template, system


def constraint_weights(j0_sizes: Sequence[int], names: Iterable[str]) -> dict[str, int]:
    """The weight of each unknown of build_constraint_system(j0_sizes).

    Unknown k1_u_1_v_m (the anticommutant's names) has pattern m of block
    pair (u, v), which lies on the diagonal col - row = w of its block:
    w = s_v - min(s_u, s_v) + m - 1, with s_u and s_v the sizes of blocks u
    and v.  The system is graded by these weights: in every equation each
    term has the same sum of w - 1 over its unknowns, and the equations of
    lowest degree, K0^2 = 0, are quadratic in the weight-0 unknowns alone.
    """
    weights = {}
    for name in names:
        _, u, _, v, m = (int(part) for part in name[1:].split("_"))
        s_u, s_v = j0_sizes[u - 1], j0_sizes[v - 1]
        weights[name] = s_v - min(s_u, s_v) + m - 1
    return weights


# ---------------------------------------------------------------------------
# branch search


class _Equation(NamedTuple):
    """An equation's record: monic product of its factors, factors, names, names of degree 1."""

    product: ParamPolynomial
    factors: list[ParamPolynomial]
    names: frozenset[str]
    linear: frozenset[str]


def _record(product: ParamPolynomial, factors: list[ParamPolynomial]) -> _Equation:
    """The record of a product of factors; its terms are read once."""
    monos = [mono for mono, _ in product.terms]
    names = frozenset(chain.from_iterable(monos))
    # monomials are sorted, so a squared name sits next to itself
    squared = {v for mono in monos if len(mono) > 1 for v, w in pairwise(mono) if v == w}
    return _Equation(product, factors, names, names - squared)


def _entering(p: ParamPolynomial) -> _Equation:
    """p's record, the one place where an equation enters the search: the
    monic p and its factors (_factored), multiplied back only when a repeat
    collapsed.  A constant p keeps itself and has no factors."""
    if p.is_constant():
        return _record(p, [])
    monic, factors, whole = _factored(p)
    return _record(monic if whole else math.prod(factors), factors)


def _factored(p: ParamPolynomial) -> tuple[ParamPolynomial, list[ParamPolynomial], bool]:
    """(p monic, its factors, whether they multiply back to it) for a
    nonconstant p, which is made monic once, and split radical-style
    (repeats collapsed) into the monomial content, each variable once, and
    a single-variable quadratic quotient with roots in Q(i); any other
    quotient comes back atomic.  Every factor is monic (a variable,
    x - root, or the monic quotient), and they are distinct: no variable
    divides the quotient, so its roots are nonzero and it is not a bare
    variable.  The factors are invariant under units and stable on
    products of their own: for every order-preserving sub-list L of them,
    the factors of the product of L are L.  Monomials are in a
    multiplicative order, so the monic p is their product unless a repeat
    collapsed."""
    monic = p.monic()[0]
    content, rest = monic.monomial_content()
    factors = [ParamPolynomial.variable(v) for v in sorted(set(content))]
    whole = len(factors) == len(content)
    if not rest.is_constant():
        roots = _roots(rest)
        if roots is None:
            factors.append(rest)
        else:
            var = ParamPolynomial.variable(rest.terms[-1][0][0])
            factors.extend(var - ParamPolynomial.constant(r) for r in roots)
            whole = whole and len(roots) == 2
    return monic, factors, whole


def _roots(p: ParamPolynomial) -> list[GaussianRational] | None:
    """The distinct roots in Q(i) of a monic quadratic p in one variable, else None."""
    if len(p.variables()) != 1 or p.degree() != 2:
        return None
    coefficients = {len(mono): c for mono, c in p.terms}  # one variable: degree is power
    b, c = coefficients.get(1, ZERO), coefficients.get(0, ZERO)
    root = (b * b - 4 * c).sqrt()
    if root is None:
        return None
    r1, r2 = (-b + root) / 2, (-b - root) / 2
    return [r1] if r1 == r2 else [r1, r2]


class _BranchState:
    """Mutable search state: equations, assignments, side conditions.

    Equations are _Equation records, built by _entering for the initial
    system, assign's rewrites and both sides of a coefficient split, and by
    _record where _normalize or a factor split keeps some factors.
    knows_nonzero factors only a polynomial whose names all occur in some
    side condition.  Those names are kept in recorded, which add_disequality
    and assign update with the side conditions.
    """

    __slots__ = ("equations", "assignments", "disequalities", "recorded")

    def __init__(self, equations, assignments, disequalities):
        self.equations: list[_Equation] = equations
        self.assignments: dict[str, RationalFunction] = assignments
        self.disequalities: dict[tuple, ParamPolynomial] = disequalities
        self.recorded: set[str] = {
            v for m in disequalities.values() for mono, _ in m.terms for v in mono
        }

    def clone(self) -> "_BranchState":
        return _BranchState(list(self.equations), dict(self.assignments), dict(self.disequalities))

    def add_disequality(self, p: ParamPolynomial) -> bool:
        """Record p != 0; returns False when p is identically zero."""
        if p.is_zero():
            return False
        if p.is_constant():
            return True
        m = p.monic()[0]
        self.disequalities.setdefault(m.terms, m)
        self.recorded.update(v for mono, _ in m.terms for v in mono)
        return True

    def knows_nonzero(self, p: ParamPolynomial) -> bool:
        """Whether p != 0 follows from the recorded side conditions.

        A nonconstant p has nonconstant monic factors, known iff recorded.
        Together they use every name of p, so a name that no side condition
        uses rules p out before it is factored.
        """
        if p.is_constant():
            return bool(p.constant_value())
        if any(v not in self.recorded for mono, _ in p.terms for v in mono):
            return False
        return all(f.terms in self.disequalities for f in _factored(p)[1])

    def assign(self, name: str, value: RationalFunction) -> bool:
        """Substitute name := value everywhere; returns False if infeasible.

        One _substitute pass rewrites every side condition, assignment
        numerator and denominator, and equation that mentions name, so the
        powers of value are built once.  An equation's record names its
        names, and an equation without name keeps its record.  False when a
        side condition becomes zero or an assignment denominator vanishes;
        the state may then be half-rebuilt, and every caller drops it.
        """
        conditions = self.disequalities.values()
        diseqs = [(m, any(name in mono for mono, _ in m.terms)) for m in conditions]
        rfs = [
            (var, rf, any(name in mono for mono, _ in rf.numerator.terms + rf.denominator.terms))
            for var, rf in self.assignments.items()
        ]
        eqs = [(eq, name in eq.names) for eq in self.equations]
        out = _substitute(
            [
                *(m for m, hit in diseqs if hit),
                *(p for _, rf, hit in rfs if hit for p in (rf.numerator, rf.denominator)),
                *(eq.product for eq, hit in eqs if hit),
            ],
            {name: value},
        )
        self.disequalities, self.recorded = {}, set()
        for m, hit in diseqs:
            if not self.add_disequality(next(out).numerator if hit else m):
                return False
        self.assignments = {}
        for var, rf, hit in rfs:
            if hit:
                num, den = next(out), next(out)
                if den.numerator.is_zero():
                    return False
                rf = RationalFunction.make(
                    num.numerator * den.denominator, num.denominator * den.numerator
                )
            self.assignments[var] = rf
        self.assignments[name] = value
        self.equations = [_entering(next(out).numerator) if hit else eq for eq, hit in eqs]
        return True


def solve_branches(
    system: Sequence[ParamPolynomial],
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    parameters: Sequence[str] | None = None,
    weights: Mapping[str, int] | None = None,
) -> list[SolutionBranch]:
    """Split a degree-<=2 polynomial system into explicit solution branches.

    One depth-first worklist loop pops (depth, state) pairs.  Each pass
    collapses repeated and known-nonzero factors (an infeasible state is
    dropped), then takes the first rule of _RULES that applies: "linear"
    solves a parameter that appears linearly with a coefficient known to be
    nonzero (a nonzero constant or recorded) and substitutes; while depth <
    depth_limit, "factor" splits on a factorization f*g = 0 (branch f = 0
    versus f != 0, g = 0) and "coefficient" on the coefficient of a linear
    occurrence being zero or not.  Depth counts splits only.

    The steps visit the system in grade order by `weights` (from
    constraint_weights; a name without a weight has weight 0).  While some,
    but not all, equations mention only weight-0 unknowns, the steps look at
    those equations alone, and at all equations only when no step applies
    there; linear occurrences go by descending weight, then by name.
    Without weights that is name order over all equations.

    A state with no rule left is a leaf, and its remaining equations stay as
    an honest residual system, with the reason the search stopped there:
    "depth_limit" when a split would still apply, else "no_rule".  Side
    conditions are recorded monic and once each, and a leaf records each
    assignment denominator they do not already cover.  Every step preserves
    the solution set, so when no residual systems remain the returned
    branches jointly cover all of it.  Each split partitions it and a linear
    solve is a bijection, so the leaves are disjoint; none is merged.
    """
    equations = [_entering(p) for p in system]
    if parameters is None:
        parameters = sorted(set().union(*(eq.names for eq in equations)))
    universe = tuple(parameters)
    weights = weights or {}

    log = _debug_logger()
    out: list[SolutionBranch] = []
    stack = [(0, _BranchState(equations, {}, {}))]
    while stack:
        depth, state = stack.pop()
        if not _normalize(state):
            continue
        children = None
        for scope in _scopes(state, weights):
            for rule, apply, splits in _RULES:
                if splits and depth >= depth_limit:
                    break
                children = apply(state, scope, weights)
                if children is not None:
                    break
            if children is not None:
                break
        if children is None:
            # a split still applies: two factors or more, or a name of degree 1
            stopped = depth >= depth_limit and any(
                len(eq.factors) > 1 or eq.linear for eq in state.equations
            )
            out.append(_finalize(state, universe, "depth_limit" if stopped else "no_rule"))
            if log is not None:
                log.debug("leaf at depth %d, reason %r", depth, out[-1].reason)
        else:
            if log is not None:
                log.debug("rule %s at depth %d", rule, depth)
            # reversed, so the first child is popped next: depth-first order
            stack.extend((depth + splits, child) for child in reversed(children))
    return out


def _scopes(state: _BranchState, weights: Mapping[str, int]) -> list[Sequence[int]]:
    """The equation indices the steps look at, in turn: the equations in the
    weight-0 unknowns alone, then all, or all at once when that is either."""
    everything = range(len(state.equations))
    graded = [i for i, eq in enumerate(state.equations) if not any(map(weights.get, eq.names))]
    return [graded, everything] if 0 < len(graded) < len(everything) else [everything]


def _normalize(state: _BranchState) -> bool:
    """Canonicalize equations in one pass; False when the branch is infeasible.

    Each equation keeps its factors that are not recorded nonzero (a constant
    has none), its record is rebuilt only when one was dropped, and repeats
    are dropped.  One pass suffices: the search loop normalizes again after
    every substitution, and the reduced equations are monic and distinct.
    """
    cleaned: dict[tuple, _Equation] = {}
    for eq in state.equations:
        if eq.product.is_zero():
            continue
        # each factor is monic and atomic: known nonzero iff recorded
        live = [f for f in eq.factors if f.terms not in state.disequalities]
        if not live:
            return False
        if len(live) < len(eq.factors):
            eq = _record(math.prod(live), live)
        cleaned.setdefault(eq.product.terms, eq)
    state.equations = list(cleaned.values())
    return True


def _linear_occurrences(state: _BranchState, scope: Sequence[int], weights: Mapping[str, int]):
    """(name, equation index) of each degree-1 occurrence in the equations at
    scope, by descending weight, then by name.

    Each equation's names of degree 1 come from its record.  No coefficient
    is built here: the step that takes an occurrence builds it.
    """
    linear = [(idx, state.equations[idx].linear) for idx in scope]
    names = set().union(*(once for _, once in linear))
    for name in sorted(names, key=lambda v: (-weights.get(v, 0), v)):
        for idx, once in linear:
            if name in once:
                yield name, idx


def _solve_linear(
    state: _BranchState, scope: Sequence[int], weights: Mapping[str, int]
) -> list[_BranchState] | None:
    """One solve-and-substitute step: [state] if made, [] if infeasible, None if none applies."""
    for name, idx in _linear_occurrences(state, scope, weights):
        eq = state.equations[idx].product
        # the coefficient's names are the other names of the terms with name;
        # one that no side condition uses rules it out before it is built
        others = {v for mono, _ in eq.terms if name in mono for v in mono if v != name}
        if not others <= state.recorded:
            continue
        coeff = eq.coefficient_of(name, 1)
        if state.knows_nonzero(coeff):
            return [state] if _solve_for(state, name, idx, coeff) else []
    return None


def _solve_for(state: _BranchState, name: str, idx: int, coeff: ParamPolynomial) -> bool:
    """Solve equation idx for name, with coeff its nonzero coefficient there,
    and substitute; False when the state becomes infeasible."""
    # the solved equation would substitute to zero
    eq = state.equations.pop(idx).product
    value = RationalFunction.make(-eq.coefficient_of(name, 0), coeff)
    # records value's denominator, coeff made monic; a no-op for a constant
    state.add_disequality(coeff)
    return state.assign(name, value)


def _find_factor_split(
    state: _BranchState, scope: Sequence[int], weights: Mapping[str, int]
) -> list[_BranchState] | None:
    for idx in scope:
        factors = state.equations[idx].factors
        if len(factors) < 2:
            continue
        head, tail = factors[0], factors[1:]
        zero_side = state.clone()
        zero_side.equations[idx] = _record(head, [head])
        nonzero_side = state.clone()
        nonzero_side.equations[idx] = _record(math.prod(tail), tail)
        nonzero_side.add_disequality(head)
        return [zero_side, nonzero_side]
    return None


def _find_coefficient_split(
    state: _BranchState, scope: Sequence[int], weights: Mapping[str, int]
) -> list[_BranchState] | None:
    # runs after _solve_linear found nothing in scope: the first occurrence's
    # coefficient is a nonconstant polynomial not known to be nonzero
    occurrence = next(_linear_occurrences(state, scope, weights), None)
    if occurrence is None:
        return None
    name, idx = occurrence
    coeff, rest = (state.equations[idx].product.coefficient_of(name, k) for k in (1, 0))
    vanishing = state.clone()
    vanishing.equations[idx] = _entering(coeff)
    vanishing.equations.append(_entering(rest))
    solving = state.clone()
    return [vanishing, solving] if _solve_for(solving, name, idx, coeff) else [vanishing]


# the branch search's rules as (name, step, whether it splits), tried in
# this order on each scope.  A step gives the children of a state in the
# equations at scope ([] when it is infeasible), or None when it does not
# apply; a split runs only below the depth limit and adds one to the depth
# of its children.
_RULES = (
    ("linear", _solve_linear, False),
    ("factor", _find_factor_split, True),
    ("coefficient", _find_coefficient_split, True),
)


def _ordered(polys) -> tuple[ParamPolynomial, ...]:
    return tuple(sorted(polys, key=lambda p: (p.degree(), str(p))))


def _finalize(state: _BranchState, universe, reason: str) -> SolutionBranch:
    """The leaf's branch; records uncovered denominators on the leaf's state.

    Called only right after _normalize, so the equations are monic and
    distinct and form the residual system as they stand; reason is kept
    only on a branch with a residual system.
    """
    for rf in state.assignments.values():
        if not state.knows_nonzero(rf.denominator):
            state.add_disequality(rf.denominator)
    assignments = tuple(sorted(state.assignments.items()))
    free = tuple(name for name in universe if name not in state.assignments)
    residual = _ordered(eq.product for eq in state.equations)
    diseqs = _ordered(state.disequalities.values())
    return SolutionBranch(assignments, diseqs, residual, free, reason if residual else "")


# ---------------------------------------------------------------------------
# full pipeline


def _fold_single_block(
    template: ParamMatrix, branch: SolutionBranch, weights: dict[str, int]
) -> tuple[ParamMatrix, SolutionBranch]:
    """The published form of a single block's one-branch family.

    A branch without side conditions has no denominators, so its constant
    assignments are substituted into the template; the surviving
    coefficients are renamed by descending weight, x then y (on one block
    the weight of pattern m is m - 1, see constraint_weights).
    """
    free = sorted(branch.free_parameters, key=weights.__getitem__, reverse=True)
    names = dict(zip(free, ("x", "y")))
    mapping = {name: rf.numerator for name, rf in branch.assignments}
    mapping.update((old, ParamPolynomial.variable(new)) for old, new in names.items())
    renamed = sorted(names.get(name, name) for name in free)
    return template.substitute(mapping), _empty_branch(renamed)


def solve(sim: SimilarityData, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> SolutionFamily:
    """All anti-commuting solutions of J Y J = Y J Y, in the canonical frame.

    Nonsingular input yields the zero-only family.  Otherwise the family is
    supported on the leading nilpotent block and comes from the branch search
    over the generated quadratic system.  A single nilpotent block whose
    search returns one fully solved branch is folded to the names x, y.
    The result is in jordan frame (matrix = canonical Jordan form); convert
    with to_original.
    """
    sim_c = sim.canonicalized()
    spec = sim_c.spec
    n = spec.n
    j = assemble_jordan(spec)
    sizes, dim = nilpotent_part(spec)
    if dim == 0:
        return SolutionFamily(
            n, JORDAN_FRAME, (_empty_branch(()),), ParamMatrix.zeros(n, n), j
        )
    template, system = build_constraint_system(sizes)
    names = template.variables()
    weights = constraint_weights(sizes, names)
    branches = solve_branches(system, depth_limit, parameters=names, weights=weights)
    single = len(sizes) == 1 and len(branches) == 1
    if single and branches[0].is_fully_solved() and not branches[0].disequalities:
        template, branches[0] = _fold_single_block(template, branches[0], weights)
    if n > template.rows:
        template = block_diag([template, ParamMatrix.zeros(n - template.rows, n - template.rows)])
    return SolutionFamily(n, JORDAN_FRAME, tuple(branches), template, j)


def to_original(family: SolutionFamily, sim: SimilarityData) -> SolutionFamily:
    """Conjugate a jordan-frame family by W into original coordinates.  With
    the template's split by monomial, T = sum of mu * C_mu over one
    denominator (ParamMatrix._split), each entry of W T W^-1 is one
    polynomial in the entries of the W C_mu W^-1, which
    matrices._conjugates forms together from the scaled C_mu: any
    polynomial template."""
    if family.frame != JORDAN_FRAME:
        raise ValueError("family is not in jordan frame")
    sim_c = sim.canonicalized()
    if family.n != sim_c.spec.n:
        raise DimensionMismatch("to_original", (family.n, family.n), (sim_c.spec.n, sim_c.spec.n))
    if family.matrix != assemble_jordan(sim_c.spec):
        raise ValueError("family does not belong to this similarity data")
    n, template = family.n, family.template
    monos, cs, dc = template._split()
    if monos:  # else the template is zero, and so is W 0 W^-1
        conjugates = _conjugates(sim_c.w, sim_c.w_inv, cs, dc)
        entries = zip(*(m.entries for m in conjugates))
        terms = (tuple((mono, c) for mono, c in zip(monos, e) if c) for e in entries)
        template = ParamMatrix(n, n, tuple(map(ParamPolynomial, terms)))
    return SolutionFamily(n, ORIGINAL_FRAME, family.branches, template, sim_c.a)


def branch_values(
    branch: SolutionBranch, assignment: Mapping[str, GaussianRational]
) -> dict[str, GaussianRational]:
    """Full parameter valuation for a branch at the given free values.

    Checks the free parameters are exactly covered, side conditions hold, and
    evaluates the branch assignments, all in one evaluation over the free
    values.  Raises MissingParameter or DisequalityViolated accordingly: the
    first violated side condition, else the first vanishing denominator.
    """
    return _branch_values(branch, assignment, _branch_polynomials(branch))


def _branch_polynomials(branch: SolutionBranch) -> list[_Coefficients]:
    """The branch's side conditions, then its assignments' denominators and
    numerators, scaled as _evaluate takes them: once for all of its draws."""
    rfs = [rf for _, rf in branch.assignments]
    polys = [*branch.disequalities, *(rf.denominator for rf in rfs), *(rf.numerator for rf in rfs)]
    return list(map(_coefficients, polys))


def _branch_values(
    branch: SolutionBranch,
    assignment: Mapping[str, GaussianRational],
    scaled: Sequence[_Coefficients],
) -> dict[str, GaussianRational]:
    """branch_values with the branch's polynomials already scaled
    (_branch_polynomials)."""
    free = set(branch.free_parameters)
    given = set(assignment)
    missing = sorted(free - given)
    if missing:
        raise MissingParameter(missing)
    extra = sorted(given - free)
    if extra:
        raise ValueError(f"unknown parameters for this branch: {', '.join(extra)}")
    values = {name: as_gaussian(v) for name, v in assignment.items()}
    # lazy, so a violated condition or a zero denominator stops it; it reads
    # the free values on its first step, before any assigned value is added
    results = _evaluate(scaled, values)
    for condition, (re, im, _) in zip(branch.disequalities, results):
        if not (re or im):
            raise DisequalityViolated(str(condition))
    denominators = [next(results) for _ in branch.assignments]
    for (_, rf), (re, im, _) in zip(branch.assignments, denominators):
        if not (re or im):
            raise DisequalityViolated(str(rf.denominator))
    for (name, _), (d_re, d_im, d) in zip(branch.assignments, denominators):
        # (re + i*im)/n divided by (d_re + i*d_im)/d, in integers
        re, im, n = next(results)
        norm = d_re * d_re + d_im * d_im
        values[name] = _over((re * d_re + im * d_im) * d, (im * d_re - re * d_im) * d, n * norm)
    return values


def sample(
    family: SolutionFamily,
    branch_index: int,
    assignment: Mapping[str, GaussianRational],
) -> ExactMatrix:
    """Instantiate one branch at concrete parameter values, verified.

    The returned matrix is checked to anti-commute with the family's matrix
    and to satisfy the quadratic equation, on the template's integer form;
    residual-system entries, if any, must evaluate to zero.  Raises
    MissingParameter, DisequalityViolated, or ResidualNonzero, which names
    the first nonzero entry of A X + X A, else of A X A - X A X.
    """
    branch = family.branches[branch_index]
    values = branch_values(branch, assignment)
    for leftover in branch.residual_system:
        if leftover.evaluate(values):
            raise ResidualNonzero(f"unresolved constraint {leftover}")
    (k,) = _integer_forms(family.template, [values])
    a = _integer_form(family.matrix)
    defect = _first_residual(a, k, *_chain_width(a, [k]))
    if defect is not None:
        which, position = defect
        raise ResidualNonzero(("anti-commutation", "equation")[which], position)
    rows, d = k
    return _exact(rows, d)


def branch_matrix(family: SolutionFamily, branch_index: int) -> list[list[RationalFunction]]:
    """The template with one branch's assignments substituted symbolically."""
    branch = family.branches[branch_index]
    return family.template.substitute_rational(branch.assignment_map())


def branch_satisfied_by(
    branch: SolutionBranch, values: Mapping[str, GaussianRational]
) -> bool:
    """Whether a full parameter valuation lies in this branch's stratum: branch_values
    at its free coordinates (MissingParameter if one is missing) succeeds, gives
    its assigned values and zeroes the residual system."""
    try:
        full = branch_values(branch, {n: values[n] for n in branch.free_parameters if n in values})
    except DisequalityViolated:
        return False
    return all(full[name] == values[name] for name, _ in branch.assignments) and not any(
        leftover.evaluate(full) for leftover in branch.residual_system
    )
