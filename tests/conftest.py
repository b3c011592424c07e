"""Shared helpers: seeded random generators for specs, matrices, and scalars,
the small matrix and family helpers several test modules use, and the
term-by-term references for polynomial sums, products and matrix products."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from ybx.jordan import JordanSpec, similarity_from_jordan
from ybx.matrices import ExactMatrix, mat_mul, rref
from ybx.polynomials import ParamMatrix, ParamPolynomial
from ybx.scalars import GaussianRational
from ybx.solver import SolutionBranch, SolutionFamily, solve

EIGEN_POOL = (
    GaussianRational(0),
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(2),
    GaussianRational(-2),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(-1, 2)),
    GaussianRational(3),
)


def spec(*pairs) -> JordanSpec:
    return JordanSpec.from_pairs(list(pairs))


def partitions(n: int, largest: int):
    """Non-increasing partitions of n with parts at most `largest`."""
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        yield from ((k, *rest) for rest in partitions(n - k, k))


def random_partition(rng: random.Random, total: int) -> list[int]:
    parts = []
    while total:
        size = rng.randint(1, total)
        parts.append(size)
        total -= size
    return parts


def random_spec(
    rng: random.Random,
    max_n: int = 8,
    min_n: int = 1,
    require_zero: bool = False,
    forbid_zero: bool = False,
    pool=EIGEN_POOL,
) -> JordanSpec:
    """A random Jordan spec, not necessarily in canonical order."""
    assert not (require_zero and forbid_zero)
    n = rng.randint(min_n, max_n)
    candidates = [e for e in pool if e] if forbid_zero else list(pool)
    blocks = random_partition(rng, n)
    eigenvalues = [rng.choice(candidates) for _ in blocks]
    if require_zero and all(e for e in eigenvalues):
        eigenvalues[rng.randrange(len(eigenvalues))] = GaussianRational(0)
    grouped: dict[GaussianRational, list[int]] = {}
    for eig, size in zip(eigenvalues, blocks):
        grouped.setdefault(eig, []).append(size)
    return JordanSpec(tuple((eig, tuple(sizes)) for eig, sizes in grouped.items()))


def random_paired_spec(rng: random.Random, max_n: int = 8) -> JordanSpec:
    """Nonsingular spec guaranteed to contain an eigenvalue pair lam, -lam."""
    while True:
        n = rng.randint(2, max_n)
        lam = rng.choice([e for e in EIGEN_POOL if e])
        left = rng.randint(1, n - 1)
        spec = {lam: random_partition(rng, left), -lam: random_partition(rng, n - left)}
        return JordanSpec(tuple((e, tuple(sizes)) for e, sizes in spec.items()))


def assert_canonical_parts(z: GaussianRational) -> None:
    """Each part in its one form: an int when integral, otherwise a Fraction
    in lowest terms with denominator > 1 (so never a float)."""
    for part in (z.re, z.im):
        if type(part) is not int:
            assert type(part) is Fraction
            assert part.denominator > 1
            assert math.gcd(part.numerator, part.denominator) == 1


def random_scalar(rng: random.Random, span: int = 4) -> GaussianRational:
    def part():
        return Fraction(rng.randint(-span, span), rng.randint(1, 3))

    return GaussianRational(part(), part())


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 4) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[random_scalar(rng, span) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(rng: random.Random, n: int, span: int = 3) -> ExactMatrix:
    while True:
        candidate = ExactMatrix.from_rows(
            [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        )
        if rref(candidate).rank == n:
            return candidate


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product, the reference for the oracle's vectorized operator;
    entry ((p,q),(r,s)) = a[p,r] * b[q,s]."""
    grid = [[GaussianRational(0)] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for p in range(a.rows):
        for r in range(a.cols):
            factor = a[p, r]
            if not factor:
                continue
            for q in range(b.rows):
                for s in range(b.cols):
                    v = b[q, s]
                    if v:
                        grid[p * b.rows + q][r * b.cols + s] = factor * v
    return ExactMatrix.from_rows(grid)


def mat_pow(m: ExactMatrix, k: int) -> ExactMatrix:
    """m**k for a square m and k >= 0, by repeated multiplication."""
    out = ExactMatrix.identity(m.rows)
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def single_block_family(n: int) -> SolutionFamily:
    """All anti-commuting solutions for one nilpotent block of size n (ValueError if n < 1)."""
    return solve(similarity_from_jordan(JordanSpec.from_pairs([(0, [n])])))


def _add_reference(p, q):
    """Term by term in GaussianRational arithmetic: the reference for +."""
    acc = dict(p.terms)
    for mono, c in q.terms:
        acc[mono] = acc.get(mono, GaussianRational(0)) + c
    return ParamPolynomial.from_dict(acc)


def _mul_reference(p, q):
    """Every pair of terms in GaussianRational arithmetic: the reference for *."""
    acc = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            mono = tuple(sorted(m1 + m2))
            acc[mono] = acc.get(mono, GaussianRational(0)) + c1 * c2
    return ParamPolynomial.from_dict(acc)


def _negated_reference(p):
    return ParamPolynomial.from_dict({mono: -c for mono, c in p.terms})


def _matmul_reference(a, b):
    """The product of two matrices as a ParamMatrix, each entry a sum of
    reference products; an ExactMatrix factor counts as constant
    polynomials."""

    def entry(m, i, j):
        x = m[i, j]
        return x if isinstance(x, ParamPolynomial) else ParamPolynomial.constant(x)

    return ParamMatrix.from_rows(
        [
            [
                reduce(
                    _add_reference,
                    (_mul_reference(entry(a, i, k), entry(b, k, j)) for k in range(a.cols)),
                    ParamPolynomial.zero(),
                )
                for j in range(b.cols)
            ]
            for i in range(a.rows)
        ]
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20250808)


@pytest.fixture(scope="session")
def nilpotent_families():
    """sizes -> solve's family for the nilpotent Jordan matrix with those
    block sizes, each partition solved once a session (the census and the
    certifier share them)."""

    @functools.cache
    def family(sizes: tuple[int, ...]) -> SolutionFamily:
        return solve(similarity_from_jordan(JordanSpec(((GaussianRational(0), sizes),))))

    return family


@pytest.fixture(scope="session")
def nilpotent_branches(nilpotent_families):
    """sizes -> the branches of nilpotent_families(sizes)."""

    def branches(sizes: tuple[int, ...]) -> tuple[SolutionBranch, ...]:
        return nilpotent_families(sizes).branches

    return branches
