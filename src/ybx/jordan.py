"""Jordan block structure: specs, assembly, validation, and exact computation.

A JordanSpec records block sizes grouped by eigenvalue.  The canonical
layout puts the zero-eigenvalue group first and the remaining groups in
lexicographic (re, im) order, sizes non-increasing inside each group; that
fixes one coordinate frame in which the solver's leading-block structure is
deterministic.  JordanSpec.canonical() is the one place that decides this
layout: it reports the new block order as a coordinate map, and
SimilarityData.canonicalized() applies that map by index, moving the columns
of W and the rows of W^-1.  Specs in any other order are accepted.

jordan_form computes an exact Jordan decomposition, but only for matrices
whose complete distinct eigenvalue list is supplied by the caller; exact
root finding is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DimensionMismatch,
    IncompleteSpectrum,
    NotAnEigenvalue,
    NotSquare,
    SimilarityMismatch,
    SingularMatrix,
)
from .matrices import (
    ExactMatrix,
    RowSpan,
    block_diag,
    first_nonzero_entry,
    mat_inverse,
    mat_mul,
    null_space_basis,
)
from .scalars import ONE, ZERO, GaussianRational, as_gaussian


@dataclass(frozen=True, slots=True)
class JordanBlockSpec:
    """One upper-bidiagonal block: `size` copies of `eigenvalue` on the diagonal."""

    eigenvalue: GaussianRational
    size: int

    def __post_init__(self):
        if type(self.size) is not int or self.size < 1:
            raise ValueError(f"block size must be an int >= 1, got {self.size!r}")


@dataclass(frozen=True, slots=True)
class JordanSpec:
    """Eigenvalue-grouped Jordan block sizes, in a definite layout order."""

    groups: tuple[tuple[GaussianRational, tuple[int, ...]], ...]

    def __post_init__(self):
        if not self.groups:
            raise ValueError("a Jordan spec needs at least one eigenvalue group")
        seen: set[GaussianRational] = set()
        for eig, sizes in self.groups:
            if eig in seen:
                raise ValueError(f"duplicate eigenvalue {eig} across groups")
            seen.add(eig)
            if not sizes:
                raise ValueError(f"eigenvalue {eig} has no block sizes")
            if any(type(s) is not int or s < 1 for s in sizes):
                raise ValueError(f"eigenvalue {eig} has a size that is not an int >= 1: {sizes}")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple]) -> "JordanSpec":
        """Build from (eigenvalue, sizes) pairs; eigenvalues may be int/str/Fraction."""
        return cls(tuple((as_gaussian(e), tuple(sizes)) for e, sizes in pairs))

    @property
    def n(self) -> int:
        return sum(s for _, sizes in self.groups for s in sizes)

    def blocks(self) -> list[JordanBlockSpec]:
        return [JordanBlockSpec(eig, s) for eig, sizes in self.groups for s in sizes]

    def eigenvalues(self) -> tuple[GaussianRational, ...]:
        return tuple(eig for eig, _ in self.groups)

    def canonical(self) -> tuple["JordanSpec", tuple[int, ...]]:
        """The canonical reordering and the coordinate map new -> old.

        position_map[new] = old means coordinate `new` of the canonical layout
        is coordinate `old` of this layout.  The blocks are sorted stably by
        eigenvalue group (zero first, then (re, im)) and by descending size.
        """
        blocks = []  # (eigenvalue, size, first coordinate) in this layout
        start = 0
        for eig, sizes in self.groups:
            for size in sizes:
                blocks.append((eig, size, start))
                start += size
        blocks.sort(key=lambda block: (bool(block[0]), block[0].re, block[0].im, -block[1]))
        groups: dict[GaussianRational, list[int]] = {}
        for eig, size, _ in blocks:
            groups.setdefault(eig, []).append(size)
        position_map = tuple(p for _, size, first in blocks for p in range(first, first + size))
        return JordanSpec(tuple((eig, tuple(sizes)) for eig, sizes in groups.items())), position_map


def nilpotent_part(spec: JordanSpec) -> tuple[tuple[int, ...], int]:
    """Block sizes of the zero-eigenvalue group and their total (0 if nonsingular)."""
    for eig, sizes in spec.groups:
        if not eig:
            return tuple(sizes), sum(sizes)
    return (), 0


def jordan_block(eigenvalue, size: int) -> ExactMatrix:
    lam = as_gaussian(eigenvalue)
    grid = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        grid[i][i] = lam
        if i + 1 < size:
            grid[i][i + 1] = ONE
    return ExactMatrix.from_rows(grid)


def assemble_jordan(spec: JordanSpec) -> ExactMatrix:
    """Block-diagonal matrix with the spec's blocks in spec order."""
    return block_diag(jordan_block(b.eigenvalue, b.size) for b in spec.blocks())


@dataclass(frozen=True, slots=True)
class SimilarityData:
    """A similarity a = w * J(spec) * w_inv, with the inverse precomputed."""

    a: ExactMatrix
    w: ExactMatrix
    w_inv: ExactMatrix
    spec: JordanSpec

    def __post_init__(self):
        n = self.spec.n
        for name, m in (("a", self.a), ("w", self.w), ("w_inv", self.w_inv)):
            if m.shape != (n, n):
                raise DimensionMismatch(f"similarity {name}", m.shape, (n, n))

    def canonicalized(self) -> "SimilarityData":
        """The same similarity re-expressed in the canonical block layout."""
        canon, position_map = self.spec.canonical()
        n = canon.n
        w = tuple(self.w[i, old] for i in range(n) for old in position_map)
        w_inv = tuple(x for old in position_map for x in self.w_inv.row(old))
        return SimilarityData(self.a, ExactMatrix(n, n, w), ExactMatrix(n, n, w_inv), canon)


def similarity_from_jordan(spec: JordanSpec, w: ExactMatrix | None = None) -> SimilarityData:
    """Similarity data for a matrix given directly by (spec, w); w defaults to I."""
    n = spec.n
    if w is None:
        j = assemble_jordan(spec)
        return SimilarityData(j, ExactMatrix.identity(n), ExactMatrix.identity(n), spec)
    return validate_similarity(None, w, spec)


def validate_similarity(
    a: ExactMatrix | None, w: ExactMatrix, spec: JordanSpec
) -> SimilarityData:
    """Check a = w * J * w_inv exactly and package the result.

    With a=None the product w * J * w_inv is computed instead of checked.
    Raises SingularMatrix when w is not invertible and SimilarityMismatch
    (with the first differing entry) when the identity fails.
    """
    n = spec.n
    if w.shape != (n, n):
        raise DimensionMismatch("validate_similarity w", w.shape, (n, n))
    try:
        w_inv = mat_inverse(w)
    except SingularMatrix as exc:
        raise SingularMatrix(exc.rank, exc.size, what="similarity matrix W") from None
    j = assemble_jordan(spec)
    if a is None:
        a = mat_mul(mat_mul(w, j), w_inv)
        return SimilarityData(a, w, w_inv, spec)
    if a.shape != (n, n):
        raise DimensionMismatch("validate_similarity a", a.shape, (n, n))
    spot = first_nonzero_entry(mat_mul(a, w) - mat_mul(w, j))
    if spot is not None:
        raise SimilarityMismatch(spot[:2])
    return SimilarityData(a, w, w_inv, spec)


def jordan_form(a: ExactMatrix, eigenvalues: Sequence) -> SimilarityData:
    """Exact Jordan decomposition from a complete distinct-eigenvalue list.

    For each eigenvalue the kernels of (A - lam*I)^k are taken until they
    stop growing, and generalized-eigenvector chains are grown top-down:
    len(kernels[k]) - len(kernels[k-1]) chains reach level k, and those not
    carried down from longer chains start there, at the first vectors of
    the kernel basis independent of the lower kernel and the carried ones,
    then propagated with (A - lam*I).  The chains are the columns of W and
    their lengths the block sizes.

    Raises NotAnEigenvalue for a spurious value and IncompleteSpectrum if the
    generalized eigenspaces do not fill the whole space.  The result is in
    the canonical block layout.
    """
    if not a.is_square():
        raise NotSquare("jordan_form", a.shape)
    n = a.rows
    eigs = [as_gaussian(e) for e in eigenvalues]
    if len(set(eigs)) != len(eigs):
        raise ValueError("eigenvalue list contains duplicates")

    identity = ExactMatrix.identity(n)
    columns: list[tuple[GaussianRational, ...]] = []
    groups = []
    for lam in eigs:
        m = a - identity * lam
        power, kernels = m, [[], null_space_basis(m)]
        if not kernels[1]:
            raise NotAnEigenvalue(lam)
        while len(kernels[-1]) > len(kernels[-2]):  # at most n times
            power = mat_mul(power, m)
            kernels.append(null_space_basis(power))

        chains: list[list[tuple[GaussianRational, ...]]] = []
        for k in range(len(kernels) - 2, 0, -1):
            span = RowSpan([v.col(0) for v in kernels[k - 1]] + [c[k - 1] for c in chains])
            needed = len(kernels[k]) - len(kernels[k - 1]) - len(chains)
            for cand in kernels[k]:
                if needed == 0:
                    break
                vec = cand.col(0)
                if span.add(vec):
                    chain = [vec]
                    for _ in range(k - 1):
                        chain.append(mat_mul(m, ExactMatrix(n, 1, chain[-1])).entries)
                    chain.reverse()
                    chains.append(chain)
                    needed -= 1
            if needed:
                raise RuntimeError(f"could not complete chains for eigenvalue {lam}")
        groups.append((lam, tuple(map(len, chains))))
        columns += (v for c in chains for v in c)

    if len(columns) != n:
        raise IncompleteSpectrum(len(columns), n)
    spec = JordanSpec(tuple(groups))
    w = ExactMatrix.from_rows([[columns[j][i] for j in range(n)] for i in range(n)])
    try:
        data = validate_similarity(a, w, spec)
    except (SingularMatrix, SimilarityMismatch) as exc:  # pragma: no cover - guarded
        raise RuntimeError(f"internal chain construction failure: {exc}") from exc
    return data.canonicalized()
