"""Dense exact matrices over Q(i) and the row-reduction kernel.

Everything downstream (Jordan assembly, anticommutant bases, the solver, the
oracles) is built on the handful of primitives here: multiplication, reduced
row echelon form, null spaces, inversion, and an incremental row span.  All
results are exact; pivot choice is simply the first nonzero entry in column
order, since magnitude is meaningless over an exact field.  Matrices are
immutable.

Grid is the dense row-major base of both matrix types: the shape and
entry-count checks, from_rows, zeros, indexing, row, col, shape, is_zero,
entrywise + and - and printing; block_diag builds either type.
ExactMatrix adds a from_rows that coerces its entries, identity, column,
to_rows, is_square, transpose, negation, scalar * and @ through mat_mul.
ParamMatrix (polynomials.py) is the other Grid.

Products work in integers, in one kernel that mat_mul and residuals share:
each factor is scaled to Gaussian integers over a common denominator (per
row or column in mat_mul, per matrix in residuals, which then chains its
products without dividing), every entry is a few integer dot products
(imaginary ones only where a row or column has an imaginary part), and a
result part is an int where the denominator divides it and one Fraction
otherwise.  So an n x n product makes O(n^2) Fractions instead of O(n^3)
Fraction operations, each with its own gcd.  The residuals of A and X are
the integer rows of AX + XA and then of AXA - XAX (_residual_parts); when
AX + XA = 0, XA = -AX gives AXA - XAX = AX (A + X), one product more
instead of two.  residuals turns those rows into matrices; the zero test
(_first_residual) reads them as integers, stops at the first nonzero entry
and computes the quadratic only when AX + XA = 0.  It takes integer forms,
so verify_family_membership scales A once for all its draws, and a
template is evaluated straight to an integer form (polynomials.py): a
GaussianRational is built only for the matrix a caller receives.

Elimination has one kernel, RowSpan, which works entry by entry on Fractions
and keeps its rows in reduced row echelon form: each row is 1 at its own
pivot and 0 at every other row's pivot.  rref, null_space_basis and
mat_inverse read their answers off those rows.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import repeat
from math import lcm
from operator import add, itemgetter, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatch, NotSquare, SingularMatrix
from .scalars import ONE, ZERO, GaussianRational, _over, as_gaussian

# a Gaussian-integer vector (re, im); im may be None when every imaginary part is 0
_IntVector = tuple[list[int], list[int] | None]
# a matrix as (rows, columns, d): Gaussian-integer vectors over one common d
_IntegerForm = tuple[list[_IntVector], list[_IntVector], int]


@dataclass(frozen=True, slots=True)
class Grid:
    """A rows x cols grid stored row-major: the shape checks, indexing,
    entrywise + and - and printing that ExactMatrix and ParamMatrix share.
    Each subclass names its zero entry in _zero."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix dimensions must be positive, got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries for {self.rows}x{self.cols}, "
                f"got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]):
        if not rows or not rows[0]:
            raise ValueError("matrix rows must be nonempty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows in matrix literal")
        return cls(len(rows), width, tuple(x for row in rows for x in row))

    @classmethod
    def zeros(cls, rows: int, cols: int):
        return cls(rows, cols, (cls._zero,) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {key} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def _entrywise(self, op: str, other, f):
        if type(other) is not type(self):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(op, self.shape, other.shape)
        return type(self)(self.rows, self.cols, tuple(map(f, self.entries, other.entries)))

    def __add__(self, other):
        return self._entrywise("add", other, add)

    def __sub__(self, other):
        return self._entrywise("sub", other, sub)

    def __str__(self) -> str:
        return "\n".join("  ".join(map(str, self.row(i))) for i in range(self.rows))


@dataclass(frozen=True, slots=True)
class ExactMatrix(Grid):
    """A rows x cols matrix of GaussianRational, stored row-major."""

    _zero = ZERO

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        """Build from nested sequences; entries may be int/Fraction/str/scalar."""
        return super(ExactMatrix, cls).from_rows([[as_gaussian(x) for x in row] for row in rows])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def column(cls, values: Sequence) -> "ExactMatrix":
        return cls.from_rows([[v] for v in values])

    def to_rows(self) -> list[list[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "ExactMatrix":
        entries = tuple(x for j in range(self.cols) for x in self.col(j))
        return ExactMatrix(self.cols, self.rows, entries)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __mul__(self, scalar) -> "ExactMatrix":
        s = as_gaussian(scalar)
        return ExactMatrix(self.rows, self.cols, tuple(a * s for a in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        return mat_mul(self, other)


class RrefResult(NamedTuple):
    reduced: ExactMatrix
    rank: int
    pivot_columns: tuple[int, ...]


def _scaled(vector: Sequence[GaussianRational]) -> tuple[_IntVector, int]:
    """((re, im), d) with vector = (re + i*im) / d entrywise, d the lcm of the
    part denominators; im is None when every imaginary part is zero."""
    if any(x.im for x in vector):
        d = lcm(*[x.re.denominator for x in vector], *[x.im.denominator for x in vector])
        im = [x.im.numerator * (d // x.im.denominator) for x in vector]
    else:
        d = lcm(*[x.re.denominator for x in vector])
        im = None
    return ([x.re.numerator * (d // x.re.denominator) for x in vector], im), d


def _products(rows: list[_IntVector], cols: list[_IntVector]) -> list[_IntVector]:
    """The rows of the integer product of the matrices with these rows and columns."""
    out = []
    for ar, ai in rows:
        out_re, out_im = [], []
        for br, bi in cols:
            re = sum(map(mul, ar, br))
            im = 0
            if ai is not None:
                im = sum(map(mul, ai, br))
                if bi is not None:
                    re -= sum(map(mul, ai, bi))
            if bi is not None:
                im += sum(map(mul, ar, bi))
            out_re.append(re)
            out_im.append(im)
        out.append((out_re, out_im if any(out_im) else None))
    return out


def _pairs(rows: list[_IntVector]) -> Iterator[tuple[int, int]]:
    for re, im in rows:
        yield from zip(re, im or repeat(0))


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product; raises DimensionMismatch on shape conflict."""
    if a.cols != b.rows:
        raise DimensionMismatch("mat_mul", a.shape, b.shape)
    a_rows = [_scaled(a.row(i)) for i in range(a.rows)]
    b_cols = [_scaled(b.col(j)) for j in range(b.cols)]
    rows = _products([v for v, _ in a_rows], [v for v, _ in b_cols])
    dens = (da * db for _, da in a_rows for _, db in b_cols)
    entries = tuple(_over(re, im, d) for (re, im), d in zip(_pairs(rows), dens))
    return ExactMatrix(a.rows, b.cols, entries)


def _integer_form(m: ExactMatrix) -> _IntegerForm:
    """(rows, columns, d) of the Gaussian-integer matrix m * d, one d for all entries."""
    (re, im), d = _scaled(m.entries)
    return _form(re, im, d, m.cols)


def _form(re: list[int], im: list[int] | None, d: int, cols: int) -> _IntegerForm:
    """The integer form of the matrix with row-major entries (re + i*im) / d."""
    rows = [(re[k : k + cols], im and im[k : k + cols]) for k in range(0, len(re), cols)]
    return rows, [(re[j::cols], im and im[j::cols]) for j in range(cols)], d


def _exact(rows: list[_IntVector], d: int) -> ExactMatrix:
    """The ExactMatrix with these Gaussian-integer rows over d."""
    entries = tuple(_over(re, im, d) for re, im in _pairs(rows))
    return ExactMatrix(len(rows), len(rows[0][0]), entries)


def _combination(u: _IntVector, v: _IntVector, su: int, sv: int) -> _IntVector:
    """The Gaussian-integer vector su*u + sv*v."""
    (u_re, u_im), (v_re, v_im) = u, v
    re = [su * p + sv * q for p, q in zip(u_re, v_re)]
    if u_im is None and v_im is None:
        return re, None
    im = [su * p + sv * q for p, q in zip(u_im or repeat(0), v_im or repeat(0))]
    return re, im if any(im) else None


def _residual_parts(
    a: _IntegerForm, x: _IntegerForm
) -> Iterator[tuple[list[_IntVector], int]]:
    """The rows of A*X + X*A as Gaussian integers over their denominator,
    then those of A*X*A - X*A*X over theirs, from the integer forms A' over
    da and X' over dx.  The first is A'X' + X'A' over da*dx.  When it is
    zero, X'A' = -A'X', so the second is A'X' (dx*A' + da*X') over
    (da*dx)**2, one product; otherwise it is A'X'A'*dx - X'A'X'*da over the
    same.  Lazy: the second is computed only when it is asked for."""
    (a_rows, a_cols, da), (x_rows, x_cols, dx) = a, x
    ax, xa = _products(a_rows, x_cols), _products(x_rows, a_cols)
    anti = [_combination(u, v, 1, 1) for u, v in zip(ax, xa)]
    yield anti, da * dx
    if any(_nonzero(row) for row in anti):
        axa, xax = _products(ax, a_cols), _products(xa, x_cols)
        ybe = [_combination(u, v, dx, -da) for u, v in zip(axa, xax)]
    else:
        sums = [_combination(u, v, dx, da) for u, v in zip(a_cols, x_cols)]  # dx*A' + da*X'
        ybe = _products(ax, sums)
    yield ybe, (da * dx) ** 2


def _nonzero(v: _IntVector) -> bool:
    """Whether the Gaussian-integer vector has a nonzero entry."""
    re, im = v
    return any(re) or im is not None and any(im)


def _first_residual(a: _IntegerForm, x: _IntegerForm) -> tuple[int, tuple[int, int]] | None:
    """(0 for A*X + X*A or 1 for A*X*A - X*A*X, (row, column)) of the first
    nonzero residual entry in row-major order, or None when x is an
    anti-commuting solution for a.  The quadratic is computed only when
    A*X + X*A = 0."""
    for which, (rows, _) in enumerate(_residual_parts(a, x)):
        for i, row in enumerate(rows):
            if _nonzero(row):
                re, im = row
                j = next(j for j, (p, q) in enumerate(zip(re, im or repeat(0))) if p or q)
                return which, (i, j)
    return None


def residuals(a: ExactMatrix, x: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """(A*X + X*A, A*X*A - X*A*X); x is an anti-commuting solution for a
    exactly when both are zero.  Both are computed in integers by
    _residual_parts."""
    if not a.is_square():
        raise NotSquare("residuals", a.shape)
    if a.shape != x.shape:
        raise DimensionMismatch("residuals", a.shape, x.shape)
    parts = _residual_parts(_integer_form(a), _integer_form(x))
    return tuple(_exact(rows, d) for rows, d in parts)


def rref(m: ExactMatrix) -> RrefResult:
    """Exact reduced row-echelon form with rank and 0-indexed pivot columns."""
    rows = RowSpan(m.row(i) for i in range(m.rows)).rows
    entries = [x for _, row in rows for x in row]
    entries += [ZERO] * (m.rows * m.cols - len(entries))
    pivots = tuple(p for p, _ in rows)
    return RrefResult(ExactMatrix(m.rows, m.cols, tuple(entries)), len(rows), pivots)


def null_space_basis(m: ExactMatrix) -> list[ExactMatrix]:
    """Basis column vectors of the exact kernel of m.

    Each vector has one pivot-free coordinate set to 1 and, at each pivot,
    minus that pivot row's entry in the free column; the list has exactly
    cols - rank elements, in order of the free columns.
    """
    rows = RowSpan(m.row(i) for i in range(m.rows)).rows
    pivots = {p for p, _ in rows}
    basis: list[ExactMatrix] = []
    for j in range(m.cols):
        if j in pivots:
            continue
        vec = [ZERO] * m.cols
        vec[j] = ONE
        for p, row in rows:
            vec[p] = -row[j]
        basis.append(ExactMatrix.column(vec))
    return basis


def mat_inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises SingularMatrix (carrying the rank) if none exists."""
    if not m.is_square():
        raise NotSquare("mat_inverse", m.shape)
    n = m.rows
    rows = RowSpan(
        list(m.row(i)) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)
    ).rows
    rank = sum(p < n for p, _ in rows)
    if rank < n:
        raise SingularMatrix(rank, n)
    return ExactMatrix(n, n, tuple(x for _, row in rows for x in row[n:]))


class RowSpan:
    """Incremental row span in reduced row echelon form, with exact membership tests.

    rows holds (pivot, row) pairs in pivot order.  Every row is 1 at its own
    pivot and 0 at every other row's pivot, so one pass reduces a vector.
    """

    def __init__(self, vectors: Iterable[Sequence[GaussianRational]] = ()):
        self.rows: list[tuple[int, list[GaussianRational]]] = []
        for vec in vectors:
            self.add(vec)

    def _reduce(self, vec: Sequence[GaussianRational]) -> list[GaussianRational]:
        v = list(vec)
        for pivot, row in self.rows:
            if v[pivot]:
                f = v[pivot]
                v = [x - f * y if y else x for x, y in zip(v, row)]
        return v

    def add(self, vec: Sequence[GaussianRational]) -> bool:
        """Add vec to the span; returns True when it was independent."""
        v = self._reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = v[pivot].reciprocal()
        v = [x * inv if x else x for x in v]
        for k, (p, row) in enumerate(self.rows):
            f = row[pivot]
            if f:
                self.rows[k] = (p, [x - f * y if y else x for x, y in zip(row, v)])
        insort(self.rows, (pivot, v), key=itemgetter(0))
        return True

    def contains(self, vec: Sequence[GaussianRational]) -> bool:
        return not any(self._reduce(vec))


def block_diag(blocks: Iterable[Grid]) -> Grid:
    """Direct sum of square or rectangular blocks along the diagonal, a matrix
    of the first block's type."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("block_diag of no blocks")
    zero = (type(blocks[0])._zero,)
    width = sum(b.cols for b in blocks)
    entries: list = []
    left = 0
    for b in blocks:
        for i in range(b.rows):
            entries += zero * left + b.row(i) + zero * (width - left - b.cols)
        left += b.cols
    return type(blocks[0])(len(entries) // width, width, tuple(entries))


def first_nonzero_entry(m: Grid) -> tuple[int, int, object] | None:
    """Row-major position and value of the first nonzero entry, if any."""
    for i in range(m.rows):
        for j in range(m.cols):
            v = m[i, j]
            if v:
                return (i, j, v)
    return None
