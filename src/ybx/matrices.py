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

Products work in integers, in one kernel that mat_mul, residuals and
_conjugates share (_products): each factor is scaled to Gaussian integers
over a common denominator (per row or column in mat_mul, per matrix in the
others; residuals chains its products without dividing), and each row of the right
factor is packed into one Python int per part (_pack), its entries signed
digits of s bits (Kronecker substitution, or Q-adic packing).  A row of
the product is then k multiply-adds of those ints by the row's entries,
in big-int arithmetic, instead of one dot product per entry.
The width comes from an exact bound (_slot): with |re| + |im| < 2**b on
each side, a part of an entry of a sum of two products is below
2k * 2**(bl + br), so s = bl + br + (2k).bit_length() + 1 holds it as a
digit; residuals counts its scale factors into b.  Digits are read back
as centred residues (_unpack), a long row in groups of bytes, in time
linear in its length.  A result part is an int where the denominator
divides it and one Fraction otherwise.  solver.to_original conjugates a
template through _conjugates, which takes the template's C_mu already
scaled over one denominator (ParamMatrix._split) and packs one block of
n digits per monomial, so W multiplies them all at once.  The residuals of A
and X are the packed rows of AX + XA and then of AXA - XAX
(_residual_rows), one chain at one width chosen up front: the quadratic
multiplies A and X by the packed XA and AX already in hand, with nothing
unpacked or packed again.  The width is taken for a batch of X at once
(_chain_width), wide enough for the widest, and A is packed once at it:
a wider width than an X needs is exact too, so verify_family_membership
scales and packs A once for all the draws of a family, and residuals
and solver.sample pass a batch of one.  residuals unpacks those rows
into matrices; the zero test (_first_residual) reads the packed rows,
zero exactly when every digit is, unpacks only the first nonzero one to
name its column, and computes the quadratic only when AX + XA = 0.  It
takes integer forms, and a template is evaluated straight to an integer
form (polynomials.py): a GaussianRational is built only for the matrix
a caller receives.

Elimination has one kernel, RowSpan, which works entry by entry on Fractions
and keeps its rows in reduced row echelon form: each row is 1 at its own
pivot and 0 at every other row's pivot.  rref, null_space_basis and
mat_inverse read their answers off those rows.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain, repeat
from math import lcm
from operator import add, itemgetter, lshift, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatch, NotSquare, SingularMatrix
from .scalars import ONE, ZERO, GaussianRational, _over, as_gaussian

# a Gaussian-integer vector (re, im); im may be None when every imaginary part is 0
_IntVector = tuple[list[int], list[int] | None]
# a matrix as (rows, d): Gaussian-integer rows over one common d
_IntegerForm = tuple[list[_IntVector], int]
# a sparse matrix as (row-major indices of its nonzero entries, re, im) of
# Gaussian-integer parts, over a denominator kept apart; im None when real
_SparseForm = tuple[list[int], list[int], list[int] | None]


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


def _bits(rows: list[_IntVector]) -> int:
    """A b with |re| + |im| < 2**b for every entry of these rows."""
    re = max(map(abs, chain.from_iterable(r for r, _ in rows)))
    im = max(map(abs, chain.from_iterable(i for _, i in rows if i is not None)), default=0)
    return (re + im).bit_length()


def _slot(bits: int, k: int) -> int:
    """The digit width s for a sum of two products of inner dimension k whose
    left and right entries have _bits summing to at most bits.  Each part of
    such an entry is a sum of at most 2k terms, each below 2**bits in size
    (|a_re b_re - a_im b_im| <= (|a_re| + |a_im|)(|b_re| + |b_im|)), so it is
    a signed s-bit digit: below 2**(s - 1) in size."""
    return bits + (2 * k).bit_length() + 1


def _pack(rows: list[_IntVector], s: int) -> _IntVector:
    """The rows as one int per row and part, entry j the signed digit at bit
    s*j; im is None when every row is real."""
    shifts = range(0, s * len(rows[0][0]), s)
    re = [sum(map(lshift, r, shifts)) for r, _ in rows]
    if all(i is None for _, i in rows):
        return re, None
    return re, [0 if i is None else sum(map(lshift, i, shifts)) for _, i in rows]


def _unpack(p: int, s: int, n: int) -> list[int]:
    """The n signed s-bit digits of p, lowest first: each is the low s bits
    as a centred residue, taken off before the next.  A long row is first
    cut into groups of digits in whole bytes (eight digits fill s bytes),
    about 4096 bits each, so reading it is linear in its length."""
    mask, half, base = (1 << s) - 1, 1 << (s - 1), 1 << s
    per = 8 * max(1, 512 // s)  # digits per group
    groups = [p]
    if n > per:
        data = (p & ((1 << s * n) - 1)).to_bytes((s * n + 7) // 8, "little")
        step = s * per // 8  # bytes per group
        groups = [int.from_bytes(data[i : i + step], "little") for i in range(0, len(data), step)]
    digits, q = [], 0
    for group in groups:
        q += group  # and the carry out of the group before
        for _ in range(min(per, n - len(digits))):
            d = q & mask
            q >>= s
            if d >= half:
                d -= base
                q += 1
            digits.append(d)
    return digits


def _rows(packed: _IntVector, s: int, n: int) -> list[_IntVector]:
    """The Gaussian-integer rows of n entries that these rows pack at width s."""
    re, im = packed
    return [
        (_unpack(p, s, n), _unpack(q, s, n) if q else None) for p, q in zip(re, im or repeat(0))
    ]


def _products(rows: list[_IntVector], packed: _IntVector) -> _IntVector:
    """The packed rows of the integer product of the matrix with these rows
    and the matrix with these packed rows: each is one sum of multiples of
    the packed rows, and each digit is an entry while the width holds it."""
    br, bi = packed
    out_re, out_im = [], []
    for ar, ai in rows:
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
    return out_re, out_im if any(out_im) else None


def _pairs(rows: list[_IntVector]) -> Iterator[tuple[int, int]]:
    for re, im in rows:
        yield from zip(re, im or repeat(0))


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product; raises DimensionMismatch on shape conflict."""
    if a.cols != b.rows:
        raise DimensionMismatch("mat_mul", a.shape, b.shape)
    a_rows = [_scaled(a.row(i)) for i in range(a.rows)]
    b_cols = [_scaled(b.col(j)) for j in range(b.cols)]
    left = [v for v, _ in a_rows]
    # the rows of b with each column scaled by its own denominator
    re, im = zip(*(v for v, _ in b_cols))
    zeros = [0] * b.rows
    right = list(zip(zip(*re), zip(*(i or zeros for i in im)) if any(im) else repeat(None)))
    s = _slot(_bits(left) + _bits(right), a.cols)
    rows = _rows(_products(left, _pack(right, s)), s, b.cols)
    dens = (da * db for _, da in a_rows for _, db in b_cols)
    entries = tuple(_over(re, im, d) for (re, im), d in zip(_pairs(rows), dens))
    return ExactMatrix(a.rows, b.cols, entries)


def _conjugates(
    w: ExactMatrix, w_inv: ExactMatrix, cs: Sequence[_SparseForm], dc: int
) -> list[ExactMatrix]:
    """W C W^-1 for each n x n C of the nonempty cs, given as its nonzero
    entries' row-major indices and Gaussian-integer parts over dc, the one
    denominator of all the C (ParamMatrix._split).  W^-1 is packed once,
    wide enough for an entry of a result (n*n products of three); row l of
    the wide [C_1 W^-1 | ... | C_m W^-1], block k at digit k*n, is a sum of
    packed rows, and one product by W gives every result's row i as m*n
    digits."""
    n, m = w.rows, len(cs)
    (w_rows, dw), (v_rows, dv) = _integer_form(w), _integer_form(w_inv)
    # the C stacked and dense: row k*n + l is row l of cs[k]
    re, im = [0] * (m * n * n), [0] * (m * n * n)
    for k, (at, c_re, c_im) in enumerate(cs):
        for idx, p, q in zip(at, c_re, c_im or repeat(0)):
            re[k * n * n + idx], im[k * n * n + idx] = p, q
    c_rows, _ = _form(re, im if any(im) else None, dc, n)
    s = _slot(_bits(w_rows) + _bits(c_rows) + _bits(v_rows), n * n)
    cv = _products(c_rows, _pack(v_rows, s))
    shifts = range(0, s * n * m, s * n)
    wide = tuple(p and [sum(map(lshift, p[l::n], shifts)) for l in range(n)] for p in cv)
    d, rows = dw * dc * dv, _rows(_products(w_rows, wide), s, m * n)
    flat = [_over(p, q, d) for p, q in _pairs(rows)]
    # entry (i, j) of the k-th result is digit k*n + j of row i
    blocks = (range(k * n, len(flat), m * n) for k in range(m))
    return [ExactMatrix(n, n, tuple(chain.from_iterable(flat[i : i + n] for i in b))) for b in blocks]


def _integer_form(m: ExactMatrix) -> _IntegerForm:
    """(rows, d) of the Gaussian-integer matrix m * d, one d for all entries."""
    (re, im), d = _scaled(m.entries)
    return _form(re, im, d, m.cols)


def _form(re: list[int], im: list[int] | None, d: int, cols: int) -> _IntegerForm:
    """The integer form of the matrix with row-major entries (re + i*im) / d."""
    return [(re[k : k + cols], im and im[k : k + cols]) for k in range(0, len(re), cols)], d


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


def _chain_width(a: _IntegerForm, xs: Sequence[_IntegerForm]) -> tuple[int, _IntVector]:
    """(s, A' packed at s): one digit width that holds the residual chain
    (_residual_rows) of the n x n integer form A' over da with each X' over
    dx of xs, and A' packed once at it for all of them.  A packed product
    is an exact sum of its digits times powers of 2**s whatever s is, so
    only the digits read back must fit, and a width wider than one X'
    needs is exact too.  With |re| + |im| < 2**ba on A' and 2**bx on X', an
    entry of A'X' or X'A' has |re| + |im| < n * 2**(ba + bx) <= 2**(ba + bx
    + n.bit_length()).  The quadratic is then a sum of two products of
    inner dimension n, dx*A' by X'A' and da*X' by A'X', whose left and
    right _bits sum to at most bits + n.bit_length() with bits as taken
    here, which _slot holds; the anti-commutator's entries are smaller."""
    a_rows, da = a
    n, ba, bits = len(a_rows), _bits(a_rows), 0
    for x_rows, dx in xs:
        bx = _bits(x_rows)
        bits = max(bits, 2 * ba + bx + dx.bit_length(), ba + 2 * bx + da.bit_length())
    s = _slot(bits + n.bit_length(), n)
    return s, _pack(a_rows, s)


def _residual_rows(
    a: _IntegerForm, x: _IntegerForm, s: int, packed_a: _IntVector
) -> Iterator[tuple[_IntVector, int]]:
    """(packed rows, denominator) at width s of A*X + X*A, then of
    A*X*A - X*A*X, from the n x n integer forms A' over da and X' over dx,
    with s and packed_a from _chain_width: A'X' + X'A' over da*dx, then
    dx*A'(X'A') - da*X'(A'X') over (da*dx)**2, each right factor a packed
    product already in hand.  Lazy: the second is computed only when it is
    asked for."""
    (a_rows, da), (x_rows, dx) = a, x
    ax, xa = _products(a_rows, _pack(x_rows, s)), _products(x_rows, packed_a)
    yield _combination(ax, xa, 1, 1), da * dx
    yield _combination(_products(a_rows, xa), _products(x_rows, ax), dx, -da), (da * dx) ** 2


def _first_residual(
    a: _IntegerForm, x: _IntegerForm, s: int, packed_a: _IntVector
) -> tuple[int, tuple[int, int]] | None:
    """(0 for A*X + X*A or 1 for A*X*A - X*A*X, (row, column)) of the first
    nonzero residual entry in row-major order, or None when x is an
    anti-commuting solution for a; s and packed_a come from _chain_width.
    Rows are tested packed, and only the first nonzero one is unpacked; the
    quadratic is computed only when A*X + X*A = 0."""
    n = len(a[0])
    for which, ((re, im), _) in enumerate(_residual_rows(a, x, s, packed_a)):
        for i, (p, q) in enumerate(zip(re, im or repeat(0))):
            if p or q:
                row = zip(_unpack(p, s, n), _unpack(q, s, n))
                return which, (i, next(j for j, (u, v) in enumerate(row) if u or v))
    return None


def residuals(a: ExactMatrix, x: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """(A*X + X*A, A*X*A - X*A*X); x is an anti-commuting solution for a
    exactly when both are zero.  Both are computed in integers by
    _residual_rows, a batch of one, and unpacked."""
    if not a.is_square():
        raise NotSquare("residuals", a.shape)
    if a.shape != x.shape:
        raise DimensionMismatch("residuals", a.shape, x.shape)
    a_form, x_form = _integer_form(a), _integer_form(x)
    s, packed_a = _chain_width(a_form, [x_form])
    parts = _residual_rows(a_form, x_form, s, packed_a)
    return tuple(_exact(_rows(packed, s, a.cols), d) for packed, d in parts)


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
