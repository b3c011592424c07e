import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ybx.errors import DimensionMismatch, NotSquare, SingularMatrix
from ybx.jordan import JordanSpec, assemble_jordan, jordan_form
from ybx.matrices import (
    ExactMatrix,
    RowSpan,
    _chain_width,
    _conjugates,
    _first_residual,
    _integer_form,
    _pack,
    _rows,
    _unpack,
    block_diag,
    first_nonzero_entry,
    mat_inverse,
    mat_mul,
    null_space_basis,
    rref,
)
from ybx.oracle import kron_anticommutant_kernel
from ybx.polynomials import ParamMatrix, ParamPolynomial
from ybx.scalars import ONE, ZERO, GaussianRational
from ybx.solver import residual_ybe, residuals

from conftest import (
    _matmul_reference,
    assert_canonical_parts,
    kron,
    mat_pow,
    random_invertible,
    random_matrix,
)


def J(n):
    return assemble_jordan(JordanSpec.from_pairs([(0, [n])]))


def test_identity_multiplication(rng):
    m = random_matrix(rng, 3, 3)
    assert mat_mul(ExactMatrix.identity(3), m) == m
    assert mat_mul(m, ExactMatrix.identity(3)) == m


def test_nilpotent_cube_is_zero():
    j3 = J(3)
    assert mat_pow(j3, 3).is_zero()
    assert not mat_pow(j3, 2).is_zero()


def test_shift_pattern_anticommutes():
    j2 = J(2)
    k = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert mat_mul(j2, k) == -mat_mul(k, j2)
    k_diag = ExactMatrix.from_rows([[1, 0], [0, -1]])
    assert mat_mul(j2, k_diag) == -mat_mul(k_diag, j2)


def test_mat_mul_shape_error():
    with pytest.raises(DimensionMismatch) as err:
        mat_mul(ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 3))
    assert "2x3" in str(err.value)


@pytest.mark.parametrize(
    "op, call",
    [
        ("mat_inverse", mat_inverse),
        ("jordan_form", lambda m: jordan_form(m, [0])),
        ("residuals", lambda m: residuals(m, m)),
        ("residuals", lambda m: residual_ybe(m, m)),
        ("kron_anticommutant_kernel u", lambda m: kron_anticommutant_kernel(m, J(2))),
        ("kron_anticommutant_kernel v", lambda m: kron_anticommutant_kernel(J(2), m)),
    ],
)
def test_non_square_input_is_named(op, call):
    with pytest.raises(NotSquare) as err:
        call(ExactMatrix.zeros(2, 3))
    assert str(err.value) == f"{op}: needs a square matrix, got 2x3"
    assert isinstance(err.value, DimensionMismatch)
    assert err.value.left == err.value.right == (2, 3)


def test_residuals_shape_error_is_not_a_square_error():
    with pytest.raises(DimensionMismatch) as err:
        residuals(J(2), ExactMatrix.zeros(3, 3))
    assert not isinstance(err.value, NotSquare)
    assert str(err.value) == "residuals: incompatible shapes 2x2 and 3x3"


def test_rref_zero_matrix():
    result = rref(ExactMatrix.zeros(3, 4))
    assert result.rank == 0
    assert result.pivot_columns == ()
    assert result.reduced.is_zero()


def test_rref_shifted_identity():
    result = rref(J(4))
    assert result.rank == 3
    assert result.pivot_columns == (1, 2, 3)


def test_rref_of_elementary_product(rng):
    # invertible by construction: a product of row swaps, scalings, additions
    n = 5
    m = ExactMatrix.identity(n)
    for _ in range(25):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        rows = ExactMatrix.identity(n).to_rows()
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            rows[i][i] = GaussianRational(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3])))
        else:
            rows[i][j] = GaussianRational(rng.randint(-3, 3))
        m = mat_mul(m, ExactMatrix.from_rows(rows))
    assert rref(m).rank == n


def test_rref_idempotent(rng):
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced = rref(m).reduced
        assert rref(reduced).reduced == reduced


def test_null_space_identity():
    assert null_space_basis(ExactMatrix.identity(4)) == []


def test_null_space_shift_block():
    basis = null_space_basis(J(3))
    assert len(basis) == 1
    assert basis[0] == ExactMatrix.from_rows([[1], [0], [0]])


def test_null_space_vectors_are_in_kernel(rng):
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        result = rref(m)
        basis = null_space_basis(m)
        assert len(basis) == m.cols - result.rank
        for v in basis:
            assert mat_mul(m, v).is_zero()


def test_null_space_of_vectorized_shift_operator():
    # the 9x9 operator of the vectorization oracle for U = V = J_3(0)
    j3 = J(3)
    operator = kron(ExactMatrix.identity(3), j3) + kron(j3.transpose(), ExactMatrix.identity(3))
    assert len(null_space_basis(operator)) == 3


def test_inverse_identity():
    assert mat_inverse(ExactMatrix.identity(3)) == ExactMatrix.identity(3)


def test_inverse_diagonal():
    m = ExactMatrix.from_rows([["2", "0"], ["0", "3i"]])
    expected = ExactMatrix.from_rows([["1/2", "0"], ["0", "-1/3i"]])
    assert mat_inverse(m) == expected


def test_inverse_round_trip(rng):
    for _ in range(10):
        n = rng.randint(1, 5)
        m = random_invertible(rng, n)
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == ExactMatrix.identity(n)
        assert mat_mul(inv, m) == ExactMatrix.identity(n)


def test_inverse_singular_reports_rank():
    with pytest.raises(SingularMatrix) as err:
        mat_inverse(ExactMatrix.from_rows([[1, 2], [2, 4]]))
    assert err.value.rank == 1


def test_matmul_associative(rng):
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = random_matrix(rng, a.cols, rng.randint(1, 4))
        c = random_matrix(rng, b.cols, rng.randint(1, 4))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_block_diag_and_permutation():
    m = block_diag([J(2), ExactMatrix.from_rows([[5]])])
    assert m.shape == (3, 3)
    assert m[0, 1] == GaussianRational(1)
    assert m[2, 2] == GaussianRational(5)


def test_first_nonzero_entry():
    assert first_nonzero_entry(ExactMatrix.zeros(2, 2)) is None
    m = ExactMatrix.from_rows([[0, 0], [0, 7]])
    assert first_nonzero_entry(m) == (1, 1, GaussianRational(7))


def test_entry_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, (GaussianRational(0),) * 3)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix.zeros(0, 2)


GRID_KINDS = {
    "exact": (ExactMatrix, GaussianRational),
    "param": (ParamMatrix, ParamPolynomial.constant),
}


@pytest.mark.parametrize("kind", sorted(GRID_KINDS))
def test_grid_contract(kind):
    cls, entry = GRID_KINDS[kind]
    for rows, cols in ((0, 2), (2, 0), (-1, 1)):
        with pytest.raises(ValueError):
            cls(rows, cols, ())
    with pytest.raises(ValueError):
        cls(2, 2, (entry(0),) * 3)
    for rows in ([[entry(1), entry(2)], [entry(3)]], [], [[]]):
        with pytest.raises(ValueError):
            cls.from_rows(rows)
    m = cls.from_rows([[entry(1), entry(2), entry(3)], [entry(4), entry(5), entry(6)]])
    assert m.shape == (2, 3) and m[1, 2] == entry(6)
    assert m.row(1) == (entry(4), entry(5), entry(6)) and m.col(2) == (entry(3), entry(6))
    for key in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(IndexError):
            m[key]
    for op, apply in (("add", lambda a, b: a + b), ("sub", lambda a, b: a - b)):
        with pytest.raises(DimensionMismatch) as caught:
            apply(m, cls.zeros(3, 2))
        assert caught.value.op == op
    assert (m - m).is_zero() and m + cls.zeros(2, 3) == m
    assert cls.zeros(2, 3).is_zero() and not m.is_zero()
    assert str(m).splitlines() == ["1  2  3", "4  5  6"]
    assert ExactMatrix.zeros(2, 3) != ParamMatrix.zeros(2, 3)


def test_grid_arithmetic_does_not_mix_types():
    exact = ExactMatrix.identity(2)
    param = _matmul_reference(exact, exact)  # the same identity, of constant polynomials
    for left, right in ((exact, param), (param, exact)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right


def test_block_diag_of_templates():
    x, y = ParamPolynomial.variable("x"), ParamPolynomial.variable("y")
    zero = ParamPolynomial.zero()
    m = block_diag([ParamMatrix.from_rows([[x, y]]), ParamMatrix.zeros(2, 1)])
    assert type(m) is ParamMatrix
    assert m == ParamMatrix.from_rows([[x, y, zero], [zero, zero, zero], [zero, zero, zero]])


def textbook_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """One Fraction term at a time: sum over k of a[i, k] * b[k, j]."""
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            re = im = Fraction(0)
            for k in range(a.cols):
                x, y = a[i, k], b[k, j]
                re += x.re * y.re - x.im * y.im
                im += x.re * y.im + x.im * y.re
            row.append(GaussianRational(re, im))
        rows.append(row)
    return ExactMatrix.from_rows(rows)


# small parts, and large numerators over large coprime (prime) denominators
_parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.sampled_from([7919, 65537, 1000003, 2**61 - 1, 2**89 - 1]),
    ),
)
_kinds = {
    "real": st.builds(GaussianRational, _parts),
    "imaginary": st.builds(GaussianRational, st.just(0), _parts),
    "complex": st.builds(GaussianRational, _parts, _parts),
}
_kinds["mixed"] = st.one_of(*_kinds.values())


@st.composite
def _matrices(draw, rows: int, cols: int) -> ExactMatrix:
    entry = _kinds[draw(st.sampled_from(sorted(_kinds)))]
    zero_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    zero_cols = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    return ExactMatrix.from_rows(
        [
            [ZERO if zero_rows[i] or zero_cols[j] else draw(entry) for j in range(cols)]
            for i in range(rows)
        ]
    )


@st.composite
def _factor_pairs(draw):
    # inner dimensions 8 and 9 add a bit to the packed digit width
    r, k, c = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 4))
    return draw(_matrices(r, k)), draw(_matrices(k, c))


@given(_factor_pairs())
def test_mat_mul_matches_textbook_product(pair):
    a, b = pair
    product = mat_mul(a, b)
    assert product.shape == (a.rows, b.cols)
    assert product == textbook_product(a, b)
    for z in product.entries:
        assert_canonical_parts(z)


def test_mat_mul_one_by_one_and_large_denominators():
    p, q = 2**61 - 1, 2**89 - 1
    x = GaussianRational(Fraction(1, p), Fraction(-3, q))
    y = GaussianRational(Fraction(p, q), Fraction(q, 7))
    one_by_one = mat_mul(ExactMatrix.from_rows([[x]]), ExactMatrix.from_rows([[y]]))
    assert one_by_one == ExactMatrix.from_rows([[x * y]])
    row = ExactMatrix.from_rows([[Fraction(1, p), Fraction(1, q)]])
    col = ExactMatrix.column([p, -q])
    assert mat_mul(row, col) == ExactMatrix.zeros(1, 1)
    assert mat_mul(col, row) == textbook_product(col, row)


@pytest.mark.parametrize("s", [2, 3, 8, 61, 64, 100])
def test_pack_unpack_round_trip_at_digit_extremes(s):
    top = 2 ** (s - 1) - 1
    rows = [
        ([top, 0, -top, 0, 0, top, -top], None),  # zeros between, negative top digit
        ([-top] * 7, [top, -top, 0, 1, -1, 0, top]),
        ([0, 0, 0, 0, 0, 0, -1], [-top, 0, 0, 0, 0, 0, 0]),
    ]
    packed = _pack(rows, s)
    assert _rows(packed, s, 7) == rows
    for p, (re, _) in zip(packed[0], rows):
        assert _unpack(p, s, 7) == re


def _unpack_reference(p, s, n):
    """The digit loop: the low s bits as a centred residue, shifted off the
    whole int before the next digit."""
    mask, half, base = (1 << s) - 1, 1 << (s - 1), 1 << s
    digits = []
    for _ in range(n):
        d = p & mask
        p >>= s
        if d >= half:
            d -= base
            p += 1
        digits.append(d)
    return digits


def test_unpack_matches_the_digit_loop():
    # every width from 2 to 200 bits, rows of 1 to 600 digits; the digits
    # are drawn from the whole signed range, extremes included, so borrows
    # run across the byte groups _unpack reads
    rnd = random.Random(29)
    for s in range(2, 201):
        half = 1 << (s - 1)
        per = 8 * max(1, 512 // s)  # digits in one group
        lengths = {1, 7, per, per + 1, rnd.randint(1, 600), 600 if s % 25 == 0 else 2 * per + 3}
        for n in sorted(x for x in lengths if x <= 600):
            digits = [rnd.choice((-half, half - 1, -1, 0, rnd.randrange(-half, half))) for _ in range(n)]
            p = sum(d << (s * j) for j, d in enumerate(digits))
            assert _unpack(p, s, n) == _unpack_reference(p, s, n) == digits
            # only the low n*s bits count, as in the digit loop
            assert _unpack(p + (5 << (s * n)), s, n) == digits


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("units", [(1, 1, 1), (1j, 1j, 1j), (1 + 1j, 1 - 1j, 1 + 1j)], ids=str)
@pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1), (-1, -1, -1)])
def test_conjugates_fill_the_digit_width(n, units, signs):
    # W, every C and V all ones times a unit, a sign and the largest M of its
    # bit length: each entry of W C V is n*n products of three, the largest
    # its packed width must hold (any W and V multiply; V need not be W^-1)
    m = 2**40 - 1
    uw, uc, uv = (GaussianRational(int(u.real), int(u.imag)) for u in units)
    sw, sc, sv = signs
    ones = ExactMatrix.from_rows([[1] * n for _ in range(n)])
    w, v = ones * (uw * (sw * m)), ones * (uv * (sv * m))
    # C = uc * sc * M and C / 2 at every index, and an empty C between, over one denominator 2
    def scaled_c(times):
        re, im = uc.re * sc * m * times, uc.im * sc * m * times
        return list(range(n * n)), [re] * (n * n), [im] * (n * n) if im else None

    expected = ones * (uw * uc * uv * (sw * sc * sv * m**3 * n * n))
    assert _conjugates(w, v, [scaled_c(2), ([], [], None), scaled_c(1)], 2) == [
        expected,
        ExactMatrix.zeros(n, n),
        expected * GaussianRational(Fraction(1, 2)),
    ]


@pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("units", [(1, 1), (1j, 1j), (1 + 1j, 1 - 1j)], ids=str)
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_products_fill_the_digit_width(k, units, signs):
    # every entry of A is sa*ua*M and every entry of X is sx*ux*M, the
    # largest M of its bit length: each residual entry is the largest its
    # width must hold (for 1 + i times 1 - i, |re| + |im| is what bounds
    # it).  With J all ones, J J = k J.
    m = 2**40 - 1
    (sa, sx), (ua, ux) = signs, (GaussianRational(int(u.real), int(u.imag)) for u in units)
    ones = ExactMatrix.from_rows([[1] * k for _ in range(k)])
    a, x = ones * (ua * (sa * m)), ones * (ux * (sx * m))
    assert mat_mul(a, x) == ones * (ua * ux * (sa * sx * m * m * k))
    anti, ybe = residuals(a, x)
    assert anti == ones * (ua * ux * (2 * sa * sx * m * m * k))
    assert ybe == ones * (ua * ux * (sa * ua - sx * ux) * (sa * sx * m**3 * k * k))
    assert first_residual(a, x) == (0, (0, 0))


def textbook_residuals(a: ExactMatrix, x: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Four mat_mul products and ExactMatrix sums: the reference for residuals."""
    ax, xa = mat_mul(a, x), mat_mul(x, a)
    return ax + xa, mat_mul(ax, a) - mat_mul(xa, x)


@st.composite
def _residual_pairs(draw):
    """Square (A, X): dense random pairs, or a conjugated 2x2 pair that
    anti-commutes and either solves A X A = X A X (X = [[0, t], [0, 0]]) or
    does not (X = diag(t, -t))."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return draw(_matrices(n, n)), draw(_matrices(n, n))
    s, t = draw(_kinds["mixed"]), draw(_kinds["mixed"])
    a0 = ExactMatrix.from_rows([[0, s], [0, 0]])
    if draw(st.booleans()):
        x0 = ExactMatrix.from_rows([[0, t], [0, 0]])
    else:
        x0 = ExactMatrix.from_rows([[t, 0], [0, -t]])
    w = draw(_matrices(2, 2))
    assume(rref(w).rank == 2)
    w_inv = mat_inverse(w)
    return w @ a0 @ w_inv, w @ x0 @ w_inv


def first_residual(a: ExactMatrix, x: ExactMatrix):
    """_first_residual on the integer forms of a and x, a batch of one."""
    a_form, x_form = _integer_form(a), _integer_form(x)
    return _first_residual(a_form, x_form, *_chain_width(a_form, [x_form]))


def textbook_first_residual(a: ExactMatrix, x: ExactMatrix):
    """(0 or 1, (row, column)) of the first nonzero entry of the textbook
    A X + X A, else of A X A - X A X; None when both are zero."""
    for which, residual in enumerate(textbook_residuals(a, x)):
        spot = first_nonzero_entry(residual)
        if spot is not None:
            return which, spot[:2]
    return None


@given(_residual_pairs())
def test_residuals_match_textbook_products(pair):
    a, x = pair
    got, expected = residuals(a, x), textbook_residuals(a, x)
    assert got == expected
    for g, e in zip(got, expected):
        assert first_nonzero_entry(g) == first_nonzero_entry(e)
        for z in g.entries:
            assert_canonical_parts(z)
    first = first_residual(a, x)
    assert first == textbook_first_residual(a, x)


# Jordan data of A (eigenvalue, sizes), with eigenvalues i and -i among them
_ANTI_SPECS = (
    ((0, [3]),),
    ((0, [2, 1]),),
    ((GaussianRational(0, 1), [2]), (GaussianRational(0, -1), [1])),
    ((GaussianRational(0, 1), [1]), (GaussianRational(0, -1), [1]), (0, [1])),
    ((1, [1]), (-1, [2])),
)


@st.composite
def _anticommuting_pairs(draw):
    """(A, X) with A X + X A = 0: A = W J W^-1 and X = W K W^-1 for K a
    combination of the vectorized anticommutant kernel of J, with real,
    imaginary or complex coefficients, so that A X A = X A X may or may not hold."""
    j = assemble_jordan(JordanSpec.from_pairs(list(draw(st.sampled_from(_ANTI_SPECS)))))
    k = ExactMatrix.zeros(j.rows, j.cols)
    for element in kron_anticommutant_kernel(j, j):
        k = k + element * draw(_kinds["mixed"])
    # unit lower times unit upper triangular: invertible by construction
    n, c = j.rows, _kinds["mixed"]
    lower = ExactMatrix.from_rows([[ONE if r == s else draw(c) if r > s else ZERO
                                    for s in range(n)] for r in range(n)])
    upper = ExactMatrix.from_rows([[ONE if r == s else draw(c) if r < s else ZERO
                                    for s in range(n)] for r in range(n)])
    w = lower @ upper
    w_inv = mat_inverse(w)
    return w @ j @ w_inv, w @ k @ w_inv


@given(_anticommuting_pairs())
def test_residuals_match_textbook_products_on_anticommuting_pairs(pair):
    a, x = pair
    got, expected = residuals(a, x), textbook_residuals(a, x)
    assert got[0].is_zero()
    assert got == expected
    assert first_nonzero_entry(got[1]) == first_nonzero_entry(expected[1])
    first = first_residual(a, x)
    assert first == textbook_first_residual(a, x)


@given(
    _anticommuting_pairs(),
    st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), min_size=1, max_size=4),
)
def test_one_chain_width_for_a_batch_gives_each_x_its_own_answer(pair, scales):
    """_chain_width takes the width of the widest X in the batch; every
    other X, tested at that wider width against the one packed A, gets the
    answer of the textbook products."""
    a, x = pair
    xs = [x * GaussianRational(Fraction(3**p, 2**q)) for p, q in scales] + [x + a]
    a_form, forms = _integer_form(a), [_integer_form(y) for y in xs]
    width = _chain_width(a_form, forms)
    assert width[0] == max(_chain_width(a_form, [form])[0] for form in forms)
    got = [_first_residual(a_form, form, *width) for form in forms]
    assert got == [textbook_first_residual(a, y) for y in xs]


def check_diagonal_anticommuting_pair(d, s, t):
    """A = diag(d, -d) and X = [[0, s], [t, 0]] anti-commute, and
    A X A - X A X = A X (A + X) is nonzero; perturbing X breaks both.  Both
    residuals and the first nonzero entry match the textbook products."""
    a = ExactMatrix.from_rows([[d, 0], [0, -d]])
    x = ExactMatrix.from_rows([[0, s], [t, 0]])
    anti, ybe = residuals(a, x)
    assert anti.is_zero()
    assert ybe == mat_mul(mat_mul(a, x), a + x) == textbook_residuals(a, x)[1]
    assert not ybe.is_zero()
    assert first_residual(a, x) == textbook_first_residual(a, x)
    bent = x + ExactMatrix.from_rows([[s, 0], [0, 0]])
    assert residuals(a, bent) == textbook_residuals(a, bent)
    assert not residuals(a, bent)[0].is_zero()
    assert first_residual(a, bent) == (0, (0, 0))


@pytest.mark.parametrize("scale", [GaussianRational(1), GaussianRational(Fraction(2, 3), -5)])
def test_residuals_of_a_complex_anticommuting_pair(scale):
    check_diagonal_anticommuting_pair(GaussianRational(0, 1), scale, scale * 3)


@pytest.mark.parametrize("units", [(1, 1), (1j, 1 + 1j), (1 - 1j, 1j)], ids=str)
@pytest.mark.parametrize("large", ["A", "X"])
def test_residuals_of_skewed_anticommuting_pairs(large, units):
    # one side 40-bit integers, the other +-1 over 40-bit denominators: the
    # quadratic is dx*A'X'A' - da*X'A'X', so its width must count dx (large
    # A, denominators on X) and da (large X, a denominator on A)
    m = 2**40 - 1
    ua, ux = (GaussianRational(int(u.real), int(u.imag)) for u in units)
    if large == "A":
        d, s, t = ua * m, ux * Fraction(1, 2**40 - 3), ux * Fraction(-1, 2**40 - 5)
    else:
        d, s, t = ua * Fraction(1, 2**40 - 3), ux * m, ux * -m
    check_diagonal_anticommuting_pair(d, s, t)


def textbook_reduce_rows(work: list[list[GaussianRational]], width: int) -> tuple[int, list[int]]:
    """In-place Gauss-Jordan over the first `width` columns; returns rank, pivots.

    The reference for RowSpan's elimination: this one works column by column
    with row swaps, where RowSpan works row by row.
    """
    n_rows = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = None
        for i in range(r, n_rows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c].reciprocal()
        work[r] = [x * inv if x else x for x in work[r]]
        for i in range(n_rows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y if y else x for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return r, pivots


def textbook_rref(m: ExactMatrix) -> tuple[ExactMatrix, int, tuple[int, ...]]:
    work = m.to_rows()
    rank, pivots = textbook_reduce_rows(work, m.cols)
    return ExactMatrix.from_rows(work), rank, tuple(pivots)


def textbook_null_space(m: ExactMatrix) -> list[ExactMatrix]:
    reduced, _rank, pivots = textbook_rref(m)
    basis = []
    for j in range(m.cols):
        if j in pivots:
            continue
        vec = [ZERO] * m.cols
        vec[j] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r, j]
        basis.append(ExactMatrix.column(vec))
    return basis


def textbook_inverse(m: ExactMatrix) -> tuple[int, ExactMatrix | None]:
    """(rank, inverse), the inverse None when the rank is short."""
    n = m.rows
    work = [list(m.row(i)) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    rank, _pivots = textbook_reduce_rows(work, n)
    return rank, ExactMatrix.from_rows([row[n:] for row in work]) if rank == n else None


@st.composite
def _elimination_inputs(draw) -> ExactMatrix:
    """Shapes 1-6 x 1-6, square half the time, and a product through a
    narrower inner dimension half the time, so that the rank falls short."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 6)))
    if draw(st.booleans()):
        inner = draw(st.integers(1, min(rows, cols)))
        return draw(_matrices(rows, inner)) @ draw(_matrices(inner, cols))
    return draw(_matrices(rows, cols))


# exact elimination on large denominators can run past hypothesis' 200 ms
# default on a slow host; the deadline measures the host, not the answer
@settings(deadline=None)
@given(_elimination_inputs())
def test_elimination_matches_textbook_gauss_jordan(m):
    assert rref(m) == textbook_rref(m)
    assert null_space_basis(m) == textbook_null_space(m)
    if m.is_square():
        rank, inverse = textbook_inverse(m)
        if inverse is None:
            with pytest.raises(SingularMatrix) as err:
                mat_inverse(m)
            assert (err.value.rank, err.value.size) == (rank, m.rows)
        else:
            assert mat_inverse(m) == inverse


def check_inverse_against_textbook(m: ExactMatrix) -> None:
    """mat_inverse agrees with the Fraction Gauss-Jordan reference: the same
    inverse, or SingularMatrix with the same rank."""
    rank, inverse = textbook_inverse(m)
    if inverse is None:
        with pytest.raises(SingularMatrix) as err:
            mat_inverse(m)
        assert (err.value.rank, err.value.size) == (rank, m.rows)
    else:
        assert mat_inverse(m) == inverse


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2], [3, 4]],  # det -2: the last pivot is negative
        [[3, 1, 0], [1, -1, 2], [0, 2, -5]],  # det 8, through the pivot -4
        [["1", "1i"], ["2", "3"]],  # det 3 - 2i
        [["1+1i", "2"], ["-1i", "3-2i"]],  # Gaussian pivots throughout
        [["2i", "0"], ["0", "3"]],  # det 6i
        [["1/2", "1/3i"], ["-2/5", "1+1i"]],  # Gaussian det over a common denominator
    ],
    ids=["neg-det", "neg-pivot", "gaussian-det", "gaussian-pivots", "imaginary-det", "rational-gaussian"],
)
def test_inverse_with_negative_and_gaussian_determinants(rows):
    m = ExactMatrix.from_rows(rows)
    check_inverse_against_textbook(m)
    assert mat_mul(m, mat_inverse(m)) == ExactMatrix.identity(m.rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 0]],
        [[0, 2, 1], [0, 1, 0], [3, 0, 1]],
        [[1, 1, 0], [1, 1, 1], [0, 2, 1]],  # the second column's pivot needs a swap
        [["0", "1i"], ["1-1i", "0"]],
    ],
    ids=["swap-2", "swap-past-a-row", "swap-after-a-pivot", "swap-gaussian"],
)
def test_inverse_swaps_past_a_zero_pivot(rows):
    check_inverse_against_textbook(ExactMatrix.from_rows(rows))


def test_inverse_of_the_smallest_matrices():
    # there is no 0 x 0 matrix to invert: the grid refuses the shape
    with pytest.raises(ValueError):
        ExactMatrix(0, 0, ())
    for value in ["5", "-3", "2/7", "-7/2", "1+2i", "-3i", "1/3-1/5i"]:
        m = ExactMatrix.from_rows([[value]])
        check_inverse_against_textbook(m)
        assert mat_inverse(m)[0, 0] == ONE / m[0, 0]
    with pytest.raises(SingularMatrix) as err:
        mat_inverse(ExactMatrix.from_rows([[0]]))
    assert (err.value.rank, err.value.size) == (0, 1)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_inverse_reports_every_short_rank(complex_entries):
    # B C with B n x r and C r x n, each holding I_r, has rank exactly r.
    # B's rows and C's columns after the first are shuffled, so the pivots
    # do not lead; C's first column is zero, so the elimination passes a
    # column with no pivot before it finds any
    rng = random.Random(f"short-rank:{complex_entries}")

    def entry():
        return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3) if complex_entries else 0)

    n = 5
    for r in range(n):
        if r == 0:
            m = ExactMatrix.zeros(n, n)
        else:
            b = [[ONE if i == j else ZERO for j in range(r)] for i in range(r)]
            b += [[entry() for _ in range(r)] for _ in range(n - r)]
            c = [[ONE if i == j else ZERO for j in range(r)] + [entry() for _ in range(n - r - 1)]
                 for i in range(r)]
            rng.shuffle(b)
            order = list(range(n - 1))
            rng.shuffle(order)
            c = [[ZERO] + [row[j] for j in order] for row in c]
            m = ExactMatrix.from_rows(b) @ ExactMatrix.from_rows(c)
        with pytest.raises(SingularMatrix) as err:
            mat_inverse(m)
        assert (err.value.rank, err.value.size) == (r, n)
        assert textbook_inverse(m) == (r, None)


def test_inverse_with_denominators_near_2_to_the_40():
    big = [2**40 - 3, 2**40 - 5, 2**40 + 15, 2**40 - 87]
    rows = [
        [Fraction(1, big[0]), Fraction(-(2**39), big[1]), Fraction(3, 7)],
        [GaussianRational(Fraction(5, big[2]), Fraction(-1, big[3])), 1, Fraction(2**40, big[0])],
        [0, GaussianRational(0, Fraction(1, big[1])), Fraction(-1, big[2] * big[3])],
    ]
    m = ExactMatrix.from_rows(rows)
    check_inverse_against_textbook(m)
    real = ExactMatrix.from_rows([[Fraction(i + j + 1, big[(i * 3 + j) % 4]) for j in range(3)]
                                  for i in range(3)])
    check_inverse_against_textbook(real)


def dense_w(rng: random.Random, n: int) -> ExactMatrix:
    """Dense integer W = P L D U with unit triangular L, U (entries in
    {-1, 0, 1}) and pivots 2, 3, 5 on D among ones: det W = +-30."""
    pivots = [1] * (n - 3) + [2, 3, 5]
    rng.shuffle(pivots)
    lower = [[rng.randint(-1, 1) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-1, 1) if j > i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        upper[i][i] = pivots[i]
    w = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rng.shuffle(w)
    return ExactMatrix.from_rows(w)


def test_inverse_of_a_dense_integer_w_and_of_a_jordan_chain_basis():
    w = dense_w(random.Random("dense-w"), 20)
    check_inverse_against_textbook(w)
    # det W = +-30, so 30 W^-1 is an integer matrix and W^-1 itself is not
    inverse = mat_inverse(w)
    assert all((x * 30).re.denominator == 1 for x in inverse.entries)
    assert any(x.re.denominator > 1 for x in inverse.entries)
    # the chain basis jordan_form finds for A = W J W^-1 has rational entries
    w = dense_w(random.Random("chain-basis"), 12)
    spec = JordanSpec.from_pairs([(0, [4, 3]), (1, [2, 1]), (-1, [2])])
    a = mat_mul(mat_mul(w, assemble_jordan(spec)), mat_inverse(w))
    basis = jordan_form(a, [0, 1, -1]).w
    assert any(x.re.denominator > 1 for x in basis.entries)
    check_inverse_against_textbook(basis)


@st.composite
def _vector_runs(draw) -> list[list[GaussianRational]]:
    """Vectors of one width, some of them integer combinations of earlier ones."""
    width = draw(st.integers(1, 6))
    entry = _kinds[draw(st.sampled_from(sorted(_kinds)))]
    vectors: list[list[GaussianRational]] = []
    for _ in range(draw(st.integers(1, 8))):
        if vectors and draw(st.booleans()):
            coefficients = [draw(st.integers(-2, 2)) for _ in vectors]
            vectors.append(_combination(coefficients, vectors))
        else:
            vectors.append([draw(st.one_of(st.just(ZERO), entry)) for _ in range(width)])
    return vectors


def _combination(coefficients, vectors) -> list[GaussianRational]:
    total = [ZERO] * len(vectors[0])
    for c, v in zip(coefficients, vectors):
        total = [t + x * c for t, x in zip(total, v)]
    return total


@settings(deadline=None)
@given(_vector_runs(), st.randoms(use_true_random=False))
def test_row_span_echelon_invariant_rank_and_membership(vectors, rnd):
    span = RowSpan()
    added: list[list[GaussianRational]] = []
    rank = 0
    for vec in vectors:
        grew = span.add(vec)
        added.append(vec)
        _reduced, new_rank, pivots = textbook_rref(ExactMatrix.from_rows(added))
        assert grew == (new_rank > rank)
        rank = new_rank
        assert [p for p, _ in span.rows] == list(pivots)
        for p, row in span.rows:
            assert not any(row[:p]) and row[p] == ONE
            assert all(not row[q] for q in pivots if q != p)
        for _ in range(3):
            coefficients = [rnd.randint(-3, 3) for _ in added]
            assert span.contains(_combination(coefficients, added))
        # a unit vector off the pivot columns has a zero coordinate on every
        # row of the reduced basis, so it lies outside the span
        free = [j for j in range(len(vec)) if j not in pivots]
        if free:
            j = rnd.choice(free)
            assert not span.contains([ONE if i == j else ZERO for i in range(len(vec))])
