import operator
import pytest
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from ybx.errors import ParseError
from ybx.scalars import (
    _ZERO_PART,
    GaussianRational,
    _make,
    _over,
    as_gaussian,
    format_scalar,
    parse_scalar,
)

from conftest import assert_canonical_parts

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
scalars = st.builds(GaussianRational, fractions, fractions)
# real and purely imaginary values reach the zero-part fast paths of * and /
mixed = st.one_of(
    scalars,
    st.builds(GaussianRational, fractions),
    st.builds(GaussianRational, st.just(0), fractions),
)


@pytest.mark.parametrize(
    "text,re_,im_",
    [
        ("3", 3, 0),
        ("-1/2", Fraction(-1, 2), 0),
        ("2/3+1/5i", Fraction(2, 3), Fraction(1, 5)),
        ("-1i", 0, -1),
        ("0", 0, 0),
        ("1-2i", 1, -2),
        ("0+1i", 0, 1),
        (" 2/3 + 1/5 i ", Fraction(2, 3), Fraction(1, 5)),
        ("2/4", Fraction(1, 2), 0),
    ],
)
def test_parse(text, re_, im_):
    assert parse_scalar(text) == GaussianRational(re_, im_)


# the last five hold Arabic-Indic and fullwidth digits: digits are ASCII 0-9 only
@pytest.mark.parametrize(
    "text",
    ["", "i", "1+i", "--1", "1.5", "1/0", "1+2", "1i+2", "x"]
    + ["\u0663", "\uff17", "1/\u0662", "\u0663i", "1+\u0662i"],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


@given(scalars)
def test_format_parse_round_trip(z):
    assert parse_scalar(format_scalar(z)) == z


def test_canonical_text_forms():
    assert format_scalar(GaussianRational(0, -1)) == "-1i"
    assert format_scalar(GaussianRational(Fraction(2, 3), Fraction(-1, 5))) == "2/3-1/5i"
    assert format_scalar(GaussianRational(0)) == "0"
    assert format_scalar(GaussianRational(-2)) == "-2"


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_division_inverts_multiplication(a):
    if a:
        assert (a * GaussianRational(3, 7)) / a == GaussianRational(3, 7)
        assert a * a.reciprocal() == GaussianRational(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


@given(scalars)
def test_sqrt_of_square(a):
    root = (a * a).sqrt()
    assert root is not None
    assert root * root == a * a


@pytest.mark.parametrize(
    "value,expected",
    [
        (GaussianRational(4), GaussianRational(2)),
        (GaussianRational(-4), GaussianRational(0, 2)),
        (GaussianRational(0, 2), GaussianRational(1, 1)),
        (GaussianRational(Fraction(9, 4)), GaussianRational(Fraction(3, 2))),
    ],
)
def test_sqrt_known_values(value, expected):
    root = value.sqrt()
    assert root is not None and root * root == value
    assert root in (expected, -expected)


@pytest.mark.parametrize("value", [GaussianRational(2), GaussianRational(0, 1), GaussianRational(3, 1)])
def test_sqrt_missing(value):
    assert value.sqrt() is None


def test_structural_equality_and_hash():
    assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))
    assert GaussianRational(1, 2) != GaussianRational(1, 3)


# each value built by every route: the public constructor, _make, _over,
# parse_scalar and arithmetic; int parts and Fraction parts hash differently
ROUTES = [
    [
        GaussianRational(Fraction(4, 2)),
        _make(2, 0),
        _over(4, 0, 2),
        parse_scalar("4/2"),
        GaussianRational(Fraction(1, 2)) * 4,
        GaussianRational(3) - GaussianRational(1),
    ],
    [
        GaussianRational(Fraction(-3, 6)),
        _make(Fraction(-1, 2), 0),
        _over(-3, 0, 6),
        parse_scalar("-1/2"),
        GaussianRational(1) / GaussianRational(-2),
        GaussianRational(Fraction(1, 6)) * -3,
    ],
    [
        GaussianRational(Fraction(4, 2), Fraction(-3, 6)),
        _make(2, Fraction(-1, 2)),
        _over(4, -1, 2),
        parse_scalar("2-1/2i"),
        GaussianRational(1, 0) + GaussianRational(1, Fraction(-1, 2)),
        GaussianRational(4, -1) / 2,
    ],
    [
        GaussianRational(0, Fraction(6, 2)),
        _make(0, 3),
        _over(0, 6, 2),
        parse_scalar("3i"),
        GaussianRational(0, 1) * 3,
        GaussianRational(1, 3) - 1,
    ],
]


@pytest.mark.parametrize("values", ROUTES)
def test_equal_values_hash_alike_by_every_route(values):
    from ybx.polynomials import ParamPolynomial, parse_polynomial

    for value in values:
        assert value == values[0] and hash(value) == hash(values[0]), value
    # a dict keyed by polynomial terms finds the key whichever route built it
    table = {ParamPolynomial(((("x",), values[0]),)).terms: "found"}
    for value in values:
        assert table[ParamPolynomial(((("x",), value),)).terms] == "found"
    text = f"({values[0]})*x" if "i" in str(values[0]) else f"{values[0]}*x"
    assert table[parse_polynomial(text).terms] == "found"


def test_as_gaussian_coercions():
    assert as_gaussian("1/2") == GaussianRational(Fraction(1, 2))
    assert as_gaussian(3) == GaussianRational(3)
    assert as_gaussian(Fraction(1, 3)) == GaussianRational(Fraction(1, 3))
    with pytest.raises(TypeError):
        as_gaussian(1.5)


def test_power():
    z = GaussianRational(0, 1)
    assert z**2 == GaussianRational(-1)
    assert z**0 == GaussianRational(1)
    assert (GaussianRational(1, 1) ** 2) == GaussianRational(0, 2)


@pytest.mark.parametrize("re_,im_", [(0.1, 0), (0, 0.5), ("0.5", 0), (0, "1/2"), (None, 0)])
def test_constructor_rejects_non_rational_parts(re_, im_):
    with pytest.raises(TypeError):
        GaussianRational(re_, im_)


@given(fractions, fractions)
def test_make_matches_public_constructor(re_, im_):
    made, public = _make(re_, im_), GaussianRational(re_, im_)
    assert made == public
    assert hash(made) == hash(public)
    assert_canonical_parts(made)


@given(mixed, mixed)
def test_arithmetic_results_are_normalized_and_match_the_formulas(a, b):
    expected = {
        operator.add: (a.re + b.re, a.im + b.im),
        operator.sub: (a.re - b.re, a.im - b.im),
        operator.mul: (a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re),
    }
    if b:
        n = b.re * b.re + b.im * b.im
        expected[operator.truediv] = (
            Fraction(a.re * b.re + a.im * b.im, n),
            Fraction(a.im * b.re - a.re * b.im, n),
        )
    for op, (re_, im_) in expected.items():
        result, public = op(a, b), GaussianRational(re_, im_)
        assert result == public
        assert hash(result) == hash(public)
        assert_canonical_parts(result)
    for result in (-a, a.conjugate()):
        assert_canonical_parts(result)


@given(fractions, fractions)
def test_real_results_share_the_zero_imaginary_part(x, y):
    a, b = GaussianRational(x), GaussianRational(y)
    results = [(a + b, x + y), (a - b, x - y), (-a, -x), (a * b, x * y), (a.conjugate(), x)]
    if y:
        results.append((a / b, x / y))
    for result, re_ in results:
        public = GaussianRational(re_)
        assert result == public
        assert hash(result) == hash(public)
        assert result.im is _ZERO_PART and public.im is _ZERO_PART
        assert_canonical_parts(result)


# numerators up to 10**30 over denominators up to 2**89
large = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 2**89))
parts = st.one_of(fractions, large)
complex_real_imaginary = st.one_of(
    st.builds(GaussianRational, parts, parts),
    st.builds(GaussianRational, parts),
    st.builds(GaussianRational, st.just(0), parts),
)


@given(complex_real_imaginary, complex_real_imaginary)
@example(GaussianRational(2), GaussianRational(0, 1))
@example(GaussianRational(Fraction(-3, 2), -2), GaussianRational(1))
def test_equal_values_hash_equal_whatever_built_them(z, w):
    (a, b), (c, d) = (z.re.numerator, z.re.denominator), (z.im.numerator, z.im.denominator)
    built = [
        GaussianRational(z.re, z.im),
        GaussianRational(Fraction(z.re), Fraction(z.im)),  # Fraction(2) is stored as 2
        _make(z.re, z.im),
        _make(Fraction(z.re), Fraction(z.im)),
        _over(a * d, c * b, b * d),
        # each part over twice its denominator: 4/2, -6/4 and so on
        parse_scalar(f"{2 * a}/{2 * b}{'-' if c < 0 else '+'}{2 * abs(c)}/{2 * d}i"),
        (z + w) - w,  # a complex w leaves a computed zero part on a real z
        -(-z),
        z.conjugate().conjugate(),
    ]
    if w:
        built.append((z * w) / w)
    assert_canonical_parts(z)
    for other in built:
        assert other == z
        assert hash(other) == hash(z)
        assert (type(other.re), type(other.im)) == (type(z.re), type(z.im))


small = st.integers(-60, 60)


@given(mixed, mixed, st.integers(0, 4), small, small, st.integers(1, 12))
def test_no_scalar_path_stores_a_float_or_an_integral_fraction(a, b, k, re_, im_, d):
    sign = "-" if im_ < 0 else "+"
    results = [a + b, a - b, a * b, -a, a.conjugate(), a**k, (a * a).sqrt(), _over(re_, im_, d)]
    results += [_make(Fraction(re_, d), Fraction(im_, d)), parse_scalar(format_scalar(a))]
    results.append(parse_scalar(f"{re_}/{d}{sign}{abs(im_)}/{d}i"))
    if b:
        results += [a / b, b.reciprocal()]
    if a.sqrt() is not None:
        results.append(a.sqrt())
    for z in results:
        assert_canonical_parts(z)



# Gaussian integers over a positive denominator, each part scaled by the
# denominator or not, so that every case of _over is drawn
gaussian_parts = st.one_of(small, st.integers(-(10**30), 10**30))


@given(
    gaussian_parts,
    gaussian_parts,
    st.one_of(st.just(1), st.integers(1, 2**40)),
    st.booleans(),
    st.booleans(),
)
@example(0, 0, 1, False, False)
@example(3, -2, 2, True, True)
@example(6, 3, 4, False, True)
@example(-(10**30), 7, 1, False, False)
def test_over_matches_make_of_fractions(re_, im_, d, re_divisible, im_divisible):
    re_, im_ = re_ * d if re_divisible else re_, im_ * d if im_divisible else im_
    z = _over(re_, im_, d)
    expected = _make(Fraction(re_, d), Fraction(im_, d))
    assert z == expected
    assert hash(z) == hash(expected)
    assert (type(z.re), type(z.im)) == (type(expected.re), type(expected.im))
    assert_canonical_parts(z)
