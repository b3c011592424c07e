import math
import operator
import pytest
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from ybx.errors import ParseError
from ybx.scalars import (
    _ZERO_PART,
    GaussianRational,
    _make,
    as_gaussian,
    format_scalar,
    parse_scalar,
)

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


def _assert_normalized(z):
    for part in (z.re, z.im):
        assert type(part) is Fraction
        assert part.denominator > 0
        assert math.gcd(part.numerator, part.denominator) == 1


@given(fractions, fractions)
def test_make_matches_public_constructor(re_, im_):
    made, public = _make(re_, im_), GaussianRational(re_, im_)
    assert made == public
    assert hash(made) == hash(public)
    _assert_normalized(made)


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
            (a.re * b.re + a.im * b.im) / n,
            (a.im * b.re - a.re * b.im) / n,
        )
    for op, (re_, im_) in expected.items():
        result, public = op(a, b), GaussianRational(re_, im_)
        assert result == public
        assert hash(result) == hash(public)
        _assert_normalized(result)
    for result in (-a, a.conjugate()):
        _assert_normalized(result)


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
        _assert_normalized(result)


# numerators up to 10**30 over denominators up to 2**89
large = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 2**89))
parts = st.one_of(fractions, large)
complex_real_imaginary = st.one_of(
    st.builds(GaussianRational, parts, parts),
    st.builds(GaussianRational, parts),
    st.builds(GaussianRational, st.just(0), parts),
)


@given(complex_real_imaginary, complex_real_imaginary)
def test_equal_values_hash_equal_whatever_built_them(z, w):
    built = [
        GaussianRational(z.re, z.im),
        _make(z.re, z.im),
        (z + w) - w,  # a complex w leaves a computed zero part on a real z
        -(-z),
        z.conjugate().conjugate(),
    ]
    if w:
        built.append((z * w) / w)
    for other in built:
        assert other == z
        assert hash(other) == hash(z)
