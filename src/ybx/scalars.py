"""Exact scalars: complex numbers with rational real and imaginary parts.

Everything in this package computes over Q(i).  Keeping scalars exact makes
"equals zero" decidable, which the block-structure arguments require; there
is deliberately no floating-point mode.  Each part has exactly one
representation, so equality is structural: an int when the part is
integral, otherwise a fractions.Fraction in lowest terms with denominator
greater than 1.  Values are immutable and safe to share between threads.

The public constructor accepts only int and Fraction parts (anything else,
floats and strings included, raises TypeError) and brings them to that
form.  Arithmetic results go through the private _make instead, which
takes ints and Fractions in lowest terms and turns only an integral
Fraction into its int, reading Fraction's own slots.  Integral parts stay
ints through int arithmetic, the common case, so no Fraction is built for
them; every division goes through Fraction, since int / int would give a
float.  parse_scalar, and the polynomial parser, make each part of a text
once, an int or Fraction(int, int) (_rational), and store it through _make.

A value with int parts hashes the two ints; any other hashes the numerators
and denominators of both parts, which the one representation makes unique,
so hashing agrees with equality without the modular inverse that
Fraction.__hash__ computes.

A zero part is the int 0, _ZERO_PART.  +, -, * and / skip the imaginary
arithmetic when both operands are real, and unary - and conjugate when the
operand is.

Text grammar (whitespace-insensitive)::

    rational := ['-'] digits ['/' digits]
    digits   := one or more of the ASCII digits 0-9
    gaussian := rational
              | rational ('+'|'-') rational 'i'
              | rational 'i'

so ``3``, ``-1/2``, ``2/3+1/5i`` and ``-1i`` are all valid; ``-i`` must be
written ``-1i``.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_UNSIGNED = r"[0-9]+(?:/[0-9]+)?"
_ZERO_PART = 0

_SCALAR_RE = _re.compile(
    rf"^(?:(?P<both_re>{_RATIONAL})(?P<sign>[+-])(?P<both_im>{_UNSIGNED})i"
    rf"|(?P<im_only>{_RATIONAL})i"
    rf"|(?P<re_only>{_RATIONAL}))$"
)


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An element of Q(i): ``re + im*i`` with both parts exact rationals."""

    re: int | Fraction
    im: int | Fraction

    def __init__(self, re=0, im=0):
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(
                f"Gaussian rational parts must be int or Fraction, got {re!r} and {im!r}"
            )
        object.__setattr__(self, "re", re.numerator if re.denominator == 1 else Fraction(re))
        object.__setattr__(self, "im", im.numerator if im.denominator == 1 else Fraction(im))

    def __hash__(self) -> int:
        re, im = self.re, self.im
        if type(re) is int and type(im) is int:
            return hash((re, im))
        return hash((re.numerator, re.denominator, im.numerator, im.denominator))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return _make(self.re + other.re, _ZERO_PART)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return _make(self.re - other.re, _ZERO_PART)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        if not self.im:
            return _make(-self.re, _ZERO_PART)
        return _make(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:  # real x real: one product
            return _make(a * c, _ZERO_PART)
        if not b:
            return _make(a * c, a * d)
        if not d:
            return _make(a * c, b * c)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero in Q(i)")
            if not self.im:
                return _make(Fraction(self.re, other.re), _ZERO_PART)
            return _make(Fraction(self.re, other.re), Fraction(self.im, other.re))
        n = other.norm()
        return _make(
            Fraction(self.re * other.re + self.im * other.im, n),
            Fraction(self.im * other.re - self.re * other.im, n),
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        if not self.im:
            return self
        return _make(self.re, -self.im)

    def norm(self) -> int | Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def reciprocal(self) -> "GaussianRational":
        return ONE / self

    def sqrt(self):
        """An exact square root in Q(i), or None when none exists there."""
        if not self:
            return ZERO
        if not self.im:
            r = _sqrt_fraction(self.re)
            if r is not None:
                return GaussianRational(r, 0)
            r = _sqrt_fraction(-self.re)
            if r is not None:
                return GaussianRational(0, r)
            return None
        n = _sqrt_fraction(self.norm())
        if n is None:
            return None
        x2 = Fraction(self.re + n, 2)
        x = _sqrt_fraction(x2)
        if x is None or x == 0:
            return None
        y = Fraction(self.im, 2 * x)
        root = GaussianRational(x, y)
        return root if root * root == self else None

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_scalar(self)!r})"


_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re: int | Fraction, im: int | Fraction) -> GaussianRational:
    """A GaussianRational from ints and Fractions in lowest terms; an integral
    Fraction is stored as its int."""
    z = _new(GaussianRational)
    # Fraction's own slots, not its numerator and denominator properties
    _set_re(z, re if type(re) is int or re._denominator != 1 else re._numerator)
    _set_im(z, im if type(im) is int or im._denominator != 1 else im._numerator)
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_ONE = GaussianRational(-1)


def _over(re: int, im: int, d: int) -> GaussianRational:
    """(re + im*i) / d for integers with d > 0: a part that d divides is
    stored as its int quotient, any other as one Fraction."""
    if not re and not im:
        return ZERO
    z = _new(GaussianRational)
    _set_re(z, Fraction(re, d) if re % d else re // d)
    _set_im(z, Fraction(im, d) if im % d else im // d)
    return z


def _coerce(value) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def as_gaussian(value) -> GaussianRational:
    """Coerce int/Fraction/str/GaussianRational into a GaussianRational."""
    if isinstance(value, str):
        return parse_scalar(value)
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return coerced


def _sqrt_fraction(q: int | Fraction) -> Fraction | None:
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _rational(text: str, negative: bool = False) -> int | Fraction:
    """An unsigned or signed rational of the grammar, negated when negative
    says so, as a scalar part: an int when it has no denominator, else a
    Fraction in lowest terms (ZeroDivisionError on a zero denominator)."""
    num, _, den = text.partition("/")
    n = -int(num) if negative else int(num)
    return Fraction(n, int(den)) if den else n


def parse_scalar(text: str) -> GaussianRational:
    """Parse the scalar grammar; whitespace anywhere is ignored."""
    compact = "".join(text.split())
    m = _SCALAR_RE.match(compact)
    if m is None:
        raise ParseError(f"not a valid scalar: {text!r}")
    re_only, im_only, both_re = m.group("re_only", "im_only", "both_re")
    try:
        if re_only is not None:
            return _make(_rational(re_only), _ZERO_PART)
        if im_only is not None:
            return _make(_ZERO_PART, _rational(im_only))
        return _make(_rational(both_re), _rational(m["both_im"], m["sign"] == "-"))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar: {text!r}") from None


def format_scalar(z: GaussianRational) -> str:
    """Canonical text for a scalar; round-trips through parse_scalar."""
    if not z.im:
        return str(z.re)
    if not z.re:
        return f"{z.im}i"
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}i"
