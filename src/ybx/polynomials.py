"""Multivariate polynomials and rational functions over Q(i) in named parameters.

These carry the symbolic solution families: matrix templates are linear in
the parameters, the constraint systems they generate are quadratic, and
branch assignments may be ratios of polynomials.  Canonical form everywhere:
no zero coefficients, monomials sorted, terms in degree-lexicographic order,
denominators monic.  Values are immutable.  Every sum and product, and
substitution, runs on one kernel of coefficient parts: _parts writes a
polynomial as {monomial: (re, im)}, the parts as the scalars store them
(ints where integral, Fractions where not), _add_product and _times sum
and multiply them, and _polynomial makes one GaussianRational per term
through scalars._make, so an integral coefficient stays an int throughout.
Only scaling by a constant multiplies GaussianRationals term by term.
_substitute builds each value's powers once for a whole list of
polynomials, and a polynomial whose mapped names all take the value 0 costs
no arithmetic: its terms without a mapped name are the result, as they
stand, over 1.  Evaluation is integer arithmetic over one common
denominator, scaled as matrix products are.  A polynomial goes through
_evaluate with its coefficients scaled over their lcm (_coefficients), and
each value comes out as Gaussian-integer parts over a denominator, which
evaluate and solver.branch_values make scalars of with scalars._over.  A
ParamMatrix is split by monomial once for its life, T = sum of mu * C_mu
with every C_mu over one denominator L (ParamMatrix._split), kept in a
private field on first use, since a template is evaluated once per draw.
_integer_forms reads the split: it scales a valuation over one d and adds
each monomial's value, lifted to d**(top - degree), times C_mu into the
entries, so the template at that valuation is the integer form that
matrices.residuals multiplies, over L * d**top, with no scalar built.
evaluate_all makes matrices of those forms, and solver.to_original
conjugates the same C_mu (matrices._conjugates).
RationalFunction is a normalized pair, numerator over monic denominator,
with no field arithmetic: it is made, substituted as a value, renamed and
printed.  ParamMatrix is a Grid (matrices.py) of polynomials and adds only
variables, its split, substitute, substitute_rational, evaluate and
evaluate_all; it has no matrix product.

Text syntax (used by the file formats): terms ``coef*p1*p2`` joined by ``+``
or ``-``, parameters as bare identifiers, powers written as repeated factors
(``x*x``), complex coefficients with both parts nonzero parenthesized, and
rational functions as ``(<poly>)/(<poly>)``.  parse_polynomials reads a
list of texts, a whole template grid, and parse_polynomial is that list of
one.  Each whitespace-free text is read in one pass of one tokenizer
regex, a term (sign, coefficient, names) per match, and coefficient parts
are summed per monomial as ints and Fractions, one GaussianRational per
monomial at the end.  A bare coefficient (its sign folded into the
numerator before any Fraction is made) and a monomial are converted once
per distinct text in the list, not once per term.  Only a text it cannot
read goes on to _reject, which names the first rule broken.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, filterfalse, repeat
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import MissingParameter, ParseError
from .matrices import ExactMatrix, Grid, _exact, _form, _IntegerForm, _scaled, _SparseForm
from .scalars import ONE, ZERO, GaussianRational, _make, _over, as_gaussian
from .scalars import _rational, format_scalar, parse_scalar

Monomial = tuple[str, ...]

_IDENT_RE = _re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _term_key(item: tuple[Monomial, GaussianRational]) -> tuple[int, Monomial]:
    mono, _ = item
    return (len(mono), mono)


@dataclass(frozen=True, slots=True)
class ParamPolynomial:
    """Polynomial in named parameters, terms in ascending degree-lex order."""

    terms: tuple[tuple[Monomial, GaussianRational], ...]

    @classmethod
    def from_dict(cls, d: Mapping[Monomial, GaussianRational]) -> "ParamPolynomial":
        items = [(tuple(m), c) for m, c in d.items() if c]
        items.sort(key=_term_key)
        return cls(tuple(items))

    @classmethod
    def zero(cls) -> "ParamPolynomial":
        return cls(())

    @classmethod
    def constant(cls, value) -> "ParamPolynomial":
        c = as_gaussian(value)
        return cls((((), c),)) if c else cls(())

    @classmethod
    def variable(cls, name: str) -> "ParamPolynomial":
        return cls((((name,), ONE),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        # degree-lex order puts the constant term first and any other last
        return not self.terms or not self.terms[-1][0]

    def constant_value(self) -> GaussianRational:
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms[0][1]

    def degree(self) -> int:
        return max((len(mono) for mono, _ in self.terms), default=0)

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for mono, _ in self.terms:
            seen.update(mono)
        return tuple(sorted(seen))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        acc = _parts(self)
        _add_product(acc, (), 1, 0, _parts(other))
        return _polynomial(acc)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self) -> "ParamPolynomial":
        return ParamPolynomial(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, ParamPolynomial) and self.is_constant():
            self, other = other, self  # a constant factor takes the scalar path
        if isinstance(other, ParamPolynomial) and other.is_constant():
            other = other.constant_value()
        if isinstance(other, (GaussianRational, int)):
            s = as_gaussian(other)
            if not s:
                return ParamPolynomial.zero()
            if s == ONE:
                return self
            return ParamPolynomial(tuple((m, c * s) for m, c in self.terms))
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        return _polynomial(_times(_parts(self), _parts(other)))

    __rmul__ = __mul__

    def leading(self) -> tuple[Monomial, GaussianRational]:
        """Largest term in degree-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[-1]

    def monic(self) -> tuple["ParamPolynomial", GaussianRational]:
        """(self / leading coefficient, the leading coefficient)."""
        if not self.terms:
            return self, ONE
        _, lead = self.leading()
        if lead == ONE:
            return self, ONE
        return self * lead.reciprocal(), lead

    def coefficient_of(self, name: str, power: int) -> "ParamPolynomial":
        """Polynomial coefficient of name**power (with name factored out)."""
        # the monomials with name**power differ outside name: no two terms meet
        terms = [(mono, c) for mono, c in self.terms if mono.count(name) == power]
        return ParamPolynomial.from_dict({tuple(v for v in m if v != name): c for m, c in terms})

    def monomial_content(self) -> tuple[Monomial, "ParamPolynomial"]:
        """(largest monomial dividing every term, the quotient by it)."""
        shared = set(self.terms[0][0]) if self.terms else set()
        for mono, _ in self.terms[1:]:
            shared.intersection_update(mono)
        if not shared:
            return (), self
        content = sorted(v for v in shared for _ in range(min(m.count(v) for m, _ in self.terms)))
        quotient = []
        for mono, c in self.terms:
            rest = list(mono)
            for v in content:
                rest.remove(v)
            quotient.append((tuple(rest), c))
        # the order of monomials is multiplicative: the quotient keeps it
        return tuple(content), ParamPolynomial(tuple(quotient))

    def substitute(self, mapping: Mapping[str, "ParamPolynomial"]) -> "ParamPolynomial":
        rational = {var: RationalFunction.from_polynomial(p) for var, p in mapping.items()}
        return self.substitute_rational(rational).numerator

    def rename(self, mapping: Mapping[str, str]) -> "ParamPolynomial":
        return self.substitute({old: ParamPolynomial.variable(new) for old, new in mapping.items()})

    def substitute_rational(
        self, mapping: Mapping[str, "RationalFunction"]
    ) -> "RationalFunction":
        return next(_substitute([self], mapping))

    def evaluate(self, assignment: Mapping[str, GaussianRational]) -> GaussianRational:
        return _over(*next(_evaluate([_coefficients(self)], assignment)))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"ParamPolynomial({format_polynomial(self)!r})"


# a polynomial's monomials and its coefficients as Gaussian integers over
# their lcm l: (monomials, re, im, l), im None when every coefficient is real
_Coefficients = tuple[list[Monomial], list[int], list[int] | None, int]


def _coefficients(p: ParamPolynomial) -> _Coefficients:
    """p's coefficients scaled as _evaluate multiplies them."""
    (re, im), l = _scaled([c for _, c in p.terms])
    return [mono for mono, _ in p.terms], re, im, l


def _evaluate(
    polys: Sequence[_Coefficients], assignment: Mapping[str, GaussianRational]
) -> Iterator[tuple[int, int, int]]:
    """Each polynomial's value at the assignment, polynomial by polynomial,
    as Gaussian-integer parts over a positive denominator, (re, im, den):
    the values are scaled once to Gaussian integers over one d, and each
    polynomial comes with its coefficients scaled over their lcm l
    (_coefficients), as matrix products scale, so a value is one sum of
    integer term products over l * d**top.  MissingParameter names what the
    first incomplete polynomial lacks."""
    names = {v for monos, *_ in polys for mono in monos for v in mono}
    try:
        given = [assignment[v] for v in names]
    except KeyError:
        for monos, *_ in polys:
            missing = {v for mono in monos for v in mono if v not in assignment}
            if missing:
                raise MissingParameter(sorted(missing)) from None
    (given_re, given_im), d = _scaled(given)
    values = dict(zip(names, zip(given_re, given_im or repeat(0))))
    for monos, c_re, c_im, l in polys:
        # the sum so far is lifted by d at each rise in degree (Horner in d)
        re = im = degree = 0
        for mono, t_re, t_im in zip(monos, c_re, c_im or repeat(0)):
            if len(mono) != degree:
                lift = d ** (len(mono) - degree)
                re, im, degree = re * lift, im * lift, len(mono)
            for var in mono:
                v_re, v_im = values[var]
                if t_im:
                    t_re, t_im = t_re * v_re - t_im * v_im, t_re * v_im + t_im * v_re
                else:
                    t_re, t_im = t_re * v_re, t_re * v_im
            re += t_re
            im += t_im
        yield re, im, l * d**degree


def _parts(p: ParamPolynomial) -> dict[Monomial, tuple]:
    """p as {monomial: (re, im)}, the form _substitute computes in."""
    return {mono: (c.re, c.im) for mono, c in p.terms}


def _add_product(acc: dict, mono: Monomial, c_re, c_im, parts: dict) -> None:
    """acc += (c_re + c_im*i) * mono * parts."""
    for m, (re, im) in parts.items():
        if mono:
            m = tuple(sorted(mono + m)) if m else mono
        if c_im or im:
            re, im = c_re * re - c_im * im, c_re * im + c_im * re
        else:
            re = c_re * re
        if m in acc:
            a_re, a_im = acc[m]
            acc[m] = a_re + re, a_im + im
        else:
            acc[m] = re, im


def _times(a: dict, b: dict) -> dict:
    """The product of two polynomials in the form of _parts."""
    acc: dict = {}
    for mono, (re, im) in a.items():
        _add_product(acc, mono, re, im, b)
    return {mono: (re, im) for mono, (re, im) in acc.items() if re or im}


def _polynomial(parts: dict) -> ParamPolynomial:
    """One GaussianRational per nonzero term; _make stores each part in its one form."""
    items = [(mono, _make(re, im)) for mono, (re, im) in parts.items() if re or im]
    items.sort(key=_term_key)
    return ParamPolynomial(tuple(items))


def _substitute(
    polys: Sequence[ParamPolynomial], mapping: Mapping[str, "RationalFunction"]
) -> Iterator["RationalFunction"]:
    """Each polynomial with rational functions substituted for parameters.

    With top the highest power of a mapped v in a polynomial, v**k becomes
    num**k * den**(top - k) over that polynomial's common denominator, the
    product of den**top over its mapped names, so denominators do not blow
    up term by term.  Powers of the values, their products and the common
    denominators are built once for all the polynomials, and no factor 1 is
    multiplied.  A term without a mapped name keeps its monomial.

    A zero value kills every term with its name and has denominator 1
    (RationalFunction.make).  So when every mapped name of a polynomial has
    the value 0, or it has none, the result is its other terms as they
    stand, over 1: no power, product, _make or sort.  Otherwise the common
    denominator keeps den**top for every mapped name, zero or not: with
    a := 0 and b := x/y, a*b + 1 is (y)/(y), as for any other value of a.
    """
    one = ParamPolynomial.constant(1)
    mapped = mapping.keys()
    unit = {(): (1, 0)}
    powers: dict[tuple[str, bool], list[dict]] = {}
    # keyed by (mapped names, their top powers, a term's powers of them)
    products: dict[tuple, dict] = {}
    denominators: dict[tuple, ParamPolynomial] = {}

    def factors(var: str, k: int, top: int) -> Iterator[dict]:
        """num**k and den**(top - k) of var's value, leaving out each 1."""
        value = mapping[var]
        for of_den, e in ((False, k), (True, top - k)):
            base = value.denominator if of_den else value.numerator
            if e and base != one:
                table = powers.get((var, of_den))
                if table is None:
                    table = powers[var, of_den] = [unit, _parts(base)]
                while len(table) <= e:
                    table.append(_times(table[-1], table[1]))
                yield table[e]

    def product(key: tuple) -> dict:
        if key not in products:
            fs = [f for var, t, k in zip(*key) for f in factors(var, k, t)]
            products[key] = reduce(_times, fs) if fs else unit
        return products[key]

    for p in polys:
        names = tuple(sorted({v for mono, _ in p.terms for v in mono if v in mapping}))
        if not any(mapping[v].numerator for v in names):
            kept = (t for t in p.terms if mapped.isdisjoint(t[0]))
            yield RationalFunction(ParamPolynomial(tuple(kept)) if names else p, one)
            continue
        tops = tuple(max(mono.count(var) for mono, _ in p.terms) for var in names)
        acc: dict = {}
        for mono, c in p.terms:
            counts = tuple(map(mono.count, names))
            rest = tuple(filterfalse(mapping.__contains__, mono)) if any(counts) else mono
            _add_product(acc, rest, c.re, c.im, product((names, tops, counts)))
        if (names, tops) not in denominators:
            # num**0 * den**top for each name: the common denominator
            denominators[names, tops] = _polynomial(product((names, tops, (0,) * len(names))))
        yield RationalFunction.make(_polynomial(acc), denominators[names, tops])


def _as_poly(value) -> ParamPolynomial | None:
    if isinstance(value, ParamPolynomial):
        return value
    if isinstance(value, (GaussianRational, int)):
        return ParamPolynomial.constant(value)
    return None


@dataclass(frozen=True, slots=True)
class RationalFunction:
    """Ratio of two polynomials, denominator monic (1 for plain polynomials)."""

    numerator: ParamPolynomial
    denominator: ParamPolynomial

    @classmethod
    def make(cls, num: ParamPolynomial, den: ParamPolynomial) -> "RationalFunction":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero():
            return cls(num, ParamPolynomial.constant(1))
        den_monic, lead = den.monic()
        return cls(num if lead == ONE else num * lead.reciprocal(), den_monic)

    @classmethod
    def from_polynomial(cls, p: ParamPolynomial) -> "RationalFunction":
        return cls.make(p, ParamPolynomial.constant(1))

    def is_polynomial(self) -> bool:
        return self.denominator.is_constant()

    def rename(self, mapping: Mapping[str, str]) -> "RationalFunction":
        return RationalFunction.make(
            self.numerator.rename(mapping), self.denominator.rename(mapping)
        )

    def __str__(self) -> str:
        return format_rational_function(self)

    def __repr__(self) -> str:
        return f"RationalFunction({format_rational_function(self)!r})"


@dataclass(frozen=True, slots=True)
class ParamMatrix(Grid):
    """Matrix with polynomial entries."""

    # the template split by monomial, made on first use and kept: a template
    # is evaluated once per draw
    _split_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    _zero = ParamPolynomial.zero()

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for p in self.entries:
            seen.update(p.variables())
        return tuple(sorted(seen))

    def _split(self) -> tuple[list[Monomial], list[_SparseForm], int]:
        """T = sum of mu * C_mu, as (monomials in degree-lex order, each C_mu
        as the row-major indices of its nonzero entries and their
        Gaussian-integer parts, one denominator L of them all)."""
        if self._split_cache is None:
            by_mono: dict[Monomial, list[tuple[int, GaussianRational]]] = {}
            for idx, p in enumerate(self.entries):
                for mono, c in p.terms:
                    by_mono.setdefault(mono, []).append((idx, c))
            monos = sorted(by_mono, key=lambda mono: (len(mono), mono))
            (re, im), l = _scaled([c for mono in monos for _, c in by_mono[mono]])
            ends = list(accumulate(len(by_mono[mono]) for mono in monos))
            split = [
                ([idx for idx, _ in by_mono[mono]], re[a:b], im[a:b] if im and any(im[a:b]) else None)
                for mono, a, b in zip(monos, [0, *ends], ends)
            ]
            object.__setattr__(self, "_split_cache", (monos, split, l))
        return self._split_cache

    def substitute(self, mapping: Mapping[str, ParamPolynomial]) -> "ParamMatrix":
        return ParamMatrix(self.rows, self.cols, tuple(p.substitute(mapping) for p in self.entries))

    def substitute_rational(
        self, mapping: Mapping[str, RationalFunction]
    ) -> list[list[RationalFunction]]:
        flat = list(_substitute(self.entries, mapping))
        return [flat[i * self.cols : (i + 1) * self.cols] for i in range(self.rows)]

    def evaluate(self, assignment: Mapping[str, GaussianRational]) -> ExactMatrix:
        return self.evaluate_all([assignment])[0]

    def evaluate_all(
        self, valuations: Sequence[Mapping[str, GaussianRational]]
    ) -> list[ExactMatrix]:
        """The matrix at each valuation, through its integer forms."""
        return [_exact(rows, d) for rows, d in _integer_forms(self, valuations)]


def _integer_forms(
    m: ParamMatrix, valuations: Sequence[Mapping[str, GaussianRational]]
) -> Iterator[_IntegerForm]:
    """m at each valuation in the integer form that matrices.residuals
    multiplies; no GaussianRational is built.  Through the split T = sum of
    mu * C_mu over L: a valuation is scaled to Gaussian integers over one d,
    each monomial's value is lifted to d**(top - degree), top the largest
    degree, and added times C_mu into the entries, over L * d**top.
    MissingParameter names what the first entry lacking a value lacks, in
    the first incomplete valuation.  Lazy: one form is made at a time."""
    monos, split, l = m._split()
    names = sorted({v for mono in monos for v in mono})
    top = len(monos[-1]) if monos else 0
    for assignment in valuations:
        try:
            given = [assignment[v] for v in names]
        except KeyError:
            for p in m.entries:
                missing = [v for v in p.variables() if v not in assignment]
                if missing:
                    raise MissingParameter(missing) from None
        (given_re, given_im), d = _scaled(given)
        values = dict(zip(names, zip(given_re, given_im or repeat(0))))
        lifts = [d ** (top - k) for k in range(top + 1)]
        re, im = [0] * len(m.entries), [0] * len(m.entries)
        for mono, (at, c_re, c_im) in zip(monos, split):
            v_re, v_im = lifts[len(mono)], 0
            for var in mono:
                x_re, x_im = values[var]
                v_re, v_im = v_re * x_re - v_im * x_im, v_re * x_im + v_im * x_re
            if c_im is None:
                for k, a in zip(at, c_re):
                    re[k] += a * v_re
                    im[k] += a * v_im
            else:
                for k, a, b in zip(at, c_re, c_im):
                    re[k] += a * v_re - b * v_im
                    im[k] += a * v_im + b * v_re
        yield _form(re, im if any(im) else None, l * lifts[0], m.cols)


def _needs_parens(scalar_text: str) -> bool:
    return "+" in scalar_text[1:] or "-" in scalar_text[1:]


def format_polynomial(p: ParamPolynomial) -> str:
    """Canonical text form, terms in ascending degree-lex order."""
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for mono, coeff in p.terms:
        if not mono:
            text = format_scalar(coeff)
            pieces.append(text if pieces and text.startswith("-") else ("+" + text if pieces else text))
            continue
        negative = coeff.re < 0 or (coeff.re == 0 and coeff.im < 0)
        sign = "-" if negative else "+"
        mag = -coeff if negative else coeff
        body = "*".join(mono)
        if mag != ONE:
            mag_text = format_scalar(mag)
            if _needs_parens(mag_text):
                mag_text = f"({mag_text})"
            body = f"{mag_text}*{body}"
        if pieces:
            pieces.append(sign + body)
        else:
            pieces.append(body if sign == "+" else "-" + body)
    return "".join(pieces)


# parentheses plus the separators, for the three separator sets the parsers use
_SPLIT_MARKS = {seps: _re.compile(f"[(){_re.escape(seps)}]") for seps in ("+-", "*", "/")}


def _split_top_level(text: str, separators: str) -> list[str]:
    """Cut text before each separator outside parentheses (never at index 0);
    each part after the first starts with its separator."""
    cuts = [0]
    depth = 0
    for match in _SPLIT_MARKS[separators].finditer(text):
        ch = match[0]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        elif depth == 0 and match.start() > 0:
            cuts.append(match.start())
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    cuts.append(len(text))
    return [text[a:b] for a, b in zip(cuts, cuts[1:])]


_RATIONAL_TEXT = r"[0-9]+(?:/[0-9]+)?"
_NAMES_TEXT = r"[A-Za-z_][A-Za-z0-9_]*(?:\*[A-Za-z_][A-Za-z0-9_]*)*"
# one well-formed term of compact text with its sign: a bare rational or
# imaginary, or a parenthesized scalar, then names; or names alone.  A term
# ends at the next sign or at the end of the text.
_TERM_RE = _re.compile(
    rf"([+-]?)(?:(?:({_RATIONAL_TEXT})(i?)"
    rf"|\((-?{_RATIONAL_TEXT})(?:([+-]{_RATIONAL_TEXT})i|(i))?\))"
    rf"(?:\*({_NAMES_TEXT}))?|({_NAMES_TEXT}))(?=[+-]|\Z)"
)


def parse_polynomial(text: str) -> ParamPolynomial:
    """Parse the polynomial grammar; inverse of format_polynomial."""
    return parse_polynomials([text])[0]


def parse_polynomials(texts: Iterable[str]) -> list[ParamPolynomial]:
    """parse_polynomial of each text, in order, through one set of tables.

    One tokenizer pass reads each text's terms.  A bare coefficient, its
    sign folded into the numerator, and a monomial are converted once per
    distinct text for the whole list; coefficient parts are summed per
    monomial as ints and Fractions and become one GaussianRational each.
    The first text that does not parse raises the ParseError it raises
    alone."""
    coefficients: dict[str, tuple] = {}
    monomials: dict[str | None, Monomial] = {None: ()}
    out = []
    for text in texts:
        compact = "".join(text.split())
        if not compact:
            raise ParseError("empty polynomial text")
        acc: dict[Monomial, tuple] = {}
        end = 0
        try:
            for m in _TERM_RE.finditer(compact):
                if m.start() != end:
                    break
                sign, bare, bare_i, first, second, first_i, names, only = m.groups()
                if bare is not None:
                    key = sign + bare + bare_i
                    parts = coefficients.get(key)
                    if parts is None:
                        q = _rational(bare, sign == "-")
                        parts = coefficients[key] = (0, q) if bare_i else (q, 0)
                    re, im = parts
                elif first is not None:
                    q = _rational(first, sign == "-")
                    re, im = (0, q) if first_i else (q, 0)
                    if second:
                        im = _rational(second, sign == "-")
                else:
                    re, im, names = (-1 if sign == "-" else 1), 0, only
                mono = monomials.get(names)
                if mono is None:
                    mono = monomials[names] = tuple(sorted(names.split("*")))
                if mono in acc:
                    a_re, a_im = acc[mono]
                    acc[mono] = a_re + re, a_im + im
                else:
                    acc[mono] = re, im
                end = m.end()
        except ZeroDivisionError:
            pass  # the term at end has a zero denominator
        if end != len(compact):
            _reject(text, compact, end)
        out.append(_polynomial(acc))
    return out


def _reject(text: str, compact: str, start: int) -> NoReturn:
    """Raise the ParseError for the term at start, the first one _TERM_RE
    does not read.  The rules apply in the grammar's order: parentheses
    balance over the whole text; the term runs to the next sign outside
    parentheses and has at most one leading sign; its factors are cut at the
    stars outside parentheses, the first a scalar or a name, each other a
    name."""
    _split_top_level(compact, "+-")  # raises on unbalanced parentheses
    piece = _split_top_level(compact[start:], "+-")[0]
    body = piece[1:] if piece[0] in "+-" else piece
    if not body:
        raise ParseError(f"dangling sign in {text!r}")
    if body.startswith("*"):
        raise ParseError(f"term starts with '*' in {text!r}")
    first, *others = _split_top_level(body, "*")
    if not _IDENT_RE.match(first):
        parse_scalar(first[1:-1] if first.startswith("(") and first.endswith(")") else first)
    for factor in others:
        factor = factor[1:]
        if not factor:
            raise ParseError(f"empty factor in {text!r}")
        if not _IDENT_RE.match(factor):
            raise ParseError(f"bad factor {factor!r} in {text!r}")
    # not reached: _TERM_RE reads every term that these rules accept
    raise ParseError(f"bad term {piece!r} in {text!r}")


def format_rational_function(rf: RationalFunction) -> str:
    if rf.is_polynomial():
        return format_polynomial(rf.numerator)
    return f"({format_polynomial(rf.numerator)})/({format_polynomial(rf.denominator)})"


def parse_rational_function(text: str) -> RationalFunction:
    """Parse ``(<poly>)/(<poly>)`` or a plain polynomial."""
    compact = "".join(text.split())
    if compact.startswith("("):
        parts = _split_top_level(compact, "/")
        # a ratio is exactly two top-level parts, "(num)" and "/(den)"
        if (
            len(parts) == 2
            and parts[0].endswith(")")
            and parts[1].startswith("/(")
            and parts[1].endswith(")")
        ):
            num = parse_polynomial(parts[0][1:-1])
            den = parse_polynomial(parts[1][2:-1])
            if den.is_zero():
                raise ParseError(f"zero denominator in {text!r}")
            return RationalFunction.make(num, den)
    return RationalFunction.from_polynomial(parse_polynomial(compact))
