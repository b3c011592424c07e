import math
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ybx.errors import MissingParameter, ParseError
from ybx.formats import family_from_json
from ybx.bundled import example_41_spec, example_41_w
from ybx.jordan import JordanSpec, assemble_jordan, similarity_from_jordan
from ybx.matrices import ExactMatrix, _exact, mat_mul
from ybx.polynomials import (
    ParamMatrix,
    ParamPolynomial,
    RationalFunction,
    _integer_forms,
    _split_top_level,
    _substitute,
    format_polynomial,
    format_rational_function,
    parse_polynomial,
    parse_polynomials,
    parse_rational_function,
)
from ybx.scalars import GaussianRational, parse_scalar
from ybx.solver import SolutionBranch, SolutionFamily, solve, to_original

from conftest import (
    _add_reference,
    _matmul_reference,
    _mul_reference,
    _negated_reference,
    assert_canonical_parts,
    random_invertible,
    random_scalar,
)

X = ParamPolynomial.variable("x")
Y = ParamPolynomial.variable("y")
ONE = ParamPolynomial.constant(1)


def random_poly(rng: random.Random, names=("x", "y", "z"), terms=4, degree=2) -> ParamPolynomial:
    acc = ParamPolynomial.zero()
    for _ in range(rng.randint(0, terms)):
        term = ParamPolynomial.constant(random_scalar(rng, 3))
        for _ in range(rng.randint(0, degree)):
            term = term * ParamPolynomial.variable(rng.choice(names))
        acc = acc + term
    return acc


def test_canonical_form():
    p = X + X
    assert p.terms == ((("x",), GaussianRational(2)),)
    assert (X - X).is_zero()
    q = X * Y + ONE + X * X
    monos = [m for m, _ in q.terms]
    assert monos == [(), ("x", "x"), ("x", "y")]  # ascending degree-lex
    # the x*y terms cancel
    difference = ((("x", "x"), GaussianRational(1)), (("y", "y"), GaussianRational(-1)))
    assert ((X + Y) * (X - Y)).terms == difference


def test_ring_identities(rng):
    for _ in range(15):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p


def test_substitute_polynomial():
    p = X * X + Y
    result = p.substitute({"x": Y + ONE})
    expected = (Y + ONE) * (Y + ONE) + Y
    assert result == expected


def test_substitute_rational_clears_denominators():
    p = X * X + X
    sub = p.substitute_rational({"x": RationalFunction.make(Y, Y + ONE)})
    # (y/(y+1))^2 + y/(y+1) = (y^2 + y(y+1)) / (y+1)^2
    expected = RationalFunction.make(Y * Y + Y * (Y + ONE), (Y + ONE) * (Y + ONE))
    assert sub == expected


def test_evaluate_and_missing():
    p = X * Y + ONE
    value = p.evaluate({"x": GaussianRational(2), "y": GaussianRational(0, 1)})
    assert value == GaussianRational(1, 2)
    with pytest.raises(MissingParameter):
        p.evaluate({"x": GaussianRational(2)})


def test_coefficient_extraction():
    p = X * X * GaussianRational(3) + X * Y + Y + ONE
    assert p.coefficient_of("x", 3).is_zero()
    assert p.coefficient_of("x", 2) == ParamPolynomial.constant(3)
    assert p.coefficient_of("x", 1) == Y
    assert p.coefficient_of("x", 0) == Y + ONE


def test_monomial_content():
    assert (X * Y + X * X).monomial_content() == (("x",), Y + X)
    assert (X * X * Y * GaussianRational(3)).monomial_content() == (
        ("x", "x", "y"),
        ParamPolynomial.constant(3),
    )
    assert (X * Y + ONE).monomial_content() == ((), X * Y + ONE)
    assert ParamPolynomial.zero().monomial_content() == ((), ParamPolynomial.zero())


def test_monic():
    p = X * GaussianRational(0, 2)  # 2i * x
    monic, lead = p.monic()
    assert lead == GaussianRational(0, 2)
    assert monic == X


@pytest.mark.parametrize(
    "text",
    ["0", "1", "-x", "x*x", "(2-3i)*x+1/2", "2/3+1/5i", "x+y-3+2i", "1i*x", "-1/2*x*y+z"],
)
def test_parse_format_round_trip_strings(text):
    p = parse_polynomial(text)
    assert parse_polynomial(format_polynomial(p)) == p


def test_parse_specifics():
    assert parse_polynomial("x + y - 3 + 2i") == X + Y + ParamPolynomial.constant(
        GaussianRational(-3, 2)
    )
    assert parse_polynomial("2*x*x") == X * X * GaussianRational(2)
    assert parse_polynomial("(1+1i)*x") == X * GaussianRational(1, 1)


@pytest.mark.parametrize(
    "text", ["", "x**y", "*x", "x*", "x*2", "(x)*y", "x+", "3x", "\u0663*x"]
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_polynomial(text)


@pytest.mark.parametrize("text", ["1/0*x", "(1/0)*x", "x+1/0*y"])
def test_parse_reports_a_zero_denominator_in_a_first_factor(text):
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial(text)


def _split_top_level_reference(text, separators):
    # the character-by-character splitter the sliced one replaced
    parts = []
    depth = 0
    current = []
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch in separators and depth == 0 and idx > 0:
            parts.append("".join(current))
            current = [ch]
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return parts


def _split_outcome(split, text, separators):
    try:
        return split(text, separators)
    except ParseError as exc:
        return ("ParseError", str(exc))


@given(st.text(alphabet="()+-*/xi1", max_size=30), st.sampled_from(["+-", "*", "/"]))
def test_split_top_level_matches_reference(text, separators):
    assert _split_outcome(_split_top_level, text, separators) == _split_outcome(
        _split_top_level_reference, text, separators
    )


def _parse_rational_function_reference(text):
    # the parser that found the numerator's closing parenthesis by walking
    # the text one character at a time
    compact = "".join(text.split())
    if compact.startswith("("):
        depth = 0
        for idx, ch in enumerate(compact):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    rest = compact[idx + 1 :]
                    if rest.startswith("/(") and rest.endswith(")"):
                        num = parse_polynomial(compact[1:idx])
                        den = parse_polynomial(rest[2:-1])
                        if den.is_zero():
                            raise ParseError(f"zero denominator in {text!r}")
                        return RationalFunction.make(num, den)
                    break
    return RationalFunction.from_polynomial(parse_polynomial(compact))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return "ParseError"


# parenthesized pieces joined by "/": plain, ratio and three-part texts and
# zero denominators, alone or between stray characters
_RATIO_PIECE = st.sampled_from(["x", "y", "0", "1", "i", "x+1", "2*y-i", "x*x", "", "x)", "(y"])
_RATIO_CORE = st.lists(_RATIO_PIECE.map("({})".format), min_size=1, max_size=3).map("/".join)
_RATIO_NOISY = st.tuples(
    st.sampled_from(["x", ")", "(", " "]), _RATIO_CORE, st.sampled_from(["x", ")", "*(y)", " "])
).map("".join)


@given(st.one_of(_RATIO_CORE, _RATIO_NOISY, st.text(alphabet="()+-*/xy12i ", max_size=30)))
@example("(x+1)/(0)")
@example("(x)/(y)/(x)")
def test_parse_rational_function_matches_reference(text):
    assert _parse_outcome(parse_rational_function, text) == _parse_outcome(
        _parse_rational_function_reference, text
    )


def test_poly_round_trip_random(rng):
    for _ in range(40):
        p = random_poly(rng)
        assert parse_polynomial(format_polynomial(p)) == p


def test_rational_function_normalization():
    rf = RationalFunction.make(X * GaussianRational(2), Y * GaussianRational(2))
    assert rf.denominator == Y  # monic denominator
    assert rf.numerator == X
    folded = RationalFunction.make(X, ParamPolynomial.constant(2))
    assert folded.is_polynomial()
    assert folded.numerator == X * GaussianRational(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        RationalFunction.make(X, ParamPolynomial.zero())


def test_rational_round_trip():
    rf = parse_rational_function("(k42+k42*k42)/(k31)")
    assert not rf.is_polynomial()
    assert parse_rational_function(format_rational_function(rf)) == rf
    plain = parse_rational_function("x+1")
    assert plain.is_polynomial()
    with pytest.raises(ParseError):
        parse_rational_function("(x)/(0)")


def test_rational_rename():
    a = RationalFunction.make(X, Y)
    renamed = a.rename({"x": "u", "y": "v"})
    assert format_rational_function(renamed) == "(u)/(v)"


def test_param_matrix_evaluate_commutes_with_product(rng):
    for _ in range(10):
        rows, inner, cols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = ParamMatrix.from_rows(
            [[random_poly(rng, terms=2) for _ in range(inner)] for _ in range(rows)]
        )
        b = ParamMatrix.from_rows(
            [[random_poly(rng, terms=2) for _ in range(cols)] for _ in range(inner)]
        )
        assignment = {name: random_scalar(rng, 3) for name in ("x", "y", "z")}
        left = _matmul_reference(a, b).evaluate(assignment)
        right = mat_mul(a.evaluate(assignment), b.evaluate(assignment))
        assert left == right


def test_param_matrix_from_exact_and_substitution():
    # an exact factor of the reference product counts as constant polynomials
    t = ParamMatrix.from_rows([[X, Y], [ParamPolynomial.zero(), X]])
    assert _matmul_reference(ExactMatrix.identity(2), t) == t
    swapped = t.substitute({"x": Y, "y": X})
    assert swapped[0, 0] == Y and swapped[0, 1] == X
    ratios = t.substitute_rational({"x": RationalFunction.make(ONE, Y)})
    assert ratios[0][0] == RationalFunction.make(ONE, Y)


@pytest.mark.parametrize("key", [(0, 3), (3, 0), (-1, -1), (0, -1)])
def test_param_matrix_index_out_of_range(key):
    # a flat index would wrap (0, 3) to (1, 0) and (-1, -1) to the last entry
    t = ParamMatrix.from_rows([[X, Y, ONE], [ParamPolynomial.zero(), X, -Y], [ONE, ONE, ONE]])
    assert t[1, 2] == -Y
    with pytest.raises(IndexError):
        t[key]


# ---------------------------------------------------------------------------
# properties of the monic short-circuit and the substitution kernel

NAMES = ("x", "y", "z")
seeds = st.integers(min_value=0, max_value=2**32).map(random.Random)


def _draw_nonzero_poly(rng):
    p = ParamPolynomial.zero()
    while p.is_zero():
        p = random_poly(rng, NAMES, 3)
    return p


def _draw_mapping(rng):
    """Rational values, a third of them zero: a zero numerator over any
    denominator, which make reduces to 0 over 1."""
    names = rng.sample(NAMES, rng.randint(1, 2))
    return {
        var: RationalFunction.make(
            ParamPolynomial.zero() if rng.randrange(3) == 0 else random_poly(rng, NAMES, 3),
            _draw_nonzero_poly(rng),
        )
        for var in names
    }


def _substitute_reference(p, mapping):
    """The term-by-term expansion, the slow reference for substitute."""
    out = ParamPolynomial.zero()
    for mono, c in p.terms:
        term = ParamPolynomial.constant(c)
        for var in mono:
            term = term * mapping.get(var, ParamPolynomial.variable(var))
        out = out + term
    return out


@given(seeds)
def test_monic_is_idempotent_with_lead_one(rng):
    p = _draw_nonzero_poly(rng)
    monic, lead = p.monic()
    assert monic.leading()[1] == GaussianRational(1)
    assert monic * lead == p
    again, lead_again = monic.monic()
    assert again == monic and lead_again == GaussianRational(1)


def _monomial(names):
    return ParamPolynomial(((tuple(sorted(names)), GaussianRational(1)),))


@given(seeds)
def test_monomial_content_divides_out_exactly(rng):
    # a random monomial times a random polynomial: quotient * content is the
    # product again, and no variable is left in every term of the quotient
    shift = [rng.choice(NAMES) for _ in range(rng.randint(0, 3))]
    p = _draw_nonzero_poly(rng) * _monomial(shift)
    content, quotient = p.monomial_content()
    assert quotient * _monomial(content) == p
    # the quotient keeps p's terms in canonical order, with no sort
    assert quotient.terms == ParamPolynomial.from_dict(dict(quotient.terms)).terms
    assert not set(NAMES).intersection(*(mono for mono, _ in quotient.terms))


@given(seeds)
def test_substitute_rational_commutes_with_evaluation(rng):
    p, mapping = random_poly(rng, NAMES), _draw_mapping(rng)
    point = {name: random_scalar(rng, 3) for name in NAMES}
    inner = {}
    for var, rf in mapping.items():
        den = rf.denominator.evaluate(point)
        assume(den)
        inner[var] = rf.numerator.evaluate(point) / den
    substituted = p.substitute_rational(mapping)
    value = substituted.numerator.evaluate(point) / substituted.denominator.evaluate(point)
    assert value == p.evaluate({**point, **inner})


@given(seeds)
def test_substitute_rational_denominator_is_product_of_top_powers(rng):
    p, mapping = random_poly(rng, NAMES), _draw_mapping(rng)
    expected = ParamPolynomial.constant(1)
    for var, rf in mapping.items():
        for _ in range(max((mono.count(var) for mono, _ in p.terms), default=0)):
            expected = expected * rf.denominator
    result = p.substitute_rational(mapping)
    if result.numerator.is_zero():
        assert result.denominator == ONE
    else:
        assert result.denominator == expected.monic()[0]


def test_a_zero_value_keeps_the_common_denominator_of_the_other_names():
    # a := 0 kills a*b, but the constant term is still lifted by the
    # denominator y of b := x/y: the result is (y)/(y), not 1
    a, b = ParamPolynomial.variable("a"), ParamPolynomial.variable("b")
    zero = RationalFunction.from_polynomial(ParamPolynomial.zero())
    (got,) = _substitute([a * b + ONE], {"a": zero, "b": RationalFunction.make(X, Y)})
    assert format_rational_function(got) == "(y)/(y)"
    # with zero values alone the surviving terms stand as they are, over 1
    p = a * b + GaussianRational(Fraction(1, 2), 3) * b + ONE
    (got,) = _substitute([p], {"a": zero})
    assert got.numerator.terms == p.terms[:2] and got.denominator == ONE


def _draw_matrix_mapping(rng):
    """Rational values over the entries' own names, polynomial values
    (denominator 1), or the simultaneous swap x <-> y."""
    kind = rng.randrange(3)
    if kind == 0:
        return _draw_mapping(rng)
    if kind == 1:
        names = rng.sample(NAMES, rng.randint(1, 3))
        return {var: RationalFunction.from_polynomial(random_poly(rng, NAMES, 3)) for var in names}
    return {"x": RationalFunction.from_polynomial(Y), "y": RationalFunction.from_polynomial(X)}


@given(seeds)
def test_param_matrix_substitute_rational_matches_entrywise(rng):
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    m = ParamMatrix.from_rows([[random_poly(rng, NAMES) for _ in range(cols)] for _ in range(rows)])
    mapping = _draw_matrix_mapping(rng)
    got = m.substitute_rational(mapping)
    assert got == [[m[i, j].substitute_rational(mapping) for j in range(cols)] for i in range(rows)]
    if all(rf.is_polynomial() for rf in mapping.values()):
        # every value is substituted at once, not one name after another
        polys = {var: rf.numerator for var, rf in mapping.items()}
        for i, j in product(range(rows), range(cols)):
            expected = _substitute_reference(m[i, j], polys)
            assert got[i][j] == RationalFunction.from_polynomial(expected)


@given(seeds)
def test_substitute_matches_term_by_term_expansion(rng):
    p = random_poly(rng, NAMES)
    mapping = {var: random_poly(rng, NAMES, 3) for var in rng.sample(NAMES, rng.randint(0, 2))}
    assert p.substitute(mapping) == _substitute_reference(p, mapping)


@given(
    st.dictionaries(
        st.lists(st.sampled_from(NAMES), max_size=3).map(lambda v: tuple(sorted(v))),
        st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2)),
        max_size=4,
    )
)
def test_is_constant_means_every_monomial_is_empty(d):
    p = ParamPolynomial.from_dict(d)
    assert p.is_constant() == all(not mono for mono, _ in p.terms)


def evaluate_reference(p: ParamPolynomial, assignment) -> GaussianRational:
    """Term by term in GaussianRational arithmetic: the reference for evaluate."""
    missing = sorted({v for mono, _ in p.terms for v in mono} - set(assignment))
    if missing:
        raise MissingParameter(missing)
    total = GaussianRational(0)
    for mono, c in p.terms:
        value = c
        for var in mono:
            value = value * assignment[var]
        total = total + value
    return total


def matrix_evaluate_reference(m: ParamMatrix, assignment) -> ExactMatrix:
    """Entry by entry, so a missing value is named by the first entry that lacks it."""
    return ExactMatrix(
        m.rows, m.cols, tuple(evaluate_reference(p, assignment) for p in m.entries)
    )


# zero, small parts, and large numerators over large coprime (prime) denominators
_eval_parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.sampled_from([7919, 65537, 1000003, 2**61 - 1, 2**89 - 1]),
    ),
)
_eval_scalars = st.one_of(
    st.builds(GaussianRational, _eval_parts),
    st.builds(GaussianRational, _eval_parts, _eval_parts),
)
_eval_monomials = st.lists(st.sampled_from(NAMES), max_size=4).map(lambda v: tuple(sorted(v)))
# zero (no terms), constant (only the empty monomial) and degree <= 4
_eval_polys = st.dictionaries(_eval_monomials, _eval_scalars, max_size=6).map(
    ParamPolynomial.from_dict
)
_eval_entries = st.dictionaries(_eval_monomials, _eval_scalars, max_size=3).map(
    ParamPolynomial.from_dict
)
# any subset of the names, so that some draws lack a value
_eval_assignments = st.dictionaries(st.sampled_from(NAMES), _eval_scalars)
_complete_assignments = st.fixed_dictionaries({name: _eval_scalars for name in NAMES})


def _outcome(fn, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except MissingParameter as exc:
        return type(exc), str(exc)


@given(_eval_polys, st.one_of(_complete_assignments, _eval_assignments))
@example(ParamPolynomial.zero(), {})
@example(ParamPolynomial.constant(GaussianRational(Fraction(-3, 7), 2)), {})
@example(X * X * Y * Y + X, {"x": GaussianRational(0), "y": GaussianRational(0, 1)})
def test_evaluate_matches_term_by_term_reference(p, assignment):
    got = _outcome(p.evaluate, assignment)
    assert got == _outcome(evaluate_reference, p, assignment)
    if isinstance(got, GaussianRational):
        assert_canonical_parts(got)


@given(
    st.integers(1, 3).flatmap(
        lambda rows: st.integers(1, 3).flatmap(
            lambda cols: st.lists(_eval_entries, min_size=rows * cols, max_size=rows * cols).map(
                lambda entries: ParamMatrix(rows, cols, tuple(entries))
            )
        )
    ),
    st.one_of(_complete_assignments, _eval_assignments),
)
def test_param_matrix_evaluate_matches_entrywise_reference(m, assignment):
    got = _outcome(m.evaluate, assignment)
    assert got == _outcome(matrix_evaluate_reference, m, assignment)
    if isinstance(got, ExactMatrix):
        for value in got.entries:
            assert_canonical_parts(value)
        # the integer form that residuals multiplies: rows over one d
        ((rows, d),) = _integer_forms(m, [assignment])
        assert d > 0
        assert _exact(rows, d) == got
        # the split kept from the evaluation takes no part in eq, hash or repr
        fresh = ParamMatrix(m.rows, m.cols, m.entries)
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


def integer_forms_reference(m: ParamMatrix, valuations) -> list[ExactMatrix]:
    """Each valuation entry by entry, term by term (matrix_evaluate_reference):
    the reference for _integer_forms."""
    return [matrix_evaluate_reference(m, assignment) for assignment in valuations]


def _through_the_split(m: ParamMatrix, valuations) -> list[ExactMatrix]:
    forms = list(_integer_forms(m, valuations))
    assert all(d > 0 for _, d in forms)
    return [_exact(rows, d) for rows, d in forms]


# monomials of degree 0 to 2, so templates mix constants, linear and quadratic terms
_split_entries = st.dictionaries(
    st.lists(st.sampled_from(NAMES), max_size=2).map(lambda v: tuple(sorted(v))),
    _eval_scalars,
    max_size=3,
).map(ParamPolynomial.from_dict)
_split_templates = st.integers(1, 3).flatmap(
    lambda rows: st.integers(1, 3).flatmap(
        lambda cols: st.lists(_split_entries, min_size=rows * cols, max_size=rows * cols).map(
            lambda entries: ParamMatrix(rows, cols, tuple(entries))
        )
    )
)
_CONSTANTS_ONLY = ParamMatrix.from_rows(
    [[ParamPolynomial.constant(GaussianRational(Fraction(10**30 + 1, 65537), -2)), ONE],
     [ParamPolynomial.zero(), ParamPolynomial.constant(GaussianRational(0, Fraction(1, 3)))]]
)


@given(
    _split_templates,
    st.lists(st.one_of(_complete_assignments, _eval_assignments), min_size=1, max_size=4),
)
@example(ParamMatrix.zeros(2, 3), [{}, {"x": GaussianRational(1, 1)}])
@example(_CONSTANTS_ONLY, [{}, {"x": GaussianRational(Fraction(2, 7919))}])
@example(
    ParamMatrix.from_rows([[X * Y, X - Y * GaussianRational(0, 2)], [Y * Y + ONE, ONE]]),
    [{"x": GaussianRational(Fraction(1, 2), 1), "y": GaussianRational(-3)}, {"x": GaussianRational(1)}],
)
def test_integer_forms_match_the_entrywise_reference(m, valuations):
    # the same matrices, or the same MissingParameter for the same first
    # incomplete valuation, as evaluating entry by entry over the lcm
    got = _outcome(_through_the_split, m, valuations)
    assert got == _outcome(integer_forms_reference, m, valuations)
    assert _outcome(m.evaluate_all, valuations) == got
    # the split's monomials come in degree-lex order, and C_mu over L is T's coefficients
    monos, split, l = m._split()
    assert monos == sorted(monos, key=lambda mono: (len(mono), mono))
    for mono, (at, re, im) in zip(monos, split):
        assert l > 0 and all(re[k] or (im and im[k]) for k in range(len(at)))
        for k, idx in enumerate(at):
            c = dict(m.entries[idx].terms)[mono]
            assert c == GaussianRational(Fraction(re[k], l), Fraction(im[k] if im else 0, l))
    assert sum(len(at) for at, _, _ in split) == sum(len(p.terms) for p in m.entries)


# integer, rational and complex coefficients, so that the values' numerators
# and denominators mix all three
_sub_scalars = st.one_of(
    st.builds(GaussianRational, st.integers(-3, 3)),
    st.builds(GaussianRational, st.fractions(-3, 3, max_denominator=6)),
    st.builds(GaussianRational, st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6)),
)
_sub_monomials = st.lists(st.sampled_from(NAMES), max_size=3).map(lambda v: tuple(sorted(v)))
_sub_polys = st.dictionaries(_sub_monomials, _sub_scalars, max_size=4).map(
    ParamPolynomial.from_dict
)
# zero, polynomial and rational values
_sub_values = st.builds(
    RationalFunction.make,
    st.one_of(st.just(ParamPolynomial.zero()), _sub_polys),
    st.dictionaries(_sub_monomials, _sub_scalars.filter(bool), min_size=1, max_size=4).map(
        ParamPolynomial.from_dict
    ),
)


@given(st.lists(_sub_polys, max_size=5), st.dictionaries(st.sampled_from(NAMES), _sub_values))
def test_substitute_over_a_list_matches_one_polynomial_at_a_time(polys, mapping):
    got = list(_substitute(polys, mapping))
    assert got == [next(_substitute([p], mapping)) for p in polys]
    for rf in got:
        for _, c in rf.numerator.terms + rf.denominator.terms:
            assert_canonical_parts(c)


# two zero blocks of size 1, by a W with Fraction and imaginary entries
_SIM2 = similarity_from_jordan(
    JordanSpec.from_pairs([(0, [1, 1])]),
    ExactMatrix.from_rows([[2, Fraction(1, 3)], [GaussianRational(0, 1), 1]]),
)


@given(_sub_polys, _sub_polys, _sub_scalars, st.dictionaries(st.sampled_from(NAMES), _sub_values))
def test_no_polynomial_path_stores_a_float_or_an_integral_fraction(p, q, c, mapping):
    zero = ParamPolynomial.zero()
    family = _jordan_family(_SIM2, ParamMatrix.from_rows([[p, q], [zero, q * c]]))
    conjugated = to_original(family, _SIM2).template
    value = p.substitute_rational(mapping)
    results = [p + q, p - q, p * q, p * c, *conjugated.entries, value.numerator, value.denominator]
    results.append(parse_polynomial(format_polynomial(p)))
    for r in results:
        for _, coefficient in r.terms:
            assert_canonical_parts(coefficient)


# ---------------------------------------------------------------------------
# the polynomial parser against the grammar, the formatter and a reference


@given(_eval_polys)
@example(X * X * Y)
@example(ParamPolynomial.constant(GaussianRational(0, Fraction(-(10**30), 2**89 - 1))) * X * X)
@example(X * GaussianRational(Fraction(10**30, 7919), Fraction(-3, 65537)) - ONE)
def test_parse_inverts_format(p):
    got = parse_polynomial(format_polynomial(p))
    assert got == p
    for _, c in got.terms:
        assert_canonical_parts(c)


@pytest.mark.parametrize(
    "text, expected",
    [
        (" x +\t2 * y\n", X + Y * 2),
        ("x+x", X * 2),
        ("y*x", X * Y),
        ("y*x*y", X * Y * Y),
        ("x-x", ParamPolynomial.zero()),
        ("+x", X),
        ("2/4*x", X * GaussianRational(Fraction(1, 2))),
        ("007/014*x", X * GaussianRational(Fraction(1, 2))),
        ("(1+2i)*x", X * GaussianRational(1, 2)),
        ("(-3/6i)*x", X * GaussianRational(0, Fraction(-1, 2))),
        ("-(2)*x", X * -2),
        ("(0)*x+1", ONE),
        ("1+2i", ParamPolynomial.constant(GaussianRational(1, 2))),
        ("x+y-3+2i", X + Y + ParamPolynomial.constant(GaussianRational(-3, 2))),
        ("1/2i*x-1/2i*x", ParamPolynomial.zero()),
        (
            "-2/4+4/2*x+(6/3-8/4i)*y",
            X * 2 + Y * GaussianRational(2, -2) + ParamPolynomial.constant(Fraction(-1, 2)),
        ),
    ],
)
def test_parse_non_canonical_spellings(text, expected):
    got = parse_polynomial(text)
    assert got == expected
    # equal values in the same form: 4/2 is stored as the int 2
    assert [(type(c.re), type(c.im)) for _, c in got.terms] == [
        (type(c.re), type(c.im)) for _, c in expected.terms
    ]


# (text, the ParseError message that parse_polynomial raises on it)
REJECTION_MESSAGES = [
    ("", "empty polynomial text"),
    (" \t", "empty polynomial text"),
    ("x**y", "empty factor in 'x**y'"),
    ("*x", "term starts with '*' in '*x'"),
    ("x*", "empty factor in 'x*'"),
    ("x*2", "bad factor '2' in 'x*2'"),
    ("x*(1)", "bad factor '(1)' in 'x*(1)'"),
    ("(x)*y", "not a valid scalar: 'x'"),
    ("((1))*y", "not a valid scalar: '(1)'"),
    ("x+", "dangling sign in 'x+'"),
    ("-", "dangling sign in '-'"),
    ("--x", "dangling sign in '--x'"),
    ("x+-y", "dangling sign in 'x+-y'"),
    ("x + -y", "dangling sign in 'x + -y'"),
    ("3x", "not a valid scalar: '3x'"),
    ("x(1)", "not a valid scalar: 'x(1)'"),
    ("\u0663*x", "not a valid scalar: '\u0663'"),
    ("x+(1", "unbalanced parentheses in 'x+(1'"),
    ("x + (1", "unbalanced parentheses in 'x+(1'"),
    ("x)+(y", "unbalanced parentheses in 'x)+(y'"),
    ("3x+(", "unbalanced parentheses in '3x+('"),
    ("1/0*x", "zero denominator in scalar: '1/0'"),
    ("(1/0)*x", "zero denominator in scalar: '1/0'"),
    ("x+1/0*y", "zero denominator in scalar: '1/0'"),
    ("1/0i", "zero denominator in scalar: '1/0i'"),
    ("(2+1/00i)*x", "zero denominator in scalar: '2+1/00i'"),
    ("1/0+(", "unbalanced parentheses in '1/0+('"),
    ("1/0+3x", "zero denominator in scalar: '1/0'"),
    ("3x+1/0", "not a valid scalar: '3x'"),
]


@pytest.mark.parametrize("text, message", REJECTION_MESSAGES)
def test_parse_rejection_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", REJECTION_MESSAGES)
def test_a_bad_template_entry_fails_as_it_fails_alone(text, message):
    """A bad entry in the middle of a template grid, read with the whole
    grid by family_from_json, raises the message it raises alone; entries
    before and after it share coefficient and monomial texts."""
    family = {
        "n": 3,
        "frame": "jordan",
        "matrix": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        "template": [["x", "-1/2*x*y", "y"], ["1/2*y", text, "-x"], ["y*x", "-1/2*x", "x+1"]],
        "branches": [],
    }
    with pytest.raises(ParseError) as err:
        family_from_json(family)
    assert str(err.value) == message


# spellings of the texts parse_polynomials reads as one grid: a few
# coefficients and monomials shared across the list, terms in any order,
# names in any order, repeated monomials and cancelling pairs
_READER_NAMES = ("x", "y", "k1_2")
_reader_coefficients = st.lists(
    st.one_of(
        st.just(GaussianRational(1)),
        st.just(GaussianRational(-1)),
        st.builds(GaussianRational, st.fractions(-4, 4, max_denominator=6)),
        st.builds(GaussianRational, st.integers(0, 0), st.fractions(-4, 4, max_denominator=6)),
        st.builds(
            GaussianRational,
            st.fractions(-4, 4, max_denominator=6),
            st.fractions(-4, 4, max_denominator=6),
        ),
    ),
    min_size=1,
    max_size=4,
)
_reader_monomials = st.lists(
    st.lists(st.sampled_from(_READER_NAMES), max_size=3).map(tuple), min_size=1, max_size=4
)


def _term_text(draw, c: GaussianRational, names: tuple) -> str:
    """One signed term of value c times the names, spelled one of the ways
    the grammar allows for c: a bare real or imaginary rational with the
    term's sign, a parenthesized scalar under either sign, or names alone."""
    names = draw(st.permutations(names))
    factor = "*".join(names)
    ways = ["paren"]
    if not c.im:
        ways.append("bare")
    if not c.re and c.im:
        ways.append("bare_i")
    if names and c in (GaussianRational(1), GaussianRational(-1)):
        ways.append("names")
    way = draw(st.sampled_from(ways))
    if way == "names":
        return ("-" if c.re < 0 else "+") + factor
    if way == "bare":
        sign, coefficient = ("-" if c.re < 0 else "+"), str(abs(c.re))
    elif way == "bare_i":
        sign, coefficient = ("-" if c.im < 0 else "+"), f"{abs(c.im)}i"
    else:
        sign = draw(st.sampled_from("+-"))
        coefficient = f"({c if sign == '+' else -c})"
    return sign + coefficient + ("*" + factor if names else "")


@st.composite
def _reader_grids(draw):
    """(texts, the polynomials they spell), the values summed term by term
    in GaussianRationals."""
    coefficients, monomials = draw(_reader_coefficients), draw(_reader_monomials)
    texts, values = [], []
    for _ in range(draw(st.integers(1, 5))):
        terms = draw(
            st.lists(
                st.tuples(st.sampled_from(coefficients), st.sampled_from(monomials)),
                min_size=1,
                max_size=5,
            )
        )
        if draw(st.booleans()):
            c, names = terms[0]
            terms += [(-c, names)]  # a pair that cancels
        terms = draw(st.permutations(terms))
        acc: dict = {}
        for c, names in terms:
            mono = tuple(sorted(names))
            acc[mono] = acc.get(mono, GaussianRational(0)) + c
        text = "".join(_term_text(draw, c, names) for c, names in terms)
        if text.startswith("+") and draw(st.booleans()):
            text = text[1:]
        texts.append(text)
        values.append(ParamPolynomial.from_dict(acc))
    return texts, values


@given(_reader_grids())
@example(
    (
        ["1/2*x-1/2*x", "(1+1/2i)*y*x-(-1-1/2i)*x*y", "-(1/2)*x+1/2*y*x"],
        [
            ParamPolynomial.zero(),
            X * Y * GaussianRational(2, 1),
            (X * Y - X) * GaussianRational(Fraction(1, 2)),
        ],
    )
)
def test_parse_polynomials_reads_a_grid_as_each_text_alone(grid):
    texts, values = grid
    got = parse_polynomials(texts)
    assert got == [parse_polynomial(t) for t in texts] == values
    for p in got:
        for _, c in p.terms:
            assert_canonical_parts(c)


_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _parse_polynomial_reference(text):
    # the parser that cut the text at signs, then each term at stars, outside
    # parentheses, and multiplied and added GaussianRational coefficients
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty polynomial text")
    acc = {}
    for raw in _split_top_level_reference(compact, "+-"):
        sign = GaussianRational(1)
        body = raw
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise ParseError(f"dangling sign in {text!r}")
        if body.startswith("*"):
            raise ParseError(f"term starts with '*' in {text!r}")
        coeff = sign
        names = []
        for idx, token in enumerate(_split_top_level_reference(body, "*")):
            token = token.lstrip("*")
            if not token:
                raise ParseError(f"empty factor in {text!r}")
            if idx == 0:
                inner = token[1:-1] if token.startswith("(") and token.endswith(")") else token
                try:
                    coeff = coeff * parse_scalar(inner)
                    continue
                except ParseError:
                    if not _IDENTIFIER.match(token):
                        raise
            elif not _IDENTIFIER.match(token):
                raise ParseError(f"bad factor {token!r} in {text!r}")
            names.append(token)
        mono = tuple(sorted(names))
        acc[mono] = acc.get(mono, GaussianRational(0)) + coeff
    return ParamPolynomial.from_dict(acc)


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return "ParseError", str(exc)


# well-formed pieces, near misses and stray marks, so that texts mix
# accepted terms with every kind of rejection
_POLY_PIECE = st.sampled_from(
    ["x", "y", "k1_2", "_", "2", "0", "007", "1/2", "2/4", "1/0", "3i", "1/2i", "1/0i",
     "(1+2i)", "(-3/4i)", "(2)", "(-1)", "(2+1/0i)", "(x)", "((1))", "(1)(2)", "3x", "i",
     "\u0663", "+", "-", "*", "(", ")", "/", " "]
)


@given(
    st.one_of(
        st.lists(_POLY_PIECE, max_size=10).map("".join),
        st.text(alphabet="()+-*/xyi012 ", max_size=24),
        _eval_polys.map(format_polynomial),
    )
)
@example("x+(1")
@example("(1+2i)*x*y-(3/4i)*y*y+5")
def test_parse_polynomial_matches_reference(text):
    assert _parsed(parse_polynomial, text) == _parsed(_parse_polynomial_reference, text)


# ---------------------------------------------------------------------------
# sums, products and the matrix product against GaussianRational term loops


def _assert_canonical(p):
    assert p == ParamPolynomial.from_dict(dict(p.terms))
    for _, c in p.terms:
        assert c
        assert_canonical_parts(c)


# a polynomial, a GaussianRational, or an int: every operand type + and * take
_operands = st.one_of(
    _eval_polys,
    _eval_scalars,
    st.integers(-(10**30), 10**30),
    st.integers(-2, 2),
)


@given(_eval_polys, _operands)
@example(X + Y, X - Y)
@example(X * GaussianRational(0, 1) + ONE, X * GaussianRational(0, 1) - ONE)
@example(X, 0)
@example(X * GaussianRational(Fraction(1, 3)), GaussianRational(Fraction(-3, 2**89 - 1), 1))
@example(ParamPolynomial.zero(), GaussianRational(0, -1))
def test_sum_difference_and_product_match_reference(p, operand):
    q = operand if isinstance(operand, ParamPolynomial) else ParamPolynomial.constant(operand)
    for got, expected in [
        (p + operand, _add_reference(p, q)),
        (operand + p, _add_reference(q, p)),
        (p - operand, _add_reference(p, _negated_reference(q))),
        (operand - p, _add_reference(q, _negated_reference(p))),
        (p * operand, _mul_reference(p, q)),
        (operand * p, _mul_reference(q, p)),
    ]:
        assert got == expected
        _assert_canonical(got)


@given(_eval_polys, _eval_polys)
@example(X + Y, X - Y)
@example(X * GaussianRational(Fraction(10**30, 7919), 1), ONE * GaussianRational(0, 1) - Y)
def test_exact_cancellation_gives_the_zero_polynomial(p, q):
    for zero in (p - p, p + (-p), (-p) + p, p * q - q * p, (p + q) * (p - q) - (p * p - q * q)):
        assert zero.is_zero() and zero.terms == ()
    assert sum([p, q, -p, -q]) == ParamPolynomial.zero()


@given(st.lists(_eval_entries, min_size=1, max_size=4))
def test_sum_and_prod_of_many_match_reference(polys):
    assert sum(polys) == reduce(_add_reference, polys, ParamPolynomial.zero())
    prod = math.prod(polys, start=ONE)
    assert prod == reduce(_mul_reference, polys, ONE)
    _assert_canonical(prod)


def test_param_matrix_rectangular_product_entry_by_entry():
    # the reference product that the tests compare templates with, by hand
    half = GaussianRational(Fraction(1, 2))
    a = ParamMatrix.from_rows([[X, ONE, ParamPolynomial.zero()], [Y, X * half, X - Y]])
    b = ParamMatrix.from_rows([[Y, ONE], [X * 2, -X], [Y, X * GaussianRational(0, 1)]])
    got = _matmul_reference(a, b)
    assert got.shape == (2, 2)
    assert got[0, 0] == parse_polynomial("2*x+x*y")
    assert got[0, 1] == parse_polynomial("0")
    assert got[1, 0] == parse_polynomial("x*x+x*y")
    assert got[1, 1] == parse_polynomial("y-1/2*x*x+1i*x*x-1i*x*y")


def _jordan_family(sim, template):
    """A jordan-frame family of sim with this template and one free branch."""
    spec = sim.canonicalized().spec
    branch = SolutionBranch((), (), (), template.variables())
    return SolutionFamily(spec.n, "jordan", (branch,), template, assemble_jordan(spec))


def _conjugation_cases():
    """(similarity, jordan-frame family) pairs whose templates to_original maps."""
    two_blocks = JordanSpec.from_pairs([(0, [2, 2]), (1, [1])])
    # a seeded real W and solve's template
    sim = similarity_from_jordan(two_blocks, random_invertible(random.Random(24), 5))
    yield sim, solve(sim)
    # a W with non-real Gaussian entries
    i = GaussianRational(0, 1)
    w = ExactMatrix.from_rows([[1, i, 0, 0, 2], [0, 1, 2 - i, 0, 0], [1 + i, 0, 1, i, 0],
                              [0, 0, 0, 1, -i], [i, 0, 0, 0, 1]])
    sim = similarity_from_jordan(two_blocks, w)
    yield sim, solve(sim)
    # example 4.1: the folded single-block template in x and y, with constant terms added
    sim = similarity_from_jordan(example_41_spec(), example_41_w())
    folded = solve(sim).template
    constants = [[0] * 8 for _ in range(8)]
    constants[0][0], constants[2][1], constants[7][3] = 1, Fraction(-1, 2) + i, 3
    extra = ParamMatrix.from_rows([[ParamPolynomial.constant(c) for c in row] for row in constants])
    yield sim, _jordan_family(sim, folded + extra)
    # coefficients other than +-1, a product of two names and a constant term
    odd = [[ParamPolynomial.zero()] * 3 for _ in range(3)]
    odd[0][1] = X * GaussianRational(Fraction(3, 2)) - Y * (2 * i)
    odd[0][2] = X * Y * GaussianRational(Fraction(1, 3), 2) + ONE * 7
    odd[1][2] = Y * GaussianRational(Fraction(-5, 7))
    spec3 = JordanSpec.from_pairs([(0, [3])])
    w = ExactMatrix.from_rows([[2, 1, 0], [1, -1, 3], [0, 1, 1]])
    sim = similarity_from_jordan(spec3, w)
    yield sim, _jordan_family(sim, ParamMatrix.from_rows(odd))
    # W^-1 over a large denominator (det W = m**3 - 2m), so the packed width is wide
    m = 10**12 + 39
    w = ExactMatrix.from_rows([[m, 1, 0], [1, m, 1], [0, 1, -m]])
    sim = similarity_from_jordan(spec3, w)
    yield sim, _jordan_family(sim, ParamMatrix.from_rows(odd))
    # a constant term in every entry, coefficients 2, -4/3 and 5i/2 on one
    # name each and a square, over a W with Gaussian entries
    consts = [[GaussianRational(Fraction(r - c, 3), r * c) for c in range(3)] for r in range(3)]
    dense = [[ParamPolynomial.constant(x) for x in row] for row in consts]
    dense[0][0] = dense[0][0] + X * 2
    dense[1][2] = dense[1][2] - Y * GaussianRational(Fraction(4, 3))
    dense[2][1] = dense[2][1] + X * X * GaussianRational(0, Fraction(5, 2)) + Y * 2
    gaussian_w = ExactMatrix.from_rows([[1, i, 0], [2, 1, 1 - i], [0, i, 1]])
    sim = similarity_from_jordan(spec3, gaussian_w)
    yield sim, _jordan_family(sim, ParamMatrix.from_rows(dense))
    # the zero template of a nonsingular matrix
    sim = similarity_from_jordan(JordanSpec.from_pairs([(1, [2]), (-1, [1])]), w)
    yield sim, solve(sim)


def test_to_original_matches_the_reference_conjugation():
    # W T W^-1 entry by entry in GaussianRational arithmetic, on every case
    for sim, family in _conjugation_cases():
        canon = sim.canonicalized()
        expected = _matmul_reference(_matmul_reference(canon.w, family.template), canon.w_inv)
        got = to_original(family, sim).template
        assert got == expected
        # the same conjugation read off the split: sum of mu * (W C_mu W^-1) / L
        monos, split, l = family.template._split()
        for mono, (at, re, im) in zip(monos, split):
            zero = GaussianRational(0)
            c = [zero] * (family.n * family.n)
            for k, idx in enumerate(at):
                c[idx] = GaussianRational(Fraction(re[k], l), Fraction(im[k] if im else 0, l))
            c_mu = ExactMatrix(family.n, family.n, tuple(c))
            conjugate = mat_mul(mat_mul(canon.w, c_mu), canon.w_inv)
            assert conjugate.entries == tuple(dict(p.terms).get(mono, zero) for p in got.entries)
        assert got.variables() == family.template.variables()
        for p in got.entries:
            _assert_canonical(p)
