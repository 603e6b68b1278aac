import pytest
from hypothesis import given, settings, strategies as st

from clustermut import (
    ContextMismatch,
    DivisionByZero,
    LaurentFraction,
    LaurentPolynomial,
    NotDivisible,
    ambient_vars,
    lp_arith,
    lp_compare,
    lp_exact_div,
    parse_poly,
)
from clustermut import laurent
from clustermut.laurent import exchange_quotient, product

V2 = ambient_vars(2)
V3 = ambient_vars(3)


def lp(text, vars=V2):
    return parse_poly(vars, text)


def var(i, vars=V2):
    return LaurentPolynomial.variable(vars, i)


# -- arithmetic ------------------------------------------------------------------


def test_additive_cancellation():
    assert lp("x1 + 1") + lp("-1") == lp("x1")


def test_inverse_monomial_product():
    assert lp("x1^-1") * lp("x1") == lp("1")


def test_distributive_expansion():
    # (x2+1)(x2-1) expanded by hand
    assert lp("x2 + 1") * lp("x2 - 1") == lp("x2^2 - 1")


def test_arith_dispatch():
    assert lp_arith(lp("x1"), lp("x2"), "add") == lp("x1 + x2")
    assert lp_arith(lp("x1"), lp("x2"), "sub") == lp("x1 - x2")
    assert lp_arith(lp("x1"), lp("x2"), "mul") == lp("x1*x2")
    with pytest.raises(ValueError):
        lp_arith(lp("x1"), lp("x2"), "div")


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        lp("x1") + lp("x1", V3)


def test_unit_divisor():
    assert lp_exact_div(lp("x2 + 1"), lp("1")) == lp("x2 + 1")


def test_monomial_divisor():
    assert lp_exact_div(lp("x1*x2 + x1"), lp("x1")) == lp("x2 + 1")


def test_polynomial_divisor_multiplied_back():
    num = lp("x2 + 1") * lp("x1 + x2 + 1")
    quo = lp_exact_div(num, lp("x2 + 1"))
    assert quo == lp("x1 + x2 + 1")
    assert quo * lp("x2 + 1") == num


def test_division_rejects_remainder():
    with pytest.raises(NotDivisible):
        lp_exact_div(lp("x1 + 1"), lp("x2 + 1"))
    with pytest.raises(NotDivisible):
        lp_exact_div(lp("2*x1"), lp("3"))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        lp_exact_div(lp("x1"), lp("0"))


def test_laurent_quotient_with_negative_exponents():
    # (1 + x1*x2) / x1 lives in the Laurent ring
    assert lp_exact_div(lp("x1*x2 + 1"), lp("x1")) == lp("x2 + x1^-1")


# -- substitution ------------------------------------------------------------


def test_substitute_all_ones():
    p = lp("x1*x2^-1")
    ones = [LaurentPolynomial.one(V2)] * 2
    assert p.substitute(ones).as_polynomial() == lp("1")


def test_substitute_renaming():
    p = lp("x2 + 1")
    images = [var(0, V3), var(2, V3)]
    assert p.substitute(images).as_polynomial() == lp("x3 + 1", V3)


def test_substitute_cancels():
    p = lp("x2*x1^-1 + x1^-1")
    images = [lp("x2 + 1"), var(1)]
    assert p.substitute(images).as_polynomial() == lp("1")


def test_substitute_zero_into_negative_exponent():
    p = lp("x1^-1")
    with pytest.raises(DivisionByZero):
        p.substitute([lp("0"), var(1)])


# -- comparison -----------------------------------------------------------------


def test_compare_basic_cases():
    assert lp_compare(lp("x1"), lp("x1")) == 0
    assert lp_compare(lp("1"), lp("x1")) < 0  # degree 0 < degree 1
    # graded-lex leading monomials: x2 < x1
    assert lp_compare(lp("x2 + 1"), lp("x1 + 1")) < 0


def test_sorting_uses_compare():
    polys = [lp("x1 + 1"), lp("1"), lp("x2 + 1"), lp("x1*x2")]
    assert sorted(polys) == [lp("1"), lp("x2 + 1"), lp("x1 + 1"), lp("x1*x2")]


# -- rendering -----------------------------------------------------------------


def test_render_descending_with_explicit_signs():
    p = lp("x1^2*x2^-1 - 2*x2 + 3")
    assert str(p) == "x1^2*x2^-1 - 2*x2 + 3"
    assert str(lp("0")) == "0"
    assert str(lp("-1") * lp("x1")) == "-x1"


@st.composite
def laurent_polys(draw, vars=V2, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(-3, 3)) for _ in vars)
        coeff = draw(st.integers(-9, 9))
        terms[exps] = terms.get(exps, 0) + coeff
    return LaurentPolynomial(vars, terms)


@given(laurent_polys())
def test_parse_render_round_trip(p):
    assert parse_poly(V2, str(p)) == p


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(laurent_polys())
def test_canonical_form_idempotent(p):
    assert LaurentPolynomial(p.vars, p.terms) == p
    assert parse_poly(V2, str(parse_poly(V2, str(p)))) == p


@given(laurent_polys(), laurent_polys())
def test_exact_division_round_trip(a, b):
    if b.is_zero():
        return
    assert lp_exact_div(a * b, b) == a


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_compare_total_order(a, b, c):
    assert (lp_compare(a, b) == 0) == (a == b)
    assert lp_compare(a, b) == -lp_compare(b, a)
    if lp_compare(a, b) <= 0 and lp_compare(b, c) <= 0:
        assert lp_compare(a, c) <= 0


# -- fractions --------------------------------------------------------------------


def test_fraction_equality_cross_multiplies():
    f = LaurentFraction(lp("x1*x2 + x1"), lp("x1"))
    g = LaurentFraction(lp("x2 + 1"), lp("1"))
    assert f.equals(g)
    assert f.normalized().den.is_one()


def test_fraction_power_and_inverse():
    f = LaurentFraction(lp("x2 + 1"), lp("x1"))
    assert f.pow(-2).equals(LaurentFraction(lp("x1") ** 2, lp("x2 + 1") ** 2))
    with pytest.raises(DivisionByZero):
        LaurentFraction(lp("0"), lp("1")).inv()


def test_derivative():
    p = lp("x1^2*x2 + x1^-1 + 5")
    assert p.derivative(0) == lp("2*x1*x2 - x1^-2")
    assert p.derivative(1) == lp("x1^2")


def test_normalized_zero_numerator_gets_unit_denominator():
    f = LaurentFraction(lp("0"), lp("x1 + x2")).normalized()
    assert f.num.is_zero() and f.den.is_one()
    assert str(f) == "0"


def test_normalized_makes_leading_denominator_coefficient_positive():
    f = LaurentFraction(lp("2*x1^2"), lp("-2*x1*x2 - 2*x1")).normalized()
    assert (str(f.num), str(f.den)) == ("-x1", "x2 + 1")
    assert str(f) == "(-x1) / (x2 + 1)"


def test_fraction_operator_equality_hash_and_repr():
    f = LaurentFraction(lp("x1"), lp("x2 + 1"))
    assert f == LaurentFraction(lp("2*x1*x2"), lp("2*x2^2 + 2*x2"))
    assert f != LaurentFraction(lp("x1"), lp("x2 - 1"))
    assert f != lp("x1")
    with pytest.raises(TypeError, match="unhashable"):
        hash(f)
    assert repr(f) == "LaurentFraction(LaurentPolynomial('x1'), LaurentPolynomial('x2 + 1'))"


def test_cancelled_terms_are_dropped():
    assert (lp("x1 + x2") + lp("-x1 + 1")).terms == lp("x2 + 1").terms
    assert (lp("x1") - lp("x1")).is_zero()
    assert parse_poly(V2, "x1 + x2 - x1").terms == {(0, 1): 1}
    assert parse_poly(V2, "x1 - x1").is_zero()
    assert lp("x2 + 3").derivative(0).is_zero()


# -- packed kernel ---------------------------------------------------------------

# exponents near powers of two put a span exactly on a field-width boundary
EDGE_EXPS = [s * (2 ** k + d) for k in (0, 7, 8, 31, 32, 40) for d in (-1, 0) for s in (1, -1)]


@st.composite
def wide_polys(draw, vars=V3):
    """Mixed-sign exponents up to about 2^40 in size, coefficients above 2^64,
    and either 1 to 3 terms or 10 to 14."""
    exps = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 40), 2 ** 40), st.sampled_from(EDGE_EXPS))
    coeffs = st.one_of(st.integers(-9, 9), st.integers(2 ** 64, 2 ** 80), st.integers(-(2 ** 80), -(2 ** 64)))
    n_terms = st.one_of(st.integers(1, 3), st.integers(10, 14))
    terms = {}
    for _ in range(draw(n_terms)):
        e = tuple(draw(exps) for _ in vars)
        terms[e] = terms.get(e, 0) + draw(coeffs)
    return LaurentPolynomial(vars, terms)


def naive_product(a, b):
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            terms[e] = terms.get(e, 0) + ca * cb
    return {e: c for e, c in terms.items() if c}


@given(wide_polys(), wide_polys(), st.tuples(*[st.integers(-2, 2)] * 3), st.sampled_from([1, -1, 3]))
@settings(max_examples=150, deadline=None)
def test_packed_kernel_matches_naive_arithmetic(a, b, bump, c):
    product = a * b
    assert product.terms == naive_product(a, b)
    if b.is_zero():
        return
    assert product.exact_div(b) == a
    # a monomial is a multiple of b only when b is a monomial itself, so a
    # bumped dividend must be refused, and any quotient returned must be exact
    bumped = product + LaurentPolynomial.monomial(V3, bump, c)
    try:
        quo = bumped.exact_div(b)
    except NotDivisible:
        return
    assert b.is_monomial()
    assert naive_product(quo, b) == bumped.terms


def quotient_or_refusal(divide, num, den):
    """The quotient's terms in order and its sort key, or the refusal's text."""
    try:
        quo = divide(num, den)
    except NotDivisible as exc:
        return str(exc)
    return list(quo.terms.items()), quo._key


@given(
    wide_polys(),
    st.tuples(*[st.sampled_from(EDGE_EXPS + [0, 1, -2])] * 3),
    st.sampled_from([1, -1, 2, -3, 7, 2 ** 65 + 1, -(2 ** 64)]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_a_one_term_divisor_divides_as_the_packed_path_does(a, exps, c, multiple):
    # the divisor c*x^exps is taken term by term; the packed path must
    # agree on the terms, their order and the sort key, or on the refusal
    den = LaurentPolynomial.monomial(V3, exps, c)
    num = a * den if multiple else a
    if num.is_zero():
        return
    got = quotient_or_refusal(LaurentPolynomial.exact_div, num, den)
    assert got == quotient_or_refusal(laurent._packed_quotient, num, den)
    if multiple:
        assert LaurentPolynomial(V3, dict(got[0])) == a


def test_squares_of_long_polynomials_round_trip():
    # operands of 13 terms, with a repeated span
    p = parse_poly(V2, " + ".join(f"{k + 1}*x1^{k}*x2^{(3 * k) % 7 - 3}" for k in range(-6, 7)))
    sq = p * p
    assert sq.terms == naive_product(p, p)
    assert sq.exact_div(p) == p
    with pytest.raises(NotDivisible):
        (sq + lp("x1^20")).exact_div(p)


@given(wide_polys())
@settings(max_examples=150, deadline=None)
def test_squares_match_naive_arithmetic_in_the_same_term_order(a):
    # a square forms its terms in the order of the naive double loop
    assert list((a * a).terms.items()) == list(naive_product(a, a).items())


@st.composite
def dense_polys(draw):
    """Up to 14 terms on few monomials, so that powers
    collapse as packed relation factors do; coefficients above 2^64."""
    coeffs = st.one_of(st.integers(-9, 9), st.integers(2 ** 64, 2 ** 70), st.integers(-(2 ** 70), -(2 ** 64)))
    terms = {}
    for _ in range(draw(st.integers(0, 14))):
        e = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        terms[e] = terms.get(e, 0) + draw(coeffs)
    return LaurentPolynomial(V2, terms)


@given(dense_polys())
@settings(max_examples=40, deadline=None)
def test_powers_match_repeated_naive_products(p):
    expected = LaurentPolynomial.one(V2)
    for k in range(8):
        assert p ** k == expected, k
        expected = LaurentPolynomial(V2, naive_product(expected, p))


@pytest.mark.parametrize("text", ["0", "1", "-1", "x1^-2*x2", "3*x1 - x2^4 + 7"])
def test_the_constant_one_returns_the_other_operand(text):
    p, one = lp(text), LaurentPolynomial.one(V2)
    for product in (p * one, one * p):
        assert product == p
        assert product is p or p.is_one()


def test_a_one_of_another_context_is_a_context_mismatch():
    one3 = LaurentPolynomial.one(V3)
    for p in (lp("x1 + x2"), LaurentPolynomial.one(V2)):
        with pytest.raises(ContextMismatch):
            p * one3
        with pytest.raises(ContextMismatch):
            one3 * p


def test_the_product_of_no_factors_is_one():
    assert product(V2, []) == LaurentPolynomial.one(V2)
    assert product(V3, []).vars == V3


def test_a_zero_factor_makes_the_product_zero():
    factors = [(lp("x1 + x2"), 2), (LaurentPolynomial.zero(V2), 1), (lp("x1^-1 - 3"), 3)]
    assert product(V2, factors).is_zero()


def test_a_zeroth_power_contributes_one():
    p, q = lp("x1 + x2"), lp("2*x1^-1 - x2")
    assert product(V2, [(p, 0)]) == LaurentPolynomial.one(V2)
    assert product(V2, [(p, 0), (q, 2), (p, 0)]) == q ** 2


@given(st.lists(st.tuples(dense_polys(), st.integers(0, 3)), max_size=4))
@settings(max_examples=60, deadline=None)
def test_product_matches_star_and_power_in_the_same_order(factors):
    expected = LaurentPolynomial.one(V2)
    for p, e in factors:
        expected = expected * p ** e
    assert list(product(V2, factors).terms.items()) == list(expected.terms.items())


# -- exchange relations in one packed pass -------------------------------------------


def monomials(vars):
    """Monomials with negative exponents and coefficients other than 1."""
    exps = st.tuples(*[st.integers(-4, 4)] * len(vars))
    return st.builds(lambda e, c: LaurentPolynomial.monomial(vars, e, c), exps, st.sampled_from([1, -1, 2, -3]))


def naive_power_product(vars, factors):
    acc = LaurentPolynomial.one(vars)
    for p, e in factors:
        for _ in range(e):
            acc = LaurentPolynomial(vars, naive_product(acc, p))
    return acc


@st.composite
def exchange_relations(draw, polys, vars):
    """(plus, minus, den, shape): factor lists of (polynomial, exponent 0..5)
    and a nonzero divisor.  The shape says how the divisor relates to the
    sum of both products.  The term counts of each side's factor powers
    multiply to at most 2,000 (the divisor's own power aside), so that the
    naive products stay small."""
    budget = [2000, 2000]

    def factor(side, p):
        top = max(e for e in range(6) if len(p.terms) ** e <= budget[side])
        e = draw(st.integers(1 if p is den else 0, max(top, 1)))
        budget[side] = max(budget[side] // max(len(p.terms), 1) ** e, 1)
        return p, e

    den = draw(polys.filter(lambda p: not p.is_zero()))
    shape = draw(st.sampled_from(["divides both", "cancels", "zero dividend", "corrupt lead", "corrupt term", "free"]))
    plus, minus = [], []
    if shape != "free":
        plus.append(factor(0, den))
        minus.append(factor(1, den))
    for side, out in enumerate((plus, minus)):
        for _ in range(draw(st.integers(0, 2))):
            out.append(factor(side, draw(st.one_of(polys, monomials(vars)))))
    minus_one = LaurentPolynomial.const(vars, -1)
    if shape == "zero dividend":
        minus = [(minus_one, 1)] + plus
    elif shape == "cancels":
        # P- = -(P+ + den^e * h): every term of P+ cancels
        h = draw(st.one_of(polys, monomials(vars)))
        minus = [(minus_one, 1), (naive_power_product(vars, plus) + naive_power_product(vars, [plus[0], (h, 1)]), 1)]
    elif shape == "corrupt term":
        e, c = draw(st.sampled_from(sorted(den.terms.items())))
        den = LaurentPolynomial(vars, {**den.terms, e: c + draw(st.sampled_from([1, -1, 5]))})
    return plus, minus, den, shape


@given(st.one_of(exchange_relations(wide_polys(), V3), exchange_relations(dense_polys(), V2)))
@settings(max_examples=200, deadline=None)
def test_exchange_quotient_matches_naive_arithmetic(relation):
    plus, minus, den, shape = relation
    vars = den.vars
    dividend = naive_power_product(vars, plus) + naive_power_product(vars, minus)
    if shape == "corrupt lead" and not dividend.is_zero():
        # a leading coefficient that cannot divide the dividend's
        lead = den.sorted_terms()[0][0]
        den = LaurentPolynomial(vars, {**den.terms, lead: 2 * abs(dividend.sorted_terms()[0][1]) + 1})
    if den.is_zero():
        return
    try:
        expected = dividend.exact_div(den)
    except NotDivisible:
        assert shape not in ("divides both", "cancels", "zero dividend")
        with pytest.raises(NotDivisible):
            exchange_quotient(vars, plus, minus, den)
        return
    assert shape != "corrupt lead" or dividend.is_zero()
    quo = exchange_quotient(vars, plus, minus, den)
    assert list(quo.terms.items()) == list(expected.terms.items())
    assert quo._sort_key() == LaurentPolynomial(vars, dict(quo.terms))._sort_key()
    assert naive_product(quo, den) == dividend.terms
    if shape == "zero dividend":
        assert quo.is_zero()


# -- negative powers and exchange_quotient's edges ------------------------------------


def test_negative_powers_invert_unit_monomials_only():
    assert lp("-x1^2*x2^-1") ** -3 == lp("-x1^-6*x2^3")
    assert lp("-x1") ** -2 == lp("x1^-2")
    with pytest.raises(NotDivisible):
        lp("2*x1") ** -1
    with pytest.raises(DivisionByZero):
        lp("x1 + 1") ** -1


# the ids are those of the two routes these sizes once took; both pack now
@pytest.mark.parametrize("size", [2, 10], ids=["multiplied out", "packed"])
def test_an_empty_side_of_an_exchange_relation_is_one(size):
    # a source or sink relation has one side without factors
    p = LaurentPolynomial(V2, {(i, 1): i + 1 for i in range(size)})
    den = lp("x1*x2^-1")
    for plus, minus in (([(p, 2)], []), ([], [(p, 2)])):
        got = exchange_quotient(V2, plus, minus, den)
        want = (product(V2, plus) + product(V2, minus)).exact_div(den)
        assert list(got.terms.items()) == list(want.terms.items())
        assert got * den == p ** 2 + LaurentPolynomial.one(V2)


@pytest.mark.parametrize("size", [2, 10], ids=["multiplied out", "packed"])
def test_exchange_quotient_of_two_zero_sides_is_zero(size):
    p = LaurentPolynomial(V2, {(i, 1): i + 1 for i in range(size)})
    zero = LaurentPolynomial.zero(V2)
    assert exchange_quotient(V2, [(p, 1), (zero, 1)], [(zero, 2), (p, 3)], p).is_zero()


def test_exchange_quotient_refuses_bad_operands():
    x1, x2 = var(0), var(1)
    with pytest.raises(ContextMismatch):
        exchange_quotient(V2, [(var(0, V3), 1)], [], x1)
    with pytest.raises(ContextMismatch):
        exchange_quotient(V2, [(x1, 1)], [], var(1, V3))
    with pytest.raises(ValueError, match="negative exponent -1"):
        exchange_quotient(V2, [(x1, 1)], [(x2, -1)], x1)
    with pytest.raises(DivisionByZero):
        exchange_quotient(V2, [(x1, 1)], [], LaurentPolynomial.zero(V2))
