import pytest
from hypothesis import given, strategies as st

from clustermut import (
    ContextMismatch,
    SubtractionFreeRational,
    SubtractionFreeSemifield,
    TrivialElement,
    TrivialSemifield,
    TropicalElement,
    TropicalSemifield,
    ParseError,
    evaluate_y_pattern,
    parse_poly,
    sf_inv,
    sf_mul,
    sf_oplus,
)
from clustermut.semifield import parse_tropical, y_vars


def sf_elem(num, den="1", n=2):
    vars = y_vars(n)
    return SubtractionFreeRational(parse_poly(vars, num), parse_poly(vars, den))


def test_tropical_oplus_is_componentwise_min():
    # g1^2*g2^-1 (+) g1*g2^3 = g1*g2^-1
    a = TropicalElement((2, -1))
    b = TropicalElement((1, 3))
    assert sf_oplus(a, b) == TropicalElement((1, -1))
    assert str(sf_oplus(a, b)) == "g1*g2^-1"


def test_trivial_oplus():
    one = TrivialElement()
    assert sf_oplus(one, one) == one
    assert sf_mul(one, one) == one
    assert sf_inv(one) == one


def test_trivial_semifield_is_the_rank_0_tropical_semifield():
    trivial = TrivialSemifield()
    assert trivial == TropicalSemifield(0) and TropicalSemifield(0) == trivial
    assert hash(trivial) == hash(TropicalSemifield(0))
    assert trivial != TropicalSemifield(1)
    assert (trivial.kind, TropicalSemifield(0).kind) == ("trivial", "tropical")
    assert (trivial.rank, trivial.vars) == (0, ())
    assert trivial.one() == trivial.nat(3) == TropicalSemifield(0).one()


def test_trivial_element_is_the_rank_0_tropical_element():
    one, rank0 = TrivialElement(), TropicalElement(())
    assert one == rank0 and rank0 == one
    assert hash(one) == hash(rank0)
    assert str(one) == str(rank0) == "1"
    assert one != TropicalElement((0,))
    for result in (one * one, one * rank0, rank0 * one, one.inv(), one.pow(-3), one.oplus(rank0)):
        assert result == rank0


@pytest.mark.parametrize("other", ["rank 1", "rank 2", "subtraction-free"])
def test_trivial_element_refuses_other_ranks_as_the_rank_0_tropical_element_does(other):
    other = {"rank 1": TropicalElement((1,)), "rank 2": TropicalElement((0, 0)), "subtraction-free": sf_elem("y1")}[other]
    for one in (TrivialElement(), TropicalElement(())):
        with pytest.raises(ContextMismatch):
            one * other
        with pytest.raises(ContextMismatch):
            one.oplus(other)


def test_subtraction_free_oplus_is_fraction_addition():
    y1 = sf_elem("y1")
    assert sf_oplus(y1, sf_elem("1")) == sf_elem("y1 + 1")


def test_tropical_rank_mismatch():
    with pytest.raises(ContextMismatch):
        sf_mul(TropicalElement((1,)), TropicalElement((1, 2)))


def test_subtraction_free_rejects_negative_coefficients():
    vars = y_vars(2)
    with pytest.raises(ContextMismatch):
        SubtractionFreeRational(parse_poly(vars, "y1 - 1"), parse_poly(vars, "1"))


def test_subtraction_free_strips_monomial_content():
    e = sf_elem("y1^2*y2 + y1", "y1*y2")
    assert e == sf_elem("y1*y2 + 1", "y2")
    assert e.num == parse_poly(y_vars(2), "y1*y2 + 1")


def test_tropical_render_parse():
    e = TropicalElement((2, -1, 0))
    assert str(e) == "g1^2*g2^-1"
    assert parse_tropical(3, str(e)) == e
    assert parse_tropical(2, "1") == TropicalElement((0, 0))


@pytest.mark.parametrize("text", ["2*g1", "g1 + g2", "g3", "-g1", "g1 - g1", "0", ""])
def test_parse_tropical_rejects_non_monomials(text):
    with pytest.raises(ParseError):
        parse_tropical(2, text)


def test_parse_tropical_rejects_a_bad_exponent():
    with pytest.raises(ParseError):
        parse_tropical(2, "g1^x")


@given(st.integers(0, 3).flatmap(lambda r: st.lists(st.integers(-4, 4), min_size=r, max_size=r)))
def test_tropical_parse_render_round_trip(exps):
    e = TropicalElement(exps)
    assert parse_tropical(len(exps), str(e)) == e


def test_subtraction_free_text_equality_and_hash():
    e = sf_elem("y1 + 1", "y2")
    assert str(e) == "(y1 + 1) / (y2)"
    assert repr(e) == (
        "SubtractionFreeRational(LaurentPolynomial('y1 + 1'), LaurentPolynomial('y2'))"
    )
    assert str(sf_elem("y1 + y2")) == "y1 + y2"
    with pytest.raises(TypeError, match="unhashable"):
        hash(e)
    # no common monomial or integer content, so the two representations
    # stay apart and only cross-multiplication sees them equal
    other = sf_elem("y1*y2 + y1", "y2^2 + y2")
    assert str(other) == "(y1*y2 + y1) / (y2^2 + y2)"
    assert other == sf_elem("y1", "y2")
    assert other != sf_elem("y2", "y1")


trop_elems = st.builds(
    TropicalElement, st.tuples(st.integers(-4, 4), st.integers(-4, 4))
)


@given(trop_elems, trop_elems, trop_elems)
def test_tropical_semifield_axioms(a, b, c):
    assert sf_oplus(a, b) == sf_oplus(b, a)
    assert sf_oplus(sf_oplus(a, b), c) == sf_oplus(a, sf_oplus(b, c))
    assert sf_mul(a, sf_oplus(b, c)) == sf_oplus(sf_mul(a, b), sf_mul(a, c))
    assert sf_mul(a, sf_inv(a)) == TropicalSemifield(2).one()
    assert sf_oplus(a, a) == a  # idempotence


@st.composite
def sf_elems(draw):
    vars = y_vars(2)
    def poly():
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            terms[e] = terms.get(e, 0) + draw(st.integers(1, 4))
        from clustermut import LaurentPolynomial
        return LaurentPolynomial(vars, terms)
    return SubtractionFreeRational(poly(), poly())


@given(sf_elems(), sf_elems(), sf_elems())
def test_subtraction_free_axioms(a, b, c):
    assert sf_oplus(a, b) == sf_oplus(b, a)
    assert sf_oplus(sf_oplus(a, b), c) == sf_oplus(a, sf_oplus(b, c))
    assert sf_mul(a, sf_oplus(b, c)) == sf_oplus(sf_mul(a, b), sf_mul(a, c))
    assert sf_mul(a, sf_inv(a)) == SubtractionFreeSemifield(2).one()


# -- Y-pattern evaluation ------------------------------------------------------


def test_evaluate_trivial_collapses_everything():
    expr = sf_elem("y1", "y1 + 1")
    sf = TrivialSemifield()
    assert evaluate_y_pattern(expr, sf, (sf.one(), sf.one())) == sf.one()


def test_evaluate_tropical_min_rule():
    # y1 + 1 at y1 -> g1 gives min(1, 0) = 0, the unit
    expr = sf_elem("y1 + 1")
    sf = TropicalSemifield(1)
    images = (sf.generator(1), sf.one())
    assert evaluate_y_pattern(expr, sf, images) == sf.one()


def test_evaluate_identity_images():
    expr = sf_elem("y1*y2")
    sf = SubtractionFreeSemifield(2)
    assert evaluate_y_pattern(expr, sf, sf.identity_tuple()) == expr


@given(sf_elems(), sf_elems())
def test_evaluation_is_a_homomorphism(a, b):
    sf = TropicalSemifield(2)
    images = (TropicalElement((1, -1)), TropicalElement((0, 2)))
    ev = lambda e: evaluate_y_pattern(e, sf, images)
    assert ev(sf_mul(a, b)) == sf_mul(ev(a), ev(b))
    assert ev(sf_oplus(a, b)) == sf_oplus(ev(a), ev(b))


def test_y_pattern_evaluation_reproduces_tropical_mutation():
    # two routes to y at the far seed: mutate the tuple directly in the
    # tropical semifield, or transport the universal Y-pattern there
    import random

    from clustermut import ExchangeMatrix, mutate_coefficients, y_pattern_tuple
    from clustermut.verify import random_skew_symmetrizable, random_tropical_tuple

    rng = random.Random(1905)
    for _ in range(25):
        n = rng.randint(2, 3)
        # small entries only: the subtraction-free route materializes
        # Y-patterns, whose polynomials grow doubly exponentially in the
        # entry sizes
        matrix = random_skew_symmetrizable(rng, n, 0, max_entry=1)
        if any(abs(x) > 2 for row in matrix.rows for x in row):
            continue
        sf = TropicalSemifield(n)
        initial = random_tropical_tuple(n, n, rng)
        path = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4)))

        direct = initial
        b = matrix
        for k in path:
            direct = mutate_coefficients(direct, b, k, sf)
            b = b.mutate(k)

        patterns = y_pattern_tuple(matrix, path)
        transported = tuple(
            evaluate_y_pattern(p, sf, initial) for p in patterns
        )
        assert transported == direct
