import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from clustermut import (
    BadDirection,
    ContextMismatch,
    ExchangeMatrix,
    LaurentPolynomial,
    NondegenerateRequired,
    NotSkewSymmetrizable,
    ParseError,
    Seed,
    SubtractionFreeSemifield,
    TrivialSemifield,
    TropicalElement,
    TropicalSemifield,
    coefficient_free_seed,
    coefficients_from_extended,
    compute_toric_weights,
    compute_yhat,
    matrix_mutate,
    mutate_coefficients,
    parse_poly,
    principal_extension,
    principal_seed,
    random_skew_symmetrizable,
    seed_mutate_general,
    seed_mutate_geometric,
    validate_and_symmetrize,
    y_pattern_tuple,
)
from clustermut import seeds
from clustermut.seeds import GEOMETRIC
from clustermut.verify import check_laurent, check_pipeline_agreement, random_tropical_seed


# -- matrix input ---------------------------------------------------------------


@pytest.mark.parametrize("rows, m, bad", [
    ([[0, 1.9], [-1.9, 0]], None, "1.9"),
    ([[0, True], [-1, 0]], None, "true"),
    ([[0, 1, 1], [-1, 0, 1]], 1.0, "1.0"),
    ([[0, "1"], [-1, 0]], 0, '"1"'),
], ids=["float", "boolean", "float m", "string"])
def test_from_rows_refuses_what_is_not_an_integer(rows, m, bad):
    with pytest.raises(ParseError, match=f"^bad matrix: {re.escape(bad)} is not an integer$"):
        ExchangeMatrix.from_rows(rows, m)


# -- symmetrizer ---------------------------------------------------------------


def test_symmetrizer_already_skew(a2):
    sym = validate_and_symmetrize(a2)
    assert sym.d == (1, 1)
    assert sym.rho == 1


def test_symmetrizer_b2(b2):
    sym = validate_and_symmetrize(b2)
    assert sym.d == (2, 1)
    assert sym.rho == 1


def test_symmetrizer_two_blocks():
    m = ExchangeMatrix.from_rows(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    )
    sym = validate_and_symmetrize(m)
    assert sym.rho == 2
    assert sym.blocks == ((0, 1), (2, 3))


def test_symmetrizer_rejects_bad_signs():
    with pytest.raises(NotSkewSymmetrizable):
        validate_and_symmetrize(ExchangeMatrix.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(NotSkewSymmetrizable):
        validate_and_symmetrize(ExchangeMatrix.from_rows([[0, 1], [0, 0]]))


def test_symmetrizer_rejects_inconsistent_cycle():
    # a 3-cycle whose ratios multiply to something != 1
    m = ExchangeMatrix.from_rows([[0, 1, -2], [-1, 0, 1], [1, -1, 0]])
    with pytest.raises(NotSkewSymmetrizable):
        validate_and_symmetrize(m)
    # d_2 b_23 = -d_3 b_32 fails first: d = (1, 1, 1/2) off the edges at 1
    m = ExchangeMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-2, -1, 0]])
    with pytest.raises(NotSkewSymmetrizable, match=r"^no consistent symmetrizer at \(2, 3\)$"):
        validate_and_symmetrize(m)


# -- matrix mutation ---------------------------------------------------------------


def test_matrix_mutation_rank2_sign_flip(a2):
    assert matrix_mutate(a2, 1).rows == ((0, -1), (1, 0))


def test_matrix_mutation_a3_example(a3):
    assert matrix_mutate(a3, 2).rows == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_matrix_mutation_bad_direction(a2):
    with pytest.raises(BadDirection):
        matrix_mutate(a2, 0)
    with pytest.raises(BadDirection):
        matrix_mutate(a2, 3)


def test_matrix_mutation_extended_columns(a2):
    ext = principal_extension(a2)
    mut = matrix_mutate(ext, 1)
    # row 2 keeps its stable part: (|b_21| b_13 + b_21 |b_13|) / 2 = 0
    assert mut.rows == ((0, -1, -1, 0), (1, 0, 0, 1))
    assert matrix_mutate(mut, 1) == ext


@given(st.data())
@settings(max_examples=40)
def test_matrix_mutation_involution(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = rng.randint(2, 4)
    m = random_skew_symmetrizable(rng, n, rng.randint(0, 2))
    k = rng.randint(1, n)
    assert matrix_mutate(matrix_mutate(m, k), k) == m


def textbook_mutation(rows, k):
    """b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2, with row and column k negated."""
    kk = k - 1
    return tuple(
        tuple(
            -b if kk in (i, j) else b + (abs(r[kk]) * rows[kk][j] + r[kk] * abs(rows[kk][j])) // 2
            for j, b in enumerate(r)
        )
        for i, r in enumerate(rows)
    )


def test_matrix_mutation_matches_the_textbook_formula():
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = random_skew_symmetrizable(rng, n, rng.randint(0, 3), max_entry=rng.randint(1, 3))
        for k in range(1, n + 1):
            mutated = matrix_mutate(m, k)
            assert mutated.rows == textbook_mutation(m.rows, k), (m.rows, k)
            # a row with b_ik = 0 is the same tuple object
            assert all(new is old for i, (new, old) in enumerate(zip(mutated.rows, m.rows))
                       if i != k - 1 and not old[k - 1])


@given(st.data())
@settings(max_examples=40)
def test_mutation_preserves_symmetrizer_and_blocks(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = rng.randint(2, 4)
    m = random_skew_symmetrizable(rng, n, 0)
    before = validate_and_symmetrize(m)
    k = rng.randint(1, n)
    after = validate_and_symmetrize(matrix_mutate(m, k))
    assert before.d == after.d
    assert before.blocks == after.blocks


# -- seed mutation, general mode -------------------------------------------------


def test_a2_trivial_exchange(a2):
    seed = coefficient_free_seed(a2)
    mutated = seed_mutate_general(seed, 1)
    assert mutated.cluster[0] == parse_poly(seed.vars, "x1^-1*x2 + x1^-1")
    assert mutated.cluster[1] == seed.cluster[1]


def test_coefficient_mutation_inverts_at_k():
    sf = TropicalSemifield(2)
    b = ExchangeMatrix.from_rows([[0, 1], [-1, 0]])
    coeffs = (TropicalElement((1, 2)), TropicalElement((0, -1)))
    mutated = mutate_coefficients(coeffs, b, 1, sf)
    assert mutated[0] == coeffs[0].inv()


def test_double_mutation_is_identity(a2):
    sf = TropicalSemifield(2)
    coeffs = (TropicalElement((1, -1)), TropicalElement((2, 0)))
    seed = Seed.initial_general(a2, sf, coeffs)
    back = seed.mutate(1).mutate(1)
    assert back.cluster == seed.cluster
    assert back.coeffs == seed.coeffs
    assert back.matrix == seed.matrix


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_seed_mutation_involution_along_random_paths(data):
    # mu_k(mu_k(S)) = S at every seed of a random path, in every mode
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = rng.randint(2, 4)
    b = random_skew_symmetrizable(rng, n, 0, max_entry=1)
    rank = rng.randint(1, 3)
    coeffs = tuple(
        TropicalElement(tuple(rng.randint(-2, 2) for _ in range(rank))) for _ in range(n)
    )
    for seed in (
        Seed.initial_geometric(random_skew_symmetrizable(rng, n, rng.randint(0, 2), max_entry=1)),
        Seed.initial_general(b, TropicalSemifield(rank), coeffs),
        coefficient_free_seed(b),
    ):
        # a fourth step can reach variables of thousands of terms on wild B
        for _ in range(3):
            for k in range(1, n + 1):
                assert seed.mutate(k).mutate(k).key() == seed.key()
            seed = seed.mutate(rng.randint(1, n))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_the_canonical_child_is_the_mutated_seed_canonicalized(data):
    # d_i in 1..3 puts entries +-2 and +-3 into the principal parts; the
    # principal seed is the main side, as in enumeration, and the others
    # follow it as companions along the same path
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = rng.randint(1, 4)
    b = random_skew_symmetrizable(rng, n, 0, max_entry=1)
    path = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
    main, *companions = (
        s.mutate_path(path) for s in (
            principal_seed(b),
            Seed.initial_geometric(random_skew_symmetrizable(rng, n, rng.randint(1, 3), max_entry=1)),
            coefficient_free_seed(b),
            random_tropical_seed(b, rng.randint(1, 3), rng.randrange(100)),
        )
    )
    for k in range(1, n + 1):
        child, perm = main._child(k, {})
        assert perm == main.mutate(k).canonical_permutation()
        assert child == main.mutate(k).canonicalized()
        for s in companions:
            assert s._child(k, {})[0] == s.mutate(k).canonicalized()
            assert s._child(k, {}, perm) == (s.mutate(k).permuted(perm), perm)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tropical_coefficients_mutate_as_stable_columns(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n, rank = rng.randint(1, 5), rng.randint(0, 4)
    b = random_skew_symmetrizable(rng, n, 0, max_entry=rng.randint(1, 3))
    coeffs = tuple(TropicalElement([rng.randint(-3, 3) for _ in range(rank)]) for _ in range(n))
    k = rng.randint(1, n)
    expected = mutate_coefficients(coeffs, b, k, TropicalSemifield(rank))
    assert seeds._tropical_mutate(coeffs, b.rows, k) == expected
    # the stable columns of [B | C], row j holding y_j's exponents
    extended = ExchangeMatrix.from_rows([r + y.exps for r, y in zip(b.rows, coeffs)], rank).mutate(k)
    assert tuple(r[n:] for r in extended.rows) == tuple(y.exps for y in expected)


def test_toric_weights_computed_once_per_matrix(a2):
    assert compute_toric_weights(a2) is compute_toric_weights(ExchangeMatrix.from_rows([[0, 1], [-1, 0]]))


def test_general_mode_rejects_sf_cluster_mutation(a2):
    seed = Seed.initial_general(a2, SubtractionFreeSemifield(2))
    with pytest.raises(ContextMismatch):
        seed.mutate(1)


@pytest.mark.parametrize("semifield, coeffs", [
    (TropicalSemifield(2), (TropicalElement((1,)), TropicalElement((0, -1)))),
    (TropicalSemifield(1), (TropicalElement((1,)), TropicalElement((0, -1)))),
    (TrivialSemifield(), (TropicalElement(()), TropicalElement((1,)))),
], ids=["rank 1 in rank 2", "rank 2 in rank 1", "rank 1 in Trop()"])
def test_general_seeds_refuse_tropical_coefficients_of_another_rank(a2, semifield, coeffs):
    with pytest.raises(ContextMismatch, match="tropical rank mismatch"):
        Seed.initial_general(a2, semifield, coeffs)


def test_general_seeds_refuse_coefficients_of_another_semifield(a2):
    with pytest.raises(ContextMismatch):
        Seed.initial_general(a2, SubtractionFreeSemifield(2), (TropicalElement((1, 0)),) * 2)
    with pytest.raises(ContextMismatch):
        Seed.initial_general(a2, TropicalSemifield(2), SubtractionFreeSemifield(2).identity_tuple())
    with pytest.raises(ContextMismatch):  # y1, y2 over y1..y3
        Seed.initial_general(a2, SubtractionFreeSemifield(2), SubtractionFreeSemifield(3).identity_tuple()[:2])


# -- seed mutation, geometric mode ---------------------------------------------------


def test_geometric_m0_matches_trivial(a2):
    geo = Seed.initial_geometric(a2)
    cf = coefficient_free_seed(a2)
    for path in [(1,), (2,), (1, 2), (2, 1, 2)]:
        assert geo.mutate_path(path).cluster == cf.mutate_path(path).cluster


def test_principal_a2_exchange(a2):
    seed = principal_seed(a2)
    mutated = seed_mutate_geometric(seed, 1)
    assert mutated.cluster[0] == parse_poly(seed.vars, "x1^-1*x2*x3 + x1^-1")


def test_mode_guards(a2):
    with pytest.raises(ContextMismatch):
        seed_mutate_general(principal_seed(a2), 1)
    with pytest.raises(ContextMismatch):
        seed_mutate_geometric(coefficient_free_seed(a2), 1)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_pipelines_agree_on_random_geometric_seeds(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = rng.randint(2, 4)
    m = rng.randint(0, 3)
    matrix = random_skew_symmetrizable(rng, n, m)
    path = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
    k = rng.randint(1, n)
    assert check_pipeline_agreement(matrix, path, k).verdict == "confirmed"


@pytest.mark.parametrize("field, witness", [
    ("cluster", "clusters differ"),
    ("coeffs", "coefficient tuples differ"),
    ("matrix", "principal matrices differ"),
])
def test_pipeline_agreement_refutes_a_general_step_that_disagrees(field, witness, monkeypatch):
    # the general step keeps one field of the seed it started from
    real = Seed.mutate

    def stale(self, k):
        out = real(self, k)
        return out if self.mode == GEOMETRIC else replace(out, **{field: getattr(self, field)})

    monkeypatch.setattr(Seed, "mutate", stale)
    report = check_pipeline_agreement(ExchangeMatrix.from_rows([[0, 1, 1], [-1, 0, 1]], 1), (), 1)
    assert (report.verdict, report.witness) == ("refuted", f"{witness} in direction 1")


# -- principal extension / coefficients ------------------------------------------------


def test_principal_extension_shape(a2):
    ext = principal_extension(a2)
    assert ext.rows == ((0, 1, 1, 0), (-1, 0, 0, 1))
    assert ext.principal() == a2


def test_principal_initial_coefficients_are_generators(a3):
    ys = coefficients_from_extended(principal_extension(a3))
    assert ys == (TropicalElement((1, 0, 0)), TropicalElement((0, 1, 0)), TropicalElement((0, 0, 1)))


def test_zero_stable_block_gives_unit_coefficients(a2):
    ext = ExchangeMatrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0]], 2)
    assert coefficients_from_extended(ext) == (TropicalElement((0, 0)), TropicalElement((0, 0)))


def test_stable_columns_read_off():
    ext = ExchangeMatrix.from_rows([[0, 1, 2, -1], [-1, 0, 0, 3]], 2)
    assert coefficients_from_extended(ext)[0] == TropicalElement((2, -1))


# -- y-hat ------------------------------------------------------------------------


def test_yhat_trivial_a2(a2):
    seed = coefficient_free_seed(a2)
    y1, y2 = compute_yhat(seed)
    assert y1.as_polynomial() == parse_poly(seed.vars, "x2")
    assert y2.as_polynomial() == parse_poly(seed.vars, "x1^-1")


def test_yhat_principal_includes_stable_factor(a2):
    seed = principal_seed(a2)
    y1, y2 = compute_yhat(seed)
    assert y1.as_polynomial() == parse_poly(seed.vars, "x2*x3")
    assert y2.as_polynomial() == parse_poly(seed.vars, "x1^-1*x4")


def test_yhat_over_subtraction_free_coefficients(b2):
    sf = SubtractionFreeSemifield(2)
    y1, y2 = sf.identity_tuple()
    u = y1.oplus(sf.one())
    coeffs = (u * y2.inv(), y2 * u.inv())
    seed = Seed.initial_general(b2, sf, coeffs)
    assert seed.vars == ("x1", "x2", "y1", "y2")
    # yhat_1 = y_1 x2^b12 and yhat_2 = y_2 x1^b21 with B = [[0, 1], [-2, 0]]
    assert [str(y) for y in compute_yhat(seed)] == [
        "x2*y1*y2^-1 + x2*y2^-1",
        "(y2) / (x1^2*y1 + x1^2)",
    ]


def test_y_pattern_identity_for_empty_path(a2):
    pats = y_pattern_tuple(a2, ())
    sf = SubtractionFreeSemifield(2)
    assert pats == sf.identity_tuple()


# -- toric weights --------------------------------------------------------------------


def test_toric_weights_a2(a2):
    w = compute_toric_weights(a2)
    assert w == ((0, 1, -1, 0), (-1, 0, 0, -1))


def test_toric_weights_require_nondegenerate(a3):
    with pytest.raises(NondegenerateRequired):
        compute_toric_weights(a3)


@given(st.data())
@settings(max_examples=30)
def test_toric_weights_kernel_condition(data):
    from clustermut import random_nondegenerate

    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = rng.choice([2, 4])
    b = random_nondegenerate(rng, n)
    ext = principal_extension(b)
    for w in compute_toric_weights(b):
        for i in range(n):
            assert sum(ext.rows[i][t] * w[t] for t in range(2 * n)) == 0


# -- Laurent property along longer paths ------------------------------------------------


@pytest.mark.parametrize("rows", [
    [[0, 1], [-1, 0]],
    [[0, 1], [-2, 0]],
    [[0, 1], [-3, 0]],
    [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
])
def test_laurent_property_along_random_paths(rows, rng):
    matrix = ExchangeMatrix.from_rows(rows)
    n = matrix.n
    for variant in (coefficient_free_seed(matrix), principal_seed(matrix)):
        for _ in range(6):
            path = tuple(rng.randint(1, n) for _ in range(8))
            seed = variant.mutate_path(path)  # NotDivisible would raise
            assert all(isinstance(p, LaurentPolynomial) for p in seed.cluster)


# -- exchange relations in one packed pass ----------------------------------------------

MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def reference_exchange(seed, k):
    """x_k' the way Seed.mutate computed it before exchange_quotient: P+
    and P- multiplied out with * and **, their sum divided by exact_div.
    A general seed's c+ = y_k / (y_k (+) 1) and c- = 1 / (y_k (+) 1) come
    from the semifield, as monomials in generator j at position n + j - 1."""
    if seed.mode == GEOMETRIC:
        plus = minus = LaurentPolynomial.one(seed.vars)
    else:
        def embed(y):
            return LaurentPolynomial(seed.vars, {(0,) * seed.n + y.exps: 1})

        yk = seed.coeffs[k - 1]
        u_inv = yk.oplus(seed.semifield.one()).inv()
        plus, minus = embed(yk * u_inv), embed(u_inv)
    for i, b in enumerate(seed.matrix.rows[k - 1]):
        if b > 0:
            plus = plus * seed.extended_value(i) ** b
        elif b < 0:
            minus = minus * seed.extended_value(i) ** -b
    return (plus + minus).exact_div(seed.cluster[k - 1])


def relation_size(seed, k):
    """The most terms of x_k and of the cluster variables in the relation
    of seed in direction k."""
    row = seed.matrix.rows[k - 1]
    return max([len(seed.cluster[k - 1].terms)] + [len(x.terms) for x, b in zip(seed.cluster, row) if b])


@pytest.mark.parametrize("rows, depth", [(MARKOV, 4), ([[0, 5], [-5, 0]], 4)], ids=["Markov", "wild"])
@pytest.mark.parametrize("kind", ["principal", "tropical", "coefficient-free"])
def test_mutate_matches_the_multiply_then_divide_route(rows, depth, kind):
    matrix = ExchangeMatrix.from_rows(rows)
    seed = {
        "principal": principal_seed,
        "tropical": lambda m: random_tropical_seed(m, 2, 0),
        "coefficient-free": coefficient_free_seed,
    }[kind](matrix)
    sizes = {True: 0, False: 0}
    frontier = [(seed, None)]
    for _ in range(depth):
        step = []
        for seed, last in frontier:
            for k in range(1, matrix.n + 1):
                if k == last:
                    continue
                got, want = seed.mutate(k).cluster[k - 1], reference_exchange(seed, k)
                assert list(got.terms.items()) == list(want.terms.items())
                assert got._sort_key() == want._sort_key() and hash(got) == hash(want)
                sizes[relation_size(seed, k) >= 10] += 1
                step.append((seed.mutate(k), k))
        frontier = step
    # relations below 10 terms and at 10 or more both ran
    assert sizes[True] and sizes[False], sizes


def test_check_laurent_refutes_an_inexact_divisor_on_the_packed_pass():
    seed = principal_seed(ExchangeMatrix.from_rows(MARKOV)).mutate_path((1, 2, 3))
    x = seed.cluster[2]
    assert len(x.terms) >= 10 and relation_size(seed, 3) >= 10
    assert check_laurent(seed, 2).verdict == "confirmed"
    (e, c), *_ = x.sorted_terms()[1:]
    corrupt = LaurentPolynomial(seed.vars, {**x.terms, e: c + 1})
    report = check_laurent(replace(seed, cluster=seed.cluster[:2] + (corrupt,)), 2)
    assert report.verdict == "refuted"
    assert "not divisible" in report.witness
