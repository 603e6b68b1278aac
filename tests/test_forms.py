import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from clustermut import (
    BadDirection,
    ClusterMutError,
    ExchangeMatrix,
    FormCoefficientMatrix,
    LaurentFraction,
    LaurentPolynomial,
    NotCompatible,
    ZeroRowUnsupported,
    compatible_form_space,
    mutate_form,
    principal_extension,
    principal_seed,
    random_skew_symmetrizable,
    validate_and_symmetrize,
    verify_compatibility,
)
from clustermut import forms


def test_a2_dimension_and_basis(a2):
    space = compatible_form_space(a2)
    assert space.dimension == 1
    assert space.basis[0].omega == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def test_two_block_dimension():
    m = ExchangeMatrix.from_rows(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -1, 0]]
    )
    assert compatible_form_space(m).dimension == 2


def test_stable_pair_dimension(a2):
    ext = ExchangeMatrix.from_rows([[0, 1, 1, 0], [-1, 0, 0, 1]], 2)
    space = compatible_form_space(ext)
    assert space.dimension == 1 + 1  # rho(B) + C(2, 2)


def test_basis_size_is_checked_against_the_dimension(a2, monkeypatch):
    # a symmetrizer whose block count disagrees with its blocks
    sym = validate_and_symmetrize(a2)
    fake = SimpleNamespace(d=sym.d, blocks=sym.blocks, rho=sym.rho + 1)
    monkeypatch.setattr(forms, "validate_and_symmetrize", lambda _m: fake)
    with pytest.raises(ClusterMutError, match="basis has 1 forms, expected dimension 2"):
        compatible_form_space(a2)


def test_zero_row_rejected():
    m = ExchangeMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    with pytest.raises(ZeroRowUnsupported):
        compatible_form_space(m)


def test_verify_padded_db(b2):
    d = validate_and_symmetrize(b2).d
    rows = [[Fraction(d[i] * b2.rows[i][j]) for j in range(2)] for i in range(2)]
    form = FormCoefficientMatrix(tuple(tuple(r) for r in rows), 2, 0)
    assert verify_compatibility(form, b2) == (True, None)


def test_verify_detects_perturbation(a2):
    form = compatible_form_space(a2).basis[0]
    rows = [list(r) for r in form.omega]
    rows[0][1] += 1
    bad = FormCoefficientMatrix(tuple(tuple(r) for r in rows), 2, 0)
    ok, witness = verify_compatibility(bad, a2)
    assert not ok
    assert "(1, 2)" in witness or "skew" in witness


def test_zero_row_block_admits_only_the_zero_row():
    # row 3 of B~ is zero, so its block leaves Lambda free and its row of Omega must vanish
    matrix = ExchangeMatrix.from_json('{"n":3,"m":1,"rows":[[0,1,0,0],[-1,0,0,0],[0,0,0,0]]}')
    rows = [[0] * 4 for _ in range(4)]
    zero = FormCoefficientMatrix(tuple(tuple(r) for r in rows), 3, 1)
    assert verify_compatibility(zero, matrix) == (True, None)
    rows[2][3], rows[3][2] = 1, -1
    form = FormCoefficientMatrix(tuple(tuple(r) for r in rows), 3, 1)
    assert verify_compatibility(form, matrix) == (False, "entry (3, 4) breaks Omega = Lambda D B")


def test_verify_rejects_a_form_of_another_shape(a2):
    form = compatible_form_space(a2).basis[0]
    assert verify_compatibility(form, principal_extension(a2)) == (False, "shape mismatch")


@pytest.mark.parametrize("omega", [((0, 1),), ((0, 1), (-1, 0, 0)), ((0, 1, 0), (-1, 0, 0), (0, 0, 0))])
def test_form_of_the_wrong_size_is_rejected(omega):
    with pytest.raises(NotCompatible, match="coefficient matrix must be 2 x 2"):
        FormCoefficientMatrix(omega, 2, 0)


def test_engine_made_forms_have_int_entries(g2):
    # the matrix of the forms_extended_mutate_json golden case
    extended = ExchangeMatrix.from_json('{"n":3,"m":2,"rows":[[0,1,0,1,-1],[-1,0,2,0,1],[0,-1,0,2,0]]}')
    for matrix in (extended, g2):
        for form in compatible_form_space(matrix).basis:
            made = [form] + [mutate_form(form, matrix, k) for k in range(1, matrix.n + 1)]
            assert all(type(x) is int for f in made for r in f.omega for x in r)


def oracle_compatible(omega, matrix):
    """Independent test: Omega is skew-symmetric and each of its first n
    rows is a rational multiple of the same row of B~."""
    size = matrix.n + matrix.m
    if any(omega[i][j] != -omega[j][i] for i in range(size) for j in range(size)):
        return False
    for i, b in enumerate(matrix.rows):
        pivot = next((j for j in range(size) if b[j]), None)
        scale = Fraction(0) if pivot is None else omega[i][pivot] / b[pivot]
        if any(omega[i][j] != scale * b[j] for j in range(size)):
            return False
    return True


def test_verify_compatibility_matches_oracle():
    rng = random.Random(20261018)

    def fraction():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    def verdicts(rows, matrix):
        omega = tuple(tuple(r) for r in rows)
        form = FormCoefficientMatrix(omega, matrix.n, matrix.m)
        ok, _ = verify_compatibility(form, matrix)
        assert ok == oracle_compatible(omega, matrix), (matrix.rows, omega)
        return ok

    rejected = {"top": 0, "rescale": 0}
    accepted = {"top": 0, "rescale": 0}
    for _ in range(150):
        n, m = rng.randint(2, 5), rng.randint(0, 3)
        size = n + m
        matrix = random_skew_symmetrizable(rng, n, m, no_zero_rows=True)
        basis = compatible_form_space(matrix).basis
        coeffs = [fraction() for _ in basis]
        base = [
            [sum(c * f.omega[i][j] for c, f in zip(coeffs, basis)) for j in range(size)]
            for i in range(size)
        ]
        assert verdicts(base, matrix)

        # a skew perturbation of a top-row entry; outside the support of
        # that row of B~ it can never be compatible
        i = rng.randrange(n)
        j = rng.choice([c for c in range(size) if c != i])
        rows = [list(r) for r in base]
        delta = fraction()
        rows[i][j] += delta
        rows[j][i] -= delta
        ok = verdicts(rows, matrix)
        assert not (ok and matrix.rows[i][j] == 0)
        (accepted if ok else rejected)["top"] += 1

        # stable-stable entries are free
        if m >= 2:
            p, q = rng.sample(range(n, size), 2)
            rows = [list(r) for r in base]
            delta = fraction()
            rows[p][q] += delta
            rows[q][p] -= delta
            assert verdicts(rows, matrix)

        # row and column i rescaled together stay skew-symmetric
        i = rng.randrange(n)
        scale = fraction()
        while scale == 1:
            scale = fraction()
        rows = [list(r) for r in base]
        for j in range(size):
            rows[i][j] *= scale
            rows[j][i] *= scale
        ok = verdicts(rows, matrix)
        (accepted if ok else rejected)["rescale"] += 1
    # both corruptions produce both verdicts, so the comparison bites
    assert min(rejected.values()) > 0 and min(accepted.values()) > 0


def test_basis_elements_verify(a3):
    ext = principal_extension(a3)
    for form in compatible_form_space(ext).basis:
        assert verify_compatibility(form, ext) == (True, None)


def test_mutate_flips_row_and_column(a3):
    form = compatible_form_space(a3).basis[0]
    mutated = mutate_form(form, a3, 2)
    for j in range(3):
        assert mutated.omega[1][j] == -form.omega[1][j]
        assert mutated.omega[j][1] == -form.omega[j][1]


def test_mutate_matched_signs_unchanged():
    # row 1 of B is (0, 1, 1): directions 2, 3 both nonnegative, so the
    # (2, 3) entry survives mutation at 1 untouched
    m = ExchangeMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
    form = compatible_form_space(m).basis[0]
    mutated = mutate_form(form, m, 1)
    assert mutated.omega[1][2] == form.omega[1][2]


def test_mutate_form_involution(a2, a3):
    for matrix in (a2, a3, principal_extension(a2)):
        for form in compatible_form_space(matrix).basis:
            for k in range(1, matrix.n + 1):
                once = mutate_form(form, matrix, k)
                assert mutate_form(once, matrix.mutate(k), k) == form


def test_mutate_form_requires_compatible_input(a2):
    bad = FormCoefficientMatrix(
        ((Fraction(0), Fraction(2)), (Fraction(-1), Fraction(0))), 2, 0
    )
    with pytest.raises(NotCompatible):
        mutate_form(bad, a2, 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dimension_formula_randomized(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = rng.randint(2, 5)
    m = rng.randint(0, 3)
    matrix = random_skew_symmetrizable(rng, n, m, no_zero_rows=True)
    space = compatible_form_space(matrix)
    sym = validate_and_symmetrize(matrix)
    assert space.dimension == sym.rho + m * (m - 1) // 2
    assert len(space.basis) == space.dimension
    for form in space.basis:
        assert verify_compatibility(form, matrix) == (True, None)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_mutation_preserves_compatibility_along_paths(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = rng.randint(2, 4)
    m = rng.randint(0, 2)
    matrix = random_skew_symmetrizable(rng, n, m, no_zero_rows=True)
    forms = list(compatible_form_space(matrix).basis)
    current = matrix
    for _ in range(6):
        k = rng.randint(1, n)
        forms = [mutate_form(f, current, k) for f in forms]
        current = current.mutate(k)
        for f in forms:
            assert verify_compatibility(f, current) == (True, None)


def test_basis_linearly_independent(a3):
    ext = principal_extension(a3)
    space = compatible_form_space(ext)
    vectors = [
        [f.omega[i][j] for i in range(6) for j in range(6)] for f in space.basis
    ]
    assert _rank(vectors) == space.dimension


def _rank(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = Fraction(rows[r][c]) / rows[rank][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- symbolic pullback: the coefficient mutation really is the same 2-form ------


def test_pullback_matches_mutate_form_on_a2(a2):
    seed = principal_seed(a2)
    matrix = seed.matrix
    size = matrix.n + matrix.m
    k = 1
    mutated_seed = seed.mutate(k)
    for form in compatible_form_space(matrix).basis:
        prime = mutate_form(form, matrix, k)
        # J[i][j] = dlog(x'_i) / dlog(x_j) over the initial variables
        jac = []
        for i in range(size):
            xi = mutated_seed.extended_value(i)
            row = []
            for j in range(size):
                numer = xi.derivative(j) * LaurentPolynomial.variable(seed.vars, j)
                row.append(LaurentFraction(numer, xi))
            jac.append(row)
        for p in range(size):
            for q in range(size):
                acc = LaurentFraction.from_polynomial(LaurentPolynomial.zero(seed.vars))
                for i in range(size):
                    if prime.omega[i] == (0,) * size:
                        continue
                    for j in range(size):
                        w = prime.omega[i][j]
                        if w == 0:
                            continue
                        scalar = LaurentFraction(
                            LaurentPolynomial.const(seed.vars, w.numerator),
                            LaurentPolynomial.const(seed.vars, w.denominator),
                        )
                        acc = acc + scalar * jac[i][p] * jac[j][q]
                expected = LaurentFraction(
                    LaurentPolynomial.const(seed.vars, form.omega[p][q].numerator),
                    LaurentPolynomial.const(seed.vars, form.omega[p][q].denominator),
                )
                assert acc.equals(expected)


def test_mutate_form_rejects_bad_direction(a2):
    form = compatible_form_space(a2).basis[0]
    for k in (0, 3):
        with pytest.raises(BadDirection):
            mutate_form(form, a2, k)
