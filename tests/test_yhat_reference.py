"""check_yhat_propagation against the route it replaced.

The earlier check built the path's Y-pattern in the subtraction-free
semifield (``y_pattern_tuple``) and evaluated it at the initial y-hat
tuple through ``LaurentPolynomial.substitute``; ``pattern_route`` keeps
that route.  The check now applies the Y-seed rule one mutation at a time,
and both must give the same verdict on every case.
"""

import random

from clustermut import (
    ExchangeMatrix,
    Seed,
    check_yhat_propagation,
    coefficient_free_seed,
    principal_seed,
    reduced_paths,
    verify,
    y_pattern_tuple,
)
from clustermut.verify import random_skew_symmetrizable, random_tropical_seed


def pattern_route(initial: Seed, path, pattern_matrix=None) -> str:
    """The earlier verdict: the Y-pattern of pattern_matrix (initial's own
    by default) along the path, evaluated at the initial y-hat tuple, must
    equal the y-hat tuple at the end of the path."""
    yhat0 = initial.yhat()
    patterns = y_pattern_tuple(pattern_matrix or initial.matrix, path)
    values = [p.num.substitute(yhat0) * p.den.substitute(yhat0).inv() for p in patterns]
    expected = initial.mutate_path(path).yhat()
    return "confirmed" if all(v.equals(w) for v, w in zip(values, expected)) else "refuted"


def modes(matrix: ExchangeMatrix):
    """The initial seeds of the four coefficient modes: geometric with the
    matrix's own stable columns, coefficient-free, principal and tropical."""
    b = matrix.principal()
    return [
        Seed.initial_geometric(matrix),
        coefficient_free_seed(b),
        principal_seed(b),
        random_tropical_seed(b, 2, 7),
    ]


def matrices():
    rng = random.Random(2)
    named = [
        [[0, 1], [-1, 0]],
        [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
        [[0, 1], [-3, 0]],
        [[0, 2], [-1, 0]],
    ]
    randoms = [random_skew_symmetrizable(rng, 2, m, max_entry=1, no_zero_rows=True) for m in (0, 1, 2)]
    return [ExchangeMatrix.from_rows(rows) for rows in named] + randoms


def test_step_by_step_check_agrees_with_the_pattern_route():
    cases = 0
    for matrix in matrices():
        for initial in modes(matrix):
            for path in reduced_paths(matrix.n, 3):
                report = check_yhat_propagation(initial, path)
                assert report.verdict == pattern_route(initial, path) == "confirmed", (matrix.rows, path)
                cases += 1
    assert cases == 4 * (6 * 7 + 22)


def test_both_routes_refute_a_rule_of_another_matrix(monkeypatch):
    a2 = ExchangeMatrix.from_rows([[0, 1], [-1, 0]])
    doubled = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
    initial = coefficient_free_seed(a2)
    assert pattern_route(initial, (1,), doubled) == "refuted"
    real = verify.mutate_coefficients
    monkeypatch.setattr(verify, "mutate_coefficients", lambda yhat, _b, k, field: real(yhat, doubled, k, field))
    assert check_yhat_propagation(initial, (1,)).verdict == "refuted"
