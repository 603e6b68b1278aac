"""Independent oracle for the exchange relation and y-hat in geometric mode.

sympy recomputes every cluster along a path from the textbook relation
x_k x_k' = prod x_i^[b_ki]+ + prod x_i^[-b_ki]+ over the extended cluster,
with its own matrix mutation and `cancel`, and y-hat as prod x_i^b_ji over
the extended cluster in sympy's rational function field.  Acceptance
criterion 07 ties the general (tropical) mode to the geometric one, so this
covers both.
"""

import random

import sympy

from clustermut import Seed, random_skew_symmetrizable
from clustermut.seeds import int_adjugate, int_det


def as_sympy(p, symbols):
    return sympy.Add(
        *(c * sympy.Mul(*(s ** e for s, e in zip(symbols, exps))) for exps, c in p.terms.items())
    )


def oracle_matrix_mutation(rows, k):
    """b'_ij = -b_ij if i or j is k, else b_ij + sgn(b_ik) [b_ik b_kj]_+."""
    out = []
    for i, row in enumerate(rows):
        bik = rows[i][k]
        sign = (bik > 0) - (bik < 0)
        out.append([
            -b if k in (i, j) else b + sign * max(bik * rows[k][j], 0)
            for j, b in enumerate(row)
        ])
    return out


def oracle_step(rows, cluster, stable, k):
    extended = cluster + stable
    plus = sympy.Mul(*(x ** max(b, 0) for x, b in zip(extended, rows[k])))
    minus = sympy.Mul(*(x ** max(-b, 0) for x, b in zip(extended, rows[k])))
    new = list(cluster)
    new[k] = sympy.cancel((plus + minus) / cluster[k])
    return oracle_matrix_mutation(rows, k), new


def oracle_yhat(field, rows, cluster, stable):
    extended = [field.from_expr(x) for x in cluster + stable]
    out = []
    for row in rows:
        value = field.one
        for x, b in zip(extended, row):
            value *= x ** b
        out.append(value)
    return out


def random_reduced_path(rng, n, length):
    path = []
    while len(path) < length:
        k = rng.randint(1, n)
        if not path or path[-1] != k:
            path.append(k)
    return path


def test_exchange_rule_and_yhat_match_sympy():
    rng = random.Random(20261018)
    cases = 0
    for n in (2, 3):
        for m in (0, 1, 2):
            for _ in range(3):
                # entries up to 3 in absolute value; larger ones make sympy
                # take seconds per path
                matrix = random_skew_symmetrizable(rng, n, m, max_entry=1)
                path = random_reduced_path(rng, n, rng.randint(0, 3))
                initial = Seed.initial_geometric(matrix)
                symbols = sympy.symbols(initial.vars)
                field = sympy.field(symbols, sympy.ZZ)[0]
                rows = [list(r) for r in matrix.rows]
                cluster, stable = list(symbols[:n]), list(symbols[n:])
                for t in range(len(path) + 1):
                    if t:
                        rows, cluster = oracle_step(rows, cluster, stable, path[t - 1] - 1)
                    seed = initial.mutate_path(path[:t])
                    where = (matrix.rows, path[:t])
                    assert [list(r) for r in seed.matrix.rows] == rows, where
                    for got, want in zip(seed.cluster, cluster):
                        assert sympy.cancel(as_sympy(got, symbols) - want) == 0, where
                    for got, want in zip(seed.yhat(), oracle_yhat(field, rows, cluster, stable)):
                        num = field.from_expr(as_sympy(got.num, symbols))
                        den = field.from_expr(as_sympy(got.den, symbols))
                        assert num / den == want, where
                cases += 1
    assert cases == 18


def test_int_det_and_adjugate_match_sympy():
    rng = random.Random(1968)
    singular = 0
    for n in range(1, 8):
        for case in range(12):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if n > 1 and case % 3 == 0:
                # one row a combination of the others (a multiple for n = 2)
                a, *others = rng.sample(range(n), min(n, 3))
                weights = [rng.randint(-2, 2) for _ in others]
                rows[a] = [sum(w * rows[o][j] for w, o in zip(weights, others)) for j in range(n)]
            det = sympy.Matrix(rows).det()
            singular += det == 0
            assert int_det(rows) == det, rows
            if n <= 5:
                assert sympy.Matrix(int_adjugate(rows)) == sympy.Matrix(rows).adjugate(), rows
    assert singular >= 24
