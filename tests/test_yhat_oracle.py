"""Byte-identity oracle for y-hat.

``oracle_yhat`` is an earlier ``Seed.yhat``: it folds yhat_j = y_j *
prod_i x_i^{b_ji} as a chain of content-stripped fraction products, with
y_j embedded as a fraction of its own.  ``Seed.yhat`` builds the two sides
of the product the way the exchange relation does, a tropical y_j among
them, and normalizes once; every rendered value must be the same text.
"""

import random

from clustermut import (
    LaurentFraction,
    LaurentPolynomial,
    Seed,
    SubtractionFreeRational,
    SubtractionFreeSemifield,
    TropicalSemifield,
    coefficient_free_seed,
    principal_seed,
    reduced_paths,
)
from clustermut.seeds import GEOMETRIC
from clustermut.verify import random_skew_symmetrizable, random_tropical_tuple


def oracle_yhat(seed: Seed) -> tuple[LaurentFraction, ...]:
    out = []
    for j in range(seed.n):
        if seed.mode == GEOMETRIC:
            acc = LaurentFraction.from_polynomial(LaurentPolynomial.one(seed.vars))
        elif isinstance(seed.coeffs[j], SubtractionFreeRational):
            y = seed.coeffs[j]
            acc = LaurentFraction(y.num.with_vars(seed.vars), y.den.with_vars(seed.vars))
        else:
            # tropical generator i at ambient position n + i - 1
            exps = (0,) * seed.n + seed.coeffs[j].exps
            acc = LaurentFraction.from_polynomial(LaurentPolynomial(seed.vars, {exps: 1}))
        for i, b in enumerate(seed.matrix.rows[j]):
            if b:
                acc = acc * LaurentFraction.from_polynomial(seed.extended_value(i)).pow(b)
        out.append(acc.normalized())
    return tuple(out)


def assert_same_text(seed, where):
    got, want = seed.yhat(), oracle_yhat(seed)
    assert [str(y) for y in got] == [str(y) for y in want], where
    assert [repr(y) for y in got] == [repr(y) for y in want], where


def walk(initial, max_len):
    """The seed at the end of every reduced path up to max_len, each
    mutated once from its parent."""
    seeds = {(): initial}
    for path in reduced_paths(initial.n, max_len):
        if path:
            seeds[path] = seeds[path[:-1]].mutate(path[-1])
    return seeds


def random_sf_element(rng, vars):
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in vars)
            terms[e] = terms.get(e, 0) + rng.randint(1, 3)
        return LaurentPolynomial(vars, terms)

    return SubtractionFreeRational(poly(), poly())


def test_yhat_text_matches_the_fraction_chain_on_every_reduced_path():
    rng = random.Random(20071018)
    checked = 0
    for n in (2, 3):
        for _ in range(4):
            # entries up to 3 in absolute value keep depth-3 clusters small
            matrix = random_skew_symmetrizable(rng, n, rng.randint(0, 2), max_entry=1)
            principal = matrix.principal()
            rank = rng.randint(1, 3)
            initials = {
                "geometric": Seed.initial_geometric(matrix),
                "coefficient-free": coefficient_free_seed(principal),
                "principal": principal_seed(principal),
                "tropical": Seed.initial_general(
                    principal, TropicalSemifield(rank), random_tropical_tuple(n, rank, rng)
                ),
            }
            for kind, initial in initials.items():
                for path, seed in walk(initial, 3).items():
                    assert_same_text(seed, (kind, matrix.rows, path))
                    checked += 1
    # 4 matrices of each rank, 4 seeds each, 7 paths at n = 2 and 22 at n = 3
    assert checked == 4 * 4 * (7 + 22)


def test_yhat_text_matches_the_fraction_chain_over_subtraction_free_coefficients():
    # cluster mutation over this semifield is unsupported, so each seed is
    # an initial one with random coefficients
    rng = random.Random(2007)
    for n in (2, 3):
        sf = SubtractionFreeSemifield(n)
        for _ in range(8):
            matrix = random_skew_symmetrizable(rng, n, 0, max_entry=2)
            coeffs = tuple(random_sf_element(rng, sf.vars) for _ in range(n))
            assert_same_text(Seed.initial_general(matrix, sf, coeffs), (matrix.rows, coeffs))

