"""Seeds, exchange matrices, and the mutation rules.

Directions are 1-based throughout, matching the usual [1, n] edge labels of
the n-regular tree.  Seeds are immutable; mutation returns a fresh seed.

A geometric seed carries an extended n x (n+m) matrix whose stable columns
encode the coefficients; its ambient context is x1..x{n+m} (possibly with
extra formal parameters appended).  A general seed carries an n x n matrix
plus an explicit coefficient tuple over one of the concrete semifields; the
semifield generators occupy ambient positions n..n+rank-1, so a tropical
y_k's exponent vector extends row k as stable columns would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .errors import (
    BadDirection,
    ClusterMutError,
    ContextMismatch,
    DegenerateSeed,
    NondegenerateRequired,
    NotSkewSymmetrizable,
    ParseError,
    require,
)
from .laurent import LaurentFraction, LaurentPolynomial, ambient_vars, exchange_quotient, product
from .semifield import (
    SubtractionFreeRational,
    SubtractionFreeSemifield,
    TrivialSemifield,
    TropicalElement,
    TropicalSemifield,
)

GENERAL = "general"
GEOMETRIC = "geometric"


@dataclass(frozen=True)
class ExchangeMatrix:
    """Integer n x (n+m) matrix; the principal n x n part drives mutation."""

    rows: tuple[tuple[int, ...], ...]
    n: int
    m: int

    def __post_init__(self):
        if self.n == 0:
            raise ParseError("empty matrix")
        if self.m < 0:
            raise ParseError(f"m must be nonnegative, got {self.m}")
        if len(self.rows) != self.n or set(map(len, self.rows)) != {self.n + self.m}:
            raise ParseError(f"matrix shape must be {self.n} x {self.n + self.m}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], m: int | None = None) -> "ExchangeMatrix":
        """m and the entries must be ints: a float or a boolean raises
        ParseError rather than being truncated."""
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if m is None:
            m = (len(rows[0]) - n) if rows else 0
        require(int, [m, *(x for r in rows for x in r)], "bad matrix")
        return cls(rows, n, m)

    def principal(self) -> "ExchangeMatrix":
        if self.m == 0:
            return self
        return ExchangeMatrix(tuple(r[: self.n] for r in self.rows), self.n, 0)

    def entry(self, i: int, j: int) -> int:
        """1-based accessor b_ij."""
        return self.rows[i - 1][j - 1]

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation in direction k: b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2
        off row and column k, whose entries change sign."""
        return self._mutated(k, range(self.n))

    def _mutated(self, k: int, perm: Sequence[int]) -> "ExchangeMatrix":
        """mutate(k).permuted(perm) in one pass over the rows.

        The half-sum is b_ik |b_kj| where b_kj has the sign of b_ik and 0
        elsewhere, so a row i != k with b_ik = 0 is only permuted, and row
        k is negated."""
        if not 1 <= k <= self.n:
            raise BadDirection(f"direction {k} outside [1, {self.n}]")
        kk = k - 1
        pivot = self.rows[kk]
        # (j, |b_kj|) where b_kj > 0, and where b_kj < 0
        pos = [(j, b) for j, b in enumerate(pivot) if b > 0]
        neg = [(j, -b) for j, b in enumerate(pivot) if b < 0]
        cols = (*perm, *range(self.n, self.n + self.m))
        # in the own order, a range, a row with b_ik = 0 stays the same tuple
        take = tuple if isinstance(perm, range) or len(cols) == 1 else itemgetter(*cols)
        out = []
        for i in perm:
            r = self.rows[i]
            bik = r[kk]
            if i == kk:
                r = [-x for x in r]
            elif bik:
                r = list(r)
                for j, b in pos if bik > 0 else neg:
                    r[j] += bik * b
                r[kk] = -bik
            out.append(take(r))
        return ExchangeMatrix(tuple(out), self.n, self.m)

    def permuted(self, perm: Sequence[int]) -> "ExchangeMatrix":
        """Apply a permutation of [0, n) to rows and principal columns.

        perm[i] is the old index that lands in new slot i; stable columns
        never move.
        """
        out = []
        for i in range(self.n):
            old = self.rows[perm[i]]
            row = [old[perm[j]] for j in range(self.n)]
            row.extend(old[self.n :])
            out.append(tuple(row))
        return ExchangeMatrix(tuple(out), self.n, self.m)

    def has_zero_row(self) -> bool:
        return any(all(x == 0 for x in r) for r in self.rows)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "m": self.m, "rows": [list(r) for r in self.rows]})

    @classmethod
    def from_json(cls, text: str) -> "ExchangeMatrix":
        """m, the entries and n, when given, must be JSON integers, not
        floats or booleans, and n must be the number of rows."""
        try:
            obj = json.loads(text)
            rows, m = obj["rows"], obj["m"]
            n = obj.get("n", len(rows))
            require(int, [n, m, *(x for r in rows for x in r)], "bad matrix JSON")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad matrix JSON: {exc}") from exc
        if n != len(rows):
            raise ParseError(f"bad matrix JSON: n is {n} but there are {len(rows)} rows")
        return cls.from_rows(rows, m)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows)


@dataclass(frozen=True)
class Skewsymmetrizer:
    """Minimal positive diagonal D with D B skew-symmetric, plus the block
    partition of [1, n] (connected components on nonzero entries)."""

    d: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def rho(self) -> int:
        return len(self.blocks)


@lru_cache(maxsize=None)
def validate_and_symmetrize(matrix: ExchangeMatrix) -> Skewsymmetrizer:
    """Solve d_i b_ij = -d_j b_ji for positive integers, per-block gcd 1.

    Raises NotSkewSymmetrizable when the sign pattern or a cycle constraint
    rules every D out.
    """
    n = matrix.n
    b = matrix.principal().rows
    for i in range(n):
        for j in range(i + 1, n):
            if b[i][j] * b[j][i] > 0 or (b[i][j] == 0) != (b[j][i] == 0):
                raise NotSkewSymmetrizable(
                    f"sign-skew violated at ({i + 1}, {j + 1}): {b[i][j]}, {b[j][i]}"
                )
    d: list[Fraction | None] = [None] * n
    blocks = []
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        comp = [root]
        queue = [root]
        while queue:
            i = queue.pop()
            for j in range(n):
                if b[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(b[i][j], -b[j][i])
                    comp.append(j)
                    queue.append(j)
        blocks.append(tuple(sorted(comp)))
    ints = [0] * n
    for comp in blocks:
        lcm = math.lcm(*(d[i].denominator for i in comp))
        vals = [int(d[i] * lcm) for i in comp]
        g = math.gcd(*vals)
        for i, v in zip(comp, vals):
            ints[i] = v // g
    # each block is d scaled by one positive factor, and b_ij = 0 across
    # blocks, so the integers fail first where the fractions would
    for i in range(n):
        for j in range(n):
            if ints[i] * b[i][j] != -ints[j] * b[j][i]:
                raise NotSkewSymmetrizable(f"no consistent symmetrizer at ({i + 1}, {j + 1})")
    return Skewsymmetrizer(tuple(ints), tuple(sorted(blocks)))


def matrix_mutate(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    return matrix.mutate(k)


def principal_extension(matrix: ExchangeMatrix) -> ExchangeMatrix:
    """B_pr = [B | I]: principal part B, stable block the identity."""
    if matrix.m != 0:
        raise ContextMismatch("principal extension starts from a plain n x n matrix")
    n = matrix.n
    rows = tuple(
        r + tuple(1 if j == i else 0 for j in range(n)) for i, r in enumerate(matrix.rows)
    )
    return ExchangeMatrix(rows, n, n)


def coefficients_from_extended(matrix: ExchangeMatrix) -> tuple[TropicalElement, ...]:
    """Read y_i off the stable columns of row i."""
    return tuple(TropicalElement(r[matrix.n :]) for r in matrix.rows)


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination (Math. Comp.
    1968): step k leaves (k+1) x (k+1) minors, so each division is exact."""
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if a else 1


def int_adjugate(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """adj(B) = det(B) * B^{-1}, computed entrywise from cofactors."""
    n = len(rows)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * int_det(minor)
    return adj


@lru_cache(maxsize=None)
def compute_toric_weights(matrix: ExchangeMatrix) -> tuple[tuple[int, ...], ...]:
    """Weight vectors w^1..w^n of length 2n in the kernel of B_pr.

    First n entries of w^j are the jth column of det(B) * B^{-1} (the
    adjugate column; the row form fails the kernel condition), last n are
    -det(B) * e_j.  The weights are computed once per matrix, and every
    weight set computed is checked against the kernel identity
    B_pr (w^j)^T = 0 (ClusterMutError otherwise).
    """
    b = matrix.principal().rows
    n = matrix.n
    det = int_det(b)
    if det == 0:
        raise NondegenerateRequired("toric weights need det(B) != 0")
    adj = int_adjugate(b)
    weights = []
    for j in range(n):
        w = tuple(adj[i][j] for i in range(n)) + tuple(
            -det if i == j else 0 for i in range(n)
        )
        if any(sum(b[i][t] * w[t] for t in range(n)) + w[n + i] for i in range(n)):
            raise ClusterMutError(f"kernel condition failed for weight vector {j + 1}")
        weights.append(w)
    return tuple(weights)


def mutate_coefficients(coeffs: tuple, matrix: ExchangeMatrix, k: int, semifield) -> tuple:
    """Coefficient tuple mutation: y_k inverts; otherwise y_j picks up
    y_k^{b_jk} (y_k (+) 1)^{-b_jk} for b_jk > 0 or (y_k (+) 1)^{-b_jk} for
    b_jk <= 0."""
    if not 1 <= k <= matrix.n:
        raise BadDirection(f"direction {k} outside [1, {matrix.n}]")
    yk = coeffs[k - 1]
    u = yk.oplus(semifield.one())
    out = []
    for j in range(1, matrix.n + 1):
        if j == k:
            out.append(yk.inv())
            continue
        bjk = matrix.entry(j, k)
        if bjk > 0:
            out.append(coeffs[j - 1] * yk.pow(bjk) * u.pow(-bjk))
        else:
            out.append(coeffs[j - 1] * u.pow(-bjk))
    return tuple(out)


def _tropical_mutate(coeffs: tuple, rows, k: int) -> tuple:
    """mutate_coefficients over Trop(r) in integers, one element per
    changed coefficient: with c_k the exponent vector of y_k, y_k inverts
    and y_j gains b_jk [c_k]+ for b_jk > 0 and |b_jk| [c_k]- for b_jk < 0,
    as a stable column of an extended matrix mutates (Fomin and
    Zelevinsky, Cluster algebras IV, 2007)."""
    ck = coeffs[k - 1].exps
    up, down = [max(c, 0) for c in ck], [min(c, 0) for c in ck]
    out = []
    for j, (y, r) in enumerate(zip(coeffs, rows)):
        b = r[k - 1]
        if j == k - 1:
            y = TropicalElement([-c for c in ck])
        elif b:
            y = TropicalElement([c + abs(b) * e for c, e in zip(y.exps, up if b > 0 else down)])
        out.append(y)
    return tuple(out)


def _canonical_order(cluster: Sequence[LaurentPolynomial]) -> tuple[int, ...]:
    """The slots of cluster sorted by the term order of their variables,
    as canonical representatives list them; DegenerateSeed if two slots
    hold one variable."""
    keys = [p._sort_key() for p in cluster]
    order = sorted(range(len(cluster)), key=keys.__getitem__)
    for a, b in zip(order, order[1:]):
        if keys[a] == keys[b]:
            raise DegenerateSeed("duplicate cluster variables")
    return tuple(order)


@dataclass(frozen=True)
class Seed:
    """Triple of cluster, coefficients, and exchange matrix.

    mode "geometric": matrix is extended, coeffs/semifield are None and the
    coefficient tuple is implicit in the stable columns.
    mode "general": matrix is n x n and coeffs holds semifield elements.
    """

    matrix: ExchangeMatrix
    cluster: tuple[LaurentPolynomial, ...]
    mode: str
    semifield: object | None
    coeffs: tuple | None
    vars: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def m(self) -> int:
        return self.matrix.m

    # -- constructors ------------------------------------------------------

    @classmethod
    def initial_geometric(cls, matrix: ExchangeMatrix, extra_vars: Sequence[str] = ()) -> "Seed":
        vars = ambient_vars(matrix.n, matrix.m, extra_vars)
        cluster = tuple(LaurentPolynomial.variable(vars, i) for i in range(matrix.n))
        return cls(matrix, cluster, GEOMETRIC, None, None, vars)

    @classmethod
    def initial_general(cls, matrix: ExchangeMatrix, semifield, coeffs: tuple | None = None) -> "Seed":
        if matrix.m != 0:
            raise ContextMismatch("general seeds take a plain n x n matrix")
        vars = ambient_vars(matrix.n) + semifield.vars
        if coeffs is None:
            coeffs = tuple(semifield.one() for _ in range(matrix.n))
        if len(coeffs) != matrix.n:
            raise ContextMismatch(f"need {matrix.n} coefficients")
        one = semifield.one()
        for y in coeffs:
            one._check(y)  # ContextMismatch for another semifield or rank
        cluster = tuple(LaurentPolynomial.variable(vars, i) for i in range(matrix.n))
        return cls(matrix, cluster, GENERAL, semifield, coeffs, vars)

    # -- coefficient access --------------------------------------------------

    def coefficient_tuple(self) -> tuple:
        """The y-tuple: explicit in general mode, read off stable columns
        in geometric mode."""
        if self.mode == GENERAL:
            return self.coeffs
        return coefficients_from_extended(self.matrix)

    def extended_value(self, i: int) -> LaurentPolynomial:
        """0-based entry of the extended cluster: mutable variables first,
        then the stable ambient variables."""
        if i < self.n:
            return self.cluster[i]
        return LaurentPolynomial.variable(self.vars, i)

    # -- mutation ------------------------------------------------------------

    def mutate(self, k: int, exchanges: dict | None = None) -> "Seed":
        """Exchange relation x_k x_k' = P+ + P-, with P+ and P- the products
        of x_i^[b_ki]+ and x_i^[-b_ki]+ over the extended cluster and b_k
        the extended row of _extended_row: a tropical y_k = g^e contributes
        y_k / (y_k (+) 1) = g^[e]+ and 1 / (y_k (+) 1) = g^[-e]+ as the
        stable columns of a geometric seed do.  General seeds also mutate
        their y-tuple, over Trop(r) in integers (_tropical_mutate).

        exchanges memoizes the relations of one enumeration (a fresh dict
        when None).  It maps the key of each relation met (x_k, the pairs
        (x_i, b_ki) with b_ki != 0 over the mutable slots and the stable
        part of the extended row, which is all the relation reads) to its
        x_k', and each x_k' to itself, so that equal variables share one
        object.  A hit forms no product and divides nothing; the caller
        seeds it with its roots' clusters, as in {x: x for x in
        root.cluster}.  Seeds of different ambient contexts may share one
        memo: their keys never compare equal.

        This is _child in the seed's own slot order; enumeration calls
        _child itself, so each child is built once, already in canonical
        slot order.
        """
        return self._child(k, exchanges, range(self.n))[0]

    def _child(self, k: int, exchanges: dict | None, perm: Sequence[int] | None = None) -> tuple["Seed", Sequence[int]]:
        """(mutate(k, exchanges).permuted(perm), perm), building one matrix
        and one seed; perm None is the canonical order of the new cluster,
        the order canonicalized() would give the child."""
        if not 1 <= k <= self.n:
            raise BadDirection(f"direction {k} outside [1, {self.n}]")
        if self.mode == GENERAL and self.semifield.kind == "subtraction-free":
            raise ContextMismatch(
                "cluster mutation over subtraction-free coefficients is not "
                "supported; mutate the y-tuple with mutate_coefficients instead"
            )
        if exchanges is None:
            exchanges = {}
        row = self._extended_row(k)
        key = (self.cluster[k - 1], tuple((x, b) for x, b in zip(self.cluster, row) if b), row[self.n :])
        new_var = exchanges.get(key)
        if new_var is None:
            new_var = self._exchange(k)
            new_var = exchanges[key] = exchanges.setdefault(new_var, new_var)
        cluster = self.cluster[: k - 1] + (new_var,) + self.cluster[k:]
        if perm is None:
            perm = _canonical_order(cluster)
        coeffs = self.coeffs
        # over Trop(), the rank-0 tropical semifield, every coefficient is 1
        if self.mode == GENERAL and self.semifield.rank:
            coeffs = _tropical_mutate(coeffs, self.matrix.rows, k)
        if coeffs is not None:
            coeffs = tuple(map(coeffs.__getitem__, perm))
        cluster = tuple(map(cluster.__getitem__, perm))
        return Seed(self.matrix._mutated(k, perm), cluster, self.mode, self.semifield, coeffs, self.vars), perm

    def _exchange(self, k: int) -> LaurentPolynomial:
        """x_k' = (P+ + P-) / x_k in exchange_quotient's one packed pass."""
        return exchange_quotient(self.vars, *self._exchange_sides(k), self.cluster[k - 1])

    def _extended_row(self, k: int) -> tuple[int, ...]:
        """Row k of the matrix; a general seed over a tropical semifield
        appends y_k's exponent vector, where a geometric seed keeps its
        stable columns (generator j sits at ambient position n + j - 1)."""
        row = self.matrix.rows[k - 1]
        if isinstance(self.semifield, TropicalSemifield):
            row += self.coeffs[k - 1].exps
        return row

    def _exchange_sides(self, k: int) -> tuple[list, list]:
        """The factor lists [(x_i, b_ki) for b_ki > 0] and [(x_i, -b_ki)
        for b_ki < 0] over the extended cluster and the extended row, in
        the order of i: the two sides of the exchange relation in direction
        k, and of yhat_k."""
        sides = ([], [])
        for i, b in enumerate(self._extended_row(k)):
            if b:
                sides[b < 0].append((self.extended_value(i), abs(b)))
        return sides

    def mutate_path(self, path: Sequence[int]) -> "Seed":
        seed = self
        for k in path:
            seed = seed.mutate(k)
        return seed

    # -- derived data ----------------------------------------------------------

    def yhat(self) -> tuple[LaurentFraction, ...]:
        """yhat_j = y_j * prod_i x_i^{b_ji} as exact fractions: the two
        sides of the exchange relation in direction j, multiplied out by
        laurent.product, which carry a tropical y_j in the extended row.  A
        subtraction-free y_j puts its numerator and denominator in front."""
        out = []
        for j in range(1, self.n + 1):
            plus, minus = self._exchange_sides(j)
            if self.mode == GENERAL and self.semifield.kind == "subtraction-free":
                y = self.coeffs[j - 1]
                plus.insert(0, (y.num.with_vars(self.vars), 1))
                minus.insert(0, (y.den.with_vars(self.vars), 1))
            out.append(LaurentFraction(product(self.vars, plus), product(self.vars, minus)).normalized())
        return tuple(out)

    def to_general(self) -> "Seed":
        """Geometric seed viewed over the tropical semifield; same ambient
        context, so clusters stay directly comparable."""
        if self.mode == GENERAL:
            return self
        return Seed(
            self.matrix.principal(),
            self.cluster,
            GENERAL,
            TropicalSemifield(self.m),
            coefficients_from_extended(self.matrix),
            self.vars,
        )

    # -- canonical form ----------------------------------------------------------

    def canonical_permutation(self) -> tuple[int, ...]:
        return _canonical_order(self.cluster)

    def permuted(self, perm: Sequence[int]) -> "Seed":
        """perm[i] = old index landing in slot i; coeffs and matrix follow."""
        cluster = tuple(self.cluster[p] for p in perm)
        coeffs = tuple(self.coeffs[p] for p in perm) if self.coeffs is not None else None
        return Seed(self.matrix.permuted(perm), cluster, self.mode, self.semifield, coeffs, self.vars)

    def canonicalized(self) -> "Seed":
        return self.permuted(self.canonical_permutation())

    def key(self) -> tuple:
        """Hashable value identifying the seed up to simultaneous
        permutation of cluster, coefficients, and matrix."""
        return self.canonicalized()._canonical_key()

    def _canonical_key(self) -> tuple:
        """key() of a seed that is already canonicalized: mode, context,
        matrix rows, the cluster polynomials themselves (their hash is
        cached) and the rendered coefficients, since subtraction-free
        coefficients are unhashable."""
        coeffs = None if self.coeffs is None else tuple(map(str, self.coeffs))
        return (self.mode, self.vars, self.matrix.rows, self.cluster, coeffs)

    def __str__(self):
        lines = [f"cluster: ({', '.join(str(p) for p in self.cluster)})"]
        ys = self.coefficient_tuple()
        lines.append(f"coefficients: ({', '.join(str(y) for y in ys)})")
        lines.append("matrix:")
        lines.append(str(self.matrix))
        return "\n".join(lines)


def coefficient_free_seed(matrix: ExchangeMatrix) -> Seed:
    """Initial seed over the one-element semifield."""
    return Seed.initial_general(matrix.principal(), TrivialSemifield())


def principal_seed(matrix: ExchangeMatrix, extra_vars: Sequence[str] = ()) -> Seed:
    """Initial seed with principal coefficients: stable block the identity,
    so the initial coefficients are the stable variables themselves."""
    return Seed.initial_geometric(principal_extension(matrix.principal()), extra_vars)


def seed_mutate_general(seed: Seed, k: int) -> Seed:
    if seed.mode != GENERAL:
        raise ContextMismatch("seed is not in general mode")
    return seed.mutate(k)


def seed_mutate_geometric(seed: Seed, k: int) -> Seed:
    if seed.mode != GEOMETRIC:
        raise ContextMismatch("seed is not in geometric mode")
    return seed.mutate(k)


def compute_yhat(seed: Seed) -> tuple[LaurentFraction, ...]:
    return seed.yhat()


def y_pattern_tuple(matrix: ExchangeMatrix, path: Sequence[int]) -> tuple[SubtractionFreeRational, ...]:
    """Mutate the identity y-tuple along a path in the subtraction-free
    semifield; entry j is the Y-pattern expression for y_j at the end seed."""
    sf = SubtractionFreeSemifield(matrix.n)
    coeffs = sf.identity_tuple()
    b = matrix.principal()
    for k in path:
        coeffs = mutate_coefficients(coeffs, b, k, sf)
        b = b.mutate(k)
    return coeffs
