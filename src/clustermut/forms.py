"""Closed 2-forms compatible with a cluster algebra of geometric type.

A form is stored as its skew-symmetric coefficient matrix.  Every form
this module builds is an integer matrix (D B~ on each block, +-1 on each
stable pair, and mutation adds only integer multiples), so the entries are
plain ints; forms built elsewhere with Fraction entries are accepted too.
Compatibility with an extended matrix B~ means the top n rows equal
Lambda D B~ for a diagonal Lambda constant on the blocks of B; the
compatible forms make a space of dimension rho(B) + C(m, 2), the extra
dimensions being the pure stable-pair forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadDirection, ClusterMutError, NotCompatible, ZeroRowUnsupported
from .seeds import ExchangeMatrix, validate_and_symmetrize

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FormCoefficientMatrix:
    """(n+m) x (n+m) skew-symmetric coefficient matrix."""

    omega: Matrix
    n: int
    m: int

    def __post_init__(self):
        size = self.n + self.m
        if len(self.omega) != size or any(len(r) != size for r in self.omega):
            raise NotCompatible(f"coefficient matrix must be {size} x {size}")

    def is_skew_symmetric(self) -> bool:
        size = self.n + self.m
        return all(
            self.omega[i][j] == -self.omega[j][i] for i in range(size) for j in range(i, size)
        )

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in r) for r in self.omega)


@dataclass(frozen=True)
class FormBasis:
    basis: tuple[FormCoefficientMatrix, ...]
    dimension: int


def compatible_form_space(matrix: ExchangeMatrix) -> FormBasis:
    """Basis of the compatible-form space: one element per block of B (the
    form Lambda D B~ with Lambda the block indicator, completed by
    skew-symmetry) plus one elementary skew form per stable pair."""
    if matrix.has_zero_row():
        raise ZeroRowUnsupported("extended matrix has a zero row")
    n, m = matrix.n, matrix.m
    size = n + m
    sym = validate_and_symmetrize(matrix)
    basis = []
    for block in sym.blocks:
        rows = [[0] * size for _ in range(size)]
        for i in block:
            for j in range(size):
                rows[i][j] = sym.d[i] * matrix.rows[i][j]
        # skew-complete: stable rows mirror the stable columns of block rows
        for i in range(n):
            for j in range(n, size):
                rows[j][i] = -rows[i][j]
        for i in block:
            for j in range(n):
                if j not in block and rows[i][j] != -rows[j][i]:
                    raise NotCompatible("block structure inconsistent with matrix")
        basis.append(FormCoefficientMatrix(tuple(tuple(r) for r in rows), n, m))
    for p in range(n, size):
        for q in range(p + 1, size):
            rows = [[0] * size for _ in range(size)]
            rows[p][q] = 1
            rows[q][p] = -1
            basis.append(FormCoefficientMatrix(tuple(tuple(r) for r in rows), n, m))
    dim = sym.rho + m * (m - 1) // 2
    if len(basis) != dim:
        raise ClusterMutError(f"basis has {len(basis)} forms, expected dimension {dim}")
    return FormBasis(tuple(basis), dim)


def verify_compatibility(form: FormCoefficientMatrix, matrix: ExchangeMatrix):
    """Diagnostic check: skew-symmetry and a block-constant Lambda solving
    Omega[n; n+m] = Lambda D B~, tested without dividing: a block's lambda
    is w / s with (w, s) = (omega_ij, d_i b_ij) at its first nonzero entry
    of B~, and each entry of its rows must satisfy omega_ij s = w d_i b_ij.
    The latter implies the proportionality relations
    omega_ij b_ik = omega_ik b_ij, since both sides equal
    lambda d_i b_ij b_ik.  Returns (True, None) or (False, witness).
    """
    n, m = matrix.n, matrix.m
    size = n + m
    if form.n != n or form.m != m:
        return False, "shape mismatch"
    if not form.is_skew_symmetric():
        return False, "not skew-symmetric"
    sym = validate_and_symmetrize(matrix)
    for block in sym.blocks:
        # zero rows leave lambda free; all entries must vanish then
        w, s = next(
            ((form.omega[i][j], sym.d[i] * matrix.rows[i][j])
             for i in block for j in range(size) if matrix.rows[i][j] != 0),
            (0, 1),
        )
        for i in block:
            for j in range(size):
                if form.omega[i][j] * s != w * sym.d[i] * matrix.rows[i][j]:
                    return False, f"entry ({i + 1}, {j + 1}) breaks Omega = Lambda D B"
    return True, None


def mutate_form(form: FormCoefficientMatrix, matrix: ExchangeMatrix, k: int) -> FormCoefficientMatrix:
    """Coefficient matrix of the same 2-form in the cluster adjacent in
    direction k.

    Row and column k flip sign; a pair (j, l) off direction k changes only
    in the mixed-sign case, picking up omega_{kl} b_kj (for b_kj > 0 and
    b_kl < 0, read from the pre-mutation matrix).
    """
    if not 1 <= k <= matrix.n:
        raise BadDirection(f"direction {k} outside [1, {matrix.n}]")
    ok, witness = verify_compatibility(form, matrix)
    if not ok:
        raise NotCompatible(f"input form incompatible: {witness}")
    n, m = matrix.n, matrix.m
    size = n + m
    kk = k - 1
    row = matrix.rows[kk]
    out = [list(r) for r in form.omega]
    for j in range(size):
        out[kk][j] = -form.omega[kk][j]
        out[j][kk] = -form.omega[j][kk]
    for j in range(size):
        if j == kk:
            continue
        for l in range(j + 1, size):
            if l == kk:
                continue
            bj, bl = row[j], row[l]
            if bj > 0 and bl < 0:
                val = form.omega[j][l] + form.omega[kk][l] * bj
            elif bj < 0 and bl > 0:
                val = form.omega[j][l] - form.omega[kk][j] * bl
            else:
                val = form.omega[j][l]
            out[j][l] = val
            out[l][j] = -val
    return FormCoefficientMatrix(tuple(tuple(r) for r in out), n, m)
