"""Every finite type of rank 5 or less, as whole graphs, under all six checks.

The cluster counts are those of Fomin and Zelevinsky, Cluster algebras II
(Invent. Math. 154, 2003): Catalan(n+1) for A_n, C(2n, n) for B_n and C_n,
(3n-2)/n * C(2n-2, n-1) for D_n, 105 for F4 and 8 for G2.  Each exchange
graph is n-regular, so it has n * V / 2 edges.  B, C, F4 and G2 have a
symmetrizer D != I.  Each type runs in its linear orientation and in one
seeded orientation of the same mutation class: source and sink flips, which
are mutations, then a relabelling.
"""

import math
import random

import pytest

from clustermut import ExchangeMatrix, cli, coefficient_free_seed, verify
from clustermut.seeds import int_det


def dynkin(n: int, double: tuple[int, int, int] | None = None, branch: bool = False) -> ExchangeMatrix:
    """The chain 1 -> 2 -> ... -> n, or 1 -> ... -> n-1 with the branch
    n-2 -> n for D_n; double = (i, j, c) multiplies b_ij by c."""
    rows = [[0] * n for _ in range(n)]
    edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2 if branch else n - 1, n)]
    for i, j in edges:
        rows[i - 1][j - 1], rows[j - 1][i - 1] = 1, -1
    if double:
        i, j, c = double
        rows[i - 1][j - 1] *= c
    return ExchangeMatrix.from_rows(rows)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


TYPES = (
    [(f"A{n}", dynkin(n), catalan(n + 1)) for n in range(2, 6)]
    + [(f"B{n}", dynkin(n, (n, n - 1, 2)), math.comb(2 * n, n)) for n in range(2, 6)]
    + [(f"C{n}", dynkin(n, (n - 1, n, 2)), math.comb(2 * n, n)) for n in range(3, 6)]
    + [(f"D{n}", dynkin(n, branch=True), (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n) for n in (4, 5)]
    + [("F4", dynkin(4, (3, 2, 2)), 105), ("G2", dynkin(2, (2, 1, 3)), 8)]
)


def reoriented(b: ExchangeMatrix, rng: random.Random) -> ExchangeMatrix:
    """A few mutations at sources or sinks, which only flip the arrows
    there, then a random relabelling."""
    for _ in range(2 * b.n + 1):
        ends = [k for k in range(1, b.n + 1) if len({x > 0 for x in b.rows[k - 1] if x}) == 1]
        b = b.mutate(rng.choice(ends))
    return b.permuted(rng.sample(range(b.n), b.n))


@pytest.mark.parametrize("name, matrix, vertices", TYPES, ids=[t[0] for t in TYPES])
def test_whole_finite_type_graphs_under_all_checks(name, matrix, vertices, monkeypatch):
    graphs = []
    real = verify.enumerate_graph

    def kept(*args, **kwargs):
        graphs.append(real(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(verify, "enumerate_graph", kept)
    rng = random.Random(name)
    for b in (matrix, reoriented(matrix, rng)):
        graphs.clear()
        reports = {r.check: r for r in verify.run_checks(b, coefficient_free_seed(b), 64, cli.ALL_CHECKS)}
        assert sorted(reports) == sorted(cli.ALL_CHECKS)
        assert [(g.vertex_count, g.edge_count, g.complete) for g in graphs] == [
            (vertices, b.n * vertices // 2, True)
        ] * 2, b.rows
        toric = reports.pop("toric")
        if int_det(b.rows):
            assert (toric.verdict, toric.stats["vertices"]) == ("confirmed", vertices), b.rows
        else:
            reason = "det B = 0: nondegeneracy hypothesis unmet"
            assert (toric.verdict, toric.witness) == ("inconclusive", reason), b.rows
        for check, report in reports.items():
            assert report.verdict == "confirmed", (b.rows, check, report.witness)
            assert report.stats["vertices"] == vertices, (b.rows, check)
