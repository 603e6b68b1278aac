"""Whole exchange graph of coefficient-free E7 and its two graph checks.

A standalone script, not collected by pytest (it takes several seconds):

    PYTHONPATH=src python tests/e7_check.py

E7 has 4,160 clusters (Fomin and Zelevinsky, Cluster algebras II, 2003),
and its exchange graph is 7-regular, so it has 7 * 4,160 / 2 = 14,560
edges.  Both the cluster-determines-seed and the adjacency checks must
confirm, the latter over all C(4160, 2) = 8,650,720 vertex pairs.  Exits
nonzero, naming the first failed assertion, otherwise.
"""

import math
import sys
import time

from clustermut import (
    ExchangeMatrix,
    check_adjacency,
    check_cluster_determines_seed,
    coefficient_free_seed,
    enumerate_graph,
)

VERTICES = 4160


def e7_matrix() -> ExchangeMatrix:
    """The chain 1 -> 2 -> ... -> 6 with the branch 3 -> 7."""
    rows = [[0] * 7 for _ in range(7)]
    for a, b in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)):
        rows[a - 1][b - 1], rows[b - 1][a - 1] = 1, -1
    return ExchangeMatrix.from_rows(rows)


def main() -> int:
    t0 = time.perf_counter()
    graph = enumerate_graph(coefficient_free_seed(e7_matrix()), 64)
    t1 = time.perf_counter()
    seed_report = check_cluster_determines_seed(graph)
    adjacency = check_adjacency(graph)
    t2 = time.perf_counter()
    print(f"{graph.vertex_count} vertices, {graph.edge_count} edges, "
          f"complete={graph.complete}; enumerate {t1 - t0:.1f} s, checks {t2 - t1:.1f} s")
    failures = [
        label
        for label, ok in (
            (f"{VERTICES} vertices", graph.vertex_count == VERTICES),
            (f"{7 * VERTICES // 2} edges", graph.edge_count == 7 * VERTICES // 2),
            ("complete", graph.complete),
            ("cluster-seed confirmed", seed_report.verdict == "confirmed"),
            ("adjacency confirmed", adjacency.verdict == "confirmed"),
            (f"{math.comb(VERTICES, 2)} pairs", adjacency.stats.get("pairs") == math.comb(VERTICES, 2)),
        )
        if not ok
    ]
    for label in failures:
        print(f"failed: {label}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
