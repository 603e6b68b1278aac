"""Whole exchange graph of coefficient-free E8 and its two graph checks.

A standalone script, not collected by pytest (it takes a few minutes):

    PYTHONPATH=src python tests/e8_check.py

E8 has 25,080 clusters (Fomin and Zelevinsky, Cluster algebras II, 2003),
and its exchange graph is 8-regular, so it has 8 * 25,080 / 2 = 100,320
edges.  Both the cluster-determines-seed and the adjacency checks must
confirm, the latter over all C(25080, 2) = 314,490,660 vertex pairs.

The enumeration's term budget adds up the terms of every stored vertex,
and E8 stores 13,646,140 of them, above the default of 10^7, so this
script passes 2 * 10^7.  It prints the times and the peak resident memory
of the process, and exits nonzero, naming the first failed assertion,
otherwise.
"""

import math
import resource
import sys
import time

from clustermut import (
    ExchangeMatrix,
    check_adjacency,
    check_cluster_determines_seed,
    coefficient_free_seed,
    enumerate_graph,
)

VERTICES = 25080
MAX_TERMS = 2 * 10 ** 7


def e8_matrix() -> ExchangeMatrix:
    """The chain 1 -> 2 -> ... -> 7 with the branch 3 -> 8."""
    rows = [[0] * 8 for _ in range(8)]
    for a, b in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)):
        rows[a - 1][b - 1], rows[b - 1][a - 1] = 1, -1
    return ExchangeMatrix.from_rows(rows)


def main() -> int:
    t0 = time.perf_counter()
    graph = enumerate_graph(coefficient_free_seed(e8_matrix()), 64, max_terms=MAX_TERMS)
    t1 = time.perf_counter()
    seed_report = check_cluster_determines_seed(graph)
    adjacency = check_adjacency(graph)
    t2 = time.perf_counter()
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{graph.vertex_count} vertices, {graph.edge_count} edges, "
          f"complete={graph.complete}; enumerate {t1 - t0:.1f} s, checks {t2 - t1:.1f} s, "
          f"peak RSS {peak:.0f} MiB")
    failures = [
        label
        for label, ok in (
            (f"{VERTICES} vertices", graph.vertex_count == VERTICES),
            (f"{8 * VERTICES // 2} edges", graph.edge_count == 8 * VERTICES // 2),
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
