"""Whole exchange graph of coefficient-free E7 or E8 and its two graph checks.

A standalone script, not collected by pytest (E7 takes several seconds,
E8 a few minutes):

    PYTHONPATH=src python tests/e_series_check.py E7
    PYTHONPATH=src python tests/e_series_check.py E8

E7 has 4,160 clusters and E8 25,080 (Fomin and Zelevinsky, Cluster
algebras II, 2003).  The exchange graph of E_n is n-regular, so it has
n * clusters / 2 edges: 14,560 for E7 and 100,320 for E8.  Both the
cluster-determines-seed and the adjacency checks must confirm, the latter
over all C(clusters, 2) vertex pairs: 8,650,720 for E7 and 314,490,660
for E8.

The enumeration's term budget adds up the terms of every stored vertex.
E8 stores 13,646,140 of them, above the default of 10^7, so E8 runs with
2 * 10^7.  The script prints the times and the peak resident memory of
the process, and exits nonzero, naming the first failed assertion,
otherwise.  Next to the enumeration time it prints the work behind it:
the mutations computed (one per edge) and the exchange cache hits among
them, the mutations whose relation the memo already held, so that
mutations less hits is the number of relations divided.
"""

import math
import resource
import sys
import time

from clustermut import check_adjacency, check_cluster_determines_seed, coefficient_free_seed, enumerate_graph
from clustermut.graph import DEFAULT_MAX_TERMS
from finite_type_atlas import TYPES

# name: term budget
BUDGETS = {"E7": DEFAULT_MAX_TERMS, "E8": 2 * 10 ** 7}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in BUDGETS:
        print(f"usage: e_series_check.py {'|'.join(BUDGETS)}", file=sys.stderr)
        return 2
    matrix, vertices = TYPES[argv[0]]
    n = matrix.n
    t0 = time.perf_counter()
    graph = enumerate_graph(coefficient_free_seed(matrix), 64, max_terms=BUDGETS[argv[0]])
    t1 = time.perf_counter()
    seed_report = check_cluster_determines_seed(graph)
    adjacency = check_adjacency(graph)
    t2 = time.perf_counter()
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats = graph.stats
    print(f"{graph.vertex_count} vertices, {graph.edge_count} edges, "
          f"complete={graph.complete}; enumerate {t1 - t0:.1f} s "
          f"({stats['mutations']} mutations, {stats['exchange_cache_hits']} exchange cache hits), "
          f"checks {t2 - t1:.1f} s, peak RSS {peak:.0f} MiB")
    failures = [
        label
        for label, ok in (
            (f"{vertices} vertices", graph.vertex_count == vertices),
            (f"{n * vertices // 2} edges", graph.edge_count == n * vertices // 2),
            ("complete", graph.complete),
            ("cluster-seed confirmed", seed_report.verdict == "confirmed"),
            ("adjacency confirmed", adjacency.verdict == "confirmed"),
            (f"{math.comb(vertices, 2)} pairs", adjacency.stats.get("pairs") == math.comb(vertices, 2)),
        )
        if not ok
    ]
    for label in failures:
        print(f"failed: {label}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
