"""Whole exchange graphs of finite type under the checks of `verify`.

A standalone script, not collected by pytest (about two minutes; E8 about one):

    PYTHONPATH=src python tests/finite_type_atlas.py           # A6-A8, B6-B8, C6-C8, D6-D8, E6, E7
    PYTHONPATH=src python tests/finite_type_atlas.py B8 E8     # the types named

The cluster counts are those of Fomin and Zelevinsky, Cluster algebras II
(Invent. Math. 154, 2003): Catalan(n+1) for A_n, C(2n, n) for B_n and C_n,
(3n-2)/n * C(2n-2, n-1) for D_n, 833, 4,160 and 25,080 for E6, E7 and E8,
105 for F4 and 8 for G2.  Each exchange graph is n-regular, so it has
n * V / 2 edges.  Every graph that `run_checks` enumerates, the
coefficient-free one and, unless only the graph checks run, the joint
principal one, must be complete with those counts.  Every check must be
confirmed on every vertex, adjacency over all C(V, 2) pairs, except that
toric is inconclusive, with its stated reason, exactly when det B = 0:
every D_n and every odd rank.  B, C, F4 and G2 have a symmetrizer D != I
and entries b = +-2 or +-3.  A type in SCOPE runs only the checks and term
budget given there.

Each type runs in its linear orientation.  The script prints each type's
time with every graph's mutations (one per edge computed), exchange cache
hits (the mutations whose relation the memo already held) and seconds of
enumeration, then each check's report seconds, which leave out the
enumeration a check shares, and for E6 and E7 the bytes and seconds of the
coefficient-free graph's JSON export, made after the checks, then the
total time and the peak resident memory.  It exits nonzero at the first type that fails, naming it and the
answers that do not hold.
"""

import contextlib
import math
import resource
import sys
import time

from clustermut import ExchangeMatrix, cli, coefficient_free_seed, verify
from clustermut.graph import DEFAULT_MAX_TERMS
from clustermut.seeds import int_det

DEFAULT = [f"{t}{n}" for t in "ABCD" for n in (6, 7, 8)] + ["E6", "E7"]
NONDEGENERACY = "det B = 0: nondegeneracy hypothesis unmet"


def dynkin(n: int, double: tuple[int, int, int] | None = None, branch: int | None = None) -> ExchangeMatrix:
    """The chain 1 -> 2 -> ... -> n-1, with n hanging off the branch vertex
    (n-1 by default, which continues the chain); double = (i, j, c)
    multiplies b_ij by c."""
    rows = [[0] * n for _ in range(n)]
    edges = [(i, i + 1) for i in range(1, n - 1)] + [(branch or n - 1, n)]
    for i, j in edges:
        rows[i - 1][j - 1], rows[j - 1][i - 1] = 1, -1
    if double:
        i, j, c = double
        rows[i - 1][j - 1] *= c
    return ExchangeMatrix.from_rows(rows)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# name: (linear orientation, cluster count), for every finite type of rank 8 or less
TYPES = {
    **{f"A{n}": (dynkin(n), catalan(n + 1)) for n in range(2, 9)},
    **{f"B{n}": (dynkin(n, (n, n - 1, 2)), math.comb(2 * n, n)) for n in range(2, 9)},
    **{f"C{n}": (dynkin(n, (n - 1, n, 2)), math.comb(2 * n, n)) for n in range(3, 9)},
    **{f"D{n}": (dynkin(n, branch=n - 2), (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n) for n in range(4, 9)},
    **{f"E{n}": (dynkin(n, branch=3), count) for n, count in ((6, 833), (7, 4160), (8, 25080))},
    "F4": (dynkin(4, (3, 2, 2)), 105),
    "G2": (dynkin(2, (2, 1, 3)), 8),
}

# name: (checks, term budget) where a type runs less than every check at the
# default budget.  E8: all six checks took 1,050 s at 361 MiB (2-vCPU VM,
# Python 3.11.7), and its coefficient-free graph stores 13,646,140 terms,
# above the default 10^7.
SCOPE = {"E8": (("cluster-seed", "adjacency"), 2 * 10 ** 7)}

# types whose coefficient-free graph is also exported as JSON after its
# checks, to time the export; E8's would be about 100 MB
EXPORTED = ("E6", "E7")


@contextlib.contextmanager
def kept_graphs():
    """Every graph that verify enumerates while open, in order, with the
    seconds its enumeration took."""
    graphs, real = [], verify.enumerate_graph

    def kept(*args, **kwargs):
        t0 = time.perf_counter()
        graphs.append((real(*args, **kwargs), time.perf_counter() - t0))
        return graphs[-1][0]

    verify.enumerate_graph = kept
    try:
        yield graphs
    finally:
        verify.enumerate_graph = real


def run(b: ExchangeMatrix, checks=cli.ALL_CHECKS, max_terms: int = DEFAULT_MAX_TERMS):
    """run_checks on the whole graphs of the coefficient-free seed of b: its
    reports by check, and kept_graphs' (graph, seconds) pairs."""
    with kept_graphs() as graphs:
        reports = {r.check: r for r in verify.run_checks(b, coefficient_free_seed(b), 64, checks, max_terms=max_terms)}
    return reports, graphs


def failures(b: ExchangeMatrix, vertices: int, checks=cli.ALL_CHECKS, max_terms: int = DEFAULT_MAX_TERMS) -> list[str]:
    """The answers that do not hold when run_checks reads the whole graphs
    of the coefficient-free seed of b; empty when all of them do."""
    return answers(b, vertices, checks, *run(b, checks, max_terms))


def answers(b: ExchangeMatrix, vertices: int, checks, reports: dict, graphs: list) -> list[str]:
    """failures' answers, read off run's reports and graphs."""
    graphs = [g for g, _ in graphs]
    shape = (vertices, b.n * vertices // 2, True)
    count = 1 if set(checks) <= {"cluster-seed", "adjacency"} else 2
    pairs = math.comb(vertices, 2)
    answers = [
        (f"reports of {', '.join(sorted(checks))}", sorted(reports) == sorted(checks)),
        (f"{('one complete graph', 'two complete graphs')[count - 1]} of {shape[0]} vertices and {shape[1]} edges",
         [(g.vertex_count, g.edge_count, g.complete) for g in graphs] == [shape] * count),
    ]
    for check in sorted(reports):
        r = reports[check]
        if check == "toric" and not int_det(b.rows):
            answers.append((f"toric inconclusive: {NONDEGENERACY}",
                            (r.verdict, r.witness) == ("inconclusive", NONDEGENERACY)))
        elif check == "adjacency":
            answers.append((f"adjacency confirmed on {vertices} vertices over {pairs} pairs",
                            (r.verdict, r.stats.get("vertices"), r.stats.get("pairs")) == ("confirmed", vertices, pairs)))
        else:
            answers.append((f"{check} confirmed on {vertices} vertices",
                            (r.verdict, r.stats.get("vertices")) == ("confirmed", vertices)))
    return [label for label, ok in answers if not ok]


def type_line(name: str) -> tuple[str, list[str]]:
    """The line main prints for a type, and its failures; the type's graphs
    are freed on return, before the next type enumerates its own."""
    b, vertices = TYPES[name]
    checks, max_terms = SCOPE.get(name, (cli.ALL_CHECKS, DEFAULT_MAX_TERMS))
    t0 = time.perf_counter()
    reports, graphs = run(b, checks, max_terms)
    elapsed = time.perf_counter() - t0
    work = "; ".join(f"{g.stats['mutations']} mutations, {g.stats['exchange_cache_hits']} exchange cache hits"
                     f" in {seconds:.2f} s" for g, seconds in graphs)
    shares = ", ".join(f"{check} {r.seconds:.2f} s" for check, r in sorted(reports.items()))
    line = f"{name}: {vertices} vertices, {elapsed:.1f} s ({work}) [{shares}]"
    if name in EXPORTED:
        t0 = time.perf_counter()
        size = len(graphs[0][0].export("json"))
        line += f", JSON export {size} bytes in {time.perf_counter() - t0:.2f} s"
    return line, answers(b, vertices, checks, reports, graphs)


def main(argv: list[str]) -> int:
    names = argv or DEFAULT
    unknown = [name for name in names if name not in TYPES]
    if unknown:
        print(f"unknown type {unknown[0]}; types: {' '.join(TYPES)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    for name in names:
        line, failed = type_line(name)
        print(line, flush=True)
        if failed:
            for label in failed:
                print(f"failed: {name}: {label}", file=sys.stderr)
            return 1
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(names)} types in {time.perf_counter() - start:.1f} s, peak RSS {peak:.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
