"""`verify --check all` on the whole exchange graph of E6.

A standalone script, not collected by pytest (it takes several seconds):

    PYTHONPATH=src python tests/e6_verify_check.py

E6 has 833 clusters (Fomin and Zelevinsky, Cluster algebras II, 2003).
From the initial seed below every seed is at most 10 mutations away, so
at depth 12 both graphs that `verify` enumerates are complete: the
coefficient-free one for cluster-seed, adjacency and laurent, and the
principal one, with the coefficient-free and a random tropical seed riding
along, for coincide, g-spec and toric.  The chain 1 -> 2 -> ... -> 5 with
the branch 3 -> 6 has det B = 1, so toric invariance applies, and all six
checks must be confirmed on the whole graph.  The JSON reports of coincide,
g-spec and toric must count 833 vertices: the joint quotient, in which two
paths meet only where every seed glues them, is the principal graph.
`compare_by_paths` must also find that the principal and coefficient-free
seeds glue the same paths on the whole graph, each covering the other,
while counting the 366,210,937 reduced paths of length at most 12 that a
walk of the tree would visit.

A refutation at scale: the principal seed enumerated to depth 6 with the
coefficient-free seed of another orientation (the arrow 1 -> 2 reversed)
as its companion gives 961 vertices and 933 pairs of paths that exactly
one side glues, read off the stored keys and paths without mutating.  The
first and the last pair are replayed from both roots independently.
Exits nonzero, naming the first failed assertion, otherwise.
"""

import contextlib
import io
import json
import sys
import time

from clustermut import cli, coefficient_free_seed, compare_by_paths, enumerate_graph, principal_seed
from clustermut.graph import one_sided_gluings

CHECKS = ("adjacency", "cluster-seed", "coincide", "g-spec", "laurent", "toric")


def e6_text() -> str:
    """The chain 1 -> 2 -> ... -> 5 with the branch 3 -> 6."""
    rows = [[0] * 6 for _ in range(6)]
    for a, b in ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)):
        rows[a - 1][b - 1], rows[b - 1][a - 1] = 1, -1
    return ";".join(" ".join(str(x) for x in row) for row in rows)


def main() -> int:
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", e6_text(), "--check", "all", "--depth", "12", "--format", "json"])
    seconds = time.perf_counter() - t0
    reports = {r["check"]: r for r in json.loads(out.getvalue())}
    for name, r in reports.items():
        print(f"{name}: {r['verdict']} {r['stats']}")
    print(f"exit {code}; {seconds:.1f} s")
    e6 = cli.load_matrix(e6_text())
    t0 = time.perf_counter()
    paths = compare_by_paths(principal_seed(e6), coefficient_free_seed(e6), 12)
    print(f"compare_by_paths: {paths}; {time.perf_counter() - t0:.1f} s")
    roots = (principal_seed(e6), coefficient_free_seed(e6.mutate(1)))
    t0 = time.perf_counter()
    gluings = list(one_sided_gluings(enumerate_graph(roots[0], 6, companions=roots[1:]), 0))
    print(f"one-sided pairs against another orientation: {len(gluings)}; {time.perf_counter() - t0:.2f} s")
    # glued by the principal seed only or by the other side only, replayed from both roots
    replayed = [
        [s.mutate_path(p).key() == s.mutate_path(q).key() for s in roots] == [glued, not glued]
        for p, q, glued in gluings[:1] + gluings[-1:]
    ]
    failures = [
        label
        for label, ok in [("exit 0", code == 0), ("six reports", sorted(reports) == list(CHECKS))]
        + [(f"{name}: confirmed", reports.get(name, {}).get("verdict") == "confirmed") for name in CHECKS]
        + [(f"{name}: 833 vertices", reports.get(name, {}).get("stats", {}).get("vertices") == 833)
           for name in ("coincide", "g-spec", "toric")]
        + [("paths coincide", paths.coincide and paths.a_covers_b and paths.b_covers_a),
           ("366210937 paths", paths.nodes == 366210937),
           ("933 one-sided pairs", len(gluings) == 933),
           ("first and last pairs replay", replayed == [True, True])]
        if not ok
    ]
    for label in failures:
        print(f"failed: {label}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
