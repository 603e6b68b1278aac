"""Differential tests for value keys and the bucketed adjacency check.

The oracles are the earlier implementations kept verbatim: a seed key made
of the rendered text of the canonical seed, and the adjacency check that
compares every vertex pair.  The value keys must glue exactly the seeds the
text keys glue, and the bucketed check must give the same report, witness
and pair count included, on whole graphs and on corrupted ones.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from clustermut import (
    ExchangeMatrix,
    Seed,
    TropicalSemifield,
    check_adjacency,
    coefficient_free_seed,
    enumerate_graph,
    principal_seed,
)
from clustermut.verify import (
    CONFIRMED,
    INCONCLUSIVE,
    REFUTED,
    VerificationReport,
    random_skew_symmetrizable,
    random_tropical_tuple,
)


def oracle_key(seed: Seed) -> bytes:
    """The rendered-text key of the canonical seed."""
    canon = seed.canonicalized()
    parts = [canon.mode, repr(canon.vars), canon.matrix.to_json()]
    parts.extend(str(p) for p in canon.cluster)
    if canon.coeffs is not None:
        parts.extend(str(y) for y in canon.coeffs)
    return "\x1f".join(parts).encode()


def oracle_adjacency(graph) -> VerificationReport:
    """Every vertex pair i < j in order; the report without its timing."""
    instance = f"graph with {graph.vertex_count} vertices"
    if not graph.complete:
        return VerificationReport(
            "adjacency", instance, INCONCLUSIVE,
            "frontier hit; enumeration incomplete",
            {"vertices": graph.vertex_count},
        )
    n = graph.seeds[0].n
    adjacent: set[tuple[int, int]] = set()
    for u, v, _ in graph.edges():
        adjacent.add((u, v))
    sets = [frozenset(c) for c in graph.cluster_sets()]
    pairs = 0
    for i in range(graph.vertex_count):
        for j in range(i + 1, graph.vertex_count):
            pairs += 1
            common = len(sets[i] & sets[j])
            has_edge = (i, j) in adjacent
            if has_edge != (common == n - 1):
                witness = (
                    f"vertices {i}, {j}: {common} common variables, "
                    f"edge {'present' if has_edge else 'absent'}"
                )
                return VerificationReport(
                    "adjacency", instance, REFUTED, witness,
                    {"vertices": graph.vertex_count, "pairs": pairs},
                )
    return VerificationReport(
        "adjacency", instance, CONFIRMED, None,
        {"vertices": graph.vertex_count, "pairs": pairs},
    )


# -- value keys against text keys -------------------------------------------------


def _seed_family(rng: random.Random, n: int, kind: str) -> list[Seed]:
    """An initial seed of the given kind, the seeds at the end of its short
    mutation paths, and a random relabelling of each."""
    if kind == "geometric":
        initial = Seed.initial_geometric(random_skew_symmetrizable(rng, n, rng.randint(1, 2)))
    else:
        b = random_skew_symmetrizable(rng, n)
        if kind == "trivial":
            initial = coefficient_free_seed(b)
        elif kind == "principal":
            initial = principal_seed(b)
        else:
            rank = rng.randint(1, 2)
            initial = Seed.initial_general(
                b, TropicalSemifield(rank), random_tropical_tuple(n, rank, rng)
            )
    out = []
    for length in range(4):
        for path in itertools.product(range(1, n + 1), repeat=length):
            seed = initial.mutate_path(path)
            perm = list(range(n))
            rng.shuffle(perm)
            out.extend((seed, seed.permuted(perm)))
    return out


@settings(max_examples=12, deadline=None)
@given(
    st.integers(0, 2 ** 32),
    st.integers(1, 3),
    st.sampled_from(["trivial", "principal", "tropical", "geometric"]),
)
def test_value_keys_glue_exactly_what_text_keys_glue(rng_seed, n, kind):
    rng = random.Random(rng_seed)
    seeds = _seed_family(rng, n, kind) + _seed_family(rng, n, kind)
    keys = [s.key() for s in seeds]
    texts = [oracle_key(s) for s in seeds]
    for (ka, ta), (kb, tb) in itertools.combinations(zip(keys, texts), 2):
        assert (ka == kb) == (ta == tb)
        if ka == kb:
            assert hash(ka) == hash(kb)


def test_value_keys_glue_the_pentagon():
    # mu_1 mu_2 mu_1 mu_2 mu_1 on A2 returns the initial seed up to relabelling
    seed = coefficient_free_seed(ExchangeMatrix.from_rows([[0, 1], [-1, 0]]))
    end = seed.mutate_path((1, 2, 1, 2, 1))
    assert end.cluster != seed.cluster
    assert end.key() == seed.key()
    assert oracle_key(end) == oracle_key(seed)


# -- bucketed adjacency against the pair loop -------------------------------------


FINITE_TYPES = {
    "A1": [[0]],
    "A1xA1": [[0, 0], [0, 0]],
    "A2": [[0, 1], [-1, 0]],
    "A3": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
    "A4": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
    "A5": [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1], [0, 0, 0, -1, 0]],
    "B3": [[0, 1, 0], [-1, 0, 1], [0, -2, 0]],
    "C3": [[0, 1, 0], [-1, 0, 2], [0, -1, 0]],
    "D4": [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]],
    "G2": [[0, 1], [-3, 0]],
}

VERTICES = {"A1": 2, "A1xA1": 4, "A2": 5, "A3": 14, "A4": 42, "A5": 132,
            "B3": 20, "C3": 20, "D4": 50, "G2": 8}


def _graph(name):
    return enumerate_graph(coefficient_free_seed(ExchangeMatrix.from_rows(FINITE_TYPES[name])), 64)


def _same_report(graph):
    new = check_adjacency(graph).to_dict()
    assert new == oracle_adjacency(graph).to_dict()
    return new


def test_bucketed_adjacency_matches_pair_loop_on_finite_types():
    for name, vertices in VERTICES.items():
        graph = _graph(name)
        assert graph.complete and graph.vertex_count == vertices
        report = _same_report(graph)
        assert report["verdict"] == CONFIRMED
        assert report["stats"]["pairs"] == vertices * (vertices - 1) // 2


def test_bucketed_adjacency_matches_pair_loop_with_an_edge_deleted():
    for name in ("A1", "A1xA1", "A3", "D4", "G2"):
        for pick in (0, -1):
            graph = _graph(name)
            u, v, labels = graph.edges()[pick]
            for k in labels:
                if graph.neighbors[u].get(k) == v:
                    del graph.neighbors[u][k]
                if graph.neighbors[v].get(k) == u:
                    del graph.neighbors[v][k]
            assert _same_report(graph)["verdict"] == REFUTED


def test_bucketed_adjacency_matches_pair_loop_with_a_spurious_edge():
    for name in ("A1xA1", "A3", "B3", "D4", "G2"):
        graph = _graph(name)
        n = graph.seeds[0].n
        adjacent = {(u, v) for u, v, _ in graph.edges()}
        loose = [p for p in itertools.combinations(range(graph.vertex_count), 2) if p not in adjacent]
        for i, j in (loose[0], loose[len(loose) // 2], loose[-1]):
            corrupted = _graph(name)
            corrupted.neighbors[i][n + 1] = j
            corrupted.neighbors[j][n + 1] = i
            assert _same_report(corrupted)["verdict"] == REFUTED
        # a loop joins no pair i < j, so neither check sees it
        looped = _graph(name)
        looped.neighbors[0][n + 1] = 0
        assert _same_report(looped)["verdict"] == CONFIRMED


def test_bucketed_adjacency_matches_pair_loop_with_a_duplicated_vertex():
    # as in test_cluster_determines_seed_detector: a copy of a vertex's
    # cluster with another vertex's matrix and the original's neighbours
    for name in ("A1", "A2", "A3", "G2", "D4"):
        for victim in (0, 1):
            graph = _graph(name)
            seed = graph.seeds[victim]
            corrupted = Seed(
                graph.seeds[1 - victim].matrix, seed.cluster, seed.mode, seed.semifield,
                seed.coeffs, seed.vars,
            )
            graph.seeds.append(corrupted)
            graph.keys.append(corrupted.key())
            graph.depths.append(1)
            graph.frontier.append(False)
            graph.neighbors.append(dict(graph.neighbors[victim]))
            _same_report(graph)
