import itertools

import pytest

from clustermut import (
    BudgetExceeded,
    ContextMismatch,
    DegenerateSeed,
    ExchangeGraph,
    ExchangeMatrix,
    Seed,
    TropicalSemifield,
    canonicalize_seed,
    coefficient_free_seed,
    compare_by_paths,
    enumerate_graph,
    principal_seed,
    reduced_paths,
)
from clustermut.verify import random_tropical_tuple


# -- canonical keys ---------------------------------------------------------------


def test_key_invariant_under_permutations(a3, rng):
    seed = coefficient_free_seed(a3).mutate_path((1, 2, 3))
    base = canonicalize_seed(seed)
    for perm in itertools.permutations(range(3)):
        assert canonicalize_seed(seed.permuted(perm)) == base


def test_key_invariant_for_tropical_coefficients(a2, rng):
    sf = TropicalSemifield(2)
    seed = Seed.initial_general(a2, sf, random_tropical_tuple(2, 2, rng)).mutate(1)
    assert canonicalize_seed(seed.permuted((1, 0))) == canonicalize_seed(seed)


def test_double_mutation_gives_same_key(a2):
    seed = coefficient_free_seed(a2)
    assert canonicalize_seed(seed.mutate(1).mutate(1)) == canonicalize_seed(seed)


def test_equal_clusters_different_matrix_distinct_keys(a2, b2):
    s1 = coefficient_free_seed(a2)
    s2 = coefficient_free_seed(b2)
    assert s1.cluster == s2.cluster
    assert canonicalize_seed(s1) != canonicalize_seed(s2)


def test_degenerate_cluster_rejected(a2):
    seed = coefficient_free_seed(a2)
    x1 = seed.cluster[0]
    broken = Seed(seed.matrix, (x1, x1), seed.mode, seed.semifield, seed.coeffs, seed.vars)
    with pytest.raises(DegenerateSeed):
        canonicalize_seed(broken)


# -- enumeration -----------------------------------------------------------------


def test_pentagon(a2):
    g = enumerate_graph(coefficient_free_seed(a2), 10)
    assert (g.vertex_count, g.edge_count, g.complete) == (5, 5, True)
    assert sorted(g.degrees()) == [2] * 5


def test_hexagon(b2):
    g = enumerate_graph(coefficient_free_seed(b2), 10)
    assert (g.vertex_count, g.edge_count) == (6, 6)


def test_g2_octagon(g2):
    g = enumerate_graph(coefficient_free_seed(g2), 12)
    assert (g.vertex_count, g.edge_count) == (8, 8)


def test_associahedron(a3):
    g = enumerate_graph(coefficient_free_seed(a3), 10)
    assert (g.vertex_count, g.edge_count, g.complete) == (14, 21, True)
    assert set(g.degrees()) == {3}


def test_every_complete_vertex_resolves_all_directions(a3):
    g = enumerate_graph(coefficient_free_seed(a3), 10)
    for i in range(g.vertex_count):
        assert not g.frontier[i]
        assert sorted(g.neighbors[i]) == [1, 2, 3]
        # quotient consistency: the edge is realized from both endpoints
        for k, v in g.neighbors[i].items():
            assert any(u == i for u in g.neighbors[v].values())


def test_depth_limit_marks_frontier(markov):
    g = enumerate_graph(coefficient_free_seed(markov), 2)
    assert not g.complete
    assert any(g.frontier)
    assert all(g.depths[i] == 2 for i in range(g.vertex_count) if g.frontier[i])
    # non-frontier vertices still resolve every direction
    for i in range(g.vertex_count):
        if not g.frontier[i]:
            assert sorted(g.neighbors[i]) == [1, 2, 3]


def test_depth_zero_is_all_frontier(a2):
    g = enumerate_graph(coefficient_free_seed(a2), 0)
    assert g.vertex_count == 1 and g.frontier == [True] and not g.complete


def test_vertex_budget(markov):
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_graph(coefficient_free_seed(markov), 6, max_vertices=20)
    assert exc.value.partial is not None
    assert exc.value.partial.vertex_count <= 20
    assert not exc.value.partial.complete


def test_term_budget(markov):
    with pytest.raises(BudgetExceeded):
        enumerate_graph(coefficient_free_seed(markov), 6, max_terms=50)


def test_enumeration_deterministic_across_runs(a3):
    seed = coefficient_free_seed(a3)
    g1 = enumerate_graph(seed, 10)
    g2 = enumerate_graph(seed, 10)
    assert g1 == g2
    assert g1.export("json") == g2.export("json")
    assert g1.export("dot") == g2.export("dot")


# Finite types: cluster counts (Fomin-Zelevinsky, Cluster algebras II) and an
# n-regular graph, so n * V / 2 edges.
FINITE_TYPES = {
    "A1": ([[0]], 2),
    "A2": ([[0, 1], [-1, 0]], 5),
    "A3": ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], 14),
    "A4": ([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]], 42),
    "A5": (
        [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1], [0, 0, 0, -1, 0]],
        132,
    ),
    "B3": ([[0, 1, 0], [-1, 0, 1], [0, -2, 0]], 20),
    "C3": ([[0, 1, 0], [-1, 0, 2], [0, -1, 0]], 20),
    "D4": ([[0, 1, 1, 1], [-1, 0, 0, 0], [-1, 0, 0, 0], [-1, 0, 0, 0]], 50),
    "D5": (
        [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 1], [0, 0, -1, 0, 0], [0, 0, -1, 0, 0]],
        182,
    ),
}


@pytest.mark.parametrize("name", sorted(FINITE_TYPES))
def test_finite_type_counts(name):
    rows, count = FINITE_TYPES[name]
    g = enumerate_graph(coefficient_free_seed(ExchangeMatrix.from_rows(rows)), 20)
    n = len(rows)
    assert (g.vertex_count, g.complete) == (count, True)
    assert g.edge_count == n * count // 2
    assert g.degrees() == [n] * count


def test_principal_enumeration_matches_counts(a2, b2, g2, a3):
    for matrix, count in ((a2, 5), (b2, 6), (g2, 8), (a3, 14)):
        g = enumerate_graph(principal_seed(matrix), 12)
        assert (g.vertex_count, g.complete) == (count, True)


# -- export ---------------------------------------------------------------------


def test_json_round_trip(a2):
    g = enumerate_graph(coefficient_free_seed(a2), 10)
    again = ExchangeGraph.from_json(g.to_json())
    assert again == g
    assert again.export("json") == g.export("json")


def test_json_round_trip_geometric(a2):
    g = enumerate_graph(principal_seed(a2), 10)
    assert ExchangeGraph.from_json(g.to_json()) == g


def test_json_round_trip_tropical(a2, rng):
    seed = Seed.initial_general(a2, TropicalSemifield(2), random_tropical_tuple(2, 2, rng))
    g = enumerate_graph(seed, 10)
    assert ExchangeGraph.from_json(g.to_json()) == g


def test_dot_export_shape(a2):
    g = enumerate_graph(coefficient_free_seed(a2), 10)
    dot = g.export("dot").decode()
    assert dot.count(" -- ") == 5
    assert dot.count("[label=") == 10  # 5 vertices + 5 edges


def test_export_byte_identical_between_runs(a2):
    g1 = enumerate_graph(coefficient_free_seed(a2), 10)
    g2 = enumerate_graph(coefficient_free_seed(a2), 10)
    assert g1.export("json") == g2.export("json")


# -- lockstep comparison -------------------------------------------------------------


def test_compare_same_seed_coincides(a2):
    seed = coefficient_free_seed(a2)
    result = compare_by_paths(seed, seed, 5)
    assert result.coincide and result.divergence is None


def test_compare_principal_vs_coefficient_free(a2):
    result = compare_by_paths(principal_seed(a2), coefficient_free_seed(a2), 6)
    assert result.coincide
    assert result.a_covers_b and result.b_covers_a


def test_compare_zero_row_matrix_reports_without_theorem_claim():
    # zero rows break the nondegeneracy hypothesis; the walk still runs
    zero = ExchangeMatrix.from_rows([[0, 0], [0, 0]])
    result = compare_by_paths(principal_seed(zero), coefficient_free_seed(zero), 4)
    assert result.nodes > 0
    assert result.a_covers_b  # covering holds regardless


def test_any_member_covers_coefficient_free(a2, rng):
    tropical = Seed.initial_general(a2, TropicalSemifield(2), random_tropical_tuple(2, 2, rng))
    result = compare_by_paths(tropical, coefficient_free_seed(a2), 6)
    assert result.a_covers_b


def test_compare_rejects_mismatched_principal_parts(a2, b2):
    with pytest.raises(Exception):
        compare_by_paths(coefficient_free_seed(a2), coefficient_free_seed(b2), 3)


def test_compare_rejects_negative_depth(a2):
    with pytest.raises(ContextMismatch):
        compare_by_paths(principal_seed(a2), coefficient_free_seed(a2), -1)


def test_reduced_paths_count_and_order():
    # n (n-1)^(d-1) paths of each length d >= 1, shorter paths first
    paths = reduced_paths(3, 3)
    assert [len(p) for p in paths] == [0] + [1] * 3 + [2] * 6 + [3] * 12
    assert paths[:5] == [(), (1,), (2,), (3,), (1, 2)]
    assert all(a != b for p in paths for a, b in zip(p, p[1:]))
    assert reduced_paths(3, -1) == [()]


def test_compare_walks_every_reduced_path(a3):
    seed = coefficient_free_seed(a3)
    assert compare_by_paths(seed, seed, 4).nodes == len(reduced_paths(3, 4))
