import itertools
import json
import random
import re

import pytest

from finite_type_atlas import dynkin
from clustermut import (
    BudgetExceeded,
    ClusterMutError,
    ContextMismatch,
    DegenerateSeed,
    ExchangeGraph,
    ExchangeMatrix,
    NotSkewSymmetrizable,
    ParseError,
    Seed,
    TrivialSemifield,
    TropicalElement,
    TropicalSemifield,
    canonicalize_seed,
    coefficient_free_seed,
    compare_by_paths,
    enumerate_graph,
    principal_seed,
    random_nondegenerate,
    random_skew_symmetrizable,
    reduced_paths,
    validate_and_symmetrize,
)
from clustermut import graph as graph_module
from clustermut.verify import random_tropical_seed, random_tropical_tuple


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


def test_e6_counts():
    # E6: 833 clusters (Fomin-Zelevinsky, Cluster algebras II), 6-regular
    rows = [[0] * 6 for _ in range(6)]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)):
        rows[i][j], rows[j][i] = 1, -1
    g = enumerate_graph(coefficient_free_seed(ExchangeMatrix.from_rows(rows)), 20)
    assert (g.vertex_count, g.edge_count, g.complete) == (833, 2499, True)


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_each_edge_mutated_once(name):
    rows, count = FINITE_TYPES[name]
    n = len(rows)
    g = enumerate_graph(coefficient_free_seed(ExchangeMatrix.from_rows(rows)), 20)
    assert g.stats["mutations"] == g.edge_count == n * count // 2
    assert g.stats["mutations"] + g.stats["reused"] == n * g.vertex_count


def test_principal_enumeration_matches_counts(a2, b2, g2, a3):
    for matrix, count in ((a2, 5), (b2, 6), (g2, 8), (a3, 14)):
        g = enumerate_graph(principal_seed(matrix), 12)
        assert (g.vertex_count, g.complete) == (count, True)


def test_honest_companions_leave_the_graph_unchanged(g2, rng):
    # the coefficient-free and a random tropical seed glue every pair of
    # paths as the principal seed does, so the joint quotient is the
    # principal graph: whole on finite types, cut at a frontier on random
    # rank 4 at depth 3
    cases = [(ExchangeMatrix.from_rows(FINITE_TYPES[name][0]), 12) for name in ("A3", "B3", "D4", "A4")]
    cases += [(g2, 12)] + [(random_nondegenerate(rng, 4, max_entry=1), 3) for _ in range(2)]
    for b, depth in cases:
        sides = (coefficient_free_seed(b), random_tropical_seed(b, b.n, 0))
        joint = enumerate_graph(principal_seed(b), depth, companions=sides)
        assert joint == enumerate_graph(principal_seed(b), depth)
        assert joint.complete == (depth == 12)


def rescanned_route(graph, initial, v):
    """The path to v that a rescan of every neighbour entry finds: the
    least (u, k) one layer up, back to the root, then translated step by
    step from canonical slots to initial's own directions by mutating
    initial along the way."""
    steps = []
    while v:
        v, k = min((u, k) for u, nbrs in enumerate(graph.neighbors) for k, w in nbrs.items()
                   if w == v and graph.depths[u] < graph.depths[v])
        steps.insert(0, k)
    path, seed = [], initial
    for k in steps:
        path.append(seed.canonical_permutation()[k - 1] + 1)
        seed = seed.mutate(path[-1])
    return tuple(path)


def test_stored_paths_replay_to_their_vertices(g2, rng):
    # coefficient-free A3 and D4, principal G2 and random rank 4 with two
    # sides, and a principal seed against a coefficient-free side of
    # another matrix, whose joint quotient is larger than either graph
    a3, c3, d4 = (ExchangeMatrix.from_rows(FINITE_TYPES[name][0]) for name in ("A3", "C3", "D4"))
    b = random_nondegenerate(rng, 4, max_entry=1)
    cases = [
        (coefficient_free_seed(a3), (), 12), (coefficient_free_seed(d4), (), 12), (principal_seed(g2), (), 12),
        (principal_seed(a3), (coefficient_free_seed(c3),), 6),
        (principal_seed(b), (coefficient_free_seed(b), random_tropical_seed(b, 4, 0)), 3),
    ]
    for initial, sides, depth in cases:
        graph = enumerate_graph(initial, depth, companions=sides)
        assert len(graph.paths) == graph.vertex_count
        for v, path in enumerate(graph.paths):
            assert path == rescanned_route(graph, initial, v)
            assert len(path) == graph.depths[v]
            assert initial.mutate_path(path).key() == graph.keys[v]
            assert [s.mutate_path(path).key() for s in sides] == [s.key() for s in graph.companions[v]]


# -- export ---------------------------------------------------------------------


def test_json_round_trip(a2):
    g = enumerate_graph(coefficient_free_seed(a2), 10)
    again = ExchangeGraph.from_json(g.to_json())
    assert again == g
    assert again.export("json") == g.export("json")
    assert again.paths == []


@pytest.mark.parametrize("name", ["A4", "G2"])
def test_json_parses_each_variable_text_once(name, monkeypatch):
    rows = FINITE_TYPES["A4"][0] if name == "A4" else [[0, 1], [-3, 0]]
    g = enumerate_graph(coefficient_free_seed(ExchangeMatrix.from_rows(rows)), 20)
    texts, coeff_texts = [], []
    real, real_tropical = graph_module.parse_poly, graph_module.parse_tropical

    def counted(vars, text):
        texts.append(text)
        return real(vars, text)

    def counted_tropical(rank, text):
        coeff_texts.append(text)
        return real_tropical(rank, text)

    monkeypatch.setattr(graph_module, "parse_poly", counted)
    monkeypatch.setattr(graph_module, "parse_tropical", counted_tropical)
    again = ExchangeGraph.from_json(g.to_json())
    assert again == g and again.complete
    assert sorted(texts) == sorted({str(x) for s in g.seeds for x in s.cluster})
    assert coeff_texts == ["1"]
    # equal variables are one object, as in the enumeration
    assert len({id(x) for s in again.seeds for x in s.cluster}) == len(texts)


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4"])
def test_coefficient_free_is_the_rank_0_tropical_graph(name, g2):
    # Trop() = {1}: the graphs are equal and only the JSON label differs
    matrix = g2 if name == "G2" else ExchangeMatrix.from_rows(FINITE_TYPES[name][0])
    free = enumerate_graph(coefficient_free_seed(matrix), 20)
    rank0 = enumerate_graph(Seed.initial_general(matrix, TropicalSemifield(0)), 20)
    assert free == rank0 and free.complete
    assert free.stats == rank0.stats
    a, b = json.loads(free.to_json()), json.loads(rank0.to_json())
    assert (a.pop("coefficients"), b.pop("coefficients")) == ("trivial", "tropical")
    assert a == b


def test_coefficient_free_json_round_trips_through_the_tropical_parser(a3):
    g = enumerate_graph(coefficient_free_seed(a3), 20)
    again = ExchangeGraph.from_json(g.to_json())
    assert again == g
    assert again.export("json") == g.export("json")
    seed = again.seeds[-1]
    assert seed.semifield == TrivialSemifield() and seed.semifield.kind == "trivial"
    assert seed.coeffs == (TropicalElement(()),) * 3
    # a parsed seed mutates as the enumerated one does
    assert [seed.mutate(k).key() for k in (1, 2, 3)] == [g.seeds[-1].mutate(k).key() for k in (1, 2, 3)]


def test_json_round_trip_geometric(a2):
    g = enumerate_graph(principal_seed(a2), 10)
    assert ExchangeGraph.from_json(g.to_json()) == g


def test_json_round_trip_tropical(a2, rng):
    seed = Seed.initial_general(a2, TropicalSemifield(2), random_tropical_tuple(2, 2, rng))
    g = enumerate_graph(seed, 10)
    assert ExchangeGraph.from_json(g.to_json()) == g


def _dict_export(graph):
    """The object that to_json wrote through json.dumps(..., indent=1,
    sort_keys=True) before it wrote from templates: the writer's oracle."""
    seed0 = graph.seeds[0]
    return {
        "mode": seed0.mode,
        "coefficients": "geometric" if seed0.mode == "geometric" else seed0.semifield.kind,
        "rank": getattr(seed0.semifield, "rank", seed0.m),
        "n": seed0.n,
        "m": seed0.m,
        "vars": list(seed0.vars),
        "complete": graph.complete,
        "vertices": [
            {
                "id": i,
                "depth": graph.depths[i],
                "frontier": graph.frontier[i],
                "cluster": [str(x) for x in s.cluster],
                "coeffs": None if s.coeffs is None else [str(y) for y in s.coeffs],
                "matrix": {"n": s.matrix.n, "m": s.matrix.m, "rows": [list(r) for r in s.matrix.rows]},
                "neighbors": {str(k): v for k, v in sorted(graph.neighbors[i].items())},
            }
            for i, s in enumerate(graph.seeds)
        ],
        "edges": [{"u": u, "v": v, "labels": list(ks)} for u, v, ks in graph.edges()],
    }


@pytest.mark.parametrize("graph", [
    lambda: enumerate_graph(coefficient_free_seed(dynkin(2)), 10),
    lambda: enumerate_graph(coefficient_free_seed(dynkin(3)), 10),
    lambda: enumerate_graph(principal_seed(dynkin(2, (2, 1, 3))), 12),
    # a stable row that is not principal: m = 1
    lambda: enumerate_graph(Seed.initial_geometric(ExchangeMatrix.from_rows([[0, 1, 2], [-1, 0, -1]])), 10),
    # frontier vertices carry "neighbors": {}
    lambda: enumerate_graph(random_tropical_seed(ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]), 2, 5),
                            2),
    # one vertex and "edges": []
    lambda: enumerate_graph(coefficient_free_seed(dynkin(3)), 0),
    # directions 10 and 11, whose keys sort before "2"
    lambda: enumerate_graph(coefficient_free_seed(dynkin(11)), 1),
], ids=["A2", "A3", "principal G2", "geometric m=1", "tropical Markov depth 2", "depth 0", "A11 depth 1"])
def test_json_export_is_what_json_dumps_writes(graph):
    g = graph()
    assert g.to_json() == json.dumps(_dict_export(g), indent=1, sort_keys=True)


def _tampered(graph, change):
    obj = json.loads(graph.to_json())
    change(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("change, bad", [
    (lambda o: o.update(rank=0.9), "0.9 is not an integer"),
    (lambda o: o.update(complete="no"), '"no" is not a boolean'),
    (lambda o: o["vertices"][0].update(depth="0"), '"0" is not an integer'),
    (lambda o: o["vertices"][0].update(frontier="no"), '"no" is not a boolean'),
    (lambda o: o["vertices"][0].update(frontier=1), "1 is not a boolean"),
    (lambda o: o["vertices"][0].update(neighbors={"1": 1.0}), "1.0 is not an integer"),
    (lambda o: o["vertices"][0]["matrix"]["rows"][0].__setitem__(1, 1.7), "1.7 is not an integer"),
    (lambda o: o["vertices"][0].update(neighbors=[1]), "'list' object has no attribute 'values'"),
    (lambda o: o["vertices"][0]["cluster"].append("x1"), "vertex 0: 3 cluster texts for n = 2"),
    (lambda o: o["vertices"][0]["coeffs"].append("1"), "vertex 0: 3 coefficient texts for n = 2"),
    (lambda o: o["vertices"][0].update(neighbors={"7": 99}), 'vertex 0: direction "7" outside [1, 2]'),
    (lambda o: o["vertices"][0].update(neighbors={" 1": 1}), 'vertex 0: direction " 1" outside [1, 2]'),
    (lambda o: o["vertices"][0].update(neighbors={"1": 99}), "vertex 0: neighbor 99 outside [0, 5)"),
    (lambda o: o["vertices"][0]["matrix"].update(n=3), "vertex 0: n is 3 but there are 2 rows"),
    (lambda o: o.update(n=3), "vertex 0: 2 rows in a graph of n = 3"),
    (lambda o: o["vertices"][0].update(cluster=["x1", "x1"]), "vertex 0: cluster variable x1 twice"),
    (lambda o: o["vertices"][0].update(frontier=True), "vertex 0: frontier is true with 2 of 2 neighbors"),
    (lambda o: o["vertices"][1].update(neighbors={"1": 0}), "vertex 1: frontier is false with 1 of 2 neighbors"),
    (lambda o: o["vertices"][1].update(neighbors={"1": 0}, frontier=True),
     "vertex 1: frontier vertex in a complete graph"),
    (lambda o: o.update(vertices=[]), "no vertices"),
    (lambda o: o["vertices"][0]["matrix"].update(m=1, rows=[[0, 1, 1], [-1, 0, 0]]),
     "vertex 0: m is 1 in a graph of m = 0"),
    (lambda o: o.update(mode="weird"), "cannot rebuild 'weird' seeds over 'trivial' coefficients"),
    (lambda o: o.update(mode="geometric"), "cannot rebuild 'geometric' seeds over 'trivial' coefficients"),
    (lambda o: o["vertices"][0].update(depth=-4), "vertex 0: depth -4 is negative"),
    (lambda o: o.update(edges=[]), 'vertex 0: "edges" lists no edge where the neighbors give (0, 1) labelled 1'),
    (lambda o: o["edges"][1].update(labels=[2]),
     'vertex 0: "edges" lists (0, 2) labelled 2 where the neighbors give (0, 2) labelled 1,2'),
    (lambda o: o["edges"].append({"labels": [1], "u": 3, "v": 4}),
     'vertex 3: "edges" lists (3, 4) labelled 1 where the neighbors give no edge'),
    (lambda o: o["edges"][0].update(labels=[True]), "true is not an integer"),
    # edges() gives the listed edges here too: vertex 1 still leads to 0
    (lambda o: o["vertices"][0]["neighbors"].update({"1": 2}), "vertex 0: 2 directions lead to vertex 2 and 1 back"),
], ids=["rank", "complete", "depth", "frontier", "frontier 1", "neighbor", "entry", "neighbor list",
        "cluster length", "coefficient length", "direction", "direction text", "neighbor index", "matrix n",
        "graph n", "duplicate variable", "frontier flag", "cut neighbors", "complete with frontier", "no vertices",
        "vertex m", "mode", "mode against coefficients", "negative depth", "no edges", "edge labels", "extra edge",
        "edge label type", "direction to another vertex"])
def test_json_refuses_values_it_would_coerce(a2, change, bad):
    g = enumerate_graph(coefficient_free_seed(a2), 10)
    with pytest.raises(ParseError, match=f"^bad (graph JSON|matrix): {re.escape(bad)}$"):
        ExchangeGraph.from_json(_tampered(g, change))


def test_json_import_leaves_the_symmetrizer_cache_alone(a3):
    text = enumerate_graph(coefficient_free_seed(a3), 20).to_json()
    validate_and_symmetrize.cache_clear()
    ExchangeGraph.from_json(text)
    assert validate_and_symmetrize.cache_info().currsize == 0


def test_json_refuses_a_matrix_that_is_not_skew_symmetrizable(a2):
    g = enumerate_graph(coefficient_free_seed(a2), 10)
    text = _tampered(g, lambda o: o["vertices"][1]["matrix"].update(rows=[[0, 1], [1, 0]]))
    with pytest.raises(NotSkewSymmetrizable):
        ExchangeGraph.from_json(text)


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


def test_compare_mutates_each_graph_edge_once(a3, monkeypatch):
    # A3's graph has 21 edges, each mutated once on either side; walking
    # the 766 reduced paths to depth 8 in lockstep took 1,530 mutations
    calls = []
    real = Seed._child

    def counted(self, k, exchanges, perm=None):
        calls.append(k)
        return real(self, k, exchanges, perm)

    monkeypatch.setattr(Seed, "_child", counted)
    result = compare_by_paths(principal_seed(a3), coefficient_free_seed(a3), 8)
    assert result.coincide and result.a_covers_b and result.b_covers_a
    assert len(calls) <= 42
    assert result.nodes == 766 == len(reduced_paths(3, 8))


# -- each edge computed once: differential test against mutating every direction -----


def oracle_enumerate(initial, depth_limit, max_vertices=10 ** 6, max_terms=10 ** 7):
    """Breadth-first closure that mutates every vertex in all n directions,
    so each edge is computed from both of its endpoints."""
    n = initial.n
    rep0 = initial.canonicalized()
    seeds, keys, depths, neighbors = [rep0], [rep0.key()], [0], [{}]
    index = {keys[0]: 0}
    term_total = sum(len(p.terms) for p in rep0.cluster)

    def snapshot(complete):
        frontier = [len(nbrs) < n for nbrs in neighbors]
        return ExchangeGraph(seeds, keys, depths, frontier, neighbors, complete and not any(frontier))

    layer, depth = [0], 0
    while layer and depth < depth_limit:
        new_layer = []
        for u in layer:
            for k in range(1, n + 1):
                child = seeds[u].mutate(k)
                ck = child.key()
                idx = index.get(ck)
                if idx is None:
                    if len(seeds) + 1 > max_vertices:
                        raise BudgetExceeded(f"vertex budget {max_vertices} exhausted", snapshot(False))
                    term_total += sum(len(p.terms) for p in child.cluster)
                    if term_total > max_terms:
                        raise BudgetExceeded(f"term budget {max_terms} exhausted", snapshot(False))
                    idx = len(seeds)
                    seeds.append(child.canonicalized())
                    keys.append(ck)
                    index[ck] = idx
                    depths.append(depth + 1)
                    neighbors.append({})
                    new_layer.append(idx)
                neighbors[u][k] = idx
        layer = new_layer
        depth += 1
    graph = snapshot(True)
    graph.stats = {"vertices": len(seeds), "depth_reached": depth}
    return graph


def outcome(enumerate_fn, seed, depth, **budgets):
    """(budget message or None, graph or partial graph, JSON bytes, DOT bytes)."""
    try:
        graph = enumerate_fn(seed, depth, **budgets)
        message = None
    except BudgetExceeded as exc:
        graph, message = exc.partial, str(exc)
    return message, graph, graph.export("json"), graph.export("dot")


def assert_same_enumeration(seed, depth, **budgets):
    expected = outcome(oracle_enumerate, seed, depth, **budgets)
    got = outcome(enumerate_graph, seed, depth, **budgets)
    assert got == expected
    message, graph = got[0], got[1]
    if message is None:
        assert {k: graph.stats[k] for k in ("vertices", "depth_reached")} == expected[1].stats
        # an edge between two expanded vertices is mutated from the first one
        # expanded; an edge to a frontier vertex only from its other end
        assert graph.stats["mutations"] == graph.edge_count
        jobs = sum(len(nbrs) for nbrs in graph.neighbors)
        assert graph.stats["mutations"] + graph.stats["reused"] == jobs
    return message


def random_seeds(rng, n):
    """Coefficient-free, principal, random tropical and geometric extended
    seeds over random skew-symmetrizable matrices."""
    b = random_skew_symmetrizable(rng, n, 0, max_entry=1)
    rank = rng.randint(1, 3)
    yield coefficient_free_seed(b)
    yield principal_seed(b)
    yield Seed.initial_general(b, TropicalSemifield(rank), random_tropical_tuple(n, rank, rng))
    yield Seed.initial_geometric(random_skew_symmetrizable(rng, n, rng.randint(1, 2), max_entry=1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_every_direction_oracle(n):
    rng = random.Random(5000 + n)
    for _ in range(3):
        for seed in random_seeds(rng, n):
            for depth in range(5):
                assert_same_enumeration(seed, depth, max_terms=4000)


@pytest.mark.parametrize("name", sorted(FINITE_TYPES))
def test_finite_types_match_every_direction_oracle(name):
    matrix = ExchangeMatrix.from_rows(FINITE_TYPES[name][0])
    assert assert_same_enumeration(coefficient_free_seed(matrix), 20) is None
    assert assert_same_enumeration(principal_seed(matrix), 20) is None


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13])
def test_budget_overrun_matches_every_direction_oracle(budget, markov, a3):
    for seed in (coefficient_free_seed(markov), principal_seed(a3)):
        assert assert_same_enumeration(seed, 6, max_vertices=budget) is not None
        assert assert_same_enumeration(seed, 6, max_terms=4 * budget) is not None
    # random seeds may be of finite type and fit the budget
    for seed in random_seeds(random.Random(budget), 3):
        assert_same_enumeration(seed, 6, max_vertices=budget)
        assert_same_enumeration(seed, 6, max_terms=4 * budget)


def test_enumeration_builds_one_matrix_and_one_seed_per_side_and_edge(monkeypatch):
    # each child is built once, already in canonical slot order: A6 makes
    # 1,287 mutations, so 1,288 matrices and seeds with the root's, twice
    # that with one companion
    a6 = dynkin(6)
    principal, free = principal_seed(a6), coefficient_free_seed(a6)
    built = {"matrices": 0, "seeds": 0}
    real_post_init, real_init = ExchangeMatrix.__post_init__, Seed.__init__

    def counted_post_init(self):
        built["matrices"] += 1
        real_post_init(self)

    def counted_init(self, *args, **kwargs):
        built["seeds"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ExchangeMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(Seed, "__init__", counted_init)
    graph = enumerate_graph(free, 20)
    assert (graph.stats["mutations"], built) == (1287, {"matrices": 1288, "seeds": 1288})
    built.update(matrices=0, seeds=0)
    graph = enumerate_graph(principal, 20, companions=(free,))
    assert (graph.stats["mutations"], built) == (1287, {"matrices": 2 * 1288, "seeds": 2 * 1288})


def test_conflicting_back_edge_raises(a2, monkeypatch):
    # mutating the x2 side of the pentagon is made to land on the x1 side
    # with x1' in the mutated slot, so two vertices claim x1''s slot there
    root = coefficient_free_seed(a2)
    x1_side = root.mutate(1)
    x2_side = root.mutate(2).key()
    real = Seed._child

    def corrupted(self, k, exchanges, perm=None):
        if self.key() == x2_side:
            child = x1_side.permuted((0, 1) if k == 1 else (1, 0))
            perm = child.canonical_permutation() if perm is None else perm
            return child.permuted(perm), perm
        return real(self, k, exchanges, perm)

    monkeypatch.setattr(Seed, "_child", corrupted)
    with pytest.raises(ClusterMutError, match="broken exchange rule"):
        enumerate_graph(root, 10)


# -- the exchange-relation memo: differential test against uncached mutation -------


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "G2"])
def test_memo_matches_the_uncached_oracle(name, g2):
    matrix = g2 if name == "G2" else ExchangeMatrix.from_rows(FINITE_TYPES[name][0])
    for seed in (
        coefficient_free_seed(matrix),
        principal_seed(matrix),
        random_tropical_seed(matrix, matrix.n, 7),
    ):
        message, graph, _, _ = got = outcome(enumerate_graph, seed, 20)
        assert got == outcome(oracle_enumerate, seed, 20)
        assert message is None and graph.complete
        # a rank-2 graph is a cycle, whose edges each make a new variable
        assert (graph.stats["exchange_cache_hits"] > 0) == (matrix.n > 2)


@pytest.mark.parametrize("rows", [[[0, 2, -2], [-2, 0, 2], [2, -2, 0]], [[0, 3], [-3, 0]]])
def test_memo_never_hits_where_every_relation_is_new(rows):
    # the Markov and wild rank-2 exchange graphs are trees, so each cluster
    # variable is made by one edge only: distinct results force distinct keys
    graph = enumerate_graph(coefficient_free_seed(ExchangeMatrix.from_rows(rows)), 4)
    assert graph.stats["mutations"] == graph.edge_count > 0
    assert graph.stats["exchange_cache_hits"] == 0


def test_memo_interns_each_cluster_variable_once():
    # coefficient-free A4 has n(n+3)/2 = 14 cluster variables in 42 clusters
    graph = enumerate_graph(coefficient_free_seed(ExchangeMatrix.from_rows(FINITE_TYPES["A4"][0])), 20)
    assert graph.vertex_count == 42
    assert len({id(x) for seed in graph.seeds for x in seed.cluster}) == 14


def test_companions_share_the_memo_of_their_context(a3, monkeypatch):
    # a coefficient-free companion of a coefficient-free root meets only the
    # root's relations; the principal, coefficient-free and tropical seeds
    # live in three contexts and share none
    calls = []
    real = Seed._exchange

    def counted(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(Seed, "_exchange", counted)
    cases = [
        (coefficient_free_seed(a3), (), 15),
        (coefficient_free_seed(a3), (coefficient_free_seed(a3),), 15),
        (principal_seed(a3), (coefficient_free_seed(a3), random_tropical_seed(a3, 3, 1)), 45),
    ]
    for root, companions, exchanges in cases:
        calls.clear()
        graph = enumerate_graph(root, 20, companions=companions)
        assert len(calls) == exchanges
        assert (graph.vertex_count, graph.stats["mutations"], graph.stats["exchange_cache_hits"]) == (14, 21, 6)


def test_memo_divides_once_per_distinct_relation(monkeypatch):
    # A6: 1,287 edges over 126 distinct relations, as many as the
    # quadrilaterals of the 9-gon; coefficient-free, a relation is fixed by
    # the pair {x_k, x_k'} of variables it exchanges
    divisions = []
    real = Seed._exchange

    def counted(self, k):
        divisions.append(k)
        return real(self, k)

    monkeypatch.setattr(Seed, "_exchange", counted)
    rows = [[0] * 6 for _ in range(6)]
    for i in range(5):
        rows[i][i + 1], rows[i + 1][i] = 1, -1
    graph = enumerate_graph(coefficient_free_seed(ExchangeMatrix.from_rows(rows)), 20)
    relations = {
        frozenset(set(graph.seeds[u].cluster) ^ set(graph.seeds[v].cluster))
        for u, v, _ in graph.edges()
    }
    assert (graph.stats["mutations"], len(relations), len(divisions)) == (1287, 126, 126)
    assert graph.stats["exchange_cache_hits"] + len(relations) == graph.stats["mutations"]
