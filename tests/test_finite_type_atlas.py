"""Every finite type of rank 5 or less, as whole graphs, under all six
checks, by the answers of the standalone `finite_type_atlas.py`, which runs
ranks 6 to 8; and whole E6 through `verify` and `compare_by_paths`.

Each type runs in its linear orientation and in one seeded orientation of
the same mutation class: source and sink flips, which are mutations, then a
relabelling.  The counts must not change.
"""

import json
import random
import re

import pytest

import finite_type_atlas as atlas
from clustermut import (
    ExchangeGraph, ExchangeMatrix, cli, coefficient_free_seed, compare_by_paths, enumerate_graph, principal_seed,
)
from clustermut.graph import one_sided_gluings

TYPES = [(name, b, vertices) for name, (b, vertices) in atlas.TYPES.items() if b.n <= 5]


def reoriented(b: ExchangeMatrix, rng: random.Random) -> ExchangeMatrix:
    """A few mutations at sources or sinks, which only flip the arrows
    there, then a random relabelling."""
    for _ in range(2 * b.n + 1):
        ends = [k for k in range(1, b.n + 1) if len({x > 0 for x in b.rows[k - 1] if x}) == 1]
        b = b.mutate(rng.choice(ends))
    return b.permuted(rng.sample(range(b.n), b.n))


@pytest.mark.parametrize("name, matrix, vertices", TYPES, ids=[t[0] for t in TYPES])
def test_whole_finite_type_graphs_under_all_checks(name, matrix, vertices):
    rng = random.Random(name)
    for b in (matrix, reoriented(matrix, rng)):
        assert atlas.failures(b, vertices) == [], b.rows


@pytest.mark.parametrize("name, matrix, vertices", TYPES + [("E6", *atlas.TYPES["E6"])],
                         ids=[t[0] for t in TYPES] + ["E6"])
def test_whole_graphs_round_trip_through_json(name, matrix, vertices):
    rng = random.Random(name)
    for b in (matrix, reoriented(matrix, rng)):
        graph = enumerate_graph(coefficient_free_seed(b), 64)
        assert (graph.vertex_count, graph.complete) == (vertices, True)
        data = graph.export("json")
        again = ExchangeGraph.from_json(data.decode())
        assert again == graph
        assert again.export("json") == data


def test_a_count_off_by_one_fails_the_atlas_script(monkeypatch, capsys):
    b, vertices = atlas.TYPES["B3"]
    assert atlas.main(["A2", "B3"]) == 0
    monkeypatch.setitem(atlas.TYPES, "B3", (b, vertices + 1))
    assert atlas.main(["A2", "B3", "C3"]) == 1
    out, err = capsys.readouterr()
    assert "C3" not in out
    assert err.splitlines()[0] == "failed: B3: two complete graphs of 21 vertices and 31 edges"


def test_the_graph_checks_entry_runs_one_graph_and_fails_on_a_count(monkeypatch, capsys):
    b, vertices = atlas.TYPES["B3"]
    monkeypatch.setitem(atlas.SCOPE, "B3", atlas.SCOPE["E8"])
    assert atlas.main(["B3"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(
        r"B3: 20 vertices, \d+\.\d s \(\d+ mutations, \d+ exchange cache hits in \d+\.\d\d s\)"
        r" \[adjacency \d+\.\d\d s, cluster-seed \d+\.\d\d s\]", line)
    monkeypatch.setitem(atlas.TYPES, "B3", (b, vertices + 1))
    assert atlas.main(["B3"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "failed: B3: one complete graph of 21 vertices and 31 edges",
        "failed: B3: adjacency confirmed on 21 vertices over 210 pairs",
        "failed: B3: cluster-seed confirmed on 21 vertices",
    ]


def test_whole_e6_through_verify_compare_by_paths_and_another_orientation(capsys):
    b, vertices = atlas.TYPES["E6"]
    # every E6 seed lies within 10 mutations of this one, so depth 12 reaches all
    assert cli.main(["verify", b.to_json(), "--check", "all", "--depth", "12", "--format", "json"]) == 0
    reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
    assert sorted(reports) == sorted(cli.ALL_CHECKS)
    assert {r["verdict"] for r in reports.values()} == {"confirmed"}
    # the joint quotient is the principal graph
    assert [reports[c]["stats"]["vertices"] for c in ("coincide", "g-spec", "toric")] == [vertices] * 3
    paths = compare_by_paths(principal_seed(b), coefficient_free_seed(b), 12)
    assert (paths.coincide, paths.a_covers_b, paths.b_covers_a, paths.nodes) == (True, True, True, 366210937)
    # the arrow 1 -> 2 reversed glues other pairs of paths within depth 6
    roots = (principal_seed(b), coefficient_free_seed(b.mutate(1)))
    gluings = list(one_sided_gluings(enumerate_graph(roots[0], 6, companions=roots[1:]), 0))
    assert len(gluings) == 933
    for p, q, glued in gluings[:1] + gluings[-1:]:
        # glued by the principal seed only or by the other side only, replayed from both roots
        assert [s.mutate_path(p).key() == s.mutate_path(q).key() for s in roots] == [glued, not glued]
