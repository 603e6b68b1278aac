"""Every finite type of rank 5 or less, as whole graphs, under all six
checks, by the answers of the standalone `finite_type_atlas.py`, which runs
ranks 6 to 8.

Each type runs in its linear orientation and in one seeded orientation of
the same mutation class: source and sink flips, which are mutations, then a
relabelling.  The counts must not change.
"""

import random

import pytest

import finite_type_atlas as atlas
from clustermut import ExchangeMatrix

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


def test_a_count_off_by_one_fails_the_atlas_script(monkeypatch, capsys):
    b, vertices = atlas.TYPES["B3"]
    assert atlas.main(["A2", "B3"]) == 0
    monkeypatch.setitem(atlas.TYPES, "B3", (b, vertices + 1))
    assert atlas.main(["A2", "B3", "C3"]) == 1
    out, err = capsys.readouterr()
    assert "C3" not in out
    assert err.splitlines()[0] == "failed: B3: two complete graphs of 21 vertices and 31 edges"
