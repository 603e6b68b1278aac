"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every bound
is exact (no tolerances: all arithmetic is integer or rational) and each
criterion carries its wall-clock budget.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from clustermut import (
    ExchangeMatrix,
    check_adjacency,
    check_cluster_determines_seed,
    check_g_specialization,
    check_graph_coincidence,
    check_laurent,
    check_pipeline_agreement,
    check_toric_invariance,
    check_yhat_propagation,
    coefficient_free_seed,
    compatible_form_space,
    compute_toric_weights,
    enumerate_graph,
    mutate_form,
    principal_seed,
    random_nondegenerate,
    random_skew_symmetrizable,
    reduced_paths,
    validate_and_symmetrize,
    verify_compatibility,
)
from clustermut import cli
from clustermut.verify import check_joint_graph

A2 = ExchangeMatrix.from_rows([[0, 1], [-1, 0]])
B2 = ExchangeMatrix.from_rows([[0, 1], [-2, 0]])
G2 = ExchangeMatrix.from_rows([[0, 1], [-3, 0]])
A3 = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
D4 = ExchangeMatrix.from_rows([[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]])
MARKOV = ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
WILD2 = ExchangeMatrix.from_rows([[0, 3], [-3, 0]])

FINITE_TYPES = (("A2", A2), ("B2", B2), ("G2", G2), ("A3", A3))


@contextmanager
def criterion(number, description, seconds):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - t0
    if elapsed >= seconds:
        print(f"criterion {number:2d} ({description}): FAIL (took {elapsed:.1f}s, budget {seconds}s)")
        pytest.fail(f"criterion {number} exceeded its {seconds}s budget: {elapsed:.1f}s")
    print(f"criterion {number:2d} ({description}): PASS ({elapsed:.1f}s < {seconds}s)")


def finite_graphs():
    return {name: enumerate_graph(coefficient_free_seed(m), 10) for name, m in FINITE_TYPES}


def test_criterion_01_finite_type_graph_counts():
    expected = {"A2": (5, 5), "B2": (6, 6), "G2": (8, 8), "A3": (14, 21)}
    with criterion(1, "finite-type graph counts", 10):
        for name, matrix in FINITE_TYPES:
            graph = enumerate_graph(coefficient_free_seed(matrix), 10)
            assert graph.complete, name
            assert (graph.vertex_count, graph.edge_count) == expected[name], name
        a3_graph = enumerate_graph(coefficient_free_seed(A3), 10)
        assert set(a3_graph.degrees()) == {3}, "A3 graph must be 3-regular"


def test_criterion_02_cluster_determines_seed():
    with criterion(2, "cluster determines seed", 10):
        for name, graph in finite_graphs().items():
            report = check_cluster_determines_seed(graph)
            assert report.verdict == "confirmed", (name, report.witness)


def test_criterion_03_adjacency_iff_common_variables():
    with criterion(3, "adjacency iff n-1 common variables", 30):
        for name, graph in finite_graphs().items():
            report = check_adjacency(graph)
            assert report.verdict == "confirmed", (name, report.witness)


def test_criterion_04_exchange_graph_coincidence():
    with criterion(4, "coefficient independence of the graph", 60):
        for name, matrix in (("A2", A2), ("A3", A3), ("G2", G2)):
            report = check_graph_coincidence(matrix, 6)
            assert report.verdict == "confirmed", (name, report.witness)
        # the whole D4 graph, each of its 50 seeds glued alike on all sides
        report = check_graph_coincidence(D4, 12)
        assert (report.verdict, report.stats["vertices"]) == ("confirmed", 50), report.witness


def test_criterion_05_compatible_form_dimension():
    rng = random.Random(3571)
    with criterion(5, "compatible 2-form dimension", 60):
        for trial in range(50):
            n = rng.randint(2, 5)
            m = rng.randint(0, 3)
            matrix = random_skew_symmetrizable(rng, n, m, no_zero_rows=True)
            space = compatible_form_space(matrix)
            sym = validate_and_symmetrize(matrix)
            assert space.dimension == sym.rho + m * (m - 1) // 2, matrix.rows
            for form in space.basis:
                assert verify_compatibility(form, matrix) == (True, None), matrix.rows
            forms = list(space.basis)
            current = matrix
            for _ in range(6):
                k = rng.randint(1, n)
                forms = [mutate_form(f, current, k) for f in forms]
                current = current.mutate(k)
                for f in forms:
                    assert verify_compatibility(f, current) == (True, None), matrix.rows


def test_criterion_06_laurent_phenomenon_with_big_coefficients():
    with criterion(6, "Laurent phenomenon, arbitrary precision", 120):
        max_bits = 0
        for name, matrix in (("Markov", MARKOV), ("wild rank 2", WILD2)):
            report = check_laurent(coefficient_free_seed(matrix), 6)
            assert report.verdict == "confirmed", (name, report.witness)
            max_bits = max(max_bits, report.stats["max_coeff_bits"])
        assert max_bits > 64, f"depth-6 runs only reached {max_bits} coefficient bits"


def test_criterion_07_pipeline_agreement():
    rng = random.Random(90125)
    with criterion(7, "general vs geometric mutation pipelines", 10):
        for trial in range(100):
            n = rng.randint(2, 4)
            m = rng.randint(0, 3)
            matrix = random_skew_symmetrizable(rng, n, m)
            path = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
            k = rng.randint(1, n)
            report = check_pipeline_agreement(matrix, path, k)
            assert report.verdict == "confirmed", (matrix.rows, path, k, report.witness)


def test_criterion_08_yhat_propagation():
    with criterion(8, "y-hat propagation identity", 60):
        for matrix, n in ((A2, 2), (A3, 3)):
            for initial in (coefficient_free_seed(matrix), principal_seed(matrix)):
                for path in reduced_paths(n, 4):
                    report = check_yhat_propagation(initial, path)
                    assert report.verdict == "confirmed", (path, report.witness)


def test_criterion_09_g_specialization():
    with criterion(9, "G-specialization to the coefficient-free algebra", 60):
        for path in reduced_paths(3, 4):
            report = check_g_specialization(A3, path)
            assert report.verdict == "confirmed", (path, report.witness)
        (report,) = check_joint_graph(A3, 12, ("g-spec",))
        assert (report.verdict, report.stats["vertices"]) == ("confirmed", 14), report.witness


def test_criterion_10_toric_weights():
    rng = random.Random(777)
    with criterion(10, "toric weights and invariance", 30):
        for trial in range(50):
            n = rng.choice([2, 4])
            matrix = random_nondegenerate(rng, n)
            compute_toric_weights(matrix)  # asserts the kernel condition
        for path in reduced_paths(2, 4):
            report = check_toric_invariance(A2, path)
            assert report.verdict == "confirmed", (path, report.witness)
        (report,) = check_joint_graph(G2, 12, ("toric",))
        assert (report.verdict, report.stats["vertices"]) == ("confirmed", 8), report.witness


def test_criterion_11_byte_determinism(capsys):
    with criterion(11, "byte-identical repeated invocations", 10):
        def invoke(argv):
            code = cli.main(argv)
            assert code == 0
            return capsys.readouterr().out

        enum_argv = ["enumerate", "0 1 0\n-1 0 1\n0 -1 0", "--format", "json"]
        first = invoke(enum_argv)
        assert invoke(enum_argv) == first
        assert invoke(enum_argv + ["--workers", "4"]) == first

        verify_argv = ["verify", "0 1\n-3 0", "--check", "all", "--format", "json"]
        ref = invoke(verify_argv)
        assert invoke(verify_argv) == ref
        assert invoke(verify_argv + ["--workers", "2"]) == ref
        json.loads(ref)  # stays machine-readable
