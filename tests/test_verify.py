import dataclasses
import itertools
import json
import random
import re
from types import SimpleNamespace

import pytest

from clustermut import (
    ClusterMutError,
    ContextMismatch,
    ExchangeMatrix,
    LaurentPolynomial,
    NotDivisible,
    Seed,
    SubtractionFreeSemifield,
    check_adjacency,
    check_cluster_determines_seed,
    check_g_specialization,
    check_graph_coincidence,
    check_laurent,
    check_pipeline_agreement,
    check_toric_invariance,
    check_yhat_propagation,
    coefficient_free_seed,
    compare_by_paths,
    compute_toric_weights,
    enumerate_graph,
    merge_reports,
    parse_poly,
    principal_seed,
    random_nondegenerate,
    random_skew_symmetrizable,
    reduced_paths,
)
from clustermut import cli, seeds, verify
from clustermut.errors import BudgetExceeded
from clustermut.graph import LockstepResult, one_sided_gluings
from clustermut.seeds import int_det
from clustermut.verify import VerificationReport


def graph_of(matrix, depth=10):
    return enumerate_graph(coefficient_free_seed(matrix), depth)


# -- cluster determines seed -------------------------------------------------


def test_cluster_determines_seed_on_finite_types(a2, b2, g2, a3):
    for matrix in (a2, b2, g2, a3):
        report = check_cluster_determines_seed(graph_of(matrix))
        assert report.verdict == "confirmed"


def test_cluster_determines_seed_detector(a2):
    # corrupt a pentagon vertex: keep its cluster, swap in a different matrix
    g = graph_of(a2)
    victim = g.seeds[1]
    corrupted = Seed(
        g.seeds[0].matrix, victim.cluster, victim.mode, victim.semifield,
        victim.coeffs, victim.vars,
    )
    g.seeds.append(corrupted)
    g.keys.append(corrupted.key())
    g.depths.append(1)
    g.frontier.append(False)
    g.neighbors.append(dict(g.neighbors[1]))
    report = check_cluster_determines_seed(g)
    assert report.verdict == "refuted"
    assert "share cluster" in report.witness


def test_inconclusive_on_frontier(markov):
    g = enumerate_graph(coefficient_free_seed(markov), 2)
    assert check_cluster_determines_seed(g).verdict == "inconclusive"
    assert check_adjacency(g).verdict == "inconclusive"


# -- adjacency vs common variables ---------------------------------------------


def test_adjacency_on_finite_types(a2, b2, g2, a3):
    for matrix, pairs in ((a2, 10), (b2, 15), (g2, 28), (a3, 91)):
        report = check_adjacency(graph_of(matrix))
        assert report.verdict == "confirmed"
        assert report.stats["pairs"] == pairs


def test_adjacency_counts_common_variables_on_pentagon(a2):
    g = graph_of(a2)
    sets = [frozenset(c) for c in g.cluster_sets()]
    adjacent = {(u, v) for u, v, _ in g.edges()}
    for i in range(5):
        for j in range(i + 1, 5):
            common = len(sets[i] & sets[j])
            assert common == (1 if (i, j) in adjacent else 0)


def test_b2_antipodal_clusters_disjoint(b2):
    g = graph_of(b2)
    sets = [frozenset(c) for c in g.cluster_sets()]
    adjacency = {i: set() for i in range(6)}
    for u, v, _ in g.edges():
        adjacency[u].add(v)
        adjacency[v].add(u)
    # hexagon distances by BFS; antipodal = distance 3, sharing nothing
    for start in range(6):
        dist = {start: 0}
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        antipodes = [v for v, d in dist.items() if d == 3]
        assert len(antipodes) == 1
        assert not sets[start] & sets[antipodes[0]]
    # every variable lives in exactly two clusters, so non-neighbors share none
    disjoint = sum(1 for i in range(6) for j in range(i + 1, 6) if not sets[i] & sets[j])
    assert disjoint == 9


def test_adjacency_refutes_a_deleted_edge(a3):
    g = graph_of(a3)
    u, v, _ = g.edges()[0]
    for x, y in ((u, v), (v, u)):
        g.neighbors[x] = {k: w for k, w in g.neighbors[x].items() if w != y}
    report = check_adjacency(g)
    assert report.verdict == "refuted"
    assert report.witness == f"vertices {u}, {v}: 2 common variables, edge absent"


# -- coefficient independence ----------------------------------------------------


def test_coincidence_a2_g2(a2, g2):
    assert check_graph_coincidence(a2, 6).verdict == "confirmed"
    r = check_graph_coincidence(g2, 10)
    assert r.verdict == "confirmed"
    assert r.stats["nondegenerate"] is True


def test_coincidence_records_degenerate_instances(a3):
    r = check_graph_coincidence(a3, 5)
    assert r.verdict == "confirmed"
    assert r.stats["nondegenerate"] is False


def glued_on_one_side_only(witness, b, sides) -> bool:
    """Replay the two paths of a coincide witness from the principal seed
    and from the side it names: exactly one of them glues the paths."""
    name, p, q = re.fullmatch(
        r"principal vs (\S+): paths \[([\d, ]*)\] and \[([\d, ]*)\] glued on one side only", witness
    ).groups()
    p, q = (tuple(int(k) for k in text.split(", ") if k) for text in (p, q))
    glued = [s.mutate_path(p).key() == s.mutate_path(q).key() for s in (principal_seed(b), sides[name])]
    return glued[0] != glued[1]


def test_coincidence_refutes_an_unglued_other_side(a2, monkeypatch):
    # the coefficient-free graph of [[0, 2], [-2, 0]] is a tree, so the
    # pentagon closes on the principal side only
    doubled = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
    real = verify.coefficient_free_seed
    monkeypatch.setattr(verify, "coefficient_free_seed", lambda _b: real(doubled))
    report = check_graph_coincidence(a2, 6)
    assert report.verdict == "refuted"
    assert report.witness == (
        "principal vs coefficient-free: paths [2, 1, 2] and [1, 2] glued on one side only"
    )
    assert glued_on_one_side_only(report.witness, a2, {"coefficient-free": real(doubled)})


def test_coincidence_refutes_a_side_that_glues_more(monkeypatch):
    # the principal graph of [[0, 3], [-3, 0]] is a tree, while a
    # coefficient-free side of A2 closes its pentagon: two vertices store
    # equivalent coefficient-free seeds
    wild, a2 = ExchangeMatrix.from_rows([[0, 3], [-3, 0]]), ExchangeMatrix.from_rows([[0, 1], [-1, 0]])
    real = verify.coefficient_free_seed
    monkeypatch.setattr(verify, "coefficient_free_seed", lambda _b: real(a2))
    report = check_graph_coincidence(wild, 3)
    assert report.verdict == "refuted"
    assert report.witness == (
        "principal vs coefficient-free: paths [2, 1, 2] and [1, 2] glued on one side only"
    )
    assert glued_on_one_side_only(report.witness, wild, {"coefficient-free": real(a2)})


# The coincide check before its walk was shared: one lockstep walk per
# coefficient side, each over a list of the whole tree, kept as the oracle.
# Its roots come from verify's own names, so a corruption patched there
# reaches the oracle and the check alike.


def oracle_tree(n, depth, roots):
    nodes = [((), roots)]
    for path, seeds in nodes:
        if len(path) < depth:
            last = path[-1] if path else 0
            for k in range(1, n + 1):
                if k != last:
                    nodes.append((path + (k,), tuple(s.mutate(k) for s in seeds)))
    return nodes


def oracle_compare_by_paths(a, b, depth):
    nodes = oracle_tree(a.n, depth, (a, b))
    first_a, first_b, labels_a, labels_b = {}, {}, [], []
    for v, (_, (sa, sb)) in enumerate(nodes):
        labels_a.append(first_a.setdefault(sa.key(), v))
        labels_b.append(first_b.setdefault(sb.key(), v))
    divergence = None
    coincide = a_covers_b = b_covers_a = True
    for v in range(len(nodes)):
        la, lb = labels_a[v], labels_b[v]
        if la != lb and coincide:
            coincide = False
            divergence = (nodes[v][0], nodes[min(la, lb)][0])
        if labels_b[la] != labels_b[v]:
            a_covers_b = False
        if labels_a[lb] != labels_a[v]:
            b_covers_a = False
    return LockstepResult(coincide, divergence, len(nodes), a_covers_b, b_covers_a)


def oracle_coincidence(matrix, depth, rng_seed=0):
    b = matrix.principal()
    det = int_det(b.rows)
    instance = f"B={b.to_json()} depth={depth} det={det}"
    pr = verify.principal_seed(b)
    stats = {"nondegenerate": det != 0, "nodes": 0}
    for name, other in oracle_sides(b, rng_seed).items():
        result = oracle_compare_by_paths(pr, other, depth)
        stats["nodes"] += result.nodes
        stats[f"covers:{name}"] = result.a_covers_b
        if not result.coincide:
            witness = (
                f"principal vs {name}: paths {list(result.divergence[0])} and "
                f"{list(result.divergence[1])} glued on one side only"
            )
            return VerificationReport("coincide", instance, "refuted", witness, stats)
    return VerificationReport("coincide", instance, "confirmed", None, stats)


def oracle_sides(b, rng_seed):
    return {
        "coefficient-free": verify.coefficient_free_seed(b),
        "random-tropical": verify.random_tropical_seed(b, b.n, rng_seed),
    }


def test_compare_by_paths_matches_the_tree_oracle(rng):
    # every ordered pair of principal, coefficient-free, rank-n and rank-1
    # tropical seeds, on seeded random rank-2 and rank-3 matrices (max_entry
    # 1: the default drew [[0, -6], [4, 0]], 11 s at depth 4), the zero 2x2
    # and wild rank 2.  divergence is compared only through coincide: the
    # oracle names the first tree node whose labels part, the joint graph
    # the first pair that it replays
    cases = [(random_skew_symmetrizable(rng, 2, max_entry=1), 4) for _ in range(4)]
    cases += [(random_skew_symmetrizable(rng, 3, max_entry=1), 3) for _ in range(3)]
    cases += [(ExchangeMatrix.from_rows([[0, 0], [0, 0]]), 4), (ExchangeMatrix.from_rows([[0, 3], [-3, 0]]), 4)]
    for rng_seed, (b, depth) in enumerate(cases):
        seeds_ = (
            principal_seed(b), coefficient_free_seed(b),
            verify.random_tropical_seed(b, b.n, rng_seed), verify.random_tropical_seed(b, 1, rng_seed),
        )
        for x, y in itertools.product(seeds_, repeat=2):
            got, want = compare_by_paths(x, y, depth), oracle_compare_by_paths(x, y, depth)
            assert dataclasses.replace(got, divergence=None) == dataclasses.replace(want, divergence=None)
            assert (got.divergence is None) == got.coincide


def test_covers_are_exact_for_seeds_of_different_matrices():
    # one_sided_gluings on the joint graph of seeds of two seeded random
    # matrices, which compare_by_paths refuses: principal, coefficient-free
    # and rank-1 tropical seeds of one against coefficient-free, rank-n
    # tropical and principal seeds of the other.  In draws 2, 4 and 9 the
    # two seeds glue paths differently, and the covers read off the joint
    # quotient must still be those of the tree walk
    rng = random.Random(7)
    for draw in range(10):
        n, depth = (2, 4) if draw % 2 == 0 else (3, 3)
        b, other = random_skew_symmetrizable(rng, n, max_entry=1), random_skew_symmetrizable(rng, n, max_entry=1)
        firsts = (principal_seed(b), coefficient_free_seed(b), verify.random_tropical_seed(b, 1, draw))
        seconds = (
            coefficient_free_seed(other), verify.random_tropical_seed(other, n, draw), principal_seed(other),
        )
        for x, y in itertools.product(firsts, seconds):
            graph = enumerate_graph(x, depth, companions=(y,))
            by_x = [glued for _, _, glued in one_sided_gluings(graph, 0)]
            want = oracle_compare_by_paths(x, y, depth)
            assert (not by_x, not any(by_x), all(by_x)) == (want.coincide, want.a_covers_b, want.b_covers_a)


def test_one_sided_gluings_read_the_joint_graph_without_mutating(monkeypatch):
    # principal D5 (1 -> 2 -> 3 -> 4, 3 -> 5) against a coefficient-free
    # side with the arrow 1 -> 2 reversed, at depth 6: 485 vertices.  Each
    # pair is decided by the keys the graph stores and named by its stored
    # paths, so nothing is mutated, yet the pairs replay from both roots
    rows = [[0] * 5 for _ in range(5)]
    for a, b in ((1, 2), (2, 3), (3, 4), (3, 5)):
        rows[a - 1][b - 1], rows[b - 1][a - 1] = 1, -1
    d5 = ExchangeMatrix.from_rows(rows)
    roots = (principal_seed(d5), coefficient_free_seed(d5.mutate(1)))
    graph = enumerate_graph(roots[0], 6, companions=roots[1:])
    calls = []
    real = Seed._child

    def counted(self, k, exchanges, perm=None):
        calls.append(k)
        return real(self, k, exchanges, perm)

    monkeypatch.setattr(Seed, "_child", counted)
    pairs = list(one_sided_gluings(graph, 0))
    assert (graph.vertex_count, len(pairs), len(calls)) == (485, 625, 0)
    monkeypatch.undo()
    p, q, glued = pairs[0]
    assert (p, q, glued) == ((2, 1, 3), (2, 3, 1), False)
    assert [s.mutate_path(p).key() == s.mutate_path(q).key() for s in roots] == [False, True]


ALT_A3 = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, -1], [0, 1, 0]])


def test_coincidence_matches_the_two_walk_oracle(rng, monkeypatch):
    # each matrix as built, then with the coefficient-free or the tropical
    # side built from the other matrix of its pair, then with one toric
    # weight entry off by one; the joint walk refutes exactly when the
    # oracle of each check does.  Random rank 4 stops at depth 3: one such
    # matrix took 89 s at depth 4.
    def pair(n, depth):
        return random_nondegenerate(rng, n, max_entry=1), random_nondegenerate(rng, n, max_entry=1), depth

    cases = [pair(2, 4) for _ in range(4)] + [pair(4, 3) for _ in range(2)] + [
        (ALT_A3, ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]), 4),
        (ExchangeMatrix.from_rows([[0, 1], [-3, 0]]), ExchangeMatrix.from_rows([[0, 1], [-2, 0]]), 4),
        (ExchangeMatrix.from_rows([[0, 1], [-1, 0]]), ExchangeMatrix.from_rows([[0, 2], [-2, 0]]), 4),
        (ExchangeMatrix.from_rows([[0, 3], [-3, 0]]), ExchangeMatrix.from_rows([[0, 1], [-1, 0]]), 4),
    ]
    real_cf, real_tropical = verify.coefficient_free_seed, verify.random_tropical_seed
    verdicts = set()
    for rng_seed, (b, other, depth) in enumerate(cases):
        for corruption in (None, "coefficient-free", "random-tropical", "weights"):
            if corruption == "coefficient-free":
                monkeypatch.setattr(verify, "coefficient_free_seed", lambda _b: real_cf(other))
            if corruption == "random-tropical":
                monkeypatch.setattr(
                    verify, "random_tropical_seed", lambda _b, rank, s: real_tropical(other, rank, s)
                )
            if corruption == "weights":
                if not int_det(b.rows):
                    continue
                bad = off_by_one(b, rng)
                monkeypatch.setattr(verify, "compute_toric_weights", lambda _b: bad)
            got = assert_joint_matches_per_path(b, depth, ("coincide", "g-spec", "toric"), rng_seed)
            verdicts |= {(corruption, check, verdict) for check, verdict in got.items()}
            monkeypatch.undo()
    assert {
        (None, "coincide", "confirmed"), (None, "g-spec", "confirmed"), (None, "toric", "confirmed"),
        ("coefficient-free", "coincide", "refuted"), ("coefficient-free", "g-spec", "refuted"),
        ("random-tropical", "coincide", "refuted"), ("weights", "toric", "refuted"),
    } <= verdicts


# -- G-specialization ---------------------------------------------------------------


def test_g_specialization_empty_path(a2):
    assert check_g_specialization(a2, ()).verdict == "confirmed"


def test_g_specialization_hand_value(a2):
    pr = principal_seed(a2).mutate(1)
    images = [LaurentPolynomial.variable(pr.vars, i) for i in range(2)] + [
        LaurentPolynomial.one(pr.vars)
    ] * 2
    specialized = pr.cluster[0].substitute(images).as_polynomial()
    assert specialized == parse_poly(pr.vars, "x1^-1*x2 + x1^-1")
    assert check_g_specialization(a2, (1,)).verdict == "confirmed"


def test_g_specialization_all_short_paths(a3):
    for path in reduced_paths(3, 3):
        assert check_g_specialization(a3, path).verdict == "confirmed"


# -- toric invariance ------------------------------------------------------------------


def test_toric_empty_path_scales_by_own_weights(a2):
    weights = compute_toric_weights(a2)
    seed = principal_seed(a2, extra_vars=("t1", "t2"))
    report = check_toric_invariance(a2, ())
    assert report.verdict == "confirmed"
    # the ratio for x_i is exactly prod_j t_j^{w^j_i}
    width = len(seed.vars)
    images = []
    for i in range(width):
        exps = [0] * width
        exps[i] = 1
        if i < 2:
            for j in range(2):
                exps[4 + j] += weights[j][i]
        elif i < 4:
            exps[4 + (i - 2)] += -1  # det(B) = 1
        images.append(LaurentPolynomial.monomial(seed.vars, exps))
    for i in range(2):
        ratio = seed.cluster[i].substitute(images).as_polynomial().exact_div(seed.cluster[i])
        (exps, coeff), = ratio.terms.items()
        assert coeff == 1
        assert exps[4:] == (weights[0][i], weights[1][i])


def test_toric_weights_raise_on_a_broken_kernel_condition(monkeypatch):
    # compute_toric_weights is cached, so use a matrix no other test weighs
    b = ExchangeMatrix.from_rows([[0, 9], [-4, 0]])
    monkeypatch.setattr(seeds, "int_adjugate", lambda rows: [[1, 0], [0, 1]])
    with pytest.raises(ClusterMutError, match="kernel condition failed for weight vector 1"):
        compute_toric_weights(b)


def test_toric_invariance_paths(a2):
    for path in reduced_paths(2, 4):
        assert check_toric_invariance(a2, path).verdict == "confirmed"


# -- the substitution oracle ------------------------------------------------------------
#
# The checks read g-specialization and toric invariance off exponent vectors.
# These oracles compose Laurent fractions instead: they substitute the images
# of the initial extended cluster and, for the toric action, divide back.


def oracle_g_spec(b, path, cf_matrix):
    """Witness text of the first variable whose specialization differs from
    the coefficient-free one built from cf_matrix, or None."""
    pr = principal_seed(b).mutate_path(path)
    cf = coefficient_free_seed(cf_matrix).mutate_path(path)
    one = LaurentPolynomial.one(pr.vars)
    images = [
        LaurentPolynomial.variable(pr.vars, i) if i < b.n else one for i in range(2 * b.n)
    ]
    for i in range(b.n):
        specialized = pr.cluster[i].substitute(images).as_polynomial()
        expected = cf.cluster[i].with_vars(pr.vars)
        if specialized != expected:
            return f"variable {i + 1}: {specialized} != {expected}"
    return None


def oracle_toric(b, path, weights) -> bool:
    """Substitute x_i -> x_i * prod_j t_j^{w^j_i} with t1..tn adjoined, divide
    by the original value and ask for a coefficient-1 monomial in the t."""
    n = b.n
    seed = principal_seed(b, extra_vars=tuple(f"t{j}" for j in range(1, n + 1)))
    seed = seed.mutate_path(path)
    images = []
    for i in range(3 * n):
        exps = [0] * (3 * n)
        exps[i] = 1
        if i < 2 * n:
            for j in range(n):
                exps[2 * n + j] += weights[j][i]
        images.append(LaurentPolynomial.monomial(seed.vars, exps))
    for x in seed.cluster:
        try:
            ratio = x.substitute(images).as_polynomial().exact_div(x)
        except NotDivisible:
            return False
        if not ratio.is_monomial():
            return False
        (exps, coeff), = ratio.terms.items()
        if coeff != 1 or any(exps[: 2 * n]):
            return False
    return True


def random_reduced_path(rng, n, length):
    path = []
    while len(path) < length:
        k = rng.randint(1, n)
        if not path or k != path[-1]:
            path.append(k)
    return tuple(path)


@pytest.mark.parametrize("n, instances", [(2, 60), (4, 20)])
def test_checks_agree_with_substitution_oracle(n, instances, rng, monkeypatch):
    toric_verdicts = set()
    g_spec_verdicts = set()
    for _ in range(instances):
        b = random_nondegenerate(rng, n, max_entry=1)
        path = random_reduced_path(rng, n, rng.randint(0, 3))
        weights = compute_toric_weights(b)
        assert oracle_toric(b, path, weights)
        assert check_toric_invariance(b, path).verdict == "confirmed"
        assert oracle_g_spec(b, path, b) is None
        assert check_g_specialization(b, path).verdict == "confirmed"

        # one weight entry off by one: the verdicts must still agree
        bad = [list(w) for w in weights]
        bad[rng.randrange(n)][rng.randrange(2 * n)] += rng.choice((-1, 1))
        bad = tuple(tuple(w) for w in bad)
        monkeypatch.setattr(verify, "compute_toric_weights", lambda _b: bad)
        report = check_toric_invariance(b, path)
        assert report.verdict == ("confirmed" if oracle_toric(b, path, bad) else "refuted")
        toric_verdicts.add(report.verdict)

        # the coefficient-free side built from another matrix
        other = random_nondegenerate(rng, n, max_entry=1)
        monkeypatch.setattr(verify, "coefficient_free_seed", lambda _b: coefficient_free_seed(other))
        report = check_g_specialization(b, path)
        assert report.witness == oracle_g_spec(b, path, other)
        assert report.verdict == ("confirmed" if report.witness is None else "refuted")
        g_spec_verdicts.add(report.verdict)
        monkeypatch.undo()
    assert toric_verdicts == g_spec_verdicts == {"confirmed", "refuted"}


def test_g_specialization_adds_terms_that_meet():
    # alternating A3 is degenerate: at the end of 1,2,3, two terms of x3 differ
    # only in their stable exponents and specialize onto one monomial
    b = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, -1], [0, 1, 0]])
    assert "2*x1^-1*x3^-1" in str(coefficient_free_seed(b).mutate_path((1, 2, 3)).cluster[2])
    assert oracle_g_spec(b, (1, 2, 3), b) is None
    assert check_g_specialization(b, (1, 2, 3)).verdict == "confirmed"


def test_toric_refutes_corrupted_weights(a2, monkeypatch, capsys):
    real = verify.compute_toric_weights

    def corrupted(b):
        # the x3 entry of w^1: the exchange binomial x2*x3 + 1 of direction 1
        # is no longer homogeneous
        weights = [list(w) for w in real(b)]
        weights[0][b.n] += 1
        return tuple(tuple(w) for w in weights)

    monkeypatch.setattr(verify, "compute_toric_weights", corrupted)
    # a single-term variable is homogeneous under any weights
    assert check_toric_invariance(a2, ()).verdict == "confirmed"
    report = check_toric_invariance(a2, (1,))
    assert report.verdict == "refuted"
    witness = "variable 1: terms of weight degrees (0, 1) and (1, 1)"
    assert report.witness == witness
    assert cli.main(["verify", "0 1;-1 0", "--check", "toric"]) == cli.EXIT_REFUTED
    assert capsys.readouterr().out == f"toric: refuted [{witness}]\n"


def test_g_specialization_refutes_other_coefficient_free_matrix(a2, monkeypatch, capsys):
    doubled = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
    real = verify.coefficient_free_seed
    monkeypatch.setattr(verify, "coefficient_free_seed", lambda _b: real(doubled))
    assert check_g_specialization(a2, ()).verdict == "confirmed"
    report = check_g_specialization(a2, (1,))
    assert report.verdict == "refuted"
    assert report.witness == "variable 1: x1^-1*x2 + x1^-1 != x1^-1*x2^2 + x1^-1"
    # verify's walk meets path [2] first: x2 leads the root's canonical order
    report = check_g_specialization(a2, (2,))
    witness = "variable 2: x1*x2^-1 + x2^-1 != x1^2*x2^-1 + x2^-1"
    assert report.witness == witness
    assert cli.main(["verify", "0 1;-1 0", "--check", "g-spec"]) == cli.EXIT_REFUTED
    assert capsys.readouterr().out == f"g-spec: refuted [{witness}]\n"


def test_g_specialization_stops_at_a_side_that_breaks_the_involution(a2, monkeypatch, capsys):
    # the coefficient-free seed of vertex 3, mutated at its slot 1, gets its
    # new variable negated; mutating back does not undo that, so the joint
    # enumeration finds two vertices claiming one direction of vertex 3
    graph = enumerate_graph(principal_seed(a2), 6, companions=(coefficient_free_seed(a2),))
    (stored,) = graph.companions[3]
    real = Seed._child

    def corrupted(self, k, exchanges, perm=None):
        child, perm = real(self, k, exchanges, perm)
        # the coefficient-free seed of vertex 3, in any slot order, mutated at stored's slot 1
        at_vertex_3 = self.mode == "general" and set(self.cluster) == set(stored.cluster)
        if at_vertex_3 and self.cluster[k - 1] == stored.cluster[0]:
            # the child's slot holding the new variable
            j = perm.index(k - 1)
            cluster = list(child.cluster)
            cluster[j] = -cluster[j]
            child = dataclasses.replace(child, cluster=tuple(cluster))
        return child, perm

    monkeypatch.setattr(Seed, "_child", corrupted)
    message = "broken exchange rule: vertices 5 and 4 both reach vertex 3 through its direction 1"
    with pytest.raises(ClusterMutError, match=message):
        enumerate_graph(principal_seed(a2), 6, companions=(coefficient_free_seed(a2),))
    with pytest.raises(ClusterMutError, match=message):
        verify.check_joint_graph(a2, 6, ("g-spec",))
    per_path = check_g_specialization(a2, (2, 1, 2))
    assert per_path.verdict == "refuted"
    assert per_path.witness == "variable 2: x1^-1*x2 + x1^-1 != -x1^-1*x2 - x1^-1"
    assert cli.main(["verify", "0 1;-1 0", "--check", "g-spec"]) == cli.EXIT_REFUTED
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "check, corrupt, per_path, message",
    [
        ("g-spec", "coefficient_free_seed", "check_g_specialization",
         "g-spec: vertex 1 fails the check, but path [2] replays confirmed"),
        ("toric", "compute_toric_weights", "check_toric_invariance",
         "toric: vertex 2 fails the check, but path [1] replays confirmed"),
    ],
)
def test_a_vertex_the_graph_flags_but_its_path_does_not_refute_raises(
    a2, check, corrupt, per_path, message, monkeypatch, capsys
):
    # the side or the weights are corrupted, so the whole-graph scan flags
    # vertices; the per-path check, patched to confirm, stands in for a
    # replay that disagrees with the graph, which must not read as confirmed
    real = getattr(verify, corrupt)

    def corrupted(b):
        if corrupt == "coefficient_free_seed":
            return real(ExchangeMatrix.from_rows([[0, 2], [-2, 0]]))
        # the x3 entry of w^1, as in test_toric_refutes_corrupted_weights
        first, *rest = real(b)
        return (first[:b.n] + (first[b.n] + 1,) + first[b.n + 1:], *rest)

    monkeypatch.setattr(verify, corrupt, corrupted)
    monkeypatch.setattr(verify, per_path, lambda b, path: VerificationReport(check, "stand-in", "confirmed"))
    with pytest.raises(ClusterMutError, match=re.escape(message)):
        verify.check_joint_graph(a2, 6, [check])
    assert cli.main(["verify", "0 1;-1 0", "--check", check]) == cli.EXIT_REFUTED
    assert capsys.readouterr() == ("", f"error: {message}\n")


# -- one joint enumeration for coincide, g-spec and toric ----------------------------


def report_fields(reports):
    return [(r.check, r.instance, r.verdict, r.witness, r.stats) for r in reports]


PER_PATH = {"g-spec": check_g_specialization, "toric": check_toric_invariance}


def joint_classes(b, depth, sides):
    """The number of classes of reduced paths up to depth, two paths in one
    class when the principal seed glues them and every side, aligned slot by
    slot with it, arrives as the same seed: the vertices of the joint
    quotient, at least as many as the principal graph has."""
    classes = set()
    for _, (pr, *rest) in oracle_tree(b.n, depth, (principal_seed(b), *sides)):
        perm = pr.canonical_permutation()
        classes.add((pr.key(), tuple(s.permuted(perm) for s in rest)))
    return len(classes)


def assert_joint_matches_per_path(b, depth, checks, rng_seed=0):
    """check_joint_graph against the per-path checks over every reduced
    path up to depth, and coincide against oracle_coincidence: each
    refutes exactly when its oracle does.  A refuted g-spec or toric report
    is the per-path report of a path up to depth, and a coincide witness
    replays.  A vertex count is that of the joint quotient, which is the
    principal graph's unless a corrupted side glues otherwise.  Returns the
    verdict of each check."""
    joint = {r.check: r for r in verify.check_joint_graph(b, depth, checks, rng_seed)}
    sides = [verify.coefficient_free_seed(b)] if {"coincide", "g-spec"} & set(checks) else []
    if "coincide" in checks:
        sides.append(verify.random_tropical_seed(b, b.n, rng_seed))
    assert sorted(joint) == sorted(checks)
    for check, report in joint.items():
        if check == "coincide":
            refuted = oracle_coincidence(b, depth, rng_seed).verdict == "refuted"
            assert refuted == (report.verdict == "refuted")
            if refuted:
                assert glued_on_one_side_only(report.witness, b, oracle_sides(b, rng_seed))
            continue
        if check == "toric" and not int_det(b.rows):
            assert report.witness == "det B = 0: nondegeneracy hypothesis unmet"
            continue
        per_path = [PER_PATH[check](b, path) for path in reduced_paths(b.n, depth)]
        assert any(r.verdict == "refuted" for r in per_path) == (report.verdict == "refuted")
        if report.verdict == "refuted":
            path = tuple(json.loads(report.instance.rsplit(" path=", 1)[1]))
            assert len(path) <= depth
            assert report_fields([report]) == report_fields([PER_PATH[check](b, path)])
        else:
            assert report.stats["vertices"] == joint_classes(b, depth, sides) >= len(graph_of(b, depth).seeds)
    return {check: r.verdict for check, r in joint.items()}


def off_by_one(b, rng):
    """The toric weights of b with one entry moved by one."""
    bad = [list(w) for w in compute_toric_weights(b)]
    bad[rng.randrange(b.n)][rng.randrange(2 * b.n)] += rng.choice((-1, 1))
    return tuple(tuple(w) for w in bad)


@pytest.mark.parametrize("n, depth", [(2, 5), (4, 3)])
def test_path_tree_matches_per_path_checks(n, depth, rng, monkeypatch):
    corrupted = set()
    for _ in range(4):
        b = random_nondegenerate(rng, n, max_entry=1)
        for checks in (["g-spec", "toric"], ["toric"], ["g-spec"]):
            verdicts = assert_joint_matches_per_path(b, depth, checks).values()
            assert set(verdicts) <= {"confirmed", "inconclusive"}

        bad = off_by_one(b, rng)
        monkeypatch.setattr(verify, "compute_toric_weights", lambda _b: bad)
        corrupted |= set(assert_joint_matches_per_path(b, depth, ["g-spec", "toric"]).values())
        monkeypatch.undo()

        # the coefficient-free side built from another matrix
        other = random_nondegenerate(rng, n, max_entry=1)
        monkeypatch.setattr(verify, "coefficient_free_seed", lambda _b: coefficient_free_seed(other))
        corrupted |= set(assert_joint_matches_per_path(b, depth, ["g-spec", "toric"]).values())
        monkeypatch.undo()
    assert "refuted" in corrupted


def test_path_tree_matches_per_path_checks_on_degenerate_a3(monkeypatch):
    # the farthest seeds of alternating A3 are 4 mutations away, so depth 4
    # leaves them unexpanded
    assert assert_joint_matches_per_path(ALT_A3, 4, ["g-spec", "toric"]) == {
        "g-spec": "inconclusive", "toric": "inconclusive",
    }
    other = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    monkeypatch.setattr(verify, "coefficient_free_seed", lambda _b: coefficient_free_seed(other))
    assert assert_joint_matches_per_path(ALT_A3, 4, ["g-spec"]) == {"g-spec": "refuted"}


D4 = ExchangeMatrix.from_rows([[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]])
A4 = ExchangeMatrix.from_rows([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]])


@pytest.mark.parametrize(
    "name, matrix, vertices, toric",
    [
        ("A3", ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]), 14, "inconclusive"),
        # D4 has rank 2 (its star has no perfect matching), A4 and G2 full rank
        ("D4", D4, 50, "inconclusive"),
        ("A4", A4, 42, "confirmed"),
        ("G2", ExchangeMatrix.from_rows([[0, 1], [-3, 0]]), 8, "confirmed"),
    ],
)
def test_whole_graph_verdicts_on_finite_types(name, matrix, vertices, toric):
    reports = verify.check_joint_graph(matrix, 12, ("coincide", "g-spec", "toric"))
    assert [(r.check, r.verdict) for r in reports] == [
        ("coincide", "confirmed"), ("g-spec", "confirmed"), ("toric", toric),
    ]
    confirmed = toric == "confirmed"
    assert [r.stats.get("vertices") for r in reports] == [vertices, vertices, vertices if confirmed else None]
    assert reports[2].witness == (None if confirmed else "det B = 0: nondegeneracy hypothesis unmet")


@pytest.mark.parametrize(
    "matrix, depth",
    [
        (ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]), 3),
        (ExchangeMatrix.from_rows([[0, 3], [-3, 0]]), 4),
    ],
)
def test_whole_graph_verdicts_are_inconclusive_at_the_frontier(matrix, depth):
    for report in verify.check_joint_graph(matrix, depth, ("coincide", "g-spec", "toric")):
        assert report.verdict == "inconclusive"
        assert report.witness in (
            "frontier hit; enumeration incomplete", "det B = 0: nondegeneracy hypothesis unmet",
        )


@pytest.mark.parametrize("depth, mutations", [(4, 252), (5, 336), (6, 336)])
def test_verify_all_enumerates_two_graphs(depth, mutations, monkeypatch, capsys):
    # A4: the coefficient-free enumeration computes each graph edge it
    # reaches once (63, then all 84 of them), and the joint one mutates the
    # principal, coefficient-free and random tropical seeds once per edge
    calls = []
    real = Seed._child

    def counted(self, k, exchanges, perm=None):
        calls.append(k)
        return real(self, k, exchanges, perm)

    enumerations = []
    real_enumerate = verify.enumerate_graph

    def counted_enumerate(*args, **kwargs):
        enumerations.append(args)
        return real_enumerate(*args, **kwargs)

    monkeypatch.setattr(Seed, "_child", counted)
    monkeypatch.setattr(cli, "enumerate_graph", counted_enumerate)
    monkeypatch.setattr(verify, "enumerate_graph", counted_enumerate)
    a4 = "0 1 0 0;-1 0 1 0;0 -1 0 1;0 0 -1 0"
    assert cli.main(["verify", a4, "--depth", str(depth)]) == cli.EXIT_OK
    assert (len(calls), len(enumerations)) == (mutations, 2)
    assert "refuted" not in capsys.readouterr().out


def test_path_checks_mutate_each_tree_edge_once(monkeypatch, capsys):
    # A4 to depth 4 computes 63 edges: g-spec mutates the principal and
    # coefficient-free seeds along each, toric only the principal one
    calls = []
    real = Seed._child

    def counted(self, k, exchanges, perm=None):
        calls.append(k)
        return real(self, k, exchanges, perm)

    monkeypatch.setattr(Seed, "_child", counted)
    verify.check_joint_graph(A4, 4, ["g-spec", "toric"])
    assert len(calls) == 126
    for check, count in (("g-spec", 126), ("toric", 63)):
        calls.clear()
        assert cli.main(["verify", A4.to_json(), "--check", check, "--depth", "4"]) == cli.EXIT_OK
        assert len(calls) == count
    assert capsys.readouterr().out == (
        "g-spec: inconclusive [frontier hit; enumeration incomplete]\n"
        "toric: inconclusive [frontier hit; enumeration incomplete]\n"
    )


def test_joint_graph_bounds_the_terms_it_stores(a3):
    # g-spec stores the principal and coefficient-free seed of each vertex
    graph = enumerate_graph(principal_seed(a3), 3, companions=(coefficient_free_seed(a3),))
    stored = sum(
        len(p.terms)
        for pr, sides in zip(graph.seeds, graph.companions) for s in (pr, *sides) for p in s.cluster
    )
    (report,) = verify.check_joint_graph(a3, 3, ["g-spec"], max_terms=stored)
    assert report.verdict == "inconclusive"
    with pytest.raises(BudgetExceeded, match=rf"^term budget {stored - 1} exhausted$"):
        verify.check_joint_graph(a3, 3, ["g-spec"], max_terms=stored - 1)


def test_every_check_reports_the_seconds_it_took(a2, monkeypatch):
    # a clock that ticks once per reading: a report that was not timed keeps 0.0
    ticks = itertools.count()
    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    graph = graph_of(a2)
    extended = ExchangeMatrix.from_rows([[0, 1, 1], [-1, 0, 1]], 1)
    reports = [
        check_cluster_determines_seed(graph),
        check_adjacency(graph),
        check_graph_coincidence(a2, 3),
        check_g_specialization(a2, (1, 2)),
        check_toric_invariance(a2, (1, 2)),
        check_laurent(coefficient_free_seed(a2), 3),
        check_laurent(coefficient_free_seed(a2), 3, max_vertices=1),
        check_yhat_propagation(principal_seed(a2), (1, 2)),
        check_pipeline_agreement(extended, (1,), 2),
    ]
    reports += verify.check_joint_graph(a2, 2, ["coincide", "g-spec", "toric"])
    reports += verify.run_checks(a2, coefficient_free_seed(a2), 3, cli.ALL_CHECKS)
    assert all(isinstance(r.seconds, float) and r.seconds > 0 for r in reports)


# -- Laurent check -----------------------------------------------------------------------


def test_laurent_markov(markov):
    report = check_laurent(coefficient_free_seed(markov), 5)
    assert report.verdict == "confirmed"
    assert report.stats["vertices"] == 94


def test_laurent_budget_is_inconclusive(markov):
    report = check_laurent(coefficient_free_seed(markov), 6, max_vertices=10)
    assert report.verdict == "inconclusive"


def test_laurent_refutes_an_injected_division_failure(a2, monkeypatch, capsys):
    real = Seed._exchange

    def failing(self, k):
        # from depth 2 on, a relation has a factor that is not a monomial
        if not all(x.is_monomial() for x in self.cluster):
            raise NotDivisible("injected: leading monomial not divisible")
        return real(self, k)

    monkeypatch.setattr(Seed, "_exchange", failing)
    report = check_laurent(coefficient_free_seed(a2), 1)
    assert report.verdict == "confirmed"
    report = check_laurent(coefficient_free_seed(a2), 2)
    assert report.verdict == "refuted"
    assert report.witness == "injected: leading monomial not divisible"
    assert cli.main(["verify", "0 1;-1 0", "--check", "laurent"]) == cli.EXIT_REFUTED
    assert capsys.readouterr().out == f"laurent: refuted [{report.witness}]\n"


# -- y-hat propagation ---------------------------------------------------------------------


def test_yhat_propagation_a2_paths(a2):
    cf = coefficient_free_seed(a2)
    pr = principal_seed(a2)
    for path in reduced_paths(2, 5):
        assert check_yhat_propagation(cf, path).verdict == "confirmed"
    for path in reduced_paths(2, 3):
        assert check_yhat_propagation(pr, path).verdict == "confirmed"


def test_yhat_refutes_a_pattern_of_another_matrix(a2, monkeypatch):
    doubled = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
    real = verify.mutate_coefficients
    monkeypatch.setattr(verify, "mutate_coefficients", lambda yhat, _b, k, field: real(yhat, doubled, k, field))
    initial = coefficient_free_seed(a2)
    assert check_yhat_propagation(initial, ()).verdict == "confirmed"
    report = check_yhat_propagation(initial, (1,))
    assert report.verdict == "refuted"
    assert report.witness == (
        "step 1 (direction 1): yhat_2: rule gives (x2^2 + 2*x2 + 1) / (x1), seed gives x1^-1*x2 + x1^-1"
    )
    # the first bad step is named, whatever comes after it
    assert check_yhat_propagation(initial, (2, 1)).witness.startswith("step 1 (direction 2): ")


def test_yhat_over_subtraction_free_coefficients_stops_at_the_first_mutation(b2):
    sf = SubtractionFreeSemifield(2)
    initial = Seed.initial_general(b2, sf, sf.identity_tuple())
    assert check_yhat_propagation(initial, ()).verdict == "confirmed"
    with pytest.raises(ContextMismatch, match="mutate the y-tuple with mutate_coefficients instead"):
        check_yhat_propagation(initial, (1,))


# -- merging -----------------------------------------------------------------------------


def test_merge_reports_worst_verdict_wins():
    reports = [
        VerificationReport("x", "i1", "confirmed", None, {"vertices": 3}),
        VerificationReport("x", "i2", "refuted", "bad", {"vertices": 2}),
        VerificationReport("y", "i3", "inconclusive", "frontier"),
        VerificationReport("y", "i4", "confirmed"),
    ]
    merged = merge_reports(reports)
    assert [r.check for r in merged] == ["x", "y"]
    assert merged[0].verdict == "refuted" and merged[0].witness == "bad"
    assert merged[0].stats["vertices"] == 5
    assert merged[1].verdict == "inconclusive"


def test_report_serialization_excludes_timing_by_default():
    r = VerificationReport("x", "i", "confirmed", None, {"vertices": 1}, seconds=1.25)
    assert "seconds" not in r.to_dict()
    assert r.to_dict(include_timing=True)["seconds"] == 1.25
