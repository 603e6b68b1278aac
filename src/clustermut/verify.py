"""Machine checks of the structural theorems on concrete instances.

Each check returns a VerificationReport with a verdict of confirmed,
refuted (always carrying a reproducible witness), or inconclusive when a
depth or budget frontier was hit.  Confirmed verdicts are byte-reproducible
across runs; wall-clock time is kept out of the default serialization for
exactly that reason.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from .errors import BudgetExceeded, ClusterMutError, NotDivisible
from .graph import DEFAULT_MAX_TERMS, DEFAULT_MAX_VERTICES, ExchangeGraph, enumerate_graph, one_sided_gluings
from .laurent import LaurentFraction, LaurentPolynomial
from .seeds import (
    ExchangeMatrix, Seed, coefficient_free_seed, compute_toric_weights, int_det, mutate_coefficients,
    principal_seed,
)
from .semifield import TropicalElement, TropicalSemifield

CONFIRMED = "confirmed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass
class VerificationReport:
    check: str
    instance: str
    verdict: str
    witness: str | None = None
    stats: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "check": self.check,
            "instance": self.instance,
            "verdict": self.verdict,
            "witness": self.witness,
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }
        if include_timing:
            out["seconds"] = self.seconds
        return out


def _timed(check):
    """Decorate a check or verdict: its report carries the call's seconds."""
    @functools.wraps(check)
    def timed(*args, **kwargs) -> VerificationReport:
        t0 = time.monotonic()
        report = check(*args, **kwargs)
        report.seconds = time.monotonic() - t0
        return report
    return timed


def merge_reports(reports: list[VerificationReport]) -> list[VerificationReport]:
    """Combine per-path or per-instance reports into one per check name.

    A single refutation refutes the merged report; otherwise any
    inconclusive member makes it inconclusive.  Ordering is by check name,
    so merged output is deterministic regardless of scheduling.
    """
    by_name: dict[str, list[VerificationReport]] = {}
    for r in reports:
        by_name.setdefault(r.check, []).append(r)
    merged = []
    for name in sorted(by_name):
        group = by_name[name]
        verdict = CONFIRMED
        witness = None
        for r in group:
            if r.verdict == REFUTED:
                verdict = REFUTED
                witness = r.witness
                break
            if r.verdict == INCONCLUSIVE:
                verdict = INCONCLUSIVE
                witness = witness or r.witness
        stats: dict = {"cases": len(group)}
        for r in group:
            for k, v in r.stats.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    stats[k] = stats.get(k, 0) + v
        merged.append(
            VerificationReport(
                name,
                group[0].instance if len(group) == 1 else f"{len(group)} instances",
                verdict,
                witness,
                stats,
                sum(r.seconds for r in group),
            )
        )
    return merged


def _whole_graph(check: str, instance: str, graph: ExchangeGraph, stats: dict) -> VerificationReport:
    """Confirmed on a complete graph, inconclusive at a frontier."""
    if graph.complete:
        return VerificationReport(check, instance, CONFIRMED, None, stats)
    return VerificationReport(check, instance, INCONCLUSIVE, "frontier hit; enumeration incomplete", stats)


# -- the cluster determines the seed -------------------------------------------


@_timed
def check_cluster_determines_seed(graph: ExchangeGraph) -> VerificationReport:
    """Confirmed iff no two distinct vertices carry the same unordered
    cluster; a collision is exactly a seed that the cluster fails to
    determine, and is returned as a witness."""
    instance = f"graph with {graph.vertex_count} vertices"
    seen: dict[tuple[LaurentPolynomial, ...], int] = {}
    for i, seed in enumerate(graph.seeds):
        j = seen.setdefault(seed.cluster, i)
        if j != i:
            witness = (
                f"vertices {j} and {i} share cluster {[str(p) for p in seed.cluster]} but differ: "
                f"matrices {graph.seeds[j].matrix.rows} vs {graph.seeds[i].matrix.rows}, "
                f"coefficients ({', '.join(str(y) for y in graph.seeds[j].coefficient_tuple())}) vs "
                f"({', '.join(str(y) for y in graph.seeds[i].coefficient_tuple())})"
            )
            return VerificationReport(
                "cluster-seed", instance, REFUTED, witness, {"vertices": graph.vertex_count}
            )
    return _whole_graph("cluster-seed", instance, graph, {"vertices": graph.vertex_count})


# -- adjacency iff n-1 common variables ----------------------------------------


@_timed
def check_adjacency(graph: ExchangeGraph) -> VerificationReport:
    """An edge exists iff the clusters share exactly n-1 variables, both
    implications tested for every vertex pair.

    Each vertex goes into n buckets, one per (n-1)-subset of its cluster;
    two vertices share exactly n-1 variables iff their clusters differ and
    they share exactly one bucket, so only pairs meeting in a bucket are
    compared with the edges.  A refutation names the first bad pair in
    (i, j) order, with its 1-based position among all pairs i < j as the
    pairs stat; a confirmation counts all V(V-1)/2 pairs."""
    instance = f"graph with {graph.vertex_count} vertices"
    if not graph.complete:
        return _whole_graph("adjacency", instance, graph, {"vertices": graph.vertex_count})
    n, count = graph.seeds[0].n, graph.vertex_count
    sets = [frozenset(s.cluster) for s in graph.seeds]
    buckets: dict[frozenset, list[int]] = {}
    for v, cluster in enumerate(sets):
        for x in cluster:
            buckets.setdefault(cluster - {x}, []).append(v)
    meets: dict[tuple[int, int], int] = {}
    for members in buckets.values():
        for a, i in enumerate(members):
            for j in members[a + 1 :]:
                meets[i, j] = meets.get((i, j), 0) + 1
    del buckets
    # equal clusters share all n buckets, so for n > 1 one shared bucket
    # already means they differ; for n = 1 every cluster is in the empty one
    shared = {p for p, c in meets.items() if c == 1 and (n > 1 or sets[p[0]] != sets[p[1]])}
    adjacent = {(u, v) for u, v, _ in graph.edges() if u != v}
    bad = shared ^ adjacent
    if bad:
        i, j = min(bad)
        common = len(sets[i] & sets[j])
        witness = (
            f"vertices {i}, {j}: {common} common variables, "
            f"edge {'present' if (i, j) in adjacent else 'absent'}"
        )
        pairs = i * (count - 1) - i * (i - 1) // 2 + (j - i)
        return VerificationReport(
            "adjacency", instance, REFUTED, witness, {"vertices": count, "pairs": pairs}
        )
    return _whole_graph("adjacency", instance, graph, {"vertices": count, "pairs": count * (count - 1) // 2})


# -- coefficient independence of the exchange graph ----------------------------


def random_tropical_tuple(n: int, rank: int, rng: random.Random) -> tuple[TropicalElement, ...]:
    return tuple(
        TropicalElement(tuple(rng.randint(-2, 2) for _ in range(rank))) for _ in range(n)
    )


def random_tropical_seed(matrix: ExchangeMatrix, rank: int, rng_seed: int) -> Seed:
    """The seed over the rank-r tropical semifield whose coefficients are
    drawn by random_tropical_tuple from random.Random(rng_seed)."""
    tropical = random_tropical_tuple(matrix.n, rank, random.Random(rng_seed))
    return Seed.initial_general(matrix, TropicalSemifield(rank), tropical)


@_timed
def check_graph_coincidence(matrix: ExchangeMatrix, depth: int, rng_seed: int = 0) -> VerificationReport:
    """check_joint_graph's coincide report: the principal, coefficient-free and
    a seeded-random tropical seed must glue the same paths, whatever det B."""
    return check_joint_graph(matrix, depth, ("coincide",), rng_seed)[0]


# -- G-specialization ----------------------------------------------------------


@_timed
def check_g_specialization(matrix: ExchangeMatrix, path: tuple[int, ...]) -> VerificationReport:
    """Principal-coefficient variables with all stable variables set to 1
    must equal the coefficient-free variables along the same path."""
    b = matrix.principal()
    pr = principal_seed(b).mutate_path(path)
    cf = coefficient_free_seed(b).mutate_path(path)
    return _path_report("g-spec", b, path, _g_spec_witness(pr, cf))


def _g_spec_witness(pr: Seed, cf: Seed) -> str | None:
    """The first slot where they differ."""
    for i, (x, y) in enumerate(zip(pr.cluster, cf.cluster)):
        specialized = _specialized(x, y.vars)
        if specialized != y:
            return f"variable {i + 1}: {specialized} != {y}"
    return None


def _specialized(x: LaurentPolynomial, vars: tuple[str, ...]) -> LaurentPolynomial:
    """x with x_{n+1}..x_{2n} set to 1, over the first n of its variables,
    vars: each term keeps its first n exponents, and terms that then meet
    add up."""
    n = len(vars)
    terms: dict[tuple[int, ...], int] = {}
    for exps, coeff in x.terms.items():
        terms[exps[:n]] = terms.get(exps[:n], 0) + coeff
    return LaurentPolynomial(vars, terms)


def _path_report(check: str, b: ExchangeMatrix, path, witness: str | None) -> VerificationReport:
    instance = f"B={b.to_json()} path={list(path)}"
    if witness:
        return VerificationReport(check, instance, REFUTED, witness)
    return VerificationReport(check, instance, CONFIRMED, None, {"variables": b.n})


# -- toric action invariance -----------------------------------------------------


@_timed
def check_toric_invariance(matrix: ExchangeMatrix, path: tuple[int, ...]) -> VerificationReport:
    """Rescaling the initial extended cluster by the kernel weights must
    multiply every cluster variable by a Laurent monomial in the formal
    parameters t1..tn."""
    b = matrix.principal()
    seed = principal_seed(b).mutate_path(path)
    return _path_report("toric", b, path, _toric_witness(compute_toric_weights(b), seed))


def _toric_witness(weights, seed: Seed) -> str | None:
    """The first variable with terms of two weight degrees: x_i -> x_i *
    prod_j t_j^{w^j_i} sends a term x^e to x^e * t^(e.w^1, ..., e.w^n), so
    the ratio is a t-monomial iff all terms share that degree."""
    for i, x in enumerate(seed.cluster):
        degrees = _weight_degrees(weights, x)
        if len(degrees) > 1:
            return f"variable {i + 1}: terms of weight degrees {degrees[0]} and {degrees[1]}"
    return None


def _weight_degrees(weights, x: LaurentPolynomial) -> list[tuple[int, ...]]:
    """The distinct weight degrees of x's terms, ascending."""
    return sorted({tuple(sum(e * w for e, w in zip(exps, ws)) for ws in weights) for exps in x.terms})


# -- one joint enumeration for coincide, g-spec and toric ---------------------------


def check_joint_graph(
    matrix: ExchangeMatrix, depth: int, checks, rng_seed: int = 0,
    max_vertices: int = DEFAULT_MAX_VERTICES, max_terms: int = DEFAULT_MAX_TERMS,
) -> list[VerificationReport]:
    """The coincide, g-spec and toric reports named in checks, read off one
    enumeration of the principal seed to depth with the coefficient-free
    seed (coincide, g-spec) and the seeded random tropical one (coincide)
    as companions.  Refutations name paths in the initial seed's own
    directions; a frontier leaves a confirmation inconclusive."""
    b = matrix.principal()
    det = int_det(b.rows)
    instance = f"B={b.to_json()} depth={depth}"
    sides = {"coefficient-free": coefficient_free_seed(b)} if {"coincide", "g-spec"} & set(checks) else {}
    if "coincide" in checks:
        sides["random-tropical"] = random_tropical_seed(b, b.n, rng_seed)
    weights = compute_toric_weights(b) if "toric" in checks and det else None
    reports = []
    if sides or weights:
        graph = enumerate_graph(principal_seed(b), depth, max_vertices, max_terms, tuple(sides.values()))
        if "coincide" in checks:
            reports.append(_coincide_verdict(f"{instance} det={det}", det, graph, sides))
        # each verdict is read once per distinct variable (or slot-aligned
        # pair of them) of this graph: interned, they repeat across vertices
        if "g-spec" in checks:
            @functools.cache
            def agrees(x, y):
                return _specialized(x, y.vars) == y

            pairs = enumerate(zip(graph.seeds, graph.companions))
            bad = (v for v, (pr, cf) in pairs if not all(map(agrees, pr.cluster, cf[0].cluster)))
            reports.append(_vertex_verdict("g-spec", check_g_specialization, b, instance, graph, bad))
        if weights:
            @functools.cache
            def toric(x):
                return len(_weight_degrees(weights, x)) <= 1

            bad = (v for v, seed in enumerate(graph.seeds) if not all(map(toric, seed.cluster)))
            reports.append(_vertex_verdict("toric", check_toric_invariance, b, instance, graph, bad))
    if "toric" in checks and not det:
        reports.append(VerificationReport(
            "toric", f"B={b.to_json()}", INCONCLUSIVE, "det B = 0: nondegeneracy hypothesis unmet"
        ))
    return reports


@_timed
def _coincide_verdict(instance: str, det: int, graph: ExchangeGraph, sides):
    """The first pair of paths that one_sided_gluings finds for a side refutes."""
    stats = {"nondegenerate": det != 0, "vertices": graph.vertex_count}
    for i, name in enumerate(sides):
        for p, q, _ in one_sided_gluings(graph, i):
            witness = f"principal vs {name}: paths {list(p)} and {list(q)} glued on one side only"
            return VerificationReport("coincide", instance, REFUTED, witness, stats)
    return _whole_graph("coincide", instance, graph, stats)


@_timed
def _vertex_verdict(check: str, per_path, b, instance: str, graph: ExchangeGraph, bad):
    """per_path's report on the path to the first of the bad vertices, those
    whose slot-aligned seeds fail the check, else the whole graph's verdict.
    A bad vertex whose path per_path does not refute means the graph and the
    replay disagree, and raises ClusterMutError."""
    v = next(bad, None)
    if v is None:
        return _whole_graph(check, instance, graph, {"vertices": graph.vertex_count})
    report = per_path(b, graph.paths[v])
    if report.verdict != REFUTED:
        path = list(graph.paths[v])
        raise ClusterMutError(f"{check}: vertex {v} fails the check, but path {path} replays {report.verdict}")
    return report


# -- Laurent phenomenon ------------------------------------------------------------


@_timed
def check_laurent(
    initial: Seed,
    depth: int,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> VerificationReport:
    """Enumerate to the given depth; any exact-division failure refutes,
    and the largest coefficient bit length is reported as evidence of the
    arbitrary-precision arithmetic actually being exercised.

    Each edge is mutated once, from the endpoint expanded first.  The
    divisions skipped on the way back are x_k = (P+ + P-) / x_k', which
    the forward step x_k' = (P+ + P-) / x_k already showed exact.  Each
    distinct exchange relation is divided once, the first time the
    enumeration meets it, and every later edge with the same relation
    reads that quotient back, so the verdict still covers every relation
    in the graph."""
    instance = f"B={initial.matrix.to_json()} depth={depth}"
    try:
        graph = enumerate_graph(initial, depth, max_vertices=max_vertices, max_terms=max_terms)
    except NotDivisible as exc:
        return VerificationReport("laurent", instance, REFUTED, str(exc))
    except BudgetExceeded as exc:
        stats = {"vertices": exc.partial.vertex_count if exc.partial else 0}
        return VerificationReport("laurent", instance, INCONCLUSIVE, str(exc), stats)
    return _laurent_verdict(initial, depth, graph)


@_timed
def _laurent_verdict(initial: Seed, depth: int, graph: ExchangeGraph) -> VerificationReport:
    """check_laurent's report on the graph it enumerated without error."""
    instance = f"B={initial.matrix.to_json()} depth={depth}"
    # cluster variables are interned, so each distinct object is read once
    distinct = {id(p): p for seed in graph.seeds for p in seed.cluster}
    bits = max((p.max_coeff_bits() for p in distinct.values()), default=0)
    stats = {"vertices": graph.vertex_count, "max_coeff_bits": bits}
    return VerificationReport("laurent", instance, CONFIRMED, None, stats)


# -- the verify plan -----------------------------------------------------------------


def run_checks(
    matrix: ExchangeMatrix, seed: Seed, depth: int, checks,
    max_vertices: int = DEFAULT_MAX_VERTICES, max_terms: int = DEFAULT_MAX_TERMS, rng_seed: int = 0,
) -> list[VerificationReport]:
    """The merged reports of the checks named.  cluster-seed, adjacency and
    laurent read one exchange graph of seed enumerated to depth (laurent
    catches only budget and division errors, which enumerating it would
    raise; it enumerates its own only when the other two do not run).
    coincide, g-spec and toric read one check_joint_graph enumeration of
    matrix to depth under the same budgets."""
    reports: list[VerificationReport] = []
    if "cluster-seed" in checks or "adjacency" in checks:
        graph = enumerate_graph(seed, depth, max_vertices=max_vertices, max_terms=max_terms)
        if "cluster-seed" in checks:
            reports.append(check_cluster_determines_seed(graph))
        if "adjacency" in checks:
            reports.append(check_adjacency(graph))
        if "laurent" in checks:
            reports.append(_laurent_verdict(seed, depth, graph))
    elif "laurent" in checks:
        reports.append(check_laurent(seed, depth, max_vertices=max_vertices, max_terms=max_terms))
    reports.extend(check_joint_graph(matrix, depth, checks, rng_seed, max_vertices, max_terms))
    return merge_reports(reports)


# -- y-hat propagation ----------------------------------------------------------


@_timed
def check_yhat_propagation(initial: Seed, path: tuple[int, ...]) -> VerificationReport:
    """Every mutation along the path must carry the y-hat tuple by the
    Y-seed rule; a refutation names the first step where it does not."""
    instance = f"B={initial.matrix.to_json()} path={list(path)} mode={initial.mode}"
    seed, yhat = initial, initial.yhat()
    for step, k in enumerate(path, 1):
        mutated = seed.mutate(k)
        after = mutated.yhat()
        witness = _yhat_witness(seed, k, yhat, after)
        if witness:
            return VerificationReport("yhat", instance, REFUTED, f"step {step} (direction {k}): {witness}")
        seed, yhat = mutated, after
    return VerificationReport("yhat", instance, CONFIRMED, None, {"variables": initial.n})


def _yhat_witness(seed: Seed, k: int, before, after) -> str | None:
    """The first slot where the y-hat tuple after mutating seed in direction
    k differs from the Y-seed rule applied to before, seed's y-hat tuple:
    y-hat forms a Y-pattern in the ambient field (Fomin and Zelevinsky,
    Cluster algebras IV, Compositio 2007, Prop. 3.9)."""
    one = LaurentFraction.from_polynomial(LaurentPolynomial.one(seed.vars))
    # the ambient field as mutate_coefficients' semifield: its oplus is the fractions' +
    rule = mutate_coefficients(before, seed.matrix.principal(), k, SimpleNamespace(one=lambda: one))
    for j, (got, want) in enumerate(zip(rule, after)):
        if not got.equals(want):
            return f"yhat_{j + 1}: rule gives {got}, seed gives {want}"
    return None


# -- pipeline agreement ------------------------------------------------------------


@_timed
def check_pipeline_agreement(matrix: ExchangeMatrix, path: tuple[int, ...], k: int) -> VerificationReport:
    """One mutation step computed both ways on a geometric seed: the
    general exchange relation over the tropical semifield against the
    extended-matrix relation.  The two adjacent seeds must agree exactly."""
    instance = f"B~={matrix.to_json()} path={list(path)} k={k}"
    geo = Seed.initial_geometric(matrix).mutate_path(path)
    gen = geo.to_general()
    geo_next = geo.mutate(k)
    gen_next = gen.mutate(k)
    if gen_next.cluster != geo_next.cluster:
        witness = f"clusters differ in direction {k}"
        return VerificationReport("pipeline", instance, REFUTED, witness)
    if gen_next.coeffs != geo_next.to_general().coeffs:
        witness = f"coefficient tuples differ in direction {k}"
        return VerificationReport("pipeline", instance, REFUTED, witness)
    if gen_next.matrix.rows != geo_next.matrix.principal().rows:
        witness = f"principal matrices differ in direction {k}"
        return VerificationReport("pipeline", instance, REFUTED, witness)
    return VerificationReport("pipeline", instance, CONFIRMED)


# -- randomized instances -----------------------------------------------------------


def random_skew_symmetrizable(
    rng: random.Random,
    n: int,
    m: int = 0,
    max_entry: int = 2,
    no_zero_rows: bool = False,
) -> ExchangeMatrix:
    """Random n x (n+m) extended matrix with skew-symmetrizable principal
    part, built from a random symmetrizer so integrality is automatic."""
    d = [rng.randint(1, 3) for _ in range(n)]
    rows = [[0] * (n + m) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = rng.randint(-max_entry, max_entry)
            if p:
                g = math.gcd(d[i], d[j])
                rows[i][j] = p * d[j] // g
                rows[j][i] = -p * d[i] // g
    for i in range(n):
        for j in range(n, n + m):
            rows[i][j] = rng.randint(-2, 2)
    if no_zero_rows:
        for i in range(n):
            if all(x == 0 for x in rows[i]):
                if m > 0:
                    rows[i][n + rng.randrange(m)] = rng.choice([-1, 1])
                else:
                    j = (i + 1) % n
                    g = math.gcd(d[i], d[j])
                    rows[i][j] = d[j] // g
                    rows[j][i] = -d[i] // g
    return ExchangeMatrix.from_rows(rows, m)


def random_nondegenerate(rng: random.Random, n: int, max_entry: int = 2) -> ExchangeMatrix:
    """Random skew-symmetrizable B with det != 0 (n must be even; odd rank
    forces a zero determinant)."""
    if n % 2:
        raise ValueError("odd rank is always degenerate")
    while True:
        b = random_skew_symmetrizable(rng, n, 0, max_entry, no_zero_rows=True)
        if int_det(b.rows) != 0:
            return b
