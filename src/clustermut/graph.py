"""Exchange graph enumeration: the quotient of the n-regular tree by seed
equivalence.

Vertices are canonical seed representatives, deduplicated by the hashable
value key from Seed.key(): the cluster polynomials themselves, not their
text, so nothing is rendered until export.  Breadth-first layers expand in
a fixed order, so the resulting graph is byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .errors import BudgetExceeded, ClusterMutError, ContextMismatch, ParseError, require
from .laurent import LaurentPolynomial, parse_poly
from .seeds import GEOMETRIC, ExchangeMatrix, Seed, TrivialSemifield, TropicalSemifield, validate_and_symmetrize
from .semifield import MAX_TROPICAL_RANK, TropicalElement, parse_tropical

DEFAULT_DEPTH = 8
DEFAULT_MAX_VERTICES = 10 ** 6
DEFAULT_MAX_TERMS = 10 ** 7


def canonicalize_seed(seed: Seed) -> tuple:
    """Permutation-invariant key; equal iff the seeds are equivalent."""
    return seed.key()


@dataclass
class ExchangeGraph:
    """Quotient graph with per-vertex direction maps.

    neighbors[u][k] = index reached from the canonical representative of u
    by mutating in direction k; only expanded (non-frontier) vertices carry
    all n directions.  paths[v] is the path that first reached v, in the
    initial seed's own directions, so initial.mutate_path(paths[v]) replays
    it; a graph parsed from JSON has none.
    """

    seeds: list[Seed]
    keys: list[tuple]
    depths: list[int]
    frontier: list[bool]
    neighbors: list[dict[int, int]]
    complete: bool
    stats: dict = field(default_factory=dict)
    companions: list[tuple[Seed, ...]] = field(default_factory=list)
    paths: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def vertex_count(self) -> int:
        return len(self.seeds)

    def edges(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """Undirected edge list (u < v) with the union of direction labels
        realizing the edge from either endpoint."""
        labels: dict[tuple[int, int], set[int]] = {}
        for u, nbrs in enumerate(self.neighbors):
            for k, v in nbrs.items():
                a, b = (u, v) if u <= v else (v, u)
                labels.setdefault((a, b), set()).add(k)
        return [(u, v, tuple(sorted(ks))) for (u, v), ks in sorted(labels.items())]

    @property
    def edge_count(self) -> int:
        return len(self.edges())

    def degrees(self) -> list[int]:
        degree = [0] * self.vertex_count
        for u, v, _ in self.edges():
            degree[u] += 1
            if v != u:
                degree[v] += 1
        return degree

    def cluster_sets(self) -> list[tuple[str, ...]]:
        """Rendered cluster of each canonical representative; entries are
        already sorted by the term order, so equal sets compare equal.
        Each distinct variable is rendered once."""
        texts: dict[LaurentPolynomial, str] = {}
        for s in self.seeds:
            for p in s.cluster:
                if p not in texts:
                    texts[p] = str(p)
        return [tuple(texts[p] for p in s.cluster) for s in self.seeds]

    def __eq__(self, other):
        if not isinstance(other, ExchangeGraph):
            return NotImplemented
        return (
            self.keys == other.keys
            and self.depths == other.depths
            and self.frontier == other.frontier
            and self.neighbors == other.neighbors
            and self.complete == other.complete
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """The graph as json.dumps(..., indent=1, sort_keys=True) writes it,
        byte for byte, but written from templates whose keys are already
        sorted: any indent sends json.dumps through its pure-Python encoder.
        Each distinct cluster variable is rendered once and each distinct
        matrix row and coefficient tuple is laid out once."""
        seed0 = self.seeds[0]
        coeff_kind = "geometric" if seed0.mode == GEOMETRIC else seed0.semifield.kind
        quote = encode_basestring_ascii
        rows: dict[tuple[int, ...], str] = {}
        coeffs: dict[tuple | None, str] = {None: "null"}
        vertices = []
        for i, (s, cluster) in enumerate(zip(self.seeds, self.cluster_sets())):
            for r in s.matrix.rows:
                if r not in rows:
                    rows[r] = _json_block([str(x) for x in r], 6)
            coeff_text = coeffs.get(s.coeffs)
            if coeff_text is None:
                coeff_text = coeffs[s.coeffs] = _json_block([quote(str(y)) for y in s.coeffs], 4)
            # json.dumps sorts the direction keys as text: "10" before "2"
            nbrs = sorted((str(k), v) for k, v in self.neighbors[i].items())
            nbrs_text = _json_block([f"{quote(k)}: {v}" for k, v in nbrs], 4, "{}")
            vertices.append(
                f'{{\n   "cluster": {_json_block([quote(x) for x in cluster], 4)},\n'
                f'   "coeffs": {coeff_text},\n   "depth": {self.depths[i]},\n'
                f'   "frontier": {_JSON_BOOL[self.frontier[i]]},\n   "id": {i},\n'
                f'   "matrix": {{\n    "m": {s.matrix.m},\n    "n": {s.matrix.n},\n'
                f'    "rows": {_json_block([rows[r] for r in s.matrix.rows], 5)}\n   }},\n'
                f'   "neighbors": {nbrs_text}\n  }}'
            )
        edges = [
            f'{{\n   "labels": {_json_block([str(k) for k in ks], 4)},\n   "u": {u},\n   "v": {v}\n  }}'
            for u, v, ks in self.edges()
        ]
        return (
            f'{{\n "coefficients": {quote(coeff_kind)},\n "complete": {_JSON_BOOL[self.complete]},\n'
            f' "edges": {_json_block(edges, 2)},\n "m": {seed0.m},\n'
            f' "mode": {quote(seed0.mode)},\n "n": {seed0.n},\n'
            f' "rank": {getattr(seed0.semifield, "rank", seed0.m)},\n'
            f' "vars": {_json_block([quote(x) for x in seed0.vars], 2)},\n'
            f' "vertices": {_json_block(vertices, 2)}\n}}'
        )

    @classmethod
    def from_json(cls, text: str) -> "ExchangeGraph":
        """Parse an export back: geometric seeds, or general ones over trivial
        or tropical coefficients, and at least one vertex.  Ranks, depths,
        neighbor indices and matrix entries must be JSON integers and the
        flags JSON booleans, vars, rank and m must make one ambient context
        (_context_error), and each vertex must hold n cluster texts of n
        distinct variables (and n coefficient texts over a semifield) for
        its matrix of the graph's n and m and neighbors in directions 1..n
        among the vertices listed, fewer than n exactly if it is frontier,
        as no vertex of a complete graph is, and a nonnegative depth.  Two
        non-frontier vertices must have as many directions leading to each
        other, and "edges" must be the list edges() gives (ParseError
        naming the vertex otherwise).  Each vertex matrix must be
        skew-symmetrizable (NotSkewSymmetrizable otherwise); it is checked
        without entering the process-wide cache of validate_and_symmetrize."""
        try:
            obj = json.loads(text)
            vars = tuple(obj["vars"])
            mode = obj["mode"]
            kind = obj["coefficients"]
            rank = obj["rank"]
            require(int, [rank, obj["n"], obj["m"]], "bad graph JSON")
            require(bool, [obj["complete"]], "bad graph JSON")
            if (mode, kind) not in (("geometric", "geometric"), ("general", "trivial"), ("general", "tropical")):
                raise ParseError(f"bad graph JSON: cannot rebuild {mode!r} seeds over {kind!r} coefficients")
            if not obj["vertices"]:
                raise ParseError("bad graph JSON: no vertices")
            seeds = []
            depths, frontier, neighbors = [], [], []
            # each distinct text is parsed once, so equal values are one object
            polys: dict[str, LaurentPolynomial] = {}
            ys: dict[str, TropicalElement] = {}
            for v, vtx in enumerate(obj["vertices"]):
                require(int, [vtx["depth"], vtx["matrix"]["n"], *vtx["neighbors"].values()], "bad graph JSON")
                require(bool, [vtx["frontier"]], "bad graph JSON")
                matrix = ExchangeMatrix.from_rows(vtx["matrix"]["rows"], vtx["matrix"]["m"])
                why = _shape_error(vtx, matrix, obj)
                if why:
                    raise ParseError(f"bad graph JSON: vertex {v}: {why}")
                if not seeds:
                    # vertex 0 fits the graph's n and m, which the context reads
                    why = _context_error(obj, vars)
                    if why:
                        raise ParseError(f"bad graph JSON: {why}")
                    sf = TrivialSemifield() if kind == "trivial" else TropicalSemifield(rank)
                validate_and_symmetrize.__wrapped__(matrix)
                for s in vtx["cluster"]:
                    if s not in polys:
                        polys[s] = parse_poly(vars, s)
                cluster = tuple(polys[s] for s in vtx["cluster"])
                if len(set(cluster)) < len(cluster):
                    twice = next(p for j, p in enumerate(cluster) if p in cluster[:j])
                    raise ParseError(f"bad graph JSON: vertex {v}: cluster variable {twice} twice")
                if mode == GEOMETRIC:
                    seed = Seed(matrix, cluster, GEOMETRIC, None, None, vars)
                else:
                    for s in vtx["coeffs"]:
                        if s not in ys:
                            ys[s] = parse_tropical(sf.rank, s)
                    seed = Seed(matrix, cluster, "general", sf, tuple(ys[s] for s in vtx["coeffs"]), vars)
                seeds.append(seed)
                depths.append(vtx["depth"])
                frontier.append(vtx["frontier"])
                neighbors.append({int(k): u for k, u in vtx["neighbors"].items()})
            graph = cls(seeds, [s.key() for s in seeds], depths, frontier, neighbors, obj["complete"])
            listed = []
            for e in obj["edges"]:
                require(int, [e["u"], e["v"], *e["labels"]], "bad graph JSON")
                listed.append((e["u"], e["v"], tuple(e["labels"])))
            why = _return_error(neighbors, frontier) or _edges_error(listed, graph.edges())
            if why:
                raise ParseError(f"bad graph JSON: {why}")
            return graph
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad graph JSON: {exc}") from exc

    def to_dot(self) -> str:
        lines = ["graph exchange {"]
        for i, cluster in enumerate(self.cluster_sets()):
            label = ", ".join(cluster)
            suffix = " (frontier)" if self.frontier[i] else ""
            lines.append(f'  v{i} [label="{label}{suffix}"];')
        for u, v, ks in self.edges():
            lines.append(f'  v{u} -- v{v} [label="{",".join(str(k) for k in ks)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def export(self, format: str) -> bytes:
        """Reproducible byte-exact export; identical graphs give identical
        bytes."""
        if format == "dot":
            return self.to_dot().encode()
        if format == "json":
            return (self.to_json() + "\n").encode()
        raise ParseError(f"unknown export format {format!r}")


_JSON_BOOL = {True: "true", False: "false"}


def _json_block(items: list[str], indent: int, brackets: str = "[]") -> str:
    """A list (or, with brackets "{}", an object) of JSON texts laid out as
    json.dumps(..., indent=1) lays out one whose items sit indent spaces
    deep; empty, it is [] (or {})."""
    if not items:
        return brackets
    pad = "\n" + " " * indent
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1]


def _context_error(graph: dict, vars: tuple) -> str | None:
    """Why the vars, rank and m of the parsed export graph do not make
    the ambient context of its mode; None if they do.  A geometric
    context has n + m variables and any extra parameters after them, a
    general one n variables and rank generators, rank 0 over trivial
    coefficients; the rank lies in [0, MAX_TROPICAL_RANK].  No name may
    repeat: parse_poly would read it as its last slot."""
    n, m, rank = graph["n"], graph["m"], graph["rank"]
    if not 0 <= rank <= MAX_TROPICAL_RANK:
        return f"rank {rank} outside [0, {MAX_TROPICAL_RANK}]"
    if len(set(vars)) < len(vars):
        twice = next(x for j, x in enumerate(vars) if x in vars[:j])
        return f"vars name {twice} twice"
    if graph["mode"] == GEOMETRIC:
        if rank != m:
            return f"rank is {rank} in a geometric graph of m = {m}"
        if len(vars) < n + m:
            return f"{len(vars)} vars for n + m = {n + m}"
        return None
    if m:
        return f"m is {m} in a general graph"
    if rank and graph["coefficients"] == "trivial":
        return f"rank is {rank} over trivial coefficients"
    if len(vars) != n + rank:
        return f"{len(vars)} vars for n + rank = {n + rank}"
    return None


def _shape_error(vtx: dict, matrix: ExchangeMatrix, graph: dict) -> str | None:
    """Why vertex vtx of the parsed export graph does not fit its matrix
    or the graph; None if it does.  Directions must be written as JSON
    writes 1..n."""
    n, count = matrix.n, len(graph["vertices"])
    if vtx["matrix"]["n"] != n:
        return f"n is {vtx['matrix']['n']} but there are {n} rows"
    if n != graph["n"]:
        return f"{n} rows in a graph of n = {graph['n']}"
    if matrix.m != graph["m"]:
        return f"m is {matrix.m} in a graph of m = {graph['m']}"
    if (vtx["coeffs"] is None) != (graph["mode"] == GEOMETRIC):
        return f"coeffs is {'' if vtx['coeffs'] is None else 'not '}null in a {graph['mode']} graph"
    for name, texts in (("cluster", vtx["cluster"]), ("coefficient", vtx["coeffs"])):
        if texts is not None and len(texts) != n:
            return f"{len(texts)} {name} texts for n = {n}"
    directions = {str(k) for k in range(1, n + 1)}
    for k, u in vtx["neighbors"].items():
        if k not in directions:
            return f"direction {json.dumps(k)} outside [1, {n}]"
        if not 0 <= u < count:
            return f"neighbor {u} outside [0, {count})"
    if vtx["depth"] < 0:
        return f"depth {vtx['depth']} is negative"
    if vtx["frontier"] != (len(vtx["neighbors"]) < n):
        return f"frontier is {_JSON_BOOL[vtx['frontier']]} with {len(vtx['neighbors'])} of {n} neighbors"
    if vtx["frontier"] and graph["complete"]:
        return "frontier vertex in a complete graph"
    return None


def _return_error(neighbors: list[dict[int, int]], frontier: list[bool]) -> str | None:
    """Why the directions of two non-frontier vertices do not pair up, as
    mutation being an involution pairs them: as many directions of u lead
    to v as of v to u.  None if they do.  Where each direction leads is
    not checked: that takes a mutation per edge."""
    counts: dict[tuple[int, int], int] = {}
    for u, nbrs in enumerate(neighbors):
        if not frontier[u]:
            for v in nbrs.values():
                if not frontier[v]:
                    counts[u, v] = counts.get((u, v), 0) + 1
    for (u, v), c in sorted(counts.items()):
        back = counts.get((v, u), 0)
        if back != c:
            return f"vertex {u}: {c} directions lead to vertex {v} and {back} back"
    return None


def _edges_error(listed: list, edges: list) -> str | None:
    """Why an export's "edges" list, as (u, v, labels) triples, is not the
    one its neighbors give; None if it is."""
    for i in range(max(len(listed), len(edges))):
        got, want = (e[i] if i < len(e) else None for e in (listed, edges))
        if got != want:
            u = min(e[0] for e in (got, want) if e)
            return f'vertex {u}: "edges" lists {_edge_text(got)} where the neighbors give {_edge_text(want)}'
    return None


def _edge_text(edge) -> str:
    if edge is None:
        return "no edge"
    u, v, ks = edge
    return f"({u}, {v}) labelled {','.join(map(str, ks))}"


def enumerate_graph(
    initial: Seed,
    depth_limit: int = DEFAULT_DEPTH,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_terms: int = DEFAULT_MAX_TERMS,
    companions: tuple[Seed, ...] = (),
) -> ExchangeGraph:
    """Breadth-first exchange graph in which each edge is computed once.

    Mutation is an involution, mu_k(mu_k(S)) = S: when mu_k of u reaches v,
    the slot j of v holding the new variable leads back to u, so direction
    j of v is read off that record when v expands instead of being mutated
    again.  Two vertices claiming one (v, j) mean a broken exchange rule
    and raise ClusterMutError.

    Every mutation, the companions' too, shares one memo of exchange
    relations, seeded with every root's cluster (see Seed.mutate): a
    relation met again is read back instead of recomputed, and equal
    cluster variables are one object, so keys compare by identity.  Seeds
    of different ambient contexts never share an entry, and seeds of one
    context share only identical relations.  It lives as long as this call.

    Each child is built once, already in canonical slot order, by
    Seed._child: initial's side takes the canonical order of its new
    cluster, whose new variable lands in slot perm.index(k - 1) + 1, and
    each companion seed is mutated along every edge computed in that same
    order (initial needs distinct cluster variables, as principal
    coefficients give); graph.companions holds them per vertex.
    A vertex is looked up by initial's canonical key together with the
    slot-aligned companions, so the graph is the joint quotient: two paths
    meet only where every seed glues them, and a companion that arrives
    otherwise starts a new vertex.  Where every side glues as initial
    does, as coefficient independence has it for seeds of one principal
    matrix, this is initial's own graph.

    graph.paths[v] is paths[u] plus the step k of the least (u, k) of the
    previous layer reaching v, read in initial's own directions through
    orders[u], the own slot held in each canonical slot of u.

    Expansion stops after depth_limit layers; vertices discovered in the
    last layer that never expanded are flagged as frontier.  Vertex or term
    budget overruns raise BudgetExceeded carrying the partial graph; the
    term budget counts the clusters of every stored seed, companions too.
    stats counts the mutations computed (one child seed and matrix per edge
    and side),
    the directions reused and exchange_cache_hits, the mutations whose
    relation the memo already held.
    """
    if depth_limit < 0:
        raise ContextMismatch("depth_limit must be nonnegative")
    n = initial.n
    perm = initial.canonical_permutation()
    rep0 = initial.permuted(perm)
    seeds = [rep0]
    keys = [rep0._canonical_key()]
    orders = [perm]
    paths: list[tuple[int, ...]] = [()]
    sides = [tuple(s.permuted(perm) for s in companions)]
    index = {(keys[0], sides[0]): 0}
    depths = [0]
    neighbors: list[dict[int, int]] = [{}]
    # back[v][j] = u: direction j of v undoes a mutation computed from u
    back: list[dict[int, int]] = [{}]
    exchanges: dict = {x: x for s in (rep0, *companions) for x in s.cluster}
    mutations = reused = hits = 0
    term_total = sum(len(p.terms) for s in (rep0, *companions) for p in s.cluster)

    def snapshot(complete: bool) -> ExchangeGraph:
        # a vertex is frontier exactly when it never resolved all n directions
        frontier = [len(nbrs) < n for nbrs in neighbors]
        complete = complete and not any(frontier)
        return ExchangeGraph(seeds, keys, depths, frontier, neighbors, complete, {}, sides, paths)

    layer = [0]
    depth = 0
    while layer and depth < depth_limit:
        new_layer: list[int] = []
        for u in layer:
            for k in range(1, n + 1):
                idx = back[u].get(k)
                if idx is not None:
                    reused += 1
                    neighbors[u][k] = idx
                    continue
                # a miss adds the relation to the memo, a hit adds nothing
                size = len(exchanges)
                child, perm = seeds[u]._child(k, exchanges)
                mutations += 1
                hits += len(exchanges) == size
                ck = child._canonical_key()
                arrived = tuple(s._child(k, exchanges, perm)[0] for s in sides[u])
                idx = index.get((ck, arrived))
                if idx is None:
                    if len(seeds) + 1 > max_vertices:
                        raise BudgetExceeded(
                            f"vertex budget {max_vertices} exhausted", snapshot(False)
                        )
                    term_total += sum(len(p.terms) for s in (child, *arrived) for p in s.cluster)
                    if term_total > max_terms:
                        raise BudgetExceeded(
                            f"term budget {max_terms} exhausted", snapshot(False)
                        )
                    idx = len(seeds)
                    seeds.append(child)
                    keys.append(ck)
                    index[ck, arrived] = idx
                    depths.append(depth + 1)
                    neighbors.append({})
                    back.append({})
                    sides.append(arrived)
                    orders.append(tuple(orders[u][p] for p in perm))
                    paths.append(paths[u] + (orders[u][k - 1] + 1,))
                    new_layer.append(idx)
                # mutating idx at the slot of the new variable returns to u
                j = perm.index(k - 1) + 1
                other = back[idx].get(j, neighbors[idx].get(j))
                if other is not None:
                    raise ClusterMutError(
                        f"broken exchange rule: vertices {other} and {u} both "
                        f"reach vertex {idx} through its direction {j}"
                    )
                back[idx][j] = u
                neighbors[u][k] = idx
        layer = new_layer
        depth += 1

    graph = snapshot(True)
    graph.stats = {
        "vertices": len(seeds),
        "depth_reached": depth,
        "mutations": mutations,
        "reused": reused,
        "exchange_cache_hits": hits,
    }
    return graph


@dataclass
class LockstepResult:
    """Outcome of comparing how two seeds glue the reduced mutation paths."""

    coincide: bool
    divergence: tuple[tuple[int, ...], tuple[int, ...]] | None
    nodes: int
    a_covers_b: bool
    b_covers_a: bool


def one_sided_gluings(graph: ExchangeGraph, i: int):
    """Yield (p, q, glued_by_initial) for the pairs of paths, in the initial
    seed's own directions (graph.paths), that exactly one of graph's root
    and its companion i glues.

    graph is the joint quotient, so a pair that one side glues and the other
    does not ends in two vertices.  The candidates are each later vertex
    with the principal key (graph.keys) or the companion-i key of an
    earlier one, against the first such vertex; gluing is an equivalence,
    so these pairs find every side that glues otherwise.  A side glues a
    pair iff its keys at the two vertices are equal; the companion-i keys
    are computed lazily, once per vertex, and nothing is mutated."""
    by_main: dict[tuple, int] = {}
    by_side: dict[tuple, int] = {}
    side_keys: list[tuple] = []
    for v, (ck, sides) in enumerate(zip(graph.keys, graph.companions)):
        side_keys.append(sides[i].key())
        for w in sorted({by_main.setdefault(ck, v), by_side.setdefault(side_keys[v], v)} - {v}):
            glued = ck == graph.keys[w]
            if glued != (side_keys[v] == side_keys[w]):
                yield graph.paths[v], graph.paths[w], glued


def compare_by_paths(a: Seed, b: Seed, depth: int) -> LockstepResult:
    """Compare how a and b glue the reduced mutation paths up to depth.

    Both seeds must share the principal exchange matrix and rank.  a's graph
    is enumerated with b as its companion, under the default budgets; the
    result reports whether one_sided_gluings finds no pair of paths, the
    first pair, and whether each side glues every pair the other does.
    Every reduced path reaches a vertex of that joint quotient, so this is
    what a walk of the whole tree finds.  nodes counts the reduced paths,
    1 + sum_{d=1..depth} n (n-1)^(d-1).
    """
    if a.n != b.n:
        raise ContextMismatch("seeds have different ranks")
    if a.matrix.principal().rows != b.matrix.principal().rows:
        raise ContextMismatch("seeds have different principal exchange matrices")
    if depth < 0:
        raise ContextMismatch("depth must be nonnegative")
    gluings = list(one_sided_gluings(enumerate_graph(a, depth, companions=(b,)), 0))
    by_a = [glued for _, _, glued in gluings]
    nodes = 1 + sum(a.n * (a.n - 1) ** (d - 1) for d in range(1, depth + 1))
    return LockstepResult(not gluings, gluings[0][:2] if gluings else None, nodes, not any(by_a), all(by_a))


def reduced_paths(n: int, max_len: int) -> list[tuple[int, ...]]:
    """All mutation paths up to max_len with no immediate backtracking,
    in breadth-first order."""
    paths: list[tuple[int, ...]] = [()]
    for path in paths:
        if len(path) < max_len:
            paths.extend(path + (k,) for k in range(1, n + 1) if not path or k != path[-1])
    return paths
