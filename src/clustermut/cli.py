"""Command-line front end.

Subcommands: mutate, enumerate, forms, verify, export.  Matrices come from
a file or an inline argument, either as JSON {"n", "m", "rows"} or as
plain whitespace-separated rows for m = 0.  Directions are 1-based and
paths are comma-separated.  Identical invocations print identical bytes.

Exit codes: 0 success, 1 refuted verification, 2 usage error (any invalid
input, including a matrix that is not skew-symmetrizable), 3 budget
exhaustion, 4 internal error (an unexpected exception, reported in one
line instead of a traceback, so it never reads as a refutation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    BadDirection,
    BudgetExceeded,
    ClusterMutError,
    ContextMismatch,
    NondegenerateRequired,
    NotSkewSymmetrizable,
    ParseError,
    ZeroRowUnsupported,
    require,
)
from .forms import compatible_form_space, mutate_form
from .graph import (
    DEFAULT_DEPTH,
    DEFAULT_MAX_TERMS,
    DEFAULT_MAX_VERTICES,
    enumerate_graph,
)
from .seeds import (
    ExchangeMatrix,
    Seed,
    coefficient_free_seed,
    principal_seed,
    validate_and_symmetrize,
)
from .semifield import MAX_TROPICAL_RANK, TropicalElement, TropicalSemifield
from .verify import REFUTED, random_tropical_seed, run_checks

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

ALL_CHECKS = ("cluster-seed", "adjacency", "coincide", "g-spec", "toric", "laurent")


def load_matrix(source: str) -> ExchangeMatrix:
    """Accept a file path, inline JSON, or inline whitespace rows.

    The principal part must be skew-symmetrizable (NotSkewSymmetrizable
    otherwise): every theorem the engine checks assumes it, so an input
    breaking it is a usage error, never a refutation.
    """
    matrix = _read_matrix(source)
    validate_and_symmetrize(matrix)
    return matrix


def _read_matrix(source: str) -> ExchangeMatrix:
    text = source
    if os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    text = text.strip()
    if text.startswith("{"):
        return ExchangeMatrix.from_json(text)
    rows = []
    for lineno, line in enumerate(text.replace(";", "\n").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        row = []
        for col, tok in enumerate(line.replace(",", " ").split(), start=1):
            try:
                row.append(int(tok))
            except ValueError:
                raise ParseError(f"line {lineno}, column {col}: {tok!r} is not an integer")
        rows.append(row)
    n = len(rows)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ParseError(
                f"line {lineno}: expected {n} entries for a square matrix, got {len(row)}"
            )
    return ExchangeMatrix.from_rows(rows, 0)


def build_seed(matrix: ExchangeMatrix, coeffs: str, rng_seed: int) -> Seed:
    """Coefficient mode: trivial | principal | tropical:M | file:PATH; an
    extended input matrix always selects geometric mode directly."""
    if matrix.m > 0:
        if coeffs != "trivial":
            raise ParseError("an extended matrix already fixes the coefficients")
        return Seed.initial_geometric(matrix)
    if coeffs == "trivial":
        return coefficient_free_seed(matrix)
    if coeffs == "principal":
        return principal_seed(matrix)
    if coeffs.startswith("tropical:"):
        try:
            rank = int(coeffs.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad tropical rank in {coeffs!r}")
        return random_tropical_seed(matrix, _checked_rank(rank, repr(coeffs)), rng_seed)
    if coeffs.startswith("file:"):
        path = coeffs.split(":", 1)[1]
        with open(path) as fh:
            try:
                obj = json.load(fh)
                rank, vectors = obj["rank"], obj["coefficients"]
            except KeyError as exc:
                raise ParseError(f"coefficient file {path} has no key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad coefficient file {path}: {exc}") from exc
        # JSON integers and lists only, as ExchangeMatrix.from_json takes them
        require(list, vectors if type(vectors) is list else [vectors], f"bad coefficient file {path}")
        require(int, [rank, *(e for v in vectors for e in v)], f"bad coefficient file {path}")
        tuples = [TropicalElement(v) for v in vectors]
        _checked_rank(rank, path)
        if len(tuples) != matrix.n:
            raise ParseError(f"need {matrix.n} coefficient vectors")
        for i, t in enumerate(tuples, 1):
            if len(t.exps) != rank:
                raise ParseError(f"coefficient vector {i} in {path} has {len(t.exps)} entries, not rank {rank}")
        return Seed.initial_general(matrix, TropicalSemifield(rank), tuple(tuples))
    raise ParseError(f"unknown coefficient mode {coeffs!r}")


def _checked_rank(rank: int, source: str) -> int:
    if rank < 0:
        raise ParseError(f"negative tropical rank in {source}")
    if rank > MAX_TROPICAL_RANK:
        raise ParseError(f"tropical rank {rank} in {source} is above {MAX_TROPICAL_RANK}")
    return rank


def parse_path(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ParseError(f"bad mutation path {text!r}; expected comma-separated directions")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustermut",
        description="Exact cluster-algebra seeds, mutations, exchange graphs, "
        "compatible 2-forms, and theorem checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats):
        p.add_argument("matrix", help="matrix file, inline JSON, or whitespace rows")
        p.add_argument(
            "--coeffs",
            default="trivial",
            help="trivial | principal | tropical:M | file:PATH (default: trivial)",
        )
        p.add_argument("--format", default="text", choices=formats)
        p.add_argument("--depth", type=int, default=None, help="mutation depth limit")
        p.add_argument("--max-vertices", type=int, default=None)
        p.add_argument("--max-terms", type=int, default=None)
        p.add_argument("--workers", type=int, default=1, help="accepted; no effect")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized coefficients")

    p_mutate = sub.add_parser("mutate", help="apply a mutation path and print the seed")
    add_common(p_mutate, ["text", "json"])
    p_mutate.add_argument("path", help="comma-separated 1-based directions, e.g. 1,2,1")

    p_enum = sub.add_parser("enumerate", help="enumerate the exchange graph")
    add_common(p_enum, ["text", "json", "dot"])

    p_export = sub.add_parser("export", help="export the exchange graph")
    add_common(p_export, ["text", "json", "dot"])
    p_export.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p_forms = sub.add_parser("forms", help="compatible 2-form basis")
    p_forms.add_argument("matrix")
    p_forms.add_argument("--format", default="text", choices=["text", "json"])
    p_forms.add_argument("--mutate", type=int, default=None, metavar="K",
                         help="also print the basis mutated in direction K")

    p_verify = sub.add_parser("verify", help="machine-check the structural theorems")
    add_common(p_verify, ["text", "json"])
    p_verify.add_argument("--check", default="all", choices=("all",) + ALL_CHECKS)
    p_verify.add_argument("--timings", action="store_true", help="include wall-clock times")
    return parser


def _budget(value: int | None, flag: str, env: str, default: int) -> int:
    """The flag's value, else the environment variable's, else the default;
    a negative budget is a usage error (zero is legal)."""
    source = flag
    if value is None:
        text = os.environ.get(env)
        if text is None:
            return default
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"{env}={text!r} is not an integer")
        source = env
    if value < 0:
        raise ParseError(f"{source} must be nonnegative, got {value}")
    return value


def _budgets(args) -> tuple[int, int]:
    return (
        _budget(args.max_vertices, "--max-vertices", "CLUSTERMUT_MAX_VERTICES", DEFAULT_MAX_VERTICES),
        _budget(args.max_terms, "--max-terms", "CLUSTERMUT_MAX_TERMS", DEFAULT_MAX_TERMS),
    )


def cmd_mutate(args, out) -> int:
    """Mutate along the path; the term budget caps the cluster after each
    step.  The vertex budget is validated but has nothing to bound here."""
    matrix = load_matrix(args.matrix)
    seed = build_seed(matrix, args.coeffs, args.seed)
    _, max_terms = _budgets(args)
    path = parse_path(args.path)
    for step, k in enumerate(path, start=1):
        seed = seed.mutate(k)
        if sum(len(p.terms) for p in seed.cluster) > max_terms:
            raise BudgetExceeded(
                f"term budget {max_terms} exhausted at step {step} of {len(path)}"
            )
    if args.format == "json":
        obj = {
            "cluster": [str(p) for p in seed.cluster],
            "coefficients": [str(y) for y in seed.coefficient_tuple()],
            "matrix": {"n": seed.matrix.n, "m": seed.matrix.m,
                       "rows": [list(r) for r in seed.matrix.rows]},
        }
        out.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    else:
        out.write(str(seed) + "\n")
    return EXIT_OK


def _enumerate(args):
    matrix = load_matrix(args.matrix)
    seed = build_seed(matrix, args.coeffs, args.seed)
    depth = args.depth if args.depth is not None else DEFAULT_DEPTH
    max_vertices, max_terms = _budgets(args)
    return enumerate_graph(seed, depth, max_vertices=max_vertices, max_terms=max_terms)


def cmd_enumerate(args, out) -> int:
    graph = _enumerate(args)
    if args.format in ("json", "dot"):
        out.write(graph.export(args.format).decode())
    else:
        status = "complete" if graph.complete else "frontier"
        out.write(f"{graph.vertex_count} vertices, {graph.edge_count} edges, {status}\n")
    return EXIT_OK


def cmd_export(args, out) -> int:
    graph = _enumerate(args)
    fmt = "dot" if args.format == "text" else args.format
    data = graph.export(fmt)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        out.write(data.decode())
    return EXIT_OK


def cmd_forms(args, out) -> int:
    matrix = load_matrix(args.matrix)
    space = compatible_form_space(matrix)
    mutated = None
    if args.mutate is not None:
        mutated = [mutate_form(f, matrix, args.mutate) for f in space.basis]
    if args.format == "json":
        obj = {
            "dimension": space.dimension,
            "basis": [[[str(x) for x in row] for row in f.omega] for f in space.basis],
        }
        if mutated is not None:
            obj["mutated"] = [[[str(x) for x in row] for row in f.omega] for f in mutated]
        out.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    else:
        out.write(f"dimension {space.dimension}\n")
        for i, f in enumerate(space.basis):
            out.write(f"basis element {i + 1}:\n{f}\n")
        if mutated is not None:
            for i, f in enumerate(mutated):
                out.write(f"mutated element {i + 1} (direction {args.mutate}):\n{f}\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    matrix = load_matrix(args.matrix)
    depth = args.depth if args.depth is not None else 6
    max_vertices, max_terms = _budgets(args)
    seed = build_seed(matrix, args.coeffs, args.seed)
    checks = ALL_CHECKS if args.check == "all" else (args.check,)
    merged = run_checks(matrix, seed, depth, checks, max_vertices, max_terms, args.seed)
    if args.format == "json":
        out.write(
            json.dumps([r.to_dict(include_timing=args.timings) for r in merged],
                       indent=1, sort_keys=True) + "\n"
        )
    else:
        for r in merged:
            line = f"{r.check}: {r.verdict}"
            if r.witness:
                line += f" [{r.witness}]"
            out.write(line + "\n")
    return EXIT_REFUTED if any(r.verdict == REFUTED for r in merged) else EXIT_OK


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    out = sys.stdout
    try:
        if getattr(args, "depth", None) is not None and args.depth < 0:
            raise ParseError(f"--depth must be nonnegative, got {args.depth}")
        commands = {"mutate": cmd_mutate, "enumerate": cmd_enumerate, "export": cmd_export,
                    "forms": cmd_forms, "verify": cmd_verify}
        return commands[args.command](args, out)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        ParseError,
        NondegenerateRequired,
        BadDirection,
        ContextMismatch,
        NotSkewSymmetrizable,
        ZeroRowUnsupported,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClusterMutError as exc:
        # NotDivisible and friends: the engine caught a broken invariant
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
