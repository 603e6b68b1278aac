#!/usr/bin/env python3
"""clustermut benchmark: seeded closed-loop workloads, timed end to end and
per layer.

    python3 bench/run.py --workload graph-a6 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1 --out bench/baseline.json

Each workload runs in one process and one thread, one pass after another,
against the clustermut sources in ``src/`` of this checkout.  With
``--trace 0`` it reports the end-to-end metrics of untraced passes, their
times over the time of a host-speed reference timed between them (see
``reference.py``); with ``--trace 1`` it runs two untraced and then two
traced passes and reports the per-layer metrics (see ``spans.py``).  Every
pass's answers are checked against known mathematical values (see
``workloads.py``).  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from reference import time_reference  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is short and noisy (cold page cache, .pyc compilation), so it is
# sampled in this many fresh processes and the median reported
SETUP_SAMPLES = 11

# share of a run spent timing the host-speed reference between passes
REFERENCE_SHARE = 0.1

# reference samples each set-up probe times after the set-up, and the
# reference's usual sample time on the 2-vCPU VM the baseline was recorded
# on: setup_s is the set-up time scaled to a host of that speed
SETUP_REFERENCE_SAMPLES = 5
REFERENCE_NOMINAL_S = 0.0225

END_TO_END_UNITS = {"wall_rel": "ratio", "cpu_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}

COUNT_METRICS = (
    "laurent.mul.calls", "laurent.mul.term_products", "laurent.exact_div.calls",
    "laurent.exact_div.quotient_terms", "laurent.max_terms", "laurent.max_coeff_bits",
    "laurent.substitute.calls", "laurent.fraction.ops", "laurent.normalized.calls",
    "laurent.render.calls", "seeds.mutate.calls", "seeds.canonicalize.calls",
    "seeds.key.calls", "seeds.key.bytes", "semifield.ops", "graph.vertices", "graph.layers",
    "graph.dedupe_hits", "graph.edges.calls", "graph.paths.nodes", "graph.export.bytes",
    "verify.adjacency.pairs", "verify.cases", "forms.mutate_form.calls", "cli.output_bytes",
)
COUNT_UNITS = {
    "laurent.mul.term_products": "products", "laurent.exact_div.quotient_terms": "terms",
    "laurent.max_terms": "terms", "laurent.max_coeff_bits": "bits", "seeds.key.bytes": "bytes",
    "graph.export.bytes": "bytes", "cli.output_bytes": "bytes",
}
RATIO_METRICS = ("laurent.normalized.cleared_ratio", "graph.new_vertex_ratio",
                 "trace.overhead", "trace.coverage")
PASS_METRICS = ("pass.first_s", "pass.warm_s")


def per_layer_units() -> dict[str, str]:
    units = {name: COUNT_UNITS.get(name, "count") for name in COUNT_METRICS}
    units.update({f"{span}.self_s": "s" for span in SPAN_NAMES if span != "pass"})
    units.update(dict.fromkeys(RATIO_METRICS, "ratio"))
    units.update(dict.fromkeys(PASS_METRICS, "s"))
    return units


def import_clustermut():
    """Import clustermut from this checkout's sources, nowhere else."""
    init = SRC / "clustermut" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a clustermut source checkout")
    sys.path.insert(0, str(SRC))
    import clustermut
    import clustermut.cli  # noqa: F401  (cli is not imported by the package)

    if Path(clustermut.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported clustermut from {clustermut.__file__}, not {init}")
    return clustermut


def setup_probe(args) -> None:
    """Child process: time importing clustermut and building the inputs,
    then the mean of a few reference samples, which saw the host at about
    the same speed."""
    t0 = time.perf_counter()
    cm = import_clustermut()
    WORKLOADS[args.workload](cm, args.seed, args.smoke)
    setup = time.perf_counter() - t0
    time_reference()  # warm-up, not recorded
    reference = statistics.fmean(time_reference()[0] for _ in range(SETUP_REFERENCE_SAMPLES))
    print(repr(setup), repr(reference))


def sample_setup(args) -> list[tuple[float, float]]:
    """(set-up seconds, mean reference seconds) from fresh processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: set-up probe exited with {done.returncode}")
        setup, reference = map(float, done.stdout.split()[-2:])
        samples.append((setup, reference))
    return samples


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Runner:
    """Runs passes of one workload and checks every answer."""

    def __init__(self, cm, workload):
        self.cm = cm
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.failures: list[str] = []

    def one_pass(self, tracer: Tracer | None = None):
        """Run and check one pass; returns (wall, cpu, outputs) or None if it raised."""
        gc.collect()
        if tracer is not None:
            tracer.install(self.cm)
            sid = tracer.open("pass")
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outputs = self.workload.run(self.cm)
        except Exception:
            self.record_crash("pass raised")
            return None
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.close(sid)
                tracer.uninstall()
        try:
            answers = self.workload.check(outputs)
            self.digests.append(self.workload.digest(outputs))
        except Exception:
            self.record_crash("answer check raised")
            return None
        for label, ok in answers:
            if ok:
                self.attempted += 1
            else:
                self.fail(label)
        return wall, cpu, outputs

    def fail(self, label: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(label)

    def record_crash(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.fail(what)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_end_to_end(args, cm, workload, setup: list[tuple[float, float]]) -> tuple[Runner, dict, dict]:
    runner = Runner(cm, workload)
    walls, cpus = [], []
    # bursts[i] holds the (wall, cpu) reference samples timed right before
    # pass i; the last burst follows the last pass
    bursts: list[list[tuple[float, float]]] = []

    def time_references(budget: float) -> None:
        """Reference samples until they took ``budget`` seconds (at least one)."""
        burst = [time_reference()]
        while sum(wall for wall, _ in burst) < budget:
            burst.append(time_reference())
        bursts.append(burst)

    time_reference()  # warm-up, not recorded
    start = time.perf_counter()
    # stop before a pass that would end past --seconds, so a run lasts about
    # --seconds whatever the pass length
    while True:
        budget = REFERENCE_SHARE * statistics.median(walls) if walls else 0.0
        if walls and time.perf_counter() - start + 2 * budget + statistics.median(walls) > args.seconds:
            break
        time_references(budget)
        timed = runner.one_pass()
        if timed is None:
            break
        walls.append(timed[0])
        cpus.append(timed[1])
    if walls:
        time_references(REFERENCE_SHARE * statistics.median(walls))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def local_ratios(times: list[float], which: int) -> list[float]:
        """Each pass's time over the mean reference time of the bursts right
        before and after it, which saw the host at the same speed."""
        return [
            t / statistics.fmean(sample[which] for sample in bursts[i] + bursts[i + 1])
            for i, t in enumerate(times)
        ]

    # the first pass is a warm-up, reported on its own; the medians are over
    # the passes after it
    warm = slice(1, None) if len(walls) > 1 else slice(None)
    wall_rel = local_ratios(walls, 0)[warm] if walls else []
    cpu_rel = local_ratios(cpus, 1)[warm] if walls else []
    ref_walls = [wall for burst in bursts for wall, _ in burst]
    values = {
        "wall_rel": statistics.median(wall_rel) if walls else 0.0,
        "cpu_rel": statistics.median(cpu_rel) if walls else 0.0,
        "setup_s": statistics.median(t / ref for t, ref in setup) * REFERENCE_NOMINAL_S,
        "peak_rss_mb": peak_mib,
    }
    detail = {"passes": len(walls), "wall_passes": walls, "cpu_passes": cpus,
              "wall_s": statistics.median(walls[warm]) if walls else 0.0,
              "cpu_s": statistics.median(cpus[warm]) if walls else 0.0,
              "wall_rel_passes": wall_rel, "reference_bursts": bursts,
              "reference_wall_s": statistics.median(ref_walls) if ref_walls else 0.0,
              "setup_samples": setup, "setup_raw_s": statistics.median(t for t, _ in setup),
              "wall_quartiles": quartiles(walls[warm]) if walls else None}
    return runner, values, detail


def run_traced(cm, workload) -> tuple[Runner, dict, dict]:
    runner = Runner(cm, workload)
    walls, traced_walls, tracers = [], [], []
    for _ in range(2):
        timed = runner.one_pass()
        if timed is None:
            return runner, {}, {}
        walls.append(timed[0])
    for _ in range(2):
        tracer = Tracer()
        timed = runner.one_pass(tracer)
        if timed is None:
            return runner, {}, {}
        traced_walls.append(timed[0])
        tracers.append(tracer)
        cli_bytes = workload.output_bytes(timed[2])
    counts = [t.exact_counts() for t in tracers]
    if counts[0] != counts[1]:
        runner.fail("per-layer counts differ between two traced passes")
    c = counts[0]
    values = {name: c.get(name, 0) for name in COUNT_METRICS}
    values["cli.output_bytes"] = cli_bytes
    values["laurent.normalized.cleared_ratio"] = (
        c.get("laurent.normalized.cleared", 0) / c["laurent.normalized.calls"]
        if c.get("laurent.normalized.calls") else 0.0
    )
    values["graph.new_vertex_ratio"] = (
        c.get("graph.new_vertices", 0) / c["graph.jobs"] if c.get("graph.jobs") else 0.0
    )
    selfs = [t.self_times() for t in tracers]
    for span in SPAN_NAMES:
        if span != "pass":
            values[f"{span}.self_s"] = statistics.mean(s[span] for s in selfs)
    values["trace.overhead"] = statistics.mean(traced_walls) / walls[1] - 1
    values["trace.coverage"] = min(t.coverage() for t in tracers)
    values["pass.first_s"] = walls[0]
    values["pass.warm_s"] = walls[1]
    detail = {"untraced_passes": walls, "traced_passes": traced_walls, "counts": c}
    return runner, values, detail


def run_one(args, cm) -> dict:
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit(), "loadavg_1m": os.getloadavg()[0],
    }
    setup = sample_setup(args) if not args.trace else []
    workload = WORKLOADS[args.workload](cm, args.seed, args.smoke)
    if args.trace:
        runner, values, detail = run_traced(cm, workload)
        units = per_layer_units()
    else:
        runner, values, detail = run_end_to_end(args, cm, workload, setup)
        units = END_TO_END_UNITS
    if len(set(runner.digests)) > 1:
        runner.fail("outputs differ between passes (traced or not)")
    correct = runner.failed == 0 and bool(values)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} python={stamp['python']} "
          f"nproc={stamp['nproc']} commit={stamp['commit']} loadavg_1m={stamp['loadavg_1m']:.2f}")
    for name, unit in units.items():
        if name in values:
            value = values[name]
            shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
            print(f"{name:40s} {shown:>16s} {unit}")
    if detail.get("wall_quartiles"):
        q1, q2, q3 = detail["wall_quartiles"]
        walls = detail["wall_passes"]
        print(f"wall_s over {max(len(walls) - 1, 1)} warm passes: q1 {q1:.4f} median {q2:.4f} "
              f"q3 {q3:.4f} s; first pass {walls[0]:.4f} s; cpu_s median {detail['cpu_s']:.4f} s")
        print(f"reference: {sum(map(len, detail['reference_bursts']))} samples in "
              f"{len(detail['reference_bursts'])} bursts, median {detail['reference_wall_s']:.6f} s")
        print(f"set-up over {len(detail['setup_samples'])} fresh processes: median "
              f"{detail['setup_raw_s']:.6f} s as measured")
    if "trace.overhead" in values:
        print(f"tracing overhead {values['trace.overhead']:+.1%} "
              f"(traced over untraced wall time, minus 1); spans cover "
              f"{values['trace.coverage']:.1%} of each traced pass")
    failed_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"failed_frac {failed_frac:.6g} ratio ({runner.failed} of {runner.attempted} answers)")
    for label in runner.failures[:20]:
        print(f"FAILED: {label}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    result = {"correct": correct, "attempted": max(runner.attempted, 1),
              "failed": runner.failed, "metrics": metrics}
    return {"stamp": stamp, "detail": detail, "result": result}


def run_all(args) -> dict:
    """One child process per workload (and per mode), so each has its own
    memory peak; their records are merged."""
    records = []
    for name in WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--record"]
            if args.smoke:
                argv.append("--smoke")
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or len(lines) < 2:
                raise SystemExit(f"error: {name} (trace {trace}) exited with {done.returncode}")
            print("\n".join(lines[:-2]))
            records.append(json.loads(lines[-2]))
    metrics = {
        f"{r['stamp']['workload']}.{key}": value
        for r in records for key, value in r["result"]["metrics"].items()
    }
    result = {
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": metrics,
    }
    return {"runs": records, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the same code paths on A2/G2-sized inputs at depth 3")
    parser.add_argument("--out", default=None, help="also write the full record as JSON here")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    cm = import_clustermut()  # fail before any child process starts
    record = run_all(args) if args.workload == "all" else run_one(args, cm)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.record:
        print(json.dumps(record, sort_keys=True))
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
