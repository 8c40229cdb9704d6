"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run is a closed loop with one client: each operation is one seeded
layout (``perfbench/layouts.py``) through one workload
(``perfbench/workloads.py``), starts when the previous one and its output
check have ended, and runs cache-cold.  Operations continue until their
summed wall time reaches ``--seconds``.

Before numpy is imported, BLAS and OpenMP are pinned to one thread and
every ``REPRO_*`` variable is removed; the run aborts (exit 3) if a
loaded OpenBLAS reports another thread count, and exits 2 without a
result when the program cannot be imported.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
three fresh interpreters, each timed from launch until it has imported
the program, run an untimed warm-up on a small layout outside the timed
set and built the first layout), ``op_p50_s``, ``ops_per_s`` and
``peak_rss_mb`` of this process.  ``--trace 1`` runs every layout twice,
untraced and traced in alternating order, and prints per-layer metrics
from the traced runs (see ``perfbench/tracer.py``) plus the tracing
overhead.  The last line of standard output is one JSON object; the full
record (environment, every operation, and in a traced run every span)
is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import env as bench_env  # noqa: E402  (standard library only)

#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 3

OUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units (``--trace 1``); values are means
#: per traced operation unless the name says otherwise.
PER_LAYER = {
    "geometry.build_s": "s",
    "extraction.exact_s": "s",
    "extraction.exact_calls": "count",
    "cache.hit_ratio": "ratio",
    "cache.misses": "count",
    "extraction.hier_s": "s",
    "extraction.hier_max_rank": "count",
    "extraction.aca_fallbacks": "count",
    "peec.build_s": "s",
    "sparsify.apply_s": "s",
    "mor.reduce_s": "s",
    "transient.solve_s": "s",
    "transient.steps": "count",
    "table1.peec_rc_s": "s",
    "table1.peec_rlc_s": "s",
    "table1.peec_rlc_shell_s": "s",
    "table1.peec_rlc_rom_s": "s",
    "table1.loop_rlc_s": "s",
    "mna.build_s": "s",
    "linalg.solve_s": "s",
    "linalg.solves": "count",
    "linalg.escalations": "count",
    "linalg.krylov_iters_per_solve": "ratio",
    "linalg.krylov_fallbacks": "count",
    "operator.far_lowrank_s": "s",
    "operator.far_rank": "count",
    "operator.z_rel_err": "ratio",
    "loop.build_s": "s",
    "loop.sweep_s": "s",
    "pool.sweep_s": "s",
    "pool.chunks": "count",
    "pool.serial_fallbacks": "count",
    "trace.op_p50_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Program counters read over each operation.
COUNTERS = (
    "extraction.cache.memory_hits",
    "extraction.cache.disk_hits",
    "extraction.cache.misses",
    "hierarchical.aca_fallbacks",
    "hierarchical.to_dense_calls",
    "solver.krylov_iterations",
    "solver.krylov_solves",
    "solver.krylov_fallbacks",
    "solver.escalated_solves",
    "transient.steps",
    "pool.chunks",
    "pool.fallback_serial",
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


class Bench:
    """One run: the imported program, the workload, the collected ops."""

    def __init__(self, args: argparse.Namespace) -> None:
        # Imported here, after the thread pin, so numpy sees it.
        from repro.obs import metrics as obs_metrics
        from repro.perf import cache

        from perfbench import checks, tracer, workloads

        self.args = args
        self.obs_metrics = obs_metrics
        self.cache = cache
        self.checks = checks
        self.tracer = tracer
        self.workload = workloads.WORKLOADS[args.workload]
        self.workloads = workloads
        self.refs = checks.load_references()
        self.ops: list[dict] = []
        self.spans: list[list[dict]] = []

    def counters(self) -> dict[str, float]:
        snap = self.obs_metrics.REGISTRY.export()["counters"]
        return {name: float(snap.get(name, 0.0)) for name in COUNTERS}

    def warm_up(self) -> None:
        """Pay lazy imports, pool start-up and first-call costs untimed."""
        from perfbench import layouts

        self.workload.run(layouts.warmup_params().build())
        self.release()

    def release(self) -> None:
        """Drop cached extractions and garbage and return freed heap pages,
        so that the next step starts cache-cold from the same footprint."""
        self.cache.clear_cache()
        gc.collect()
        bench_env.trim_heap()

    def execute(self, case, traced: bool, trace=None) -> dict:
        """Run one operation cache-cold; returns its timing and outputs."""
        self.release()
        before = self.counters()
        out, error = None, ""
        with ExitStack() as stack:
            if traced:
                from repro.obs.trace import tracing

                stack.enter_context(self.tracer.instrumented())
                stack.enter_context(tracing(trace))
            t0 = time.perf_counter()
            try:
                out = self.workload.run(case)
            except Exception as exc:  # an operation that raises fails
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        after = self.counters()
        return {
            "seconds": seconds,
            "out": out,
            "error": error,
            "traced": traced,
            "counters": {k: after[k] - before[k] for k in COUNTERS},
        }

    def check(self, index: int, op: dict, dense: dict | None) -> list[str]:
        if op["error"]:
            return [op["error"]]
        ref = self.checks.reference_for(
            self.refs, self.args.workload, self.args.seed, index
        )
        if self.args.workload == "table1":
            return self.checks.check_table1(op["out"], ref)
        return self.checks.check_loop(op["out"], ref, dense, op["counters"])

    def run_ops(self) -> None:
        """The closed loop: operations until their time reaches --seconds."""
        from repro.obs.trace import Trace, tracing

        timed = 0.0
        index = 0
        while timed < self.args.seconds:
            params = self.workload.params(self.args.seed, index)
            trace = Trace() if self.args.trace else None
            if trace is not None:
                with self.tracer.instrumented(), tracing(trace):
                    case = params.build()
                # Alternate which half of the pair runs first.
                order = (False, True) if index % 2 == 0 else (True, False)
            else:
                case = params.build()
                order = (False,)
            # The reference runs first, each step from a released heap,
            # so that the high-water mark is the largest operation's.
            dense = None
            if self.workload.needs_dense_reference:
                self.release()
                dense = self.workloads.dense_reference(case)
            ops = [self.execute(case, traced, trace) for traced in order]
            for op in ops:
                op["index"] = index
                op["params"] = params.to_json()
                op["problems"] = self.check(index, op, dense)
                if dense is not None and op["out"] is not None:
                    op["z_rel_err"] = self.checks.z_rel_err(
                        op["out"]["z"], dense["z"]
                    )
                timed += op["seconds"]
                self.ops.append(op)
                self._echo(op)
            if trace is not None:
                self.spans.append(self.tracer.to_records(trace))
            index += 1

    def _echo(self, op: dict) -> None:
        status = "ok" if not op["problems"] else "FAIL " + "; ".join(
            op["problems"])
        extra = ""
        if "z_rel_err" in op:
            extra = f" z_rel_err={op['z_rel_err']:.3e}"
        print(f"perfbench: op {op['index']}"
              f"{' traced' if op['traced'] else ''} "
              f"{op['params']['topology']} {op['seconds']:.3f}s{extra} "
              f"{status}", flush=True)


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Launch-to-ready seconds of :data:`SETUP_SAMPLES` fresh interpreters."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe exited {proc.returncode} before ready"
            )
        samples.append(elapsed)
    return samples


def per_layer_metrics(ops: list[dict], spans: list[list[dict]],
                      tracer) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of the traced operations, and the layer table."""
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    n = len(traced)
    totals: dict[str, dict[str, float]] = {}
    for records in spans:
        for layer, row in tracer.layer_totals(records).items():
            acc = totals.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                            "total_s": 0.0})
            for key in acc:
                acc[key] += row[key]

    def layer(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0.0) / n

    def count(name: str) -> float:
        return sum(op["counters"][name] for op in traced) / n

    def max_attr(layer_name: str, attr: str) -> float:
        values = [rec["attrs"].get(attr, 0) for records in spans
                  for rec in records
                  if rec["name"] == tracer.PREFIX + layer_name]
        return float(max(values, default=0))

    hits = count("extraction.cache.memory_hits") + count(
        "extraction.cache.disk_hits")
    misses = count("extraction.cache.misses")
    solves = count("solver.krylov_solves")
    p50_traced = statistics.median(op["seconds"] for op in traced)
    p50_untraced = statistics.median(op["seconds"] for op in untraced)
    metrics = {
        "geometry.build_s": layer("geometry.build"),
        "extraction.exact_s": layer("extraction.exact"),
        "extraction.exact_calls": layer("extraction.exact", "calls"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.misses": misses,
        "extraction.hier_s": layer("extraction.hier"),
        "extraction.hier_max_rank": max_attr("extraction.hier", "max_rank"),
        "extraction.aca_fallbacks": count("hierarchical.aca_fallbacks"),
        "peec.build_s": layer("peec.build"),
        "sparsify.apply_s": layer("sparsify.apply"),
        "mor.reduce_s": layer("mor.reduce"),
        "transient.solve_s": layer("transient.solve"),
        "transient.steps": count("transient.steps"),
        "mna.build_s": layer("mna.build"),
        "linalg.solve_s": layer("linalg.solve"),
        "linalg.solves": layer("linalg.solve", "calls"),
        "linalg.escalations": count("solver.escalated_solves"),
        "linalg.krylov_iters_per_solve": (
            count("solver.krylov_iterations") / solves if solves else 0.0),
        "linalg.krylov_fallbacks": count("solver.krylov_fallbacks"),
        "operator.far_lowrank_s": layer("operator.far_lowrank"),
        "operator.far_rank": max_attr("operator.far_lowrank", "rank"),
        "operator.z_rel_err": max(
            (op.get("z_rel_err", 0.0) for op in traced), default=0.0),
        "loop.build_s": layer("loop.build"),
        "loop.sweep_s": layer("loop.sweep"),
        "pool.sweep_s": layer("pool.sweep"),
        "pool.chunks": count("pool.chunks"),
        "pool.serial_fallbacks": count("pool.fallback_serial"),
        "trace.op_p50_s": p50_traced,
        "trace.untraced_op_p50_s": p50_untraced,
        "trace.overhead_ratio": p50_traced / p50_untraced - 1.0,
    }
    for row in ("peec_rc", "peec_rlc", "peec_rlc_shell", "peec_rlc_rom",
                "loop_rlc"):
        # Row times are inclusive: the Table-1 "run-time" column.
        metrics[f"table1.{row}_s"] = layer(f"table1.{row}", "total_s")
    return metrics, totals


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Only the standard library is loaded so far: pin before numpy.
    pins = bench_env.pin_threads(1)
    cleared = bench_env.clear_repro_env()
    try:
        import numpy  # noqa: F401  (after the pin)
        import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

        from repro.resilience.faults import inject_faults
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        blas = bench_env.verify_threads(1)
    except (bench_env.PinError, OSError) as exc:
        print(f"perfbench: BLAS thread pin did not take: {exc}",
              file=sys.stderr)
        return 3

    bench = Bench(args)
    # No injected fault may reach a measured run, ambient or otherwise.
    with inject_faults():
        bench.warm_up()
        first = bench.workload.params(args.seed, 0)
        if args.setup_only:
            first.build()
            print("ready", flush=True)
            return 0
        own_setup = time.perf_counter() - T_START
        setup_samples = measure_setup(args)
        record = bench_env.environment_record(
            blas, cleared, bench.workload.workers)
        print("perfbench: env " + json.dumps(record, sort_keys=True),
              flush=True)
        bench.run_ops()

    ops = bench.ops
    failed = sum(1 for op in ops if op["problems"])
    measured = [op for op in ops if not op["traced"]]
    op_seconds = [op["seconds"] for op in measured]
    z_errs = [op["z_rel_err"] for op in ops if "z_rel_err" in op]
    summary = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(op_seconds),
        "ops_per_s": len(op_seconds) / sum(op_seconds),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{len(ops)} ops, {failed} failed "
          f"(op_fail_ratio {failed / len(ops):.3f}); "
          f"op_p50_s {summary['op_p50_s']:.4f} over {len(op_seconds)} "
          f"untraced ops; setup samples "
          f"{', '.join(f'{s:.3f}' for s in setup_samples)} s "
          f"(this process {own_setup:.3f} s)", flush=True)
    if z_errs:
        print(f"perfbench: z_rel_err max {max(z_errs):.3e} over "
              f"{len(z_errs)} ops (documented contract 1e-6)", flush=True)

    if args.trace:
        layer_values, totals = per_layer_metrics(ops, bench.spans,
                                                 bench.tracer)
        print(bench.tracer.format_table(
            totals, sum(1 for op in ops if op["traced"])), flush=True)
        print(f"perfbench: tracing overhead "
              f"{layer_values['trace.overhead_ratio'] * 100:+.2f}% "
              f"(traced op_p50 {layer_values['trace.op_p50_s']:.4f} s vs "
              f"untraced {layer_values['trace.untraced_op_p50_s']:.4f} s)",
              flush=True)
        metrics = {name: {"value": float(layer_values[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(summary[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    _write_record(args, record, ops, bench.spans, metrics, setup_samples,
                  own_setup, pins)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def _write_record(args, record, ops, spans, metrics, setup_samples,
                  own_setup, pins) -> None:
    """The full run record, written once at the end."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"{args.workload}-seed{args.seed}-"
                      f"trace{args.trace}.json")
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": record,
        "thread_pins": pins,
        "setup_samples_s": setup_samples,
        "process_setup_s": own_setup,
        "metrics": metrics,
        "ops": [{
            "index": op["index"],
            "traced": op["traced"],
            "seconds": op["seconds"],
            "params": op["params"],
            "problems": op["problems"],
            "z_rel_err": op.get("z_rel_err"),
            "counters": op["counters"],
        } for op in ops],
        "spans": spans,
    }) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
