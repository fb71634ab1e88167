"""The repository benchmark: one command, four workloads, two kinds of run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decode --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times (reporting the median
set-up time), measures one untraced window, checks every output, and
prints the end-to-end metrics.  ``--trace 1`` additionally measures a
second window with spans around each layer's public seams and prints the
per-layer metrics, a self-time table whose rows sum to the window, and
the tracing overhead; the spans go to ``perfbench/out/`` as Chrome Trace
Event JSON.  The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

# Pin the run environment before numpy (or anything importing it) loads:
# one BLAS/OpenMP thread per process, so pool workers do not oversubscribe.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402 — after the thread pinning above

from tracing import Tracer, attribution_table, write_chrome_trace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def metric_units():
    """Metric name -> unit, end-to-end and per-layer, from BENCHMARK.json
    (the one owner of both lists)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def percentile(values, q: float) -> float:
    """``q``-th percentile; failed operations (inf) miss every limit."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float("inf")
    method = "linear" if np.all(np.isfinite(values)) else "higher"
    return float(np.percentile(values, q, method=method))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(phase, rss_mb: float) -> dict:
    completed = phase.attempted - phase.failed
    return {
        "setup_s": statistics.median(phase.setup_s),
        "peak_rss_mb": rss_mb,
        "throughput_rps": completed / phase.window_s,
        "p50_ms": percentile(phase.latencies_ms, 50),
        "p90_ms": percentile(phase.latencies_ms, 90),
        "tokens_per_s": phase.tokens / phase.window_s,
    }


def per_layer(workload, phase, spans, untraced_p50_ms: float):
    """Layer metrics of the traced window.  Busy times (``*_ms``) are the
    layer's inclusive span time per completed operation of the workload
    (request, ``generate`` call or sweep); a layer the workload does not
    reach reads 0.  Returns the metrics and the self-time table."""
    ops = max(phase.attempted - phase.failed, 1)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def busy_ns(*names) -> int:
        return sum(s.dur_ns for n in names for s in by_name.get(n, ()))

    def per_op_ms(*names) -> float:
        return busy_ns(*names) / 1e6 / ops

    def attr_sum(names, key) -> float:
        return sum(s.attrs.get(key, 0) for n in names for s in by_name.get(n, ()))

    def ns_per_element(name) -> float:
        elements = attr_sum([name], "elements")
        return busy_ns(name) / elements if elements else 0.0

    backend = ("backend.run_rows", "backend.run")
    plan_spans = [s for n in backend for s in by_name.get(n, ()) if "passes" in s.attrs]
    plan_ids = {(s.pid, s.id) for s in by_name.get("plan.execute", ())}
    executor_in_plan = sum(
        s.dur_ns
        for n in ("compiled.run", "vectorized.run")
        for s in by_name.get(n, ())
        if (s.pid, s.parent) in plan_ids
    )
    llm_ns = busy_ns("llm.generate", "sweep.evaluate")
    table = attribution_table(spans, phase.end_ns - phase.start_ns, workload.lanes)
    extra = phase.extra
    tokens = max(phase.tokens, 1)
    sim = workload.sim_per_token(phase) if hasattr(workload, "sim_per_token") else (0.0, 0.0)
    ticks_ns = busy_ns("serve.tick")
    requests = ops if "digests" in extra else 0
    values = {
        "serve.queue_wait_ms.p50": percentile(extra.get("queue_wait_ms") or [0.0], 50),
        "serve.queue_wait_ms.p99": percentile(extra.get("queue_wait_ms") or [0.0], 99),
        "serve.ticks": extra.get("ticks", 0),
        "serve.batch_requests.mean": extra.get("batch_requests_mean", 0.0),
        "serve.batch_rows.mean": extra.get("batch_rows_mean", 0.0),
        "serve.admit_us_per_request": (
            ((phase.end_ns - phase.start_ns) - ticks_ns) / 1e3 / requests
            if requests else 0.0
        ),
        "serve.coalesce_ms": per_op_ms("serve.coalesce"),
        "serve.split_ms": per_op_ms("serve.split"),
        "serve.pad_efficiency": (
            attr_sum(["serve.coalesce"], "useful")
            / max(attr_sum(["serve.coalesce"], "coalesced"), 1)
        ),
        "reliability.degrades": extra.get("degrades", 0),
        "reliability.retries": extra.get("retries", 0),
        "backend.calls": sum(len(by_name.get(n, ())) for n in backend),
        "backend.busy_ms": per_op_ms(*backend),
        "cluster.passes": sum(s.attrs["passes"] for s in plan_spans),
        "cluster.occupancy.mean": (
            float(np.mean([s.attrs["occupancy"] for s in plan_spans]))
            if plan_spans else 0.0
        ),
        "plan.lowerings": len(by_name.get("plan.lower", ())),
        "plan.lowering_ms": per_op_ms("plan.lower"),
        "plan.lowerings_per_token": len(by_name.get("plan.lower", ())) / tokens,
        "plan.execute_ms": per_op_ms("plan.execute"),
        "plan.prologue_ms": (busy_ns("plan.execute") - executor_in_plan) / 1e6 / ops,
        "plan.ns_per_element": ns_per_element("plan.execute"),
        "quant.quantize_ms": per_op_ms("quant.quantize"),
        "compiled.compiles": len(by_name.get("compiled.compile", ())),
        "compiled.compile_ms": per_op_ms("compiled.compile"),
        "compiled.run_ms": per_op_ms("compiled.run"),
        "compiled.ns_per_element": ns_per_element("compiled.run"),
        "compiled.arena_bytes": max(
            [s.attrs["arena_bytes"] for s in plan_spans] or [0]
        ),
        "vectorized.run_ms": per_op_ms("vectorized.run"),
        "vectorized.ns_per_element": ns_per_element("vectorized.run"),
        "integer_softmax.busy_ms": per_op_ms("integer_softmax.forward"),
        "integer_softmax.ns_per_element": ns_per_element("integer_softmax.forward"),
        "llm.softmax_share": busy_ns(*backend) / llm_ns if llm_ns else 0.0,
        "llm.prefill_ms": per_op_ms("llm.prefill"),
        "llm.decode_step_ms": per_op_ms("llm.decode_step"),
        "llm.infer_ms": per_op_ms("llm.infer"),
        "sweep.pool_overhead_ms": (
            float(np.median(extra["pool_overhead_ms"]))
            if extra.get("pool_overhead_ms") else 0.0
        ),
        "sweep.ppl_vs_fp": (
            workload.ppl_vs_fp(phase) if hasattr(workload, "ppl_vs_fp") else 0.0
        ),
        "sim.latency_us_per_token": sim[0],
        "sim.energy_uj_per_token": sim[1],
        "loadgen.late_ms.p99": percentile(phase.late_ms or [0.0], 99),
        "trace.overhead_ms": percentile(phase.latencies_ms, 50) - untraced_p50_ms,
        "trace.unattributed_share": table[-1][2],
    }
    return values, table


def stamp(args) -> dict:
    """Machine fingerprint, ``nproc``, seed and source identity."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None  # a plain source checkout: the digest identifies it
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    end_to_end_units, per_layer_units = metric_units()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"benchmark: no program source at {os.path.join(ROOT, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS  # imports the program from src/

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]()

    untraced = workload.measure(args.seed, args.seconds, workload.setups)
    rss = peak_rss_mb()
    e2e = end_to_end(untraced, rss)
    phases = [untraced]
    # p99 is kept out of the bounded set: on serve-poisson the top 1% of
    # requests fall into one to three host stall episodes per run, so it
    # swings by half from run to run.  It is recorded for reading only.
    report = {"end_to_end": e2e,
              "p99_ms": percentile(untraced.latencies_ms, 99)}
    if args.trace:
        tracer = Tracer(OUT)
        with tracer:
            traced = workload.measure(args.seed, args.seconds, 1, tracer)
        tracer.collect_children()
        phases.append(traced)
        spans = tracer.window(traced.start_ns, traced.end_ns)
        layers, table = per_layer(workload, traced, spans, e2e["p50_ms"])
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json")
        write_chrome_trace(tracer.spans, trace_path, traced.start_ns)
        print(f"self time over {workload.lanes} lane(s) x "
              f"{traced.window_s:.3f} s traced window ({args.workload}):")
        for name, ms, share in table:
            print(f"  {name:<28} {ms:12.3f} ms  {share:7.2%}")
        print(f"tracing overhead: p50 {layers['trace.overhead_ms']:+.3f} ms "
              f"(traced {percentile(traced.latencies_ms, 50):.3f} ms vs "
              f"untraced {e2e['p50_ms']:.3f} ms)")
        if tracer.missing:
            print("seams not found (layers read as idle): "
                  + ", ".join(tracer.missing))
        print(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
        report.update(per_layer=layers, table=table)

    failed = sum(workload.check(args.seed, phase) for phase in phases)
    failed += sum(phase.failed for phase in phases)
    if args.trace and hasattr(workload, "check_traced"):
        failed += workload.check_traced(untraced, traced)
    attempted = sum(phase.attempted for phase in phases)
    report["stamp"] = stamp(args)
    print(json.dumps(report["stamp"]))
    for name, value in e2e.items():
        print(f"{name:<16} {value:14.4f} {end_to_end_units[name]}")
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1, default=float)

    chosen = (
        {name: (report["per_layer"][name], unit)
         for name, unit in per_layer_units.items()}
        if args.trace
        else {name: (e2e[name], unit) for name, unit in end_to_end_units.items()}
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
