"""Fused-vs-loop benchmark: the compiled-plan layer's pinned speedup.

The acceptance workload is the Tables III/IV cluster shape — a
``(batch, heads, seq)`` attention-score tensor executed on the
:class:`~repro.mapping.cluster.ApCluster`.  The fused pass on the default
``"compiled"`` engine (one wide head-major row space, fields kept packed
in a scratch arena end to end) must be **bit-identical** to the
per-head loop (one per-operation engine execution per head) and at least
**3x faster** wall-clock; in practice the gap is an order of magnitude or
more.

This module is the CI ``benchmark-smoke`` target: it runs without
``--runslow`` and, when ``REPRO_PERF_DIR`` is set, writes the measured
timings as a JSON artifact (``fused_speedup.json``); with
``REPRO_BENCH_TRAJECTORY_DIR`` set the same numbers append to the
committed in-repo trajectory file.
"""

import json
import os
import pathlib

from repro.runtime import get_experiment
from repro.runtime.bench import (
    FUSED_SPEEDUP_FLOOR,
    plan_fusion_payload as _report_payload,
)
from repro.utils.trajectory import record_benchmark


def _emit_perf_artifact(report, filename, pinned_floor, benchmark_name) -> None:
    """Write the timing JSON artifact when REPRO_PERF_DIR is set."""
    perf_dir = os.environ.get("REPRO_PERF_DIR")
    if not perf_dir:
        return
    path = pathlib.Path(perf_dir)
    path.mkdir(parents=True, exist_ok=True)
    payload = {"benchmark": benchmark_name, **_report_payload(report, pinned_floor)}
    with open(path / filename, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_fused_cluster_pass_beats_per_head_loop(benchmark):
    """Pin: fused >= 3x over the PR 2 per-head loop, bit-identical."""
    experiment = get_experiment("cluster-parity")
    report = benchmark.pedantic(experiment.run, iterations=1, rounds=1)
    print()
    print(experiment.render(report))
    _emit_perf_artifact(
        report, "fused_speedup.json", FUSED_SPEEDUP_FLOOR, "fused-vs-loop"
    )
    record_benchmark(
        "plan_fusion", {"fused_vs_loop": _report_payload(report, FUSED_SPEEDUP_FLOOR)}
    )
    assert report.bit_identical, "fused pass diverged from the loop baselines"
    assert report.fused_speedup >= FUSED_SPEEDUP_FLOOR, (
        f"fused pass only {report.fused_speedup:.1f}x faster than the "
        f"per-head loop (floor {FUSED_SPEEDUP_FLOOR:.0f}x)"
    )
