"""Runnable benchmark registry behind ``repro bench``.

The pinned-floor benchmarks under ``benchmarks/`` each carry a headline
workload, a speedup floor, and a metrics payload that lands in the
committed ``BENCH_<name>.json`` trajectory files (see
:mod:`repro.utils.trajectory`).  This module is the single source of truth
for all three — the pytest benchmarks import their floors, workloads and
payload builders from here, and the ``repro bench`` CLI replays the same
workloads outside pytest to regenerate the committed trajectory files and
render each benchmark's trend table.

One :class:`BenchSpec` per trajectory file:

========================  ==========================================
``llm_speed``             batched inference sweep vs the seed loop
``llm_generate``          KV-cache decode vs naive re-prefill
``plan_fusion``           fused cluster pass vs the per-head loop
``serve``                 continuous-batching serving vs serial
========================  ==========================================
"""

from __future__ import annotations

import difflib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.utils.trajectory import trajectory_path

__all__ = [
    "SWEEP_SPEEDUP_FLOOR",
    "LLM_SPEED_WORKLOAD",
    "GENERATE_SPEEDUP_FLOOR",
    "FUSED_SPEEDUP_FLOOR",
    "SERVE_SPEEDUP_FLOOR",
    "SERVE_WORKLOAD",
    "llm_speed_payload",
    "llm_generate_payload",
    "plan_fusion_payload",
    "serve_payload",
    "BenchResult",
    "BenchSpec",
    "UnknownBenchmarkError",
    "bench_names",
    "get_bench",
    "iter_benches",
    "run_bench",
    "render_trend",
]

# --------------------------------------------------------------------------- #
# Headline workloads and pinned floors (imported by benchmarks/)               #
# --------------------------------------------------------------------------- #

#: Pinned wall-clock floor of the batched sweep over the seed loop.
SWEEP_SPEEDUP_FLOOR = 5.0

#: The batched-inference acceptance workload (Tables III/IV shape).
LLM_SPEED_WORKLOAD = {
    "m_values": (4, 6, 8),
    "n_values": (8, 16),
    "training_steps": 120,
}

#: Pinned tokens/sec floor of KV-cache decode over naive re-prefill.
GENERATE_SPEEDUP_FLOOR = 3.0

#: Pinned wall-clock floor of the fused pass over the PR 2 per-head loop.
FUSED_SPEEDUP_FLOOR = 3.0

#: Pinned throughput floor of the continuous-batching server over the
#: serial one-request-per-pass baseline at a saturating arrival rate.
SERVE_SPEEDUP_FLOOR = 3.0

#: The serving acceptance workload: a saturating burst of single-row
#: requests (the regime where per-pass overhead dominates and coalescing
#: pays), served by the fused ``ap-cluster`` path with an admission cap
#: low enough that tick ``k + 1`` forms while tick ``k`` executes.
SERVE_WORKLOAD = {
    "rates": (1_000_000.0,),
    "num_requests": 256,
    "rows": (1, 1),
    "sequence_lengths": (32,),
    "ragged_fraction": 0.0,
    "max_wait_ms": 2.0,
    "max_batch_rows": 128,
}


# --------------------------------------------------------------------------- #
# Trajectory metrics payloads (shared by benchmarks/ and `repro bench`)        #
# --------------------------------------------------------------------------- #
def llm_speed_payload(report) -> Dict[str, Any]:
    """Trajectory metrics of one batched-inference sweep report."""
    return {
        "workload": {
            "backend": report.backend,
            "configurations": report.configurations,
            "segments": report.segments,
            "segment_length": report.segment_length,
            "max_batch": report.max_batch,
        },
        "bit_identical": report.bit_identical,
        "batched_seconds": report.batched_seconds,
        "seed_loop_seconds": report.loop_seconds,
        "sweep_speedup": report.speedup,
        "pinned_floor": SWEEP_SPEEDUP_FLOOR,
    }


def llm_generate_payload(report) -> Dict[str, Any]:
    """Trajectory metrics of one KV-cache decode report."""
    return {
        "workload": {
            "backend": report.backend,
            "batch": report.batch,
            "prompt_length": report.prompt_length,
            "max_new_tokens": report.max_new_tokens,
            "temperature": report.temperature,
        },
        "tokens_match": report.tokens_match,
        "cached_seconds": report.cached_seconds,
        "reprefill_seconds": report.prefill_seconds,
        "cached_tokens_per_second": report.cached_tokens_per_second,
        "reprefill_tokens_per_second": report.prefill_tokens_per_second,
        "decode_speedup": report.speedup,
        "pinned_floor": GENERATE_SPEEDUP_FLOOR,
    }


def plan_fusion_payload(report, pinned_floor: float) -> Dict[str, Any]:
    """Trajectory metrics of one cluster-parity report."""
    return {
        "workload": {
            "batch": report.batch,
            "heads": report.heads,
            "sequence_length": report.sequence_length,
        },
        "bit_identical": report.bit_identical,
        "fused_seconds": report.cluster_seconds,
        "per_head_loop_seconds": report.per_head_loop_seconds,
        "row_by_row_seconds": report.row_by_row_seconds,
        "fused_speedup": report.fused_speedup,
        "row_by_row_speedup": report.speedup,
        "pinned_floor": pinned_floor,
    }


def serve_payload(point) -> Dict[str, Any]:
    """Trajectory metrics of one saturating serve-load point."""
    return {
        "workload": {
            "backend": point.backend,
            "engine": point.engine,
            "rate_rps": point.rate_rps,
            "num_requests": point.num_requests,
            "max_wait_ms": point.max_wait_ms,
            "max_batch_rows": point.max_batch_rows,
        },
        "responses_identical": point.responses_identical,
        "served_seconds": point.serve_seconds,
        "serial_seconds": point.serial_seconds,
        "served_throughput_rps": point.throughput_rps,
        "serial_throughput_rps": point.serial_throughput_rps,
        "p50_ms": point.p50_ms,
        "p99_ms": point.p99_ms,
        "mean_batch_requests": point.mean_batch_requests,
        "mean_occupancy": point.mean_occupancy,
        "throughput_speedup": point.speedup,
        "pinned_floor": SERVE_SPEEDUP_FLOOR,
    }


# --------------------------------------------------------------------------- #
# The registry                                                                 #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BenchResult:
    """One benchmark run: the rendered report plus its trajectory metrics."""

    name: str
    rendered: str
    metrics: Dict[str, Any]


@dataclass(frozen=True)
class BenchSpec:
    """One runnable benchmark: name, description, and its runner."""

    name: str
    description: str
    runner: Callable[[bool], BenchResult]

    def run(self, fast: bool = False) -> BenchResult:
        result = self.runner(fast)
        if fast:
            # A fast run still records, but the entry is marked so a toy
            # number is never mistaken for a headline measurement.
            result.metrics["fast"] = True
        return result


class UnknownBenchmarkError(KeyError):
    """An unknown benchmark name, with a "did you mean" suggestion."""

    def __init__(self, name: str) -> None:
        valid = bench_names()
        close = difflib.get_close_matches(name, valid, n=1, cutoff=0.5)
        hint = f" — did you mean {close[0]!r}?" if close else ""
        super().__init__(
            f"unknown benchmark {name!r}{hint} "
            f"(run 'repro bench --list' to see all: {', '.join(valid)})"
        )
        self.name = name

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


def _run_llm_speed(fast: bool) -> BenchResult:
    from repro.runtime.registry import get_experiment

    experiment = get_experiment("llm-speed")
    config = dict(experiment.fast_config) if fast else dict(LLM_SPEED_WORKLOAD)
    report = experiment.run(config)
    return BenchResult(
        name="llm_speed",
        rendered=experiment.render(report),
        metrics=llm_speed_payload(report),
    )


def _run_llm_generate(fast: bool) -> BenchResult:
    from repro.runtime.registry import get_experiment

    experiment = get_experiment("llm-generate")
    config = dict(experiment.fast_config) if fast else {}
    report = experiment.run(config)
    return BenchResult(
        name="llm_generate",
        rendered=experiment.render(report),
        metrics=llm_generate_payload(report),
    )


def _run_plan_fusion(fast: bool) -> BenchResult:
    from repro.runtime.registry import get_experiment

    experiment = get_experiment("cluster-parity")
    fused = experiment.run(dict(experiment.fast_config) if fast else {})
    return BenchResult(
        name="plan_fusion",
        rendered=experiment.render(fused),
        metrics={
            "fused_vs_loop": plan_fusion_payload(fused, FUSED_SPEEDUP_FLOOR)
        },
    )


def _run_serve(fast: bool) -> BenchResult:
    from repro.runtime.registry import get_experiment

    experiment = get_experiment("serve-load")
    config = dict(experiment.fast_config) if fast else dict(SERVE_WORKLOAD)
    points = experiment.run(config)
    return BenchResult(
        name="serve",
        rendered=experiment.render(points),
        metrics=serve_payload(points[-1]),
    )


_BENCHES: Dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec(
            name="llm_speed",
            description="batched inference sweep vs the seed per-segment loop",
            runner=_run_llm_speed,
        ),
        BenchSpec(
            name="llm_generate",
            description="KV-cache decode vs naive re-prefill",
            runner=_run_llm_generate,
        ),
        BenchSpec(
            name="plan_fusion",
            description="fused cluster pass vs the per-head and row loops",
            runner=_run_plan_fusion,
        ),
        BenchSpec(
            name="serve",
            description="continuous-batching serving vs serial per-request",
            runner=_run_serve,
        ),
    )
}


def bench_names() -> List[str]:
    """All registered benchmark names, in registration order."""
    return list(_BENCHES)


def iter_benches() -> List[BenchSpec]:
    """All registered benchmark specs, in registration order."""
    return list(_BENCHES.values())


def get_bench(name: str) -> BenchSpec:
    """Look a benchmark up by name (with a "did you mean" on a miss)."""
    try:
        return _BENCHES[name]
    except KeyError:
        raise UnknownBenchmarkError(name) from None


def run_bench(name: str, fast: bool = False) -> BenchResult:
    """Run one registered benchmark's headline workload."""
    return get_bench(name).run(fast=fast)


# --------------------------------------------------------------------------- #
# Trend rendering                                                              #
# --------------------------------------------------------------------------- #
def _scalar_leaves(entry: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten one trajectory entry into dotted scalar columns.

    The ``machine`` fingerprint and ``workload`` subtrees describe the
    measurement context, not the trajectory, so they are skipped.
    """
    leaves: Dict[str, Any] = {}

    def visit(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key, nested in value.items():
                if key in ("machine", "workload", "pr"):
                    continue
                visit(f"{prefix}.{key}" if prefix else key, nested)
        elif isinstance(value, (bool, int, float)):
            leaves[prefix] = value

    visit("", entry)
    return leaves


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_trend(benchmark: str, directory: str) -> str:
    """Render one benchmark's committed trajectory as a trend table.

    One row per recorded PR label, one column per scalar metric (nested
    subtrees are flattened to dotted names; the machine fingerprint and
    workload description are omitted — wall-clock numbers only compare
    within one machine anyway).
    """
    path = trajectory_path(benchmark, directory)
    if not os.path.exists(path):
        return f"{benchmark}: no trajectory file at {path}"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return f"{benchmark}: unreadable trajectory file {path} ({error})"
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        return f"{benchmark}: no entries in {path}"
    columns: List[str] = []
    rows: List[Dict[str, Any]] = []
    for entry in entries:
        leaves = _scalar_leaves(entry)
        for key in leaves:
            if key not in columns:
                columns.append(key)
        rows.append({"pr": str(entry.get("pr", "?")), **leaves})
    widths = {
        column: max(len(column), *(len(_format_cell(row.get(column, ""))) for row in rows))
        for column in columns
    }
    pr_width = max(len("pr"), *(len(row["pr"]) for row in rows))
    lines = [f"Trajectory: {benchmark} ({path})"]
    lines.append(
        "  ".join(
            [f"{'pr':<{pr_width}}"]
            + [f"{column:>{widths[column]}}" for column in columns]
        )
    )
    for row in rows:
        cells = [f"{row['pr']:<{pr_width}}"]
        for column in columns:
            cell = _format_cell(row[column]) if column in row else "-"
            cells.append(f"{cell:>{widths[column]}}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
