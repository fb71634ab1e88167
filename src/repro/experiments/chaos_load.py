"""Chaos serving experiment: availability and latency under injected faults.

The ``chaos-load`` experiment drives the PR 8 load generator's seeded
Poisson request stream through a :class:`~repro.serve.server.SoftmaxServer`
configured with the full reliability stack — per-request deadlines, a
retry policy with capped exponential backoff + seeded jitter, and an
engine-fallback chain with circuit breakers — while a seeded
:class:`~repro.reliability.faults.FaultInjector` fails the primary plan
engine and stalls serving ticks on a declarative, replayable schedule.

The default fault schedule stages a **compiled-engine outage**: after a
warm-up window the ``engine:compiled`` seam raises a burst of transient
faults, which (a) exercises the per-request retry path, (b) trips the
compiled engine's breaker and degrades the chain to ``vectorized``, and
(c) — once the fault budget is exhausted — lets a half-open probe succeed
and recover the chain.  A low-probability latency spike on ``serve:tick``
perturbs the p99 on top.  The schedule is *event-indexed*: each spec
fires at deterministic positions in its seam's call sequence.  A report
still depends on how many ticks the stream forms: tick-latency stalls are
drawn per tick, a half-open probe that lands on a tick spawns no retry,
and a stream of few ticks can end before the recovery probe.  Under
coalescing, tick formation follows arrival timing.  The fast config admits
one request per tick (``max_batch_rows=1``), so its whole report replays
exactly.

The pins (asserted by ``benchmarks/test_chaos_load.py`` and the CI
chaos-smoke job):

* **availability >= 0.99** — the retry budget outlives the breaker's trip
  threshold, so every request survives the outage;
* **bit-identity** — every *successful* response equals the fault-free
  serial baseline bit for bit (engine degradation is invisible in the
  bits, because all plan engines are bit-identical by construction);
* **at least one breaker degrade and one recovery** observed in the
  chain's transition log.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.ap.engine import canonical_engine_name
from repro.reliability.breaker import EngineFallbackChain  # noqa: F401 (docs)
from repro.reliability.faults import FaultInjector, FaultSpec
from repro.reliability.retry import DeadlineExceeded, RetryPolicy
from repro.runtime.backend import (
    BackendSpec,
    canonical_backend_name,
    resolve_backend,
    rows_runner,
)
from repro.runtime.registry import Experiment, register
from repro.serve.loadgen import LoadProfile, drive_load, run_serial_baseline
from repro.serve.server import SoftmaxServer

__all__ = [
    "ChaosLoadReport",
    "default_fault_specs",
    "run_chaos_load",
    "render_chaos_load",
    "ChaosLoadExperiment",
]

#: Engine-fallback chain the chaos server degrades along.
DEFAULT_ENGINE_CHAIN: Tuple[str, ...] = ("compiled", "vectorized")


def default_fault_specs() -> Tuple[FaultSpec, ...]:
    """The default seeded fault schedule: outage + latency spikes.

    ``compiled-outage`` arms after 6 compiled executions and then fails
    the next 4 (enough consecutive failures to trip the default breaker,
    then enough failed half-open probes to exhaust the budget so the
    final probe succeeds and recovers the chain).  ``tick-latency``
    stalls ~10% of serving ticks by 1 ms.
    """
    return (
        FaultSpec(
            site="engine:compiled",
            kind="raise",
            start=6,
            count=4,
            name="compiled-outage",
        ),
        FaultSpec(
            site="serve:tick",
            kind="latency",
            latency_ms=1.0,
            probability=0.1,
            name="tick-latency",
        ),
    )


@dataclass(frozen=True)
class ChaosLoadReport:
    """One chaos run: availability, latency under faults, breaker story."""

    rate_rps: float
    num_requests: int
    backend: str
    engine_chain: str
    fault_events: int
    successes: int
    failures: int
    deadline_expired: int
    availability: float
    p50_ms: float
    p99_ms: float
    retries: int
    backoff_ms: float
    degrades: int
    recoveries: int
    transitions: Tuple[str, ...]
    final_engine: str
    successes_identical: bool


def run_chaos_load(
    rate_rps: float = 600.0,
    num_requests: int = 96,
    backend: str = "ap-cluster",
    engine_chain: Tuple[str, ...] = DEFAULT_ENGINE_CHAIN,
    num_heads: int = 2,
    sequence_lengths: Tuple[int, ...] = (16, 32),
    rows: Tuple[int, int] = (1, 2),
    ragged_fraction: float = 0.5,
    max_wait_ms: float = 2.0,
    max_batch_rows: Optional[int] = 64,
    deadline_ms: float = 5000.0,
    max_retries: int = 5,
    breaker_failure_threshold: int = 3,
    breaker_probe_interval: int = 2,
    fault_seed: int = 0,
    seed: int = 0,
    fault_specs: Optional[Sequence[FaultSpec]] = None,
) -> list:
    """Serve one seeded request stream under a seeded fault schedule.

    Runs the fault-free serial baseline first (the bit-identity
    reference), then the chaos deployment: deadlines + retries + the
    engine-fallback chain, with the :class:`FaultInjector` installed for
    exactly the serving window.  Returns ``[ChaosLoadReport]``.
    """
    canonical = canonical_backend_name(backend)
    chain = tuple(canonical_engine_name(e) for e in engine_chain)
    profile = LoadProfile(
        rate_rps=rate_rps,
        num_requests=num_requests,
        rows=rows,
        sequence_lengths=tuple(sequence_lengths),
        ragged_fraction=ragged_fraction,
        seed=seed,
    )
    requests = profile.requests()
    spec = BackendSpec(
        name=canonical,
        num_heads=num_heads,
        sequence_length=max(sequence_lengths),
    )

    # Fault-free reference: one standalone pass per request on the
    # chain's primary engine.
    serial_backend = resolve_backend(
        BackendSpec(
            name=canonical,
            num_heads=num_heads,
            sequence_length=max(sequence_lengths),
            engine=chain[0],
        )
    )
    reference, _ = run_serial_baseline(serial_backend, requests)

    server = SoftmaxServer(
        spec,
        max_wait_ms=max_wait_ms,
        max_batch_rows=max_batch_rows,
        default_deadline_ms=deadline_ms,
        retry_policy=RetryPolicy(max_retries=max_retries),
        retry_seed=fault_seed,
        engine_chain=chain,
        breaker_failure_threshold=breaker_failure_threshold,
        breaker_probe_interval=breaker_probe_interval,
    )
    # Warm every plan shape outside the injected window so the fault
    # schedule's event indices count served ticks, not compile touches.
    warm = rows_runner(server.backend)
    for seq in sorted(set(sequence_lengths)):
        warm(np.zeros((1, seq)))

    injector = FaultInjector(
        default_fault_specs() if fault_specs is None else fault_specs,
        seed=fault_seed,
    )

    async def _serve():
        async with server:
            report = await drive_load(server, requests)
            return report, server.health()

    with injector.install():
        report, health = asyncio.run(_serve())

    identical = all(
        np.array_equal(alone, outcome.response.probabilities)
        for alone, outcome in zip(reference, report.outcomes)
        if outcome.ok
    )
    deadline_failures = sum(
        1 for o in report.failures if isinstance(o.error, DeadlineExceeded)
    )
    return [
        ChaosLoadReport(
            rate_rps=rate_rps,
            num_requests=num_requests,
            backend=canonical,
            engine_chain="->".join(chain),
            fault_events=len(injector.events),
            successes=len(report.successes),
            failures=len(report.failures),
            deadline_expired=deadline_failures,
            availability=report.availability,
            p50_ms=report.p50_ms,
            p99_ms=report.p99_ms,
            retries=health.retries,
            backoff_ms=health.backoff_ms,
            degrades=health.degrades,
            recoveries=health.recoveries,
            transitions=tuple(health.transitions),
            final_engine=health.engine or chain[0],
            successes_identical=identical,
        )
    ]


def render_chaos_load(rows) -> str:
    """Render the chaos run as a short reliability report."""
    if not rows:
        return "chaos-load: no report"
    r = rows[0]
    transitions = ", ".join(r.transitions) if r.transitions else "none"
    return "\n".join(
        [
            (
                f"Chaos serving: backend {r.backend} (chain {r.engine_chain}), "
                f"{r.num_requests} requests at {r.rate_rps:g} rps, "
                f"{r.fault_events} injected fault events"
            ),
            (
                f"  availability {r.availability:.4f} "
                f"({r.successes} ok / {r.failures} failed, "
                f"{r.deadline_expired} deadline-expired)"
            ),
            (
                f"  latency p50 {r.p50_ms:.2f} ms, p99 {r.p99_ms:.2f} ms; "
                f"{r.retries} retries, {r.backoff_ms:.1f} ms backoff"
            ),
            (
                f"  breaker: {r.degrades} degrade(s), "
                f"{r.recoveries} recovery(ies) [{transitions}]; "
                f"final engine {r.final_engine}"
            ),
            (
                "  successful responses bit-identical to fault-free run: "
                + ("yes" if r.successes_identical else "NO")
            ),
        ]
    )


@register("chaos-load")
class ChaosLoadExperiment(Experiment):
    """Registry wrapper: serving reliability under a seeded fault schedule.

    ``--backend`` picks the served backend; ``--set`` knobs mirror
    :func:`run_chaos_load` (e.g. ``--set fault_seed=7`` replays a
    different but equally deterministic outage).
    """

    title = "Chaos serving"
    description = "availability + p50/p99 + breaker story under injected faults"
    row_type = ChaosLoadReport
    backend_config_key = "backend"
    fast_config = {
        "rate_rps": 800.0,
        "num_requests": 32,
        "sequence_lengths": (8, 16),
        "max_wait_ms": 1.0,
        "max_batch_rows": 1,
    }

    def run(self, config=None):
        kwargs = self._config_kwargs(config)
        for key in ("engine_chain", "sequence_lengths", "rows"):
            if key in kwargs and isinstance(kwargs[key], list):
                kwargs[key] = tuple(kwargs[key])
        return run_chaos_load(**kwargs)

    def render(self, result):
        return render_chaos_load(result)
