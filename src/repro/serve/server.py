"""Softmax-as-a-service: the asyncio request server with continuous batching.

:class:`SoftmaxServer` accepts concurrent softmax requests (``submit``
coroutines, or newline-delimited JSON over TCP via :meth:`serve_tcp`) and
serves them through **one** backend pass per scheduling tick: an admission
loop coalesces everything queued — within a ``max_wait_ms`` latency budget
and a ``max_batch_rows`` admission cap — into a single fused head-major
row space (:mod:`repro.serve.batching`), executes it through the backend's
``run_rows`` seam (for ``ap-cluster`` that is the planner's
``pass_row_budget`` tiling and two-stage pipeline schedule), and resolves
each request's future from its slice of the batch result.

Continuous batching falls out of the loop structure: while tick ``k``
executes on the worker thread, the event loop keeps accepting submissions,
so tick ``k + 1`` forms from everything that arrived in the meantime — the
batch composition adapts to the instantaneous load with no fixed batch
boundary.

Bit-identity is the serving contract: every response is **bit-identical**
to running its request alone through the same backend (pinned by
``tests/serve`` and ``benchmarks/test_serve_load.py``), because each
vector's lowered program is independent of its row-space neighbours and
masked ragged execution matches un-padded execution exactly.

Reliability (:mod:`repro.reliability`) composes on top without touching
the fast path:

* **deadlines** — ``submit(..., deadline_ms=...)`` (or the server-wide
  ``default_deadline_ms``) bounds a request's life; a request that
  expires in the backlog fails with a structured
  :class:`~repro.reliability.retry.DeadlineExceeded` instead of queueing
  forever, and a response that lands late carries ``deadline_missed``.
* **retries** — a :class:`~repro.reliability.retry.RetryPolicy` retries
  *transient* per-request failures (e.g. injected engine faults) with
  capped exponential backoff + seeded jitter on the worker thread;
  ``retries`` / ``backoff_ms`` surface on the response.
* **engine fallback** — an ``engine_chain`` (compiled -> vectorized ->
  reference) puts a circuit breaker per engine: repeated failures trip
  the breaker and degrade the chain one level, half-open probes recover
  it, and — because every plan engine is bit-identical by construction —
  the response bits never change, only the latency.  :meth:`health`
  reports availability, error counts, and the breaker state.

Per-request telemetry rides on the uniform
:class:`~repro.runtime.backend.SoftmaxResult` shape: each response carries
its slice of the probabilities, its energy share of the batch pass, the
pass latency, and the batch's :class:`~repro.mapping.plan.PlanTelemetry`;
the tick's composition (``batch_requests`` / ``batch_rows``) is on the
response itself.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.ap.engine import canonical_engine_name
from repro.reliability import faults
from repro.reliability.breaker import EngineFallbackChain
from repro.reliability.retry import DeadlineExceeded, RetryPolicy
from repro.runtime.backend import (
    ApClusterBackend,
    BackendSpec,
    SoftmaxBackend,
    SoftmaxResult,
    resolve_backend,
    rows_runner,
)
from repro.serve.batching import as_request_matrix, coalesce, split, take_admissible
from repro.utils.validation import check_positive_int

__all__ = [
    "ServeResponse",
    "ServerClosed",
    "ServerHealth",
    "ServerStats",
    "SoftmaxServer",
]


class ServerClosed(RuntimeError):
    """Raised by ``submit`` when the server is (or gets) shut down."""


@dataclass(frozen=True)
class ServeResponse:
    """One served request: probabilities plus serving-side telemetry.

    ``result`` is the per-request :class:`SoftmaxResult` view of the batch
    pass (sliced probabilities, pass latency, energy share, the batch's
    plan telemetry).  ``tick_result`` is the whole coalesced pass, shared
    by every request of the tick (its probabilities cover the whole tick);
    ``result`` is derived from it on first access, because building a
    result per request on the worker thread is a measurable share of a
    saturated tick and most clients only read ``probabilities``.
    ``queue_wait_s`` is the time the request sat queued before its tick
    executed; ``batch_requests`` / ``batch_rows`` the composition of the
    coalesced tick that served it (``batch_requests`` is the tick's queue
    depth).

    The reliability fields: ``engine`` names the fallback-chain engine
    that produced the response (``None`` without a chain), ``retries`` /
    ``backoff_ms`` the per-request retry attempts and total backoff spent
    before success, and ``deadline_missed`` flags a response that
    completed after its deadline had already passed (delivered anyway —
    only *queued* requests are expired).
    """

    probabilities: np.ndarray
    queue_wait_s: float
    batch_requests: int
    batch_rows: int
    tick: int
    tick_result: SoftmaxResult = field(repr=False, compare=False)
    engine: Optional[str] = None
    retries: int = 0
    backoff_ms: float = 0.0
    deadline_missed: bool = False

    @cached_property
    def result(self) -> SoftmaxResult:
        """This request's view of ``tick_result``: its own probabilities
        and its row share of the pass energy."""
        probabilities = self.probabilities
        rows = 1 if probabilities.ndim == 1 else probabilities.shape[0]
        cost = self.tick_result.cost
        if cost is not None:
            share = rows / self.batch_rows
            cost = replace(cost, energy_j=cost.energy_j * share)
        return replace(self.tick_result, probabilities=probabilities, cost=cost)


@dataclass(frozen=True)
class ServerStats:
    """Aggregate admission-loop counters since the server started."""

    ticks: int
    requests: int
    rows: int
    max_queue_depth: int

    @property
    def mean_batch_requests(self) -> float:
        """Mean coalesced requests per scheduling tick."""
        return self.requests / self.ticks if self.ticks else 0.0

    @property
    def mean_batch_rows(self) -> float:
        """Mean fused row-space height per scheduling tick."""
        return self.rows / self.ticks if self.ticks else 0.0


@dataclass(frozen=True)
class ServerHealth:
    """The server's reliability surface: availability + breaker state."""

    requests_completed: int
    requests_failed: int
    deadline_expired: int
    retries: int
    backoff_ms: float
    engine: Optional[str]
    breaker_state: str
    degrades: int
    recoveries: int
    transitions: Tuple[str, ...]

    @property
    def availability(self) -> float:
        """Fraction of finished requests that got a response."""
        finished = self.requests_completed + self.requests_failed
        return self.requests_completed / finished if finished else 1.0

    @property
    def error_rate(self) -> float:
        return 1.0 - self.availability

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "deadline_expired": self.deadline_expired,
            "retries": self.retries,
            "backoff_ms": self.backoff_ms,
            "availability": self.availability,
            "error_rate": self.error_rate,
            "engine": self.engine,
            "breaker_state": self.breaker_state,
            "degrades": self.degrades,
            "recoveries": self.recoveries,
            "transitions": list(self.transitions),
        }


class _Pending:
    """One queued request: normalised payload + the future to resolve."""

    __slots__ = (
        "scores",
        "lengths",
        "squeeze",
        "future",
        "enqueued",
        "deadline",
        "deadline_ms",
    )

    def __init__(
        self,
        scores,
        lengths,
        squeeze,
        future,
        enqueued,
        deadline=None,
        deadline_ms=None,
    ) -> None:
        self.scores = scores
        self.lengths = lengths
        self.squeeze = squeeze  # 1-D request: give the response back 1-D
        self.future = future
        self.enqueued = enqueued
        self.deadline = deadline  # absolute time.monotonic() cutoff
        self.deadline_ms = deadline_ms

    @property
    def rows(self) -> int:
        return self.scores.shape[0]

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline


def _is_client_error(error: BaseException) -> bool:
    """Request-shape/validation errors say nothing about engine health."""
    return isinstance(error, (ValueError, TypeError))


class SoftmaxServer:
    """Asyncio softmax server with continuous-batching admission.

    Parameters
    ----------
    backend:
        Anything :func:`~repro.runtime.backend.resolve_backend` accepts —
        a backend name, a :class:`BackendSpec`, or a built backend
        instance.  The coalesced ticks execute through the backend's
        ``run_rows`` seam, so every runtime backend (including
        ``ap-cluster``, whose row spaces the planner tiles against the
        cluster's ``pass_row_budget``) can serve.
    max_wait_ms:
        Admission latency budget: once a tick has its first request it
        waits at most this long for companions before executing.  Under
        saturation the wait never triggers — the queue is already
        non-empty when a tick forms.
    max_batch_rows:
        Admission cap on the fused row space's height (whole requests
        only; an oversized request becomes a tick of its own and the
        planner tiles it).  ``None`` admits everything queued.
    default_deadline_ms:
        Deadline applied to every request that does not carry its own
        ``deadline_ms``.  ``None`` (the default) never expires requests.
    retry_policy:
        :class:`~repro.reliability.retry.RetryPolicy` for transient
        per-request failures; ``None`` (the default) never retries.
        ``retry_seed`` seeds the backoff jitter stream.
    engine_chain:
        Ordered plan-engine fallback chain (e.g. ``("compiled",
        "vectorized", "reference")``: fast path, per-op AP, bit-serial
        ground truth).  Requires ``backend`` to be a name
        or :class:`BackendSpec` — the server builds one runner per
        engine (sharing the underlying cluster for ``ap-cluster``) and a
        circuit breaker per level (``breaker_*`` knobs).  Engines are
        bit-identical by construction, so degradation never changes
        response bits.

    Lifecycle
    ---------
    ``start()`` (idempotent; ``submit`` auto-starts) spins up the
    admission loop and the single worker thread.  A submitted request
    lives in the asyncio queue, then the admission backlog (possibly
    carried over across ticks under ``max_batch_rows``), then an
    executing tick.  ``close()`` cancels admission, waits for the
    in-flight tick to finish on the worker, and fails **every** request
    that never got a response — queued, backlogged, or in-flight — with
    :class:`ServerClosed`; no future is ever left pending.  Submitting
    to a closed server raises :class:`ServerClosed` immediately.  A
    server is bound to the event loop that started it and cannot be
    restarted after ``close()``.
    """

    def __init__(
        self,
        backend: Union[str, BackendSpec, SoftmaxBackend],
        *,
        max_wait_ms: float = 2.0,
        max_batch_rows: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        engine_chain: Optional[Sequence[str]] = None,
        breaker_failure_threshold: int = 3,
        breaker_probe_interval: int = 8,
        breaker_max_probes: Optional[int] = None,
    ) -> None:
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.max_wait_ms = max_wait_ms
        if max_batch_rows is not None:
            check_positive_int(max_batch_rows, "max_batch_rows")
        self.max_batch_rows = max_batch_rows
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        self.default_deadline_ms = default_deadline_ms
        self.retry_policy = retry_policy
        self._retry_rng = np.random.default_rng(retry_seed)
        self._fallback: Optional[EngineFallbackChain] = None
        self._runners: Dict[str, Any] = {}
        if engine_chain is not None:
            self._init_engine_chain(
                backend,
                engine_chain,
                breaker_failure_threshold,
                breaker_probe_interval,
                breaker_max_probes,
            )
        else:
            self.backend = resolve_backend(backend)
            self._run_rows = rows_runner(self.backend)
        self._max_line_bytes = 1 << 20
        self._queue: Optional[asyncio.Queue] = None
        self._backlog: Deque[_Pending] = deque()
        self._in_flight: List[_Pending] = []
        self._admission_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._ticks = 0
        self._requests = 0
        self._rows = 0
        self._max_queue_depth = 0
        self._completed = 0
        self._failed = 0
        self._deadline_expired = 0
        self._retries_total = 0
        self._backoff_ms_total = 0.0

    def _init_engine_chain(
        self,
        backend,
        engine_chain,
        failure_threshold,
        probe_interval,
        max_probes,
    ) -> None:
        if not isinstance(backend, (str, BackendSpec)):
            raise ValueError(
                "engine_chain needs a backend name or BackendSpec — the "
                "server builds one runner per chain engine"
            )
        spec = backend if isinstance(backend, BackendSpec) else BackendSpec(name=backend)
        chain = tuple(canonical_engine_name(e) for e in engine_chain)
        self.backend = resolve_backend(replace(spec, engine=chain[0]))
        self._run_rows = rows_runner(self.backend)
        self._runners = {chain[0]: self._run_rows}
        for engine in chain[1:]:
            if isinstance(self.backend, ApClusterBackend):
                # Share the primary's cluster: plans and executors are
                # cached per (plan, engine) pair, so siblings are cheap.
                sibling = ApClusterBackend(
                    replace(self.backend.spec, engine=engine),
                    cluster=self.backend.cluster,
                )
            else:
                sibling = resolve_backend(replace(spec, engine=engine))
            self._runners[engine] = rows_runner(sibling)
        self._fallback = EngineFallbackChain(
            chain,
            failure_threshold=failure_threshold,
            probe_interval=probe_interval,
            max_probes=max_probes,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    async def start(self) -> "SoftmaxServer":
        """Start the admission loop (idempotent; ``submit`` auto-starts)."""
        if self._closed:
            raise ServerClosed("server is closed")
        if self._admission_task is None:
            self._queue = asyncio.Queue()
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
            self._admission_task = asyncio.get_running_loop().create_task(
                self._admission_loop()
            )
        return self

    async def close(self) -> None:
        """Stop admitting, drain the worker, and fail unresolved requests.

        See the class docstring's Lifecycle section: the in-flight tick
        (if any) finishes on the worker thread, then every request whose
        future is still pending — queued, in the carry-over backlog, or
        in that final tick — fails with :class:`ServerClosed`.
        """
        if self._closed:
            return
        self._closed = True
        if self._admission_task is not None:
            self._admission_task.cancel()
            try:
                await self._admission_task
            except asyncio.CancelledError:
                pass
            self._admission_task = None
        if self._executor is not None:
            # Joins the in-flight tick; its results were abandoned when
            # the admission task was cancelled mid-await.
            self._executor.shutdown(wait=True)
            self._executor = None
        abandoned = list(self._backlog) + list(self._in_flight)
        self._backlog.clear()
        self._in_flight = []
        if self._queue is not None:
            while not self._queue.empty():
                abandoned.append(self._queue.get_nowait())
            self._queue = None
        for pending in abandoned:
            if not pending.future.done():
                self._failed += 1
                pending.future.set_exception(
                    ServerClosed("server closed before the request ran")
                )

    async def __aenter__(self) -> "SoftmaxServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def stats(self) -> ServerStats:
        return ServerStats(
            ticks=self._ticks,
            requests=self._requests,
            rows=self._rows,
            max_queue_depth=self._max_queue_depth,
        )

    def health(self) -> ServerHealth:
        """Reliability snapshot: availability, retries, breaker state."""
        fallback = self._fallback
        return ServerHealth(
            requests_completed=self._completed,
            requests_failed=self._failed,
            deadline_expired=self._deadline_expired,
            retries=self._retries_total,
            backoff_ms=self._backoff_ms_total,
            engine=None if fallback is None else fallback.current_engine,
            breaker_state=(
                "disabled"
                if fallback is None
                else fallback.state_of(fallback.engines[0])
            ),
            degrades=0 if fallback is None else fallback.degrades,
            recoveries=0 if fallback is None else fallback.recoveries,
            transitions=(
                ()
                if fallback is None
                else tuple(str(t) for t in fallback.transitions)
            ),
        )

    # ------------------------------------------------------------------ #
    # Submission                                                           #
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        scores: np.ndarray,
        valid_lengths: Optional[np.ndarray] = None,
        deadline_ms: Optional[float] = None,
    ) -> ServeResponse:
        """Submit one request and await its served response.

        Shape validation happens here, eagerly — a malformed request
        raises at the call site instead of poisoning a coalesced batch.
        ``deadline_ms`` (falling back to the server's
        ``default_deadline_ms``) bounds the request's life: expiring in
        the queue raises :class:`DeadlineExceeded`.
        """
        if self._closed:
            raise ServerClosed("server is closed")
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        squeeze = np.asarray(scores).ndim == 1
        matrix, lengths = as_request_matrix(scores, valid_lengths)
        await self.start()
        loop = asyncio.get_running_loop()
        pending = _Pending(
            matrix,
            lengths,
            squeeze,
            loop.create_future(),
            loop.time(),
            deadline=(
                None
                if deadline_ms is None
                else time.monotonic() + deadline_ms / 1000.0
            ),
            deadline_ms=deadline_ms,
        )
        assert self._queue is not None
        self._queue.put_nowait(pending)
        return await pending.future

    # ------------------------------------------------------------------ #
    # Admission loop                                                       #
    # ------------------------------------------------------------------ #
    async def _admission_loop(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        assert queue is not None
        while True:
            if not self._backlog:
                self._backlog.append(await queue.get())
            await self._gather_companions(loop, queue)
            self._expire_backlog(loop)
            if not self._backlog:
                continue
            admitted = take_admissible(
                [p.rows for p in self._backlog], self.max_batch_rows
            )
            batch = [self._backlog.popleft() for _ in range(admitted)]
            tick_start = loop.time()
            self._ticks += 1
            self._requests += len(batch)
            self._rows += sum(p.rows for p in batch)
            self._max_queue_depth = max(self._max_queue_depth, len(batch))
            self._in_flight = batch
            try:
                outcomes = await loop.run_in_executor(
                    self._executor, self._execute_batch, batch, tick_start
                )
            except Exception as error:  # noqa: BLE001 — fail the whole tick
                outcomes = [error] * len(batch)
            # Not a finally: cancellation (close() mid-tick) must leave
            # the batch in _in_flight so close() can fail its futures.
            self._in_flight = []
            for pending, outcome in zip(batch, outcomes):
                if pending.future.done():
                    continue
                if isinstance(outcome, Exception):
                    self._failed += 1
                    if isinstance(outcome, DeadlineExceeded):
                        self._deadline_expired += 1
                    pending.future.set_exception(outcome)
                else:
                    self._completed += 1
                    pending.future.set_result(outcome)

    def _expire_backlog(self, loop) -> None:
        """Fail every backlogged request whose deadline already passed."""
        if all(p.deadline is None for p in self._backlog):
            return
        now = time.monotonic()
        keep: Deque[_Pending] = deque()
        for pending in self._backlog:
            if pending.expired(now) and not pending.future.done():
                self._failed += 1
                self._deadline_expired += 1
                waited_ms = (loop.time() - pending.enqueued) * 1000.0
                pending.future.set_exception(
                    DeadlineExceeded(pending.deadline_ms, waited_ms)
                )
            else:
                keep.append(pending)
        self._backlog = keep

    async def _gather_companions(self, loop, queue) -> None:
        """Fill the backlog until the admission cap or latency budget hits.

        Everything already queued is drained without waiting (the
        continuous-batching fast path under load); only a tick that is
        still below the cap keeps waiting, up to ``max_wait_ms`` past its
        first request.
        """
        deadline = loop.time() + self.max_wait_ms / 1000.0
        while True:
            rows = sum(p.rows for p in self._backlog)
            if self.max_batch_rows is not None and rows >= self.max_batch_rows:
                return
            try:
                self._backlog.append(queue.get_nowait())
                continue
            except asyncio.QueueEmpty:
                pass
            remaining = deadline - loop.time()
            if remaining <= 0:
                return
            try:
                self._backlog.append(
                    await asyncio.wait_for(queue.get(), remaining)
                )
            except asyncio.TimeoutError:
                return

    # ------------------------------------------------------------------ #
    # Batch execution (worker thread)                                      #
    # ------------------------------------------------------------------ #
    def _next_engine(self) -> Tuple[Optional[str], bool]:
        if self._fallback is None:
            return None, False
        return self._fallback.next_call()

    def _runner(self, engine: Optional[str]):
        return self._run_rows if engine is None else self._runners[engine]

    def _record_outcome(
        self, engine: Optional[str], probe: bool, error: Optional[BaseException]
    ) -> None:
        """Feed one execution outcome to the fallback chain's breakers.

        Client errors (shape/validation) say nothing about engine health:
        they carry no breaker signal, and a probe they interrupted is
        aborted (back to open, slot refunded) rather than failed.
        """
        if self._fallback is None or engine is None:
            return
        if error is None:
            self._fallback.on_success(engine, probe)
        elif _is_client_error(error):
            if probe:
                self._fallback.abort_probe(engine)
        else:
            self._fallback.on_failure(engine, probe)

    def _execute_batch(
        self, batch: List[_Pending], tick_start: float
    ) -> List[Union[ServeResponse, Exception]]:
        """Run one coalesced tick; on failure, isolate the offender.

        A batch that raises falls back to per-request execution (with the
        retry policy, when configured) so one bad request — or one
        transient engine fault — cannot fail its tick companions: the
        healthy requests still get (standalone, hence bit-identical)
        responses.
        """
        tick = self._ticks
        engine, probe = self._next_engine()
        try:
            faults.fire("serve:tick")
            fused = coalesce([(p.scores, p.lengths) for p in batch])
            result = self._runner(engine)(
                fused.scores, valid_lengths=fused.valid_lengths
            )
        except Exception as error:  # noqa: BLE001
            self._record_outcome(engine, probe, error)
            return [
                self._execute_single(pending, tick, tick_start)
                for pending in batch
            ]
        self._record_outcome(engine, probe, None)
        parts = split(fused, result.probabilities)
        now = time.monotonic()
        return [
            ServeResponse(
                probabilities=part[0] if pending.squeeze else part,
                queue_wait_s=max(0.0, tick_start - pending.enqueued),
                batch_requests=len(batch),
                batch_rows=fused.rows,
                tick=tick,
                tick_result=result,
                engine=engine,
                deadline_missed=pending.expired(now),
            )
            for pending, part in zip(batch, parts)
        ]

    def _execute_single(
        self, pending: _Pending, tick: int, tick_start: float
    ) -> Union[ServeResponse, Exception]:
        """Standalone execution of one request of a failed tick.

        With a :class:`RetryPolicy`, transient failures back off and try
        again (re-reading the fallback chain each attempt, so a breaker
        trip mid-loop reroutes the next attempt to a healthy engine)
        until the retry budget or the request's deadline runs out.
        """
        policy = self.retry_policy
        retries = 0
        backoff_total = 0.0
        while True:
            engine, probe = self._next_engine()
            try:
                result = self._runner(engine)(
                    pending.scores, valid_lengths=pending.lengths
                )
            except Exception as error:  # noqa: BLE001
                self._record_outcome(engine, probe, error)
                if (
                    policy is None
                    or not policy.retryable(error)
                    or retries >= policy.max_retries
                ):
                    return error
                if pending.expired():
                    return DeadlineExceeded(
                        pending.deadline_ms,
                        (time.monotonic() - pending.deadline) * 1000.0
                        + pending.deadline_ms,
                    )
                delay_ms = policy.backoff_ms(retries, self._retry_rng)
                time.sleep(delay_ms / 1000.0)
                retries += 1
                backoff_total += delay_ms
                self._retries_total += 1
                self._backoff_ms_total += delay_ms
                continue
            self._record_outcome(engine, probe, None)
            break
        probabilities = (
            result.probabilities[0] if pending.squeeze else result.probabilities
        )
        return ServeResponse(
            probabilities=probabilities,
            queue_wait_s=max(0.0, tick_start - pending.enqueued),
            batch_requests=1,
            batch_rows=pending.rows,
            tick=tick,
            tick_result=result,
            engine=engine,
            retries=retries,
            backoff_ms=backoff_total,
            deadline_missed=pending.expired(),
        )

    # ------------------------------------------------------------------ #
    # TCP front end (newline-delimited JSON)                               #
    # ------------------------------------------------------------------ #
    async def serve_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = 1 << 20,
    ) -> asyncio.AbstractServer:
        """Expose the server over TCP as newline-delimited JSON.

        Request lines are ``{"id": ..., "scores": [[...]], "valid_lengths":
        [...]?, "deadline_ms": ...?}``; each gets one response line
        ``{"id": ..., "probabilities": ..., "batch_requests": n,
        "batch_rows": r, "tick": t, "queue_wait_ms": w, ...}`` or a
        structured error ``{"id": ..., "error": msg, "code": code}`` with
        ``code`` one of ``bad-json`` / ``bad-request`` / ``oversized`` /
        ``deadline`` / ``closed`` / ``error``.  ``{"op": "health"}``
        returns the :meth:`health` snapshot.  A malformed, unknown-field,
        or oversized line never kills the connection: the client gets the
        error reply (with its request id whenever the line parsed) and
        the stream keeps serving.  Lines longer than ``max_line_bytes``
        are discarded wholesale.  Requests on one connection are handled
        concurrently, so a pipelining client coalesces with itself.  The
        caller owns the returned ``asyncio.Server``
        (``server.sockets[0].getsockname()`` for the bound port).
        """
        check_positive_int(max_line_bytes, "max_line_bytes")
        self._max_line_bytes = max_line_bytes
        await self.start()
        return await asyncio.start_server(
            self._handle_connection, host, port, limit=max_line_bytes
        )

    async def _handle_connection(self, reader, writer) -> None:
        lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                line, oversized = await _read_request_line(reader)
                if oversized:
                    await self._send_reply(
                        writer,
                        lock,
                        {
                            "id": None,
                            "error": (
                                "request line exceeds "
                                f"{self._max_line_bytes} bytes"
                            ),
                            "code": "oversized",
                        },
                    )
                    continue
                if line is None:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._handle_line(line, writer, lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _send_reply(self, writer, lock, reply: Dict[str, Any]) -> None:
        async with lock:
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()

    async def _handle_line(self, line: bytes, writer, lock) -> None:
        await self._send_reply(writer, lock, await self._reply_for_line(line))

    async def _reply_for_line(self, line: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(line, parse_constant=_reject_constant)
        except _NonFiniteLiteral as error:
            return {"id": None, "error": str(error), "code": "bad-request"}
        except json.JSONDecodeError as error:
            return {
                "id": None,
                "error": f"malformed JSON: {error}",
                "code": "bad-json",
            }
        if not isinstance(payload, dict):
            return {
                "id": None,
                "error": "request must be a JSON object",
                "code": "bad-request",
            }
        request_id = payload.get("id")
        unknown = sorted(set(payload) - _ALLOWED_KEYS)
        if unknown:
            return {
                "id": request_id,
                "error": f"unknown fields: {', '.join(unknown)}",
                "code": "bad-request",
            }
        if payload.get("op") == "health":
            return {"id": request_id, "health": self.health().to_dict()}
        if payload.get("op") is not None:
            return {
                "id": request_id,
                "error": f"unknown op {payload['op']!r}",
                "code": "bad-request",
            }
        if "scores" not in payload:
            return {
                "id": request_id,
                "error": "missing required field 'scores'",
                "code": "bad-request",
            }
        try:
            faults.fire("tcp:line")
            response = await self.submit(
                np.asarray(payload["scores"], dtype=np.float64),
                valid_lengths=payload.get("valid_lengths"),
                deadline_ms=payload.get("deadline_ms"),
            )
        except DeadlineExceeded as error:
            return {"id": request_id, "error": str(error), "code": "deadline"}
        except ServerClosed as error:
            return {"id": request_id, "error": str(error), "code": "closed"}
        except (ValueError, TypeError) as error:
            return {"id": request_id, "error": str(error), "code": "bad-request"}
        except Exception as error:  # noqa: BLE001 — report, keep serving
            return {"id": request_id, "error": str(error), "code": "error"}
        return {
            "id": request_id,
            "probabilities": response.probabilities.tolist(),
            "batch_requests": response.batch_requests,
            "batch_rows": response.batch_rows,
            "tick": response.tick,
            "queue_wait_ms": response.queue_wait_s * 1000.0,
            "retries": response.retries,
            "deadline_missed": response.deadline_missed,
        }


#: Keys a TCP request line may carry; anything else is a structured error.
_ALLOWED_KEYS = {"id", "scores", "valid_lengths", "deadline_ms", "op"}


class _NonFiniteLiteral(ValueError):
    """A ``NaN``/``Infinity``/``-Infinity`` literal on a request line."""


def _reject_constant(literal: str) -> Any:
    # json.loads accepts these non-JSON literals by default; a NaN score
    # row would then come back as a plausible uniform distribution.
    raise _NonFiniteLiteral(
        f"non-finite literal {literal} is not valid JSON; "
        f"scores must be finite numbers"
    )


async def _read_request_line(reader) -> Tuple[Optional[bytes], bool]:
    """Read one newline-terminated line; ``(None, False)`` on EOF.

    A line longer than the stream limit is discarded wholesale — every
    byte up to and including its newline — and reported as ``(None,
    True)`` without desynchronising the following lines.
    """
    try:
        return await reader.readuntil(b"\n"), False
    except asyncio.IncompleteReadError as error:
        return (error.partial if error.partial else None), False
    except asyncio.LimitOverrunError as error:
        await reader.readexactly(error.consumed)
        while True:
            try:
                await reader.readuntil(b"\n")
                return None, True
            except asyncio.LimitOverrunError as more:
                await reader.readexactly(more.consumed)
            except asyncio.IncompleteReadError:
                return None, True
