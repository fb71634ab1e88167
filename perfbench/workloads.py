"""The four workloads: inputs from the seed, a timed window, output checks.

Each workload class has ``measure`` (set up ``setups`` times, timing
each, then run one window of ``seconds``) and ``check`` (outside every
timed window: recompute the outputs another way and count each mismatch
as a failed operation).  ``measure`` takes an optional
installed tracer; the traced phase builds its own objects after the
tracer is installed so that bound methods taken at construction (the
server's row runner, for one) are the traced ones.

README.md in this directory says why each workload exists and which
layers it loads and bypasses.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.table3_4_perplexity import (
    PERPLEXITY_M_VALUES,
    PERPLEXITY_N_VALUES,
    run_perplexity_sweep,
    train_reference_model,
)
from repro.llm.config import LlamaConfig
from repro.llm.model import TinyLlamaModel
from repro.runtime.backend import (
    BackendSpec,
    resolve_backend,
    resolve_model_backend,
    rows_runner,
)
from repro.serve.server import SoftmaxServer

ENGINE_CHAIN = ("compiled", "vectorized", "reference")


@dataclass
class Phase:
    """What one measurement phase (untraced or traced) observed."""

    setup_s: List[float]
    start_ns: int = 0
    end_ns: int = 0
    latencies_ms: List[float] = field(default_factory=list)  # inf = failed
    tokens: int = 0
    late_ms: List[float] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def window_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return int(np.sum(~np.isfinite(self.latencies_ms)))


def digest(array: np.ndarray) -> bytes:
    array = np.ascontiguousarray(array)
    tag = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.blake2b(tag + array.tobytes(), digest_size=16).digest()


# --------------------------------------------------------------------------- #
# Serving: an open-loop driver timed from each request's due time              #
# --------------------------------------------------------------------------- #
class _Client:
    """Submits requests on a schedule through ``SoftmaxServer.submit``.

    Each request is timed from the moment it was *due*, not from when it
    was sent, so a stalled event loop shows as latency on every request
    queued behind the stall; ``late_ms`` records how late each send was.
    """

    def __init__(self, server: SoftmaxServer, phase: Phase) -> None:
        self.server = server
        self.phase = phase
        self.digests: Dict[int, bytes] = {}
        self.rows: Dict[int, int] = {}
        self.queue_wait_ms: List[float] = []

    async def _one(self, key: int, due: float, scores, lengths) -> None:
        try:
            response = await self.server.submit(scores, valid_lengths=lengths)
        except Exception:  # noqa: BLE001 — a failed request misses every limit
            self.phase.latencies_ms.append(float("inf"))
            return
        self.phase.latencies_ms.append((time.perf_counter() - due) * 1e3)
        self.digests[key] = digest(response.probabilities)
        self.queue_wait_ms.append(response.queue_wait_s * 1e3)

    def send(self, key: int, due: float, scores, lengths) -> asyncio.Task:
        self.phase.late_ms.append((time.perf_counter() - due) * 1e3)
        self.rows[key] = 1 if np.ndim(scores) == 1 else len(scores)
        return asyncio.get_running_loop().create_task(
            self._one(key, due, scores, lengths)
        )


class _ServeWorkload:
    """Shared set-up, window and bit-identity check of the serve-* pair."""

    sequence_length: int
    server_kwargs: Dict[str, Any] = {}
    lanes = 1  # the server's single worker thread
    setups = 9  # cheap: a median over more set-ups is steadier

    def spec(self) -> BackendSpec:
        return BackendSpec(
            name="ap-cluster",
            num_heads=4,
            sequence_length=self.sequence_length,
            options={"pass_row_budget": 4096},
        )

    def warmup_requests(self, seed: int) -> List[Tuple[np.ndarray, Any]]:
        raise NotImplementedError

    def request(self, seed: int, key: int) -> Tuple[np.ndarray, Any]:
        raise NotImplementedError

    async def window(self, client: _Client, seed: int, seconds: float) -> None:
        raise NotImplementedError

    async def _build(self, seed: int) -> SoftmaxServer:
        server = SoftmaxServer(
            self.spec(), engine_chain=ENGINE_CHAIN, **self.server_kwargs
        )
        await server.start()
        for scores, lengths in self.warmup_requests(seed):
            await server.submit(scores, valid_lengths=lengths)
        return server

    def measure(self, seed: int, seconds: float, setups: int, tracer=None) -> Phase:
        # Tick spans name their own operation (tracing.ROOT_OPS).
        return asyncio.run(self._measure(seed, seconds, setups))

    async def _measure(self, seed, seconds, setups) -> Phase:
        phase = Phase(setup_s=[])
        server = None
        for _ in range(setups):
            if server is not None:
                await server.close()
            start = time.perf_counter()
            server = await self._build(seed)
            phase.setup_s.append(time.perf_counter() - start)
        before = server.stats()
        client = _Client(server, phase)
        phase.start_ns = time.perf_counter_ns()
        await self.window(client, seed, seconds)
        phase.end_ns = time.perf_counter_ns()
        after, health = server.stats(), server.health()
        await server.close()
        ticks = after.ticks - before.ticks
        phase.tokens = sum(client.rows[k] for k in client.digests)
        phase.extra.update(
            digests=client.digests,
            queue_wait_ms=client.queue_wait_ms,
            ticks=ticks,
            batch_requests_mean=(after.requests - before.requests) / max(ticks, 1),
            batch_rows_mean=(after.rows - before.rows) / max(ticks, 1),
            degrades=health.degrades,
            retries=health.retries,
        )
        return phase

    def check(self, seed: int, phase: Phase) -> int:
        """Every response bit-identical to standalone ``run_rows`` on a
        fresh backend of the same spec."""
        run_rows = rows_runner(
            resolve_backend(replace(self.spec(), engine=ENGINE_CHAIN[0]))
        )
        failed = 0
        for key, served in sorted(phase.extra["digests"].items()):
            scores, lengths = self.request(seed, key)
            alone = run_rows(scores, valid_lengths=lengths).probabilities
            if np.ndim(scores) == 1:
                alone = alone[0]
            failed += digest(alone) != served
        return failed


class ServeBurst(_ServeWorkload):
    """Closed loop, one client: saturating bursts of single-row requests."""

    sequence_length = 32
    burst = 2048
    _cached: Tuple[Any, Any] = (None, None)

    def _round(self, seed: int, index: int) -> np.ndarray:
        rng = np.random.default_rng([seed, index])
        return rng.standard_normal((self.burst, self.sequence_length)) * 3.0

    def warmup_requests(self, seed):
        return [(row, None) for row in self._round(seed, 1 << 30)[:8]]

    def request(self, seed, key):
        index, row = divmod(key, self.burst)
        if self._cached[0] != (seed, index):  # check() walks keys in order
            self._cached = ((seed, index), self._round(seed, index))
        return self._cached[1][row], None

    async def window(self, client, seed, seconds):
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds:
            rows = self._round(seed, index)
            due = time.perf_counter()
            tasks = [
                client.send(index * self.burst + j, due, rows[j], None)
                for j in range(self.burst)
            ]
            await asyncio.gather(*tasks)
            index += 1


class ServePoisson(_ServeWorkload):
    """Open loop of independent users: Poisson arrivals, mixed shapes."""

    sequence_length = 512
    sequence_lengths = (64, 128, 256, 512)
    rate_rps = 400.0
    server_kwargs = {"max_batch_rows": 256, "max_wait_ms": 2.0}
    _cached: Tuple[Any, Any] = (None, None)

    def warmup_requests(self, seed):
        rng = np.random.default_rng([seed, 1 << 30])
        warm = []
        for seq in self.sequence_lengths:
            scores = rng.standard_normal((4, seq)) * 3.0
            warm.append((scores, None))
            warm.append((scores, rng.integers(1, seq + 1, size=4)))
        return warm

    def _stream(self, seed: int, seconds: float = 0.0):
        """Arrival offsets and request payloads, a pure function of the seed.

        Shapes come in balanced blocks — every (rows, seq, ragged)
        combination once per block, in seeded order — so every seed offers
        the same mix; scores are read-only views into one seeded pool, so
        sending a request costs the client no generation work.
        """
        if self._cached[0] == seed and len(self._cached[1][0]) >= self.rate_rps * seconds:
            return self._cached[1]
        rng = np.random.default_rng([seed, 1 << 31])
        count = int(self.rate_rps * seconds * 1.2) + 16
        offsets = np.cumsum(rng.exponential(1.0 / self.rate_rps, size=count))
        combos = [(rows, seq, ragged) for rows in range(1, 17)
                  for seq in self.sequence_lengths for ragged in (False, True)]
        pool = rng.standard_normal(1 << 20) * 3.0
        pool.flags.writeable = False
        requests = []
        while len(requests) < count:
            for pick in rng.permutation(len(combos)):
                rows, seq, ragged = combos[pick]
                start = int(rng.integers(0, pool.size - rows * seq))
                scores = pool[start:start + rows * seq].reshape(rows, seq)
                lengths = rng.integers(1, seq + 1, size=rows) if ragged else None
                requests.append((scores, lengths))
        self._cached = (seed, (offsets, requests))
        return offsets, requests

    def request(self, seed, key):
        return self._stream(seed)[1][key]

    async def window(self, client, seed, seconds):
        offsets, requests = self._stream(seed, seconds)
        epoch = time.perf_counter()
        tasks = []
        for key, offset in enumerate(offsets[offsets < seconds]):
            due = epoch + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            scores, lengths = requests[key]
            tasks.append(client.send(key, due, scores, lengths))
        await asyncio.gather(*tasks)


# --------------------------------------------------------------------------- #
# Decoding: closed loop over model.generate with a KV cache                     #
# --------------------------------------------------------------------------- #
class Decode:
    """One caller repeatedly decoding seeded ragged prompt batches."""

    lanes = 1
    setups = 5
    batches = 8
    batch = 2
    prompt_length = 96
    new_tokens = 64
    config = LlamaConfig(
        name="bench-decode",
        num_layers=2,
        num_heads=4,
        num_kv_heads=4,
        hidden_size=128,
        intermediate_size=256,
        vocab_size=128,
        max_context=256,
    )

    def prompts(self, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng([seed, 2])
        pool = []
        for _ in range(self.batches):
            tokens = rng.integers(0, self.config.vocab_size,
                                  size=(self.batch, self.prompt_length))
            # Distinct lengths: every batch decodes as `batch` ragged groups.
            lengths = rng.choice(np.arange(self.prompt_length - 12,
                                           self.prompt_length + 1),
                                 size=self.batch, replace=False)
            pool.append((tokens, lengths))
        return pool

    def _build(self, seed: int):
        model = TinyLlamaModel(self.config, seed=seed)
        backend = resolve_model_backend(
            "ap-cluster", self.config.num_heads, self.config.max_context
        )
        tokens, lengths = self.prompts(seed)[0]
        model.generate(tokens, self.new_tokens, valid_lengths=lengths,
                       backend=backend)
        return model, backend

    def measure(self, seed, seconds, setups, tracer=None) -> Phase:
        phase = Phase(setup_s=[])
        for _ in range(setups):
            start = time.perf_counter()
            model, backend = self._build(seed)
            phase.setup_s.append(time.perf_counter() - start)
        pool = self.prompts(seed)
        outputs: Dict[int, np.ndarray] = {}
        sim: Dict[int, Tuple[float, float, float, int]] = {}
        mismatched = 0
        phase.start_ns = time.perf_counter_ns()
        call = 0
        while (time.perf_counter_ns() - phase.start_ns) / 1e9 < seconds:
            index = call % self.batches
            tokens, lengths = pool[index]
            if tracer is not None:
                tracer.op = call
            telemetry = backend.telemetry
            telemetry.reset()  # per-call totals, free of accumulation rounding
            due = time.perf_counter()
            try:
                out = model.generate(tokens, self.new_tokens,
                                     valid_lengths=lengths, backend=backend)
            except Exception:  # noqa: BLE001 — a failed call misses every limit
                phase.latencies_ms.append(float("inf"))
                call += 1
                continue
            phase.latencies_ms.append((time.perf_counter() - due) * 1e3)
            phase.tokens += out.size
            delta = (telemetry.latency_s, telemetry.energy_j,
                     telemetry.cycles, telemetry.calls)
            if index not in outputs:
                outputs[index], sim[index] = out, delta
            elif not np.array_equal(out, outputs[index]) or delta != sim[index]:
                mismatched += 1  # greedy decoding must repeat exactly
            call += 1
        phase.end_ns = time.perf_counter_ns()
        phase.extra.update(model=model, backend=backend, outputs=outputs,
                           sim=sim, mismatched=mismatched)
        return phase

    def sim_per_token(self, phase: Phase) -> Tuple[float, float]:
        """Modelled AP microseconds and microjoules per generated token,
        over one decode of each prompt batch (deterministic per seed)."""
        sim = phase.extra["sim"]
        tokens = len(sim) * self.batch * self.new_tokens
        if not tokens:
            return 0.0, 0.0
        latency = sum(v[0] for v in sim.values())
        energy = sum(v[1] for v in sim.values())
        return latency * 1e6 / tokens, energy * 1e6 / tokens

    def check_traced(self, untraced: Phase, traced: Phase) -> int:
        """Tracing must not change a single simulated statistic."""
        a, b = untraced.extra["sim"], traced.extra["sim"]
        return sum(a[index] != b[index] for index in a.keys() & b.keys())

    def check(self, seed: int, phase: Phase) -> int:
        """Tokens of a seeded sampled batch equal the ``use_cache=False``
        re-prefill path's; repeated decodes of one batch were identical."""
        outputs = phase.extra["outputs"]
        if not outputs:
            return 0
        index = sorted(outputs)[seed % len(outputs)]
        tokens, lengths = self.prompts(seed)[index]
        model = phase.extra["model"]
        baseline = model.generate(
            tokens, self.new_tokens, valid_lengths=lengths,
            backend=resolve_model_backend(
                "ap-cluster", self.config.num_heads, self.config.max_context
            ),
            use_cache=False,
        )
        return phase.extra["mismatched"] + int(
            not np.array_equal(baseline, outputs[index])
        )


# --------------------------------------------------------------------------- #
# Perplexity sweep: Tables III/IV over the (M, N) grid on a process pool       #
# --------------------------------------------------------------------------- #
class PplSweep:
    """Closed loop of full precision-grid perplexity sweeps."""

    setups = 3  # each trains the reference model (~3 s)

    def __init__(self) -> None:
        self.workers = os.cpu_count() or 1
        self.lanes = self.workers

    def _sweep(self, model, corpus, workers: Optional[int], grid=None):
        m_values, n_values = grid or (PERPLEXITY_M_VALUES, PERPLEXITY_N_VALUES)
        return run_perplexity_sweep(
            model, corpus, m_values=m_values, n_values=n_values,
            include_m4=False, workers=workers,
        )

    def measure(self, seed, seconds, setups, tracer=None) -> Phase:
        phase = Phase(setup_s=[])
        for _ in range(setups):
            start = time.perf_counter()
            model, corpus = train_reference_model(seed=seed)
            phase.setup_s.append(time.perf_counter() - start)
        reference: Optional[List[float]] = None
        mismatched = 0
        overhead_ms: List[float] = []
        phase.start_ns = time.perf_counter_ns()
        sweep = 0
        while (time.perf_counter_ns() - phase.start_ns) / 1e9 < seconds:
            if tracer is not None:
                tracer.op = sweep
            due = time.perf_counter()
            try:
                points = self._sweep(model, corpus, self.workers)
            except Exception:  # noqa: BLE001 — a failed sweep misses every limit
                phase.latencies_ms.append(float("inf"))
                sweep += 1
                continue
            wall = time.perf_counter() - due
            phase.latencies_ms.append(wall * 1e3)
            phase.tokens += len(corpus.validation_tokens) * len(points)
            # The FP baseline runs in the caller; the grid shares the pool.
            grid = points[1:]
            ideal = points[0].seconds + sum(p.seconds for p in grid) / min(
                self.workers, len(grid))
            overhead_ms.append((wall - ideal) * 1e3)
            values = [p.perplexity for p in points]
            if reference is None:
                reference = values
            elif values != reference:
                mismatched += 1
            sweep += 1
        phase.end_ns = time.perf_counter_ns()
        phase.extra.update(model=model, corpus=corpus, perplexities=reference,
                           mismatched=mismatched, pool_overhead_ms=overhead_ms)
        return phase

    def ppl_vs_fp(self, phase: Phase) -> float:
        values = phase.extra["perplexities"]
        return max(values[1:]) / values[0] if values else 0.0

    def check(self, seed: int, phase: Phase) -> int:
        """Two seeded sampled grid points of the pooled sweep equal a serial
        evaluation of the same configurations; every sweep repeated."""
        values = phase.extra["perplexities"]
        if values is None:
            return 0
        grid = [(m, n) for m in PERPLEXITY_M_VALUES for n in PERPLEXITY_N_VALUES]
        rng = np.random.default_rng([seed, 3])
        failed = phase.extra["mismatched"]
        for pick in rng.choice(len(grid), size=2, replace=False):
            m, n = grid[pick]
            serial = self._sweep(phase.extra["model"], phase.extra["corpus"],
                                 None, grid=((m,), (n,)))
            failed += serial[0].perplexity != values[0]
            failed += serial[1].perplexity != values[1 + int(pick)]
        return failed


WORKLOADS = {
    "serve-burst": ServeBurst,
    "serve-poisson": ServePoisson,
    "decode": Decode,
    "ppl-sweep": PplSweep,
}
