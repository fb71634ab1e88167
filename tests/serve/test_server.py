"""SoftmaxServer behaviour: coalescing, bit-identity, caps, TCP, faults.

The tests drive the asyncio server from synchronous pytest functions via
``asyncio.run`` — no plugin needed — and pin the serving contract: every
coalesced response is bit-identical to running its request alone through
the same backend.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.reliability.faults import FaultInjector, FaultSpec
from repro.reliability.retry import RetryPolicy
from repro.runtime.backend import BackendSpec, resolve_backend
from repro.serve.server import ServerClosed, SoftmaxServer
from repro.utils.validation import InvalidScoresError


def _requests():
    """Three concurrent mixed-shape requests (2-D, 1-D, ragged)."""
    rng = np.random.default_rng(42)
    return [
        (rng.standard_normal((2, 16)) * 3, None),
        (rng.standard_normal(8) * 3, None),
        (rng.standard_normal((3, 12)) * 3, np.array([4, 12, 7])),
    ]


def _standalone(spec, scores, lengths):
    """A fresh backend's standalone answer for one request."""
    result = resolve_backend(spec).run_rows(scores, valid_lengths=lengths)
    return (
        result.probabilities[0]
        if np.asarray(scores).ndim == 1
        else result.probabilities
    )


class TestCoalescing:
    SPEC = BackendSpec(name="ap-batch", num_heads=2, sequence_length=16)

    def test_concurrent_requests_coalesce_and_stay_bit_identical(self):
        async def scenario():
            async with SoftmaxServer(self.SPEC, max_wait_ms=50.0) as server:
                responses = await asyncio.gather(
                    *(
                        server.submit(scores, valid_lengths=lengths)
                        for scores, lengths in _requests()
                    )
                )
                return responses, server.stats()

        responses, stats = asyncio.run(scenario())
        # All three landed in one admission tick...
        assert {r.tick for r in responses} == {responses[0].tick}
        assert all(r.batch_requests == 3 for r in responses)
        assert all(r.batch_rows == 6 for r in responses)
        assert stats.ticks == 1 and stats.requests == 3 and stats.rows == 6
        # ...and each response is bit-identical to standalone execution.
        for (scores, lengths), response in zip(_requests(), responses):
            np.testing.assert_array_equal(
                response.probabilities,
                _standalone(self.SPEC, scores, lengths),
            )

    def test_one_dimensional_request_gets_one_dimensional_response(self):
        async def scenario():
            async with SoftmaxServer(self.SPEC, max_wait_ms=1.0) as server:
                return await server.submit(np.arange(8.0))

        response = asyncio.run(scenario())
        assert response.probabilities.ndim == 1
        assert response.result.probabilities.ndim == 1

    def test_max_batch_rows_carries_overflow_to_next_tick(self):
        async def scenario():
            async with SoftmaxServer(
                self.SPEC, max_wait_ms=20.0, max_batch_rows=4
            ) as server:
                rng = np.random.default_rng(0)
                responses = await asyncio.gather(
                    *(
                        server.submit(rng.standard_normal((2, 16)))
                        for _ in range(3)
                    )
                )
                return responses, server.stats()

        responses, stats = asyncio.run(scenario())
        assert all(r.batch_rows <= 4 for r in responses)
        assert stats.ticks >= 2  # 6 rows cannot fit one 4-row tick
        assert stats.requests == 3

    def test_per_request_telemetry_reports_queue_depth_and_occupancy(self):
        spec = BackendSpec(
            name="ap-cluster",
            num_heads=2,
            sequence_length=16,
            options={"pass_row_budget": 64},
        )

        async def scenario():
            async with SoftmaxServer(spec, max_wait_ms=50.0) as server:
                rng = np.random.default_rng(3)
                return await asyncio.gather(
                    *(
                        server.submit(rng.standard_normal((2, 16)))
                        for _ in range(3)
                    )
                )

        responses = asyncio.run(scenario())
        for response in responses:
            plan = response.result.plan
            assert plan is not None
            assert plan.row_budget == 64
            assert 0.0 < plan.occupancy <= 1.0
        # Energy shares of a tick sum to the full batch pass energy.
        by_tick = {}
        for response in responses:
            by_tick.setdefault(response.tick, []).append(response)
        for tick_responses in by_tick.values():
            # The queue depth of a tick: how many requests it coalesced.
            assert all(
                r.batch_requests == len(tick_responses) for r in tick_responses
            )
            shares = sum(r.result.cost.energy_j for r in tick_responses)
            assert shares > 0.0
            tick_energy = tick_responses[0].tick_result.cost.energy_j
            assert shares == pytest.approx(tick_energy, rel=1e-12)

    def test_result_is_a_cached_view_of_the_shared_tick_pass(self):
        async def scenario():
            async with SoftmaxServer(self.SPEC, max_wait_ms=20.0) as server:
                return await asyncio.gather(
                    server.submit(np.arange(16.0)),
                    server.submit(np.arange(32.0).reshape(2, 16)),
                )

        one_row, two_rows = asyncio.run(scenario())
        assert one_row.tick == two_rows.tick
        assert one_row.tick_result is two_rows.tick_result
        for response in (one_row, two_rows):
            assert response.result is response.result
            assert response.result.probabilities is response.probabilities
            assert "tick_result" not in repr(response)


class TestThirdPartyBackends:
    def test_run_only_protocol_backend_serves(self):
        """A backend implementing only the required protocol (no
        ``run_rows`` seam) must serve: the server falls back to ``run``."""
        from repro.runtime.backend import (
            BackendTelemetry,
            SoftmaxResult,
            rows_runner,
        )

        class HalfBackend:
            def __init__(self):
                self.spec = BackendSpec(name="float")
                self.telemetry = BackendTelemetry()

            def run(self, scores, valid_lengths=None):
                return SoftmaxResult(
                    probabilities=np.asarray(scores, dtype=np.float64) * 0.5
                )

        backend = HalfBackend()
        assert rows_runner(backend) == backend.run

        async def scenario():
            async with SoftmaxServer(backend, max_wait_ms=50.0) as server:
                return await asyncio.gather(
                    server.submit(np.ones((2, 4))),
                    server.submit(np.full(4, 3.0)),
                )

        wide, flat = asyncio.run(scenario())
        assert wide.batch_requests == 2  # the fallback still coalesces
        np.testing.assert_array_equal(wide.probabilities, np.full((2, 4), 0.5))
        np.testing.assert_array_equal(flat.probabilities, np.full(4, 1.5))


class TestFaultIsolation:
    def test_oversized_companion_cannot_poison_the_tick(self):
        # Capacity is 16; the 64-wide request must fail while its tick
        # companion still gets a (bit-identical) response.
        spec = BackendSpec(name="ap-cluster", num_heads=2, sequence_length=16)

        async def scenario():
            async with SoftmaxServer(spec, max_wait_ms=50.0) as server:
                good_scores = np.random.default_rng(5).standard_normal((2, 16))
                good_task = asyncio.ensure_future(server.submit(good_scores))
                bad_task = asyncio.ensure_future(
                    server.submit(np.zeros((1, 64)))
                )
                results = await asyncio.gather(
                    good_task, bad_task, return_exceptions=True
                )
                return good_scores, results

        good_scores, (good, bad) = asyncio.run(scenario())
        assert isinstance(bad, ValueError)
        np.testing.assert_array_equal(
            good.probabilities, _standalone(spec, good_scores, None)
        )

    def test_malformed_request_fails_at_submission(self):
        async def scenario():
            async with SoftmaxServer("float", max_wait_ms=1.0) as server:
                with pytest.raises(ValueError, match="1..seq"):
                    await server.submit(
                        np.zeros((1, 4)), valid_lengths=[9]
                    )
                # Fractional lengths are rejected, not truncated to [2].
                with pytest.raises(ValueError, match="must be integers"):
                    await server.submit(
                        np.zeros((1, 4)), valid_lengths=[[2.9]]
                    )
                response = await server.submit(np.arange(4.0))
                return response

        response = asyncio.run(scenario())
        assert response.probabilities.shape == (4,)

    def test_non_finite_scores_fail_at_submission(self):
        """A NaN/inf inside a valid prefix is rejected in-process exactly as
        over TCP; padding beyond ``valid_lengths`` is never read."""
        padded = np.array([[0.5, 1.0, -np.inf, np.nan]])

        async def scenario():
            async with SoftmaxServer("ap-batch", max_wait_ms=1.0) as server:
                for bad in (np.nan, np.inf, -np.inf):
                    with pytest.raises(InvalidScoresError):
                        await server.submit(np.array([0.0, bad, 1.0]))
                return await server.submit(padded, valid_lengths=[2])

        response = asyncio.run(scenario())
        np.testing.assert_array_equal(
            response.probabilities, _standalone("ap-batch", padded, [2])
        )


class TestLifecycle:
    def test_close_fails_pending_requests(self):
        async def scenario():
            server = SoftmaxServer("float", max_wait_ms=10_000.0)
            await server.start()
            pending = asyncio.ensure_future(server.submit(np.arange(4.0)))
            await asyncio.sleep(0.05)  # let it reach the admission backlog
            await server.close()
            with pytest.raises(ServerClosed):
                await pending

        asyncio.run(scenario())

    def test_submit_after_close_raises(self):
        async def scenario():
            server = SoftmaxServer("float")
            await server.start()
            await server.close()
            with pytest.raises(ServerClosed):
                await server.submit(np.arange(4.0))

        asyncio.run(scenario())

    def test_start_is_idempotent(self):
        async def scenario():
            async with SoftmaxServer("float", max_wait_ms=1.0) as server:
                await server.start()
                await server.start()
                response = await server.submit(np.arange(4.0))
                return response

        assert asyncio.run(scenario()).probabilities.shape == (4,)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_wait_ms"):
            SoftmaxServer("float", max_wait_ms=-1.0)
        with pytest.raises(ValueError, match="max_batch_rows"):
            SoftmaxServer("float", max_batch_rows=0)


class TestTcpFrontEnd:
    def test_json_round_trip_and_error_reporting(self):
        spec = BackendSpec(name="ap-batch", num_heads=2, sequence_length=16)
        scores = np.random.default_rng(11).standard_normal((2, 12)) * 3
        lengths = [5, 12]

        async def scenario():
            async with SoftmaxServer(spec, max_wait_ms=5.0) as server:
                tcp = await server.serve_tcp(port=0)
                host, port = tcp.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    json.dumps(
                        {
                            "id": 1,
                            "scores": scores.tolist(),
                            "valid_lengths": lengths,
                        }
                    ).encode()
                    + b"\n"
                )
                writer.write(json.dumps({"id": 2}).encode() + b"\n")
                await writer.drain()
                replies = {}
                for _ in range(2):
                    line = await reader.readline()
                    reply = json.loads(line)
                    replies[reply["id"]] = reply
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return replies

        replies = asyncio.run(scenario())
        served = np.asarray(replies[1]["probabilities"])
        # JSON list round trip preserves every float64 bit exactly.
        np.testing.assert_array_equal(
            served, _standalone(spec, scores, np.asarray(lengths))
        )
        assert replies[1]["batch_requests"] >= 1
        assert replies[1]["queue_wait_ms"] >= 0.0
        assert "error" in replies[2]  # no "scores" field


class TestEngineChainSiblings:
    def test_siblings_keep_the_backend_name_and_share_the_cluster(self):
        """An ``ap-batch`` server's degraded tiers serve as ``ap-batch``
        on the primary's cluster; no second cluster is built."""
        spec = BackendSpec(name="ap-batch", num_heads=2, sequence_length=16)
        chain = ("compiled", "vectorized", "reference")
        scores = np.random.default_rng(5).standard_normal((2, 16)) * 3
        injector = FaultInjector([FaultSpec(site="engine:compiled")])

        async def scenario():
            async with SoftmaxServer(
                spec,
                max_wait_ms=1.0,
                retry_policy=RetryPolicy(max_retries=2, jitter_ms=0.0),
                engine_chain=chain,
                breaker_failure_threshold=1,
            ) as server:
                siblings = [server._runners[e].__self__ for e in chain[1:]]
                return server.backend, siblings, await server.submit(scores)

        with injector.install():
            primary, siblings, response = asyncio.run(scenario())
        for engine, sibling in zip(chain[1:], siblings):
            assert sibling.spec.name == "ap-batch"
            assert sibling.engine == engine
            assert sibling.cluster is primary.cluster
        assert response.engine == "vectorized"
        assert response.result.backend == "ap-batch"
        np.testing.assert_array_equal(
            response.probabilities, _standalone(spec, scores, None)
        )
