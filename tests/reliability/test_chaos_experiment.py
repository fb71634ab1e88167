"""The chaos-load experiment: registry contract + seeded replayability."""

import json

import pytest

from repro.experiments.chaos_load import (
    ChaosLoadReport,
    default_fault_specs,
    render_chaos_load,
    run_chaos_load,
)
from repro.runtime.registry import get_experiment

FAST = {
    "rate_rps": 800.0,
    "num_requests": 32,
    "sequence_lengths": (8, 16),
    "max_wait_ms": 1.0,
    "max_batch_rows": 1,  # one request per tick: replayable tick formation
}


@pytest.fixture(scope="module")
def fast_run():
    experiment = get_experiment("chaos-load")
    return experiment, experiment.run(dict(experiment.fast_config))


class TestChaosLoadExperiment:
    def test_default_schedule_stages_outage_and_recovery(self, fast_run):
        _, rows = fast_run
        assert len(rows) == 1
        report = rows[0]
        assert isinstance(report, ChaosLoadReport)
        assert report.engine_chain == "compiled->vectorized"
        assert report.fault_events > 0
        assert report.availability >= 0.99
        assert report.successes_identical
        assert report.degrades >= 1
        assert report.recoveries >= 1
        assert report.final_engine == "compiled"  # probed back to primary
        assert report.p99_ms >= report.p50_ms > 0.0
        assert report.retries > 0  # the outage exercised the retry path

    def test_render_tells_the_reliability_story(self, fast_run):
        experiment, rows = fast_run
        rendered = experiment.render(rows)
        assert "availability" in rendered
        assert "breaker" in rendered
        assert "bit-identical" in rendered
        assert "compiled->vectorized" in rendered
        assert render_chaos_load([]) == "chaos-load: no report"

    def test_json_round_trip_renders_identically(self, fast_run):
        experiment, rows = fast_run
        payload = json.loads(json.dumps(experiment.to_dict(rows)))
        restored = experiment.from_dict(payload)
        assert experiment.render(restored) == experiment.render(rows)
        assert restored[0].availability == rows[0].availability
        # JSON turns tuples into lists; the contents must survive exactly.
        assert list(restored[0].transitions) == list(rows[0].transitions)

    def test_same_seeds_replay_the_same_outage(self, fast_run):
        """With one request per tick, tick formation no longer depends on
        arrival timing, so the seeds fix the fault count (tick-latency
        stalls included), the breaker transitions, the retry count and
        availability."""
        _, rows = fast_run
        replay = run_chaos_load(**FAST)[0]
        report = rows[0]
        assert replay.fault_events == report.fault_events
        assert replay.transitions == report.transitions
        assert replay.retries == report.retries
        assert replay.availability == report.availability

    def test_fault_specs_are_overridable(self):
        rows = run_chaos_load(fault_specs=(), **FAST)
        report = rows[0]
        assert report.fault_events == 0
        assert report.degrades == 0 and report.recoveries == 0
        assert report.availability == 1.0
        assert report.successes_identical

    def test_default_specs_shape(self):
        specs = default_fault_specs()
        assert [s.name for s in specs] == ["compiled-outage", "tick-latency"]
        assert specs[0].site == "engine:compiled"
        assert specs[1].kind == "latency"
