"""Property tests for the workload generators plus a pinned golden trace.

The schedule generators feed every churn driver in the repo (the sim
session, the soak runner, the examples); a silent distribution shift
there invalidates experiments without failing any functional test.
Two guards:

* Hypothesis properties over the generator parameters — shape, support
  and rate statistics hold for *arbitrary* valid inputs, not just the
  handful of values the unit tests pin;
* a golden churn trace: a fixed schedule applied through
  :class:`~repro.workloads.trace.TraceRecorder` at a pinned seed must
  serialise to exactly the JSON recorded in
  ``tests/goldens/workload_steady.json`` — generator output, overlay id
  assignment and trace serialisation all pinned by one file.
"""

import json
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OverlayNetwork
from repro.workloads import ChurnTrace, TraceRecorder
from repro.workloads.generator import flash_crowd_schedule, steady_schedule

GOLDEN = Path(__file__).parent / "goldens" / "workload_steady.json"


# ----------------------------------------------------------------------
# Hypothesis properties


class TestScheduleProperties:
    @given(
        intervals=st.integers(min_value=0, max_value=400),
        rate=st.floats(min_value=0.0, max_value=50.0,
                       allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_steady_shape_and_support(self, intervals, rate, seed):
        schedule = steady_schedule(
            intervals, rate, np.random.default_rng(seed)
        )
        assert len(schedule) == intervals
        assert all(isinstance(x, int) and x >= 0 for x in schedule)

    @given(
        rate=st.floats(min_value=0.5, max_value=30.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_steady_mean_tracks_rate(self, rate, seed):
        """Poisson concentration: the sample mean lands near ``rate``.

        With 600 intervals the standard error is sqrt(rate/600); a
        6-sigma band keeps the property deterministic-in-practice over
        arbitrary seeds while still catching a mis-scaled rate.
        """
        intervals = 600
        schedule = steady_schedule(
            intervals, rate, np.random.default_rng(seed)
        )
        mean = sum(schedule) / intervals
        assert abs(mean - rate) < 6.0 * math.sqrt(rate / intervals) + 1e-9

    @given(
        intervals=st.integers(min_value=10, max_value=200),
        peak_rate=st.floats(min_value=1.0, max_value=100.0),
        base_rate=st.floats(min_value=0.0, max_value=5.0),
        width=st.floats(min_value=0.5, max_value=20.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_flash_crowd_shape(self, intervals, peak_rate, base_rate,
                               width, seed):
        peak_at = intervals // 3
        schedule = flash_crowd_schedule(
            intervals, peak_rate, peak_at, width,
            np.random.default_rng(seed), base_rate=base_rate,
        )
        assert len(schedule) == intervals
        assert all(x >= 0 for x in schedule)

    @given(
        peak_rate=st.floats(min_value=20.0, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_flash_crowd_mass_concentrates_at_peak(self, peak_rate, seed):
        """Most of the spike's mass lands within 3 widths of the peak."""
        intervals, peak_at, width = 120, 40, 4.0
        schedule = flash_crowd_schedule(
            intervals, peak_rate, peak_at, width,
            np.random.default_rng(seed), base_rate=0.0,
        )
        window = sum(
            schedule[t] for t in range(intervals)
            if abs(t - peak_at) <= 3 * width
        )
        total = sum(schedule)
        if total >= 20:  # too few arrivals and the ratio is noise
            assert window / total > 0.9

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_schedule(self, seed):
        a = steady_schedule(50, 3.0, np.random.default_rng(seed))
        b = steady_schedule(50, 3.0, np.random.default_rng(seed))
        assert a == b


# ----------------------------------------------------------------------
# Golden trace


def _record_steady_trace() -> ChurnTrace:
    """The pinned scenario: steady joins with interleaved fails/leaves.

    Everything is seeded — the schedule rng, the overlay's id and
    placement rng, and the victim-selection rng — so the recorded
    trace is a pure function of this code and the golden can assert
    byte equality.
    """
    schedule_rng = np.random.default_rng(90210)
    joins = steady_schedule(12, 2.5, schedule_rng)
    net = OverlayNetwork(k=6, d=2, seed=90210)
    recorder = TraceRecorder(net)
    churn_rng = np.random.default_rng(424242)
    live: list[int] = []
    for interval, count in enumerate(joins):
        for _ in range(count):
            live.append(recorder.join())
        # One fail (repaired immediately) every third interval, one
        # graceful leave every fourth, once the swarm can spare them.
        if interval % 3 == 2 and len(live) > 4:
            victim = live.pop(int(churn_rng.integers(len(live))))
            recorder.fail(victim)
            recorder.repair(victim)
        if interval % 4 == 3 and len(live) > 4:
            victim = live.pop(int(churn_rng.integers(len(live))))
            recorder.leave(victim)
    return recorder.trace()


class TestGoldenTrace:
    def test_recorded_trace_matches_golden(self):
        trace = _record_steady_trace()
        assert GOLDEN.exists(), (
            f"golden missing; regenerate with: PYTHONPATH=src python -c "
            f"'from tests.test_workloads_properties import _record_steady_trace; "
            f"_record_steady_trace().save({str(GOLDEN)!r})'"
        )
        golden = json.loads(GOLDEN.read_text())
        assert json.loads(trace.to_json()) == golden

    def test_golden_round_trips_and_replays(self):
        trace = ChurnTrace.load(GOLDEN)
        assert ChurnTrace.from_json(trace.to_json()).events == trace.events
        counts = trace.counts()
        assert counts["join"] == sum(
            steady_schedule(12, 2.5, np.random.default_rng(90210))
        )
        assert counts["fail"] == counts["repair"]

    def test_golden_replay_is_deterministic(self):
        from repro.workloads import replay

        trace = ChurnTrace.load(GOLDEN)
        net_a = OverlayNetwork(k=6, d=2, seed=7)
        net_b = OverlayNetwork(k=6, d=2, seed=7)
        assert replay(trace, net_a) == replay(trace, net_b)
        assert np.array_equal(net_a.matrix.to_dense(), net_b.matrix.to_dense())


if __name__ == "__main__":
    # Regenerate the golden (run only when the scenario itself changes).
    _record_steady_trace().save(GOLDEN)
    print(f"wrote {GOLDEN}")
