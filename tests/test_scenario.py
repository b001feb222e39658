import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatiguekit import (
    CHANNELS,
    ScenarioSpecError,
    Segment,
    ScenarioSpec,
    Trace,
    Window,
    eye_features,
    generate_scenario,
    parse_scenario_spec,
    serialize_trace,
    simple_spec,
)
from oracles import generate_scenario_frames, serialize_frames, upcross_oracle


def as_window(frames):
    end = frames.t[-1] + 1e-6
    return Window(start_t=frames.t[0], end_t=end, frames=frames)


class TestSpecParsing:
    def test_round_trip(self):
        spec = parse_scenario_spec(json.dumps({
            "duration": 120.0, "sample_rate": 5.0, "seed": 3,
            "segments": [{"start": 0.0, "end": 60.0, "regime": "alert"},
                         {"start": 60.0, "end": 120.0, "regime": "drowsy"}],
        }))
        assert spec.duration == 120.0
        assert spec.sample_rate == 5.0
        assert spec.seed == 3
        assert [s.regime for s in spec.segments] == ["alert", "drowsy"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioSpecError):
            parse_scenario_spec(json.dumps({"duration": 10.0, "mode": "x"}))

    def test_duration_required(self):
        with pytest.raises(ScenarioSpecError):
            parse_scenario_spec(json.dumps({"sample_rate": 10.0}))

    def test_segment_shape_enforced(self):
        with pytest.raises(ScenarioSpecError):
            parse_scenario_spec(json.dumps({
                "duration": 10.0,
                "segments": [{"start": 0.0, "end": 5.0}]}))

    def test_unknown_regime(self):
        with pytest.raises(ScenarioSpecError):
            Segment(start=0.0, end=5.0, regime="sleepy")

    def test_overlap_rejected(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(duration=20.0, segments=(
                Segment(0.0, 12.0, "alert"), Segment(10.0, 20.0, "drowsy")))

    def test_segment_beyond_duration(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(duration=20.0, segments=(Segment(0.0, 30.0, "alert"),))

    def test_segments_sorted(self):
        spec = ScenarioSpec(duration=20.0, segments=(
            Segment(10.0, 20.0, "drowsy"), Segment(0.0, 10.0, "alert")))
        assert [s.start for s in spec.segments] == [0.0, 10.0]

    def test_bad_duration(self):
        with pytest.raises(ScenarioSpecError):
            simple_spec("alert", duration=0.0)


class TestGeneratorBasics:
    def test_sampling_grid(self):
        frames = generate_scenario(simple_spec("alert", duration=60.0))
        assert len(frames) == 600
        assert frames.t[0] == 0.0
        assert abs(frames.t[-1] - 59.9) < 1e-9

    def test_all_channels_dense(self):
        frames = generate_scenario(simple_spec("drowsy", duration=30.0))
        for f in list(frames)[:50]:
            for c in CHANNELS:
                assert getattr(f, c) is not None

    def test_gap_between_segments_has_no_frames(self):
        spec = ScenarioSpec(duration=30.0, segments=(
            Segment(0.0, 10.0, "alert"), Segment(20.0, 30.0, "drowsy")))
        frames = generate_scenario(spec)
        assert all(not (10.0 <= f.t < 20.0) for f in frames)

    def test_determinism(self):
        spec = simple_spec("drowsy", duration=90.0, seed=17)
        a = serialize_trace(generate_scenario(spec), "csv")
        b = serialize_trace(generate_scenario(spec), "csv")
        assert a == b

    def test_seed_changes_trace(self):
        a = generate_scenario(simple_spec("alert", duration=30.0, seed=1))
        b = generate_scenario(simple_spec("alert", duration=30.0, seed=2))
        assert serialize_trace(a) != serialize_trace(b)

    def test_segment_index_in_seeding(self):
        # two alert segments in one spec must not repeat each other verbatim
        spec = ScenarioSpec(duration=40.0, segments=(
            Segment(0.0, 20.0, "alert"), Segment(20.0, 40.0, "alert")))
        frames = generate_scenario(spec)
        first = [f.swa for f in frames if f.t < 20.0]
        second = [f.swa for f in frames if f.t >= 20.0]
        assert first != second


@st.composite
def scenario_specs(draw):
    """Specs of up to three segments, at most about 1 500 samples long."""
    rate = draw(st.one_of(st.sampled_from([1 / 3, 0.5, 7.3, 10.0, 100.0, 200.0]),
                          st.floats(0.5, 200.0)))
    top = min(60.0, 1500.0 / rate)
    # bounds on a 0.1 s grid (at 100 Hz, 1.1 * 100 rounds above 110) or anywhere
    bound = st.one_of(st.integers(0, int(top * 10)).map(lambda k: k / 10),
                      st.floats(0.0, top))
    points = sorted(draw(st.lists(bound, max_size=6, unique=True)))
    if draw(st.booleans()):  # touching segments
        pairs = zip(points, points[1:4])
    else:  # a gap between segments
        pairs = zip(points[::2], points[1::2])
    regimes = st.sampled_from(["alert", "drowsy"])
    segments = tuple(Segment(a, b, draw(regimes)) for a, b in pairs)
    return ScenarioSpec(duration=max([1.0, *points]), sample_rate=rate,
                        seed=draw(st.integers(0, 2**32)), segments=segments)


NEAR_OVERLAP = ScenarioSpec(duration=3.0, segments=(
    Segment(0.0, 1.0 + 5e-10, "alert"), Segment(1.0 - 4e-10, 2.0, "drowsy")))


class TestColumnarGenerator:
    @settings(max_examples=60, deadline=None)
    @given(scenario_specs())
    @example(ScenarioSpec(duration=10.0))
    @example(ScenarioSpec(duration=3.0, sample_rate=100.0, seed=4, segments=(
        Segment(0.0, 1.0, "alert"), Segment(1.1, 2.35, "drowsy"))))
    @example(NEAR_OVERLAP)
    def test_equals_per_frame_generator(self, spec):
        trace = generate_scenario(spec)
        frames = generate_scenario_frames(spec)
        assert trace == Trace.from_frames(frames)
        for fmt in ("csv", "jsonl"):
            assert serialize_trace(trace, fmt) == serialize_frames(frames, fmt)

    def test_near_overlap_repeats_no_frame(self):
        t = generate_scenario(NEAR_OVERLAP).t
        assert np.all(np.diff(t) > 0)
        assert list(t[9:12]) == [0.9, 1.0, 1.1]

    def test_benchmark_trace_builder(self):
        # perfbench/workloads.py iterates generate_scenario's trace as frames
        # and passes serialize_trace a frame list; both stay for it
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")])}
        script = (
            "from fatiguekit import CHANNELS, parse_trace\n"
            "from workloads import WORKLOADS, build_trace\n"
            "for w in WORKLOADS.values():\n"
            "    trace = parse_trace(build_trace(w, seed=1, small=True), 'csv')\n"
            "    assert len(trace) > 0, w.name\n"
            "    assert trace.channels == tuple(c for c in CHANNELS if c in w.keep_every)\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestAlertRegime:
    def test_steering_and_yaw_bounded(self):
        frames = generate_scenario(simple_spec("alert", duration=60.0))
        assert all(abs(f.swa) <= 6.0 for f in frames)
        assert all(abs(f.yaw) <= 1.0 for f in frames)

    def test_low_closure_fraction(self):
        frames = generate_scenario(simple_spec("alert", duration=180.0))
        fv = eye_features(as_window(frames))
        assert fv["perclos80"] < 0.15

    def test_normal_heart_rate(self):
        frames = generate_scenario(simple_spec("alert", duration=60.0))
        mean_bpm = float(np.mean([f.heart_bpm for f in frames]))
        assert 75.0 <= mean_bpm < 95.0  # normal band for either sex

    def test_lane_keeping(self):
        frames = generate_scenario(simple_spec("alert", duration=60.0))
        assert all(abs(f.lane_offset) < 1.75 for f in frames)

    def test_no_six_degree_corrections(self):
        frames = generate_scenario(simple_spec("alert", duration=120.0))
        swa = np.abs([f.swa for f in frames])
        assert upcross_oracle(list(swa), 6.0, 0.5) == 0


class TestDrowsyRegime:
    def test_big_swing_every_minute(self):
        frames = generate_scenario(simple_spec("drowsy", duration=300.0))
        swa = np.array([f.swa for f in frames])
        t = np.array([f.t for f in frames])
        for minute in range(5):
            in_minute = (t >= minute * 60.0) & (t < (minute + 1) * 60.0)
            assert np.max(np.abs(swa[in_minute])) >= 10.0

    def test_many_corrections_per_minute(self):
        frames = generate_scenario(simple_spec("drowsy", duration=120.0))
        swa = [abs(f.swa) for f in frames]
        per_two_minutes = upcross_oracle(swa, 6.0, 0.5)
        assert per_two_minutes >= 24

    def test_yaw_drifts_past_one_degree(self):
        frames = generate_scenario(simple_spec("drowsy", duration=120.0))
        yaw = np.array([f.yaw for f in frames])
        assert np.max(np.abs(yaw)) > 1.0
        assert float(np.var(yaw)) >= 1.0

    def test_yaw_acceleration_spikes(self):
        frames = generate_scenario(simple_spec("drowsy", duration=120.0))
        yaw = np.array([f.yaw for f in frames])
        dt = 0.1
        accel = np.abs(np.diff(yaw, n=2)) / (dt * dt)
        assert np.max(accel) >= 2.5

    def test_closure_fraction_high(self):
        frames = generate_scenario(simple_spec("drowsy", duration=180.0))
        fv = eye_features(as_window(frames))
        assert fv["perclos80"] >= 0.4

    def test_drowsy_heart_rate(self):
        frames = generate_scenario(simple_spec("drowsy", duration=60.0))
        mean_bpm = float(np.mean([f.heart_bpm for f in frames]))
        assert 50.0 <= mean_bpm < 63.0  # drowsy band for either sex

    def test_yawns_present(self):
        from fatiguekit import mouth_features
        frames = generate_scenario(simple_spec("drowsy", duration=180.0))
        fv = mouth_features(as_window(frames))
        assert fv["yawn_count"] >= 1
