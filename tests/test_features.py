import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatiguekit import (
    ApEnParams,
    ArgumentError,
    FeatureParams,
    FeatureVector,
    InsufficientDataError,
    MissingChannelError,
    SignalFrame,
    Trace,
    Window,
    count_upcrossings,
    extract_features,
    eye_features,
    gaze_features,
    head_features,
    kinematics_features,
    mouth_features,
    physiology_features,
    swa_features,
    yaw_features,
)
from fatiguekit.features import _EPS, _hold_runs
from oracles import hold_runs_loop, upcross_oracle, upcrossings_loop


def window_of(values_by_channel: dict, dt: float = 1.0, t0: float = 0.0,
              length: float | None = None) -> Window:
    n = max(len(v) for v in values_by_channel.values())
    frames = []
    for i in range(n):
        channels = {name: float(vals[i]) for name, vals in values_by_channel.items()
                    if i < len(vals)}
        frames.append(SignalFrame(t=t0 + i * dt, **channels))
    end = t0 + (length if length is not None else n * dt)
    return Window(start_t=t0, end_t=end, frames=Trace.from_frames(frames))


class TestSwaFeatures:
    def test_constant_series(self):
        w = window_of({"swa": [3.0] * 60}, dt=1.0, length=60.0)
        fv = swa_features(w)
        assert fv["mean_swa_abs"] == 3.0
        assert fv["max_swa_abs"] == 3.0
        assert fv["swa_correction_freq"] == 0.0
        assert fv["swa_angular_velocity_max"] == 0.0
        assert fv["swa_apen"] == 0.0

    def test_alternating_eight_degrees(self):
        # 0 and 8 alternate once a second; each 8 is a fresh 6 degree
        # upcrossing, thirty of them over the minute
        w = window_of({"swa": [0.0, 8.0] * 30}, dt=1.0, length=60.0)
        fv = swa_features(w)
        assert fv["swa_correction_freq"] == 30.0
        assert fv["max_swa_abs"] == 8.0
        assert fv["swa_angular_velocity_max"] == 8.0

    def test_sawtooth_below_threshold(self):
        ramp = list(np.linspace(0, 5, 10)) * 6
        w = window_of({"swa": ramp}, dt=1.0, length=60.0)
        fv = swa_features(w)
        assert fv["swa_correction_freq"] == 0.0

    def test_negative_angles_count_by_magnitude(self):
        w = window_of({"swa": [0.0, -8.0, 0.0, -8.0]}, dt=1.0, length=60.0)
        fv = swa_features(w)
        assert fv["swa_correction_freq"] == 2.0
        assert fv["max_swa_abs"] == 8.0

    def test_hysteresis_suppresses_chatter(self):
        # dips to 5.7 never re-arm the detector (re-arm level is 5.5)
        w = window_of({"swa": [0.0, 7.0, 5.7, 7.0, 5.7, 7.0]}, dt=1.0, length=60.0)
        fv = swa_features(w)
        assert fv["swa_correction_freq"] == 1.0

    def test_missing_channel(self):
        w = window_of({"yaw": [0.0, 1.0]}, dt=1.0)
        with pytest.raises(MissingChannelError):
            swa_features(w)

    def test_apen_absent_when_window_tiny(self):
        w = window_of({"swa": [0.0, 1.0]}, dt=1.0)
        fv = swa_features(w, FeatureParams(apen=ApEnParams(m=2, r=0.5)))
        assert fv.get("swa_apen") is None
        assert fv["mean_swa_abs"] == 0.5


class TestYawFeatures:
    def test_constant(self):
        w = window_of({"yaw": [0.5] * 10}, dt=1.0)
        fv = yaw_features(w)
        assert fv["mean_yaw_abs"] == 0.5
        assert fv["var_yaw"] == 0.0
        assert fv["yaw_accel_max"] == 0.0
        assert fv["yaw_apen"] == 0.0

    def test_linear_ramp_has_zero_accel(self):
        w = window_of({"yaw": list(range(10))}, dt=1.0)
        fv = yaw_features(w)
        assert fv["yaw_accel_max"] < 1e-12

    def test_hand_arithmetic_case(self):
        # series 0,0,1,3: population variance 1.5, second differences 1,1
        w = window_of({"yaw": [0.0, 0.0, 1.0, 3.0]}, dt=1.0)
        fv = yaw_features(w)
        assert abs(fv["var_yaw"] - 1.5) < 1e-12
        assert abs(fv["yaw_accel_max"] - 1.0) < 1e-12

    def test_needs_three_frames(self):
        w = window_of({"yaw": [0.0, 1.0]}, dt=1.0)
        with pytest.raises(InsufficientDataError):
            yaw_features(w)


class TestKinematics:
    def test_lane_constant(self):
        w = window_of({"lane_offset": [0.0] * 5}, dt=1.0)
        fv = kinematics_features(w)
        assert fv["lane_std"] == 0.0
        assert fv["lane_crossings"] == 0

    def test_lat_accel_range(self):
        w = window_of({"lat_accel": [-1.2, 0.8]}, dt=1.0)
        fv = kinematics_features(w)
        assert abs(fv["lat_accel_range"] - 2.0) < 1e-12

    def test_four_lane_excursions(self):
        lane = []
        for _ in range(4):
            lane += [0.0, 2.0, 0.0, -2.0]
        w = window_of({"lane_offset": lane}, dt=1.0)
        fv = kinematics_features(w, FeatureParams(half_lane_width_m=1.75))
        assert fv["lane_crossings"] == 8  # each swing exits on both sides

    def test_exactly_four_one_sided(self):
        lane = [0.0, 2.0] * 4
        w = window_of({"lane_offset": lane}, dt=1.0)
        fv = kinematics_features(w, FeatureParams(half_lane_width_m=1.75))
        assert fv["lane_crossings"] == 4

    def test_partial_availability(self):
        w = window_of({"lat_accel": [0.0, 1.0]}, dt=1.0)
        fv = kinematics_features(w)
        assert fv["lat_accel_range"] == 1.0
        assert fv.get("lane_std") is None

    def test_neither_channel(self):
        w = window_of({"swa": [0.0, 1.0]}, dt=1.0)
        with pytest.raises(MissingChannelError):
            kinematics_features(w)


class TestEyeFeatures:
    def test_perclos_definitional(self):
        # closed for the first 36 of 180 observed seconds
        closure = [1.0 if t < 36 else 0.0 for t in range(181)]
        w = window_of({"eye_closure": closure}, dt=1.0, length=181.0)
        fv = eye_features(w)
        assert abs(fv["perclos80"] - 0.2) < 1e-9

    def test_single_blink(self):
        closure = [0.0] * 10 + [1.0, 1.0, 1.0] + [0.0] * 10
        w = window_of({"eye_closure": closure}, dt=0.1, length=60.0)
        fv = eye_features(w)
        blinks = round(fv["blink_freq"] * 60.0 / 60.0)
        assert blinks == 1
        assert fv["microsleep_count"] == 0
        assert abs(fv["blink_dur_mean"] - 0.3) < 1e-9

    def test_single_microsleep(self):
        closure = [0.0] * 10 + [1.0] * 8 + [0.0] * 10
        w = window_of({"eye_closure": closure}, dt=0.1, length=60.0)
        fv = eye_features(w)
        assert fv["microsleep_count"] == 1
        assert fv["blink_freq"] == 0.0
        assert fv.get("blink_dur_mean") is None

    def test_always_closed(self):
        w = window_of({"eye_closure": [1.0] * 20}, dt=1.0)
        assert eye_features(w)["perclos80"] == 1.0

    def test_never_closed(self):
        w = window_of({"eye_closure": [0.0] * 20}, dt=1.0)
        assert eye_features(w)["perclos80"] == 0.0

    def test_threshold_is_inclusive(self):
        # closure exactly at 0.8 counts as closed; the sample at t=0 holds
        # for one of the two observed seconds
        w = window_of({"eye_closure": [0.8, 0.0, 0.0]}, dt=1.0)
        assert eye_features(w)["perclos80"] == 0.5

    def test_flicker_too_short_for_blink(self):
        closure = [0.0, 1.0, 0.0, 0.0]
        w = window_of({"eye_closure": closure}, dt=0.1, length=60.0)
        fv = eye_features(w)
        assert fv["blink_freq"] == 0.0
        assert fv["microsleep_count"] == 0


def window_at(times, channel: str, values) -> Window:
    """A window holding one channel's samples at the given times; it ends
    one second after the last sample."""
    frames = tuple(SignalFrame(t=float(t), **{channel: float(v)})
                   for t, v in zip(times, values))
    return Window(start_t=frames[0].t, end_t=frames[-1].t + 1.0,
                  frames=Trace.from_frames(frames))


@st.composite
def masked_times(draw, min_size=1, max_size=60):
    """Strictly increasing times and a boolean mask of the same length."""
    mask = draw(st.lists(st.booleans(), min_size=min_size, max_size=max_size))
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=len(mask) - 1,
                         max_size=len(mask) - 1))
    t = [draw(st.floats(min_value=0.0, max_value=1e6))]
    for gap in gaps:
        t.append(math.nextafter(t[-1] + gap, math.inf))
    return np.array(t), np.array(mask)


def _ulps_from(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def eye_oracle(t, v, closed=0.8, blink_min_s=0.2, microsleep_min_s=0.5):
    """(blink count, mean blink duration, micro-sleep count) from the loop."""
    runs = hold_runs_loop(t, v >= closed)
    blinks = [d for _, d in runs if blink_min_s - _EPS <= d < microsleep_min_s - _EPS]
    sleeps = [d for _, d in runs if d >= microsleep_min_s - _EPS]
    return len(blinks), float(np.mean(blinks)) if blinks else None, len(sleeps)


class TestHoldRuns:
    @settings(max_examples=300, deadline=None)
    @given(masked_times())
    def test_equals_loop(self, case):
        t, mask = case
        assert _hold_runs(t, mask).tolist() == [d for _, d in hold_runs_loop(t, mask)]

    @pytest.mark.parametrize("mask", [
        [True], [False], [True] * 7, [False] * 7,
        [True, True, False, False, True],      # runs touching both ends
        [False, True, True, True, False],
        [True, False] * 5, [False, True] * 5,  # alternating
    ])
    def test_edge_masks(self, mask):
        t = np.cumsum(np.linspace(0.1, 0.9, len(mask)))
        mask = np.array(mask)
        assert _hold_runs(t, mask).tolist() == [d for _, d in hold_runs_loop(t, mask)]

    @settings(max_examples=150, deadline=None)
    @given(masked_times(min_size=2, max_size=120))
    def test_eye_counts_equal_loop(self, case):
        t, mask = case
        v = np.where(mask, 0.9, 0.1)
        w = window_at(t, "eye_closure", v)
        fv = eye_features(w, FeatureParams(eye_closed_threshold=0.8))
        blinks, mean_dur, sleeps = eye_oracle(t, v)
        assert fv["blink_freq"] == blinks * 60.0 / w.length
        assert fv["blink_dur_mean"] == mean_dur
        assert fv["microsleep_count"] == sleeps

    # (edge, ulps past it, blinks, micro-sleeps): a duration at or past an
    # edge lands in the class above it
    @pytest.mark.parametrize("edge, ulps, want", [
        (0.2 - _EPS, -1, (0, 0)), (0.2 - _EPS, 0, (1, 0)), (0.2 - _EPS, 1, (1, 0)),
        (0.5 - _EPS, -1, (1, 0)), (0.5 - _EPS, 0, (0, 1)), (0.5 - _EPS, 1, (0, 1)),
    ])
    def test_eye_durations_at_thresholds(self, edge, ulps, want):
        # one closed sample at t = 0, held for the duration
        d = _ulps_from(edge, ulps)
        t = np.array([0.0, d, d + 1.0])
        v = np.array([1.0, 0.0, 0.0])
        assert _hold_runs(t, v >= 0.8).tolist() == [d]
        w = window_at(t, "eye_closure", v)
        fv = eye_features(w)
        blinks, mean_dur, sleeps = eye_oracle(t, v)
        assert (blinks, sleeps) == want
        assert (fv["blink_freq"], fv["blink_dur_mean"], fv["microsleep_count"]) \
            == (blinks * 60.0 / w.length, mean_dur, sleeps)

    @pytest.mark.parametrize("ulps, want", [(-1, 0), (0, 1), (1, 1)])
    def test_yawn_duration_at_threshold(self, ulps, want):
        d = _ulps_from(3.0 - _EPS, ulps)
        t = np.array([0.0, d, d + 1.0])
        v = np.array([0.9, 0.0, 0.0])
        assert sum(dur >= 3.0 - _EPS for _, dur in hold_runs_loop(t, v >= 0.6)) == want
        assert mouth_features(window_at(t, "mouth_open", v))["yawn_count"] == want


class TestMouthFeatures:
    def test_never_open(self):
        w = window_of({"mouth_open": [0.1] * 30}, dt=1.0, length=60.0)
        assert mouth_features(w)["yawn_count"] == 0

    def test_single_yawn(self):
        series = [0.0] * 5 + [0.8] * 40 + [0.0] * 5
        w = window_of({"mouth_open": series}, dt=0.1, length=60.0)
        assert mouth_features(w)["yawn_count"] == 1

    def test_short_openings_do_not_count(self):
        series = [0.0] * 5 + [0.8] * 20 + [0.0] * 5 + [0.8] * 20 + [0.0] * 5
        w = window_of({"mouth_open": series}, dt=0.1, length=60.0)
        assert mouth_features(w)["yawn_count"] == 0


class TestHeadFeatures:
    def test_constant(self):
        w = window_of({"head_pitch": [5.0] * 9}, dt=1.0)
        fv = head_features(w, FeatureParams(head_alpha=0.3))
        assert fv["head_ewma"] == 5.0
        assert fv["head_ewvar"] == 0.0

    def test_alpha_one_tracks_last_sample(self):
        w = window_of({"head_pitch": [1.0, 7.0, -2.0]}, dt=1.0)
        fv = head_features(w, FeatureParams(head_alpha=1.0))
        assert fv["head_ewma"] == -2.0
        assert fv["head_ewvar"] == 0.0

    def test_hand_recursion(self):
        w = window_of({"head_pitch": [0.0, 10.0]}, dt=1.0)
        fv = head_features(w, FeatureParams(head_alpha=0.5))
        assert fv["head_ewma"] == 5.0
        assert fv["head_ewvar"] == 25.0

    def test_alpha_validated(self):
        with pytest.raises(ArgumentError, match=r"alpha must lie in \(0, 1\], got 0.0"):
            FeatureParams(head_alpha=0.0)
        with pytest.raises(ArgumentError):
            FeatureParams(head_alpha=1.5)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-90, max_value=90, allow_nan=False),
                    min_size=1, max_size=30),
           st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    def test_ewvar_never_negative(self, pitches, alpha):
        w = window_of({"head_pitch": pitches}, dt=1.0)
        fv = head_features(w, FeatureParams(head_alpha=alpha))
        assert fv["head_ewvar"] >= 0.0

    @pytest.mark.parametrize("alpha", [1.0, 0.3, 0.05])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 600])
    def test_equals_numpy_scalar_loop(self, n, alpha):
        from oracles import head_ewma_loop
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 90.0, 1e12):
            w = window_of({"head_pitch": rng.normal(0.0, scale, n)}, dt=0.1)
            fv = head_features(w, FeatureParams(head_alpha=alpha))
            assert (fv["head_ewma"], fv["head_ewvar"]) \
                == head_ewma_loop(w.channel("head_pitch")[1], alpha)


class TestPhysiology:
    def test_constant(self):
        w = window_of({"heart_bpm": [80.0] * 4}, dt=1.0)
        assert physiology_features(w)["mean_bpm"] == 80.0

    def test_mean(self):
        w = window_of({"heart_bpm": [60.0, 70.0]}, dt=1.0)
        assert physiology_features(w)["mean_bpm"] == 65.0

    def test_absent(self):
        w = window_of({"swa": [0.0, 0.0]}, dt=1.0)
        with pytest.raises(MissingChannelError):
            physiology_features(w)


class TestGaze:
    def test_persac_fraction(self):
        # speeds 1, 49, 1 deg/s across the three transitions
        w = window_of({"gaze_offset": [0.0, 0.1, 5.0, 5.1]}, dt=0.1)
        fv = gaze_features(w, FeatureParams(saccade_speed_dps=30.0))
        assert abs(fv["gaze_persac"] - 1 / 3) < 1e-12

    def test_still_gaze(self):
        w = window_of({"gaze_offset": [2.0] * 6}, dt=0.5)
        assert gaze_features(w)["gaze_persac"] == 0.0


class TestUpcrossings:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False),
                    min_size=2, max_size=60))
    def test_matches_linear_scan_oracle(self, xs):
        got = count_upcrossings(np.abs(np.array(xs)), 6.0, 0.5)
        want = upcross_oracle([abs(x) for x in xs], 6.0, 0.5)
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(allow_nan=True), min_size=1, max_size=80),
           st.floats(min_value=-10, max_value=10), st.floats(min_value=0, max_value=5))
    def test_equals_numpy_scalar_loop(self, xs, threshold, hysteresis):
        values = np.array(xs)
        assert count_upcrossings(values, threshold, hysteresis) \
            == upcrossings_loop(values, threshold, hysteresis)


class TestMergeAndExtract:
    """extract_features gathers every family's fields into one dict."""

    def test_overflowing_fields_left_absent(self):
        # finite samples whose differences, sums, squares and resampled
        # series overflow
        huge = [1e308, -1e308] * 30
        w = window_of({"swa": huge, "yaw": huge, "head_pitch": huge},
                      dt=1.0, length=60.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fields, notes = extract_features(w)
        overflowed = ("mean_swa_abs", "swa_angular_velocity_max", "swa_apen",
                      "mean_yaw_abs", "var_yaw", "yaw_apen", "yaw_accel_max", "head_ewvar")
        assert notes[-len(overflowed):] \
            == [f"{name}: overflows float64, left absent" for name in overflowed]
        assert FeatureVector(0.0, 60.0, **fields).to_dict() == {
            "window_start": 0.0, "window_end": 60.0,
            "max_swa_abs": 1e308, "swa_correction_freq": 0.0,
            "head_ewma": head_features(w)["head_ewma"]}

    def test_extract_partial_trace(self):
        w = window_of({"swa": [0.0, 3.0, 1.0], "heart_bpm": [80.0, 82.0, 81.0]},
                      dt=1.0, length=60.0)
        fields, notes = extract_features(w)
        assert fields["mean_swa_abs"] is not None
        assert fields["mean_bpm"] == 81.0
        assert fields.get("perclos80") is None
        assert notes  # missing families reported, not raised

    def test_extract_empty_channels(self):
        w = Window(start_t=0.0, end_t=10.0,
                   frames=Trace.from_frames((SignalFrame(t=0.0), SignalFrame(t=1.0))))
        fields, notes = extract_features(w)
        assert FeatureVector(0.0, 10.0, **fields).to_dict() \
            == {"window_start": 0.0, "window_end": 10.0}
        assert len(notes) == 8  # every extractor family reports its gap

    def test_determinism(self):
        rng = np.random.default_rng(11)
        values = {"swa": rng.normal(0, 4, 60), "yaw": rng.normal(0, 1, 60),
                  "heart_bpm": rng.uniform(60, 90, 60)}
        w = window_of(values, dt=1.0, length=60.0)
        a, _ = extract_features(w)
        b, _ = extract_features(w)
        assert a == b

    def test_to_dict_omits_absent(self):
        fv = FeatureVector(window_start=0.0, window_end=60.0, mean_bpm=70.0)
        assert fv.to_dict() == {"window_start": 0.0, "window_end": 60.0,
                                "mean_bpm": 70.0}
