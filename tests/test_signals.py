import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traces
from oracles import windows_oracle
from fatiguekit import (
    ArgumentError,
    DecodeError,
    DriverProfile,
    MonotonicityError,
    ObstacleEvent,
    OrderingError,
    RangeError,
    Sex,
    SignalFrame,
    Window,
    make_windows,
    parse_trace,
    resample_uniform,
    serialize_trace,
)


def frames_gapped(t0, n, dt, **channels):
    out = []
    for i in range(n):
        values = {k: v[i] if isinstance(v, (list, np.ndarray)) else v
                  for k, v in channels.items()}
        out.append(SignalFrame(t=t0 + i * dt, **values))
    return out


class TestSignalFrame:
    def test_minimal_frame(self):
        f = SignalFrame(t=1.5)
        assert f.t == 1.5
        assert f.swa is None

    def test_negative_time_rejected(self):
        with pytest.raises(RangeError):
            SignalFrame(t=-0.1)

    def test_nan_channel_rejected(self):
        with pytest.raises(RangeError):
            SignalFrame(t=0.0, swa=float("nan"))

    def test_eye_closure_range(self):
        SignalFrame(t=0.0, eye_closure=0.0)
        SignalFrame(t=0.0, eye_closure=1.0)
        with pytest.raises(RangeError):
            SignalFrame(t=0.0, eye_closure=1.4)
        with pytest.raises(RangeError):
            SignalFrame(t=0.0, eye_closure=-0.01)

    def test_bpm_range(self):
        with pytest.raises(RangeError):
            SignalFrame(t=0.0, heart_bpm=0.0)
        with pytest.raises(RangeError):
            SignalFrame(t=0.0, heart_bpm=400.0)

    def test_bool_rejected(self):
        with pytest.raises(RangeError):
            SignalFrame(t=0.0, swa=True)


class TestParseTrace:
    def test_csv_two_frames(self):
        frames = parse_trace(b"t,swa\n0.0,1.5\n0.1,2.0", "csv")
        assert len(frames) == 2
        assert frames[0].swa == 1.5
        assert frames[1].swa == 2.0
        assert frames[0].yaw is None
        assert frames[0].heart_bpm is None

    def test_csv_monotonicity_reports_row(self):
        with pytest.raises(MonotonicityError) as exc:
            parse_trace(b"t,swa\n0.2,1.0\n0.1,2.0", "csv")
        assert exc.value.row == 2

    def test_jsonl_range_violation_reports_row(self):
        data = b'{"t": 0.0, "eye_closure": 0.5}\n{"t": 0.1, "eye_closure": 1.4}\n'
        with pytest.raises(RangeError) as exc:
            parse_trace(data, "jsonl")
        assert exc.value.channel == "eye_closure"
        assert exc.value.row == 2

    def test_csv_empty_cell_means_absent(self):
        frames = parse_trace(b"t,swa,yaw\n0.0,1.0,\n0.1,,0.5", "csv")
        assert frames[0].yaw is None
        assert frames[1].swa is None
        assert frames[1].yaw == 0.5

    def test_csv_unknown_column(self):
        with pytest.raises(DecodeError):
            parse_trace(b"t,wheel\n0.0,1.0", "csv")

    def test_csv_requires_t(self):
        with pytest.raises(DecodeError):
            parse_trace(b"swa\n1.0", "csv")

    def test_csv_duplicate_column(self):
        with pytest.raises(DecodeError):
            parse_trace(b"t,swa,swa\n0.0,1.0,2.0", "csv")

    def test_csv_non_numeric_cell(self):
        with pytest.raises(DecodeError) as exc:
            parse_trace(b"t,swa\n0.0,abc", "csv")
        assert exc.value.row == 1

    def test_jsonl_unknown_key(self):
        with pytest.raises(DecodeError):
            parse_trace(b'{"t": 0.0, "wheel": 1.0}', "jsonl")

    def test_jsonl_null_is_absent(self):
        frames = parse_trace(b'{"t": 0.0, "swa": null}', "jsonl")
        assert frames[0].swa is None

    def test_jsonl_bool_rejected(self):
        with pytest.raises(DecodeError):
            parse_trace(b'{"t": 0.0, "swa": true}', "jsonl")

    def test_bad_utf8(self):
        with pytest.raises(DecodeError):
            parse_trace(b"t,swa\n\xff\xfe", "csv")

    def test_unknown_format(self):
        with pytest.raises(ArgumentError):
            parse_trace(b"", "xml")

    def test_empty_input(self):
        assert parse_trace(b"", "csv") == []
        assert parse_trace(b"", "jsonl") == []


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_csv_round_trip(self, frames):
        blob = serialize_trace(frames, "csv")
        assert parse_trace(blob, "csv") == frames

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_jsonl_round_trip(self, frames):
        blob = serialize_trace(frames, "jsonl")
        assert parse_trace(blob, "jsonl") == frames


class TestMakeWindows:
    def test_even_split(self):
        frames = frames_gapped(0.0, 100, 0.1, swa=0.0)
        windows = make_windows(frames, 5.0, 5.0)
        assert len(windows) == 2
        assert all(len(w.frames) == 50 for w in windows)

    def test_overlapping_stride(self):
        # hand-enumerated: starts 0,2,4,6,8 all hold at least two frames
        frames = frames_gapped(0.0, 100, 0.1, swa=0.0)
        windows = make_windows(frames, 6.0, 2.0)
        assert [w.start_t for w in windows] == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert len(windows) == 5

    def test_empty(self):
        assert make_windows([], 5.0, 5.0) == []

    def test_boundary_frame_goes_to_next_window(self):
        frames = [SignalFrame(t=0.0), SignalFrame(t=4.9), SignalFrame(t=5.0),
                  SignalFrame(t=9.0)]
        windows = make_windows(frames, 5.0, 5.0)
        assert [f.t for f in windows[0].frames] == [0.0, 4.9]
        assert [f.t for f in windows[1].frames] == [5.0, 9.0]

    def test_single_frame_window_dropped(self):
        frames = [SignalFrame(t=0.0), SignalFrame(t=0.5), SignalFrame(t=7.0)]
        windows = make_windows(frames, 5.0, 5.0)
        assert len(windows) == 1
        assert windows[0].start_t == 0.0

    def test_bad_args(self):
        with pytest.raises(ArgumentError):
            make_windows([], 0.0, 5.0)
        with pytest.raises(ArgumentError):
            make_windows([], 5.0, -1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.05, max_value=1.5, allow_nan=False),
                    min_size=3, max_size=30))
    def test_coverage(self, gaps):
        # dense trace (max gap < stride), so no window is starved below the
        # two-frame minimum: every frame before the last window's end must
        # land in at least one window
        t = 0.0
        frames = [SignalFrame(t=0.0)]
        for gap in gaps:
            t += gap
            frames.append(SignalFrame(t=t))
        windows = make_windows(frames, 4.0, 2.0)
        assert windows
        last_end = max(w.end_t for w in windows)
        covered = {f.t for w in windows for f in w.frames}
        for f in frames:
            if f.t < last_end:
                assert f.t in covered


    @pytest.mark.parametrize("offset", [0.0, 3.3, 57.0, 1234.5])
    @pytest.mark.parametrize("length,stride", [
        (5.0, 5.0), (6.0, 2.0), (2.0, 5.0), (10.0, 3.0), (60.0, 10.0)])
    def test_matches_all_k_oracle(self, offset, length, stride):
        # length > stride: windows opening before the first frame still hold it
        rng = np.random.default_rng(int(offset * 10 + length + stride))
        times = list(offset + np.cumsum(rng.uniform(0.05, 1.5, size=60)))
        windows = make_windows([SignalFrame(t=t) for t in times], length, stride)
        got = [(w.start_t, w.end_t, [f.t for f in w.frames]) for w in windows]
        assert got == windows_oracle(times, length, stride)

    def test_epoch_timestamps(self):
        # 1.7e9 and the 0.125 s step are exact in binary, so the windows are
        # those of the same trace at t = 100, shifted
        base = [100.0 + i * 0.125 for i in range(960)]
        epoch = 1.7e9
        started = time.perf_counter()
        windows = make_windows([SignalFrame(t=epoch + t) for t in base], 60.0, 10.0)
        assert time.perf_counter() - started < 1.0
        expected = windows_oracle(base, 60.0, 10.0)
        assert [(w.start_t - epoch, len(w.frames)) for w in windows] == \
            [(start, len(inside)) for start, _, inside in expected]


class TestResample:
    def test_linear_interpolation(self):
        frames = [SignalFrame(t=0.0, swa=0.0), SignalFrame(t=1.0, swa=10.0)]
        out = resample_uniform(frames, 0.5)
        assert [f.swa for f in out] == [0.0, 5.0, 10.0]

    def test_constant_channel(self):
        frames = frames_gapped(0.0, 7, 0.3, yaw=2.5)
        out = resample_uniform(frames, 0.3)
        assert all(abs(f.yaw - 2.5) < 1e-12 for f in out)

    def test_sparse_channel_interpolated_on_own_support(self):
        frames = [
            SignalFrame(t=0.0, swa=0.0, yaw=1.0),
            SignalFrame(t=1.0, yaw=2.0),
            SignalFrame(t=2.0, swa=4.0, yaw=3.0),
        ]
        out = resample_uniform(frames, 1.0)
        assert [f.swa for f in out] == [0.0, 2.0, 4.0]
        assert [f.yaw for f in out] == [1.0, 2.0, 3.0]

    def test_no_extrapolation(self):
        frames = [
            SignalFrame(t=0.0, yaw=1.0),
            SignalFrame(t=1.0, swa=0.0, yaw=2.0),
            SignalFrame(t=2.0, swa=4.0, yaw=3.0),
        ]
        out = resample_uniform(frames, 1.0)
        assert out[0].swa is None  # swa support starts at t=1
        assert out[1].swa == 0.0

    def test_identity_on_uniform_grid(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=40)
        frames = frames_gapped(0.0, 40, 0.1, swa=values)
        out = resample_uniform(frames, 0.1)
        assert len(out) == 40
        for f, v in zip(out, values):
            assert abs(f.swa - v) < 1e-9

    def test_bad_dt(self):
        with pytest.raises(ArgumentError):
            resample_uniform([], 0.0)


class TestWindow:
    def test_length(self):
        w = Window(start_t=10.0, end_t=70.0,
                   frames=(SignalFrame(t=12.0), SignalFrame(t=30.0)))
        assert w.length == 60.0

    def test_frame_outside_bounds_rejected(self):
        with pytest.raises(ArgumentError):
            Window(start_t=0.0, end_t=5.0,
                   frames=(SignalFrame(t=0.0), SignalFrame(t=5.0)))

    def test_channel_extraction(self):
        w = Window(start_t=0.0, end_t=5.0,
                   frames=(SignalFrame(t=0.0, swa=1.0),
                           SignalFrame(t=1.0),
                           SignalFrame(t=2.0, swa=3.0)))
        t, v = w.channel("swa")
        assert list(t) == [0.0, 2.0]
        assert list(v) == [1.0, 3.0]


class TestProfileAndEvents:
    def test_profile_sex_coercion(self):
        assert DriverProfile(id="d", sex="male").sex is Sex.MALE
        assert DriverProfile(id="d").sex is Sex.UNSPECIFIED

    def test_profile_requires_id(self):
        with pytest.raises(ArgumentError):
            DriverProfile(id="")

    def test_obstacle_event_ordering(self):
        ObstacleEvent(0.0, 0.4, 0.9, 1.5)
        with pytest.raises(OrderingError):
            ObstacleEvent(0.0, 0.9, 0.4, 1.5)


def test_serialize_csv_only_used_columns():
    frames = [SignalFrame(t=0.0, swa=1.0), SignalFrame(t=1.0, swa=2.0)]
    text = serialize_trace(frames, "csv").decode()
    assert text.splitlines()[0] == "t,swa"


def test_window_frames_half_open():
    # interval convention: start in, end out
    frames = [SignalFrame(t=float(k)) for k in range(12)]
    w = make_windows(frames, 10.0, 10.0)[0]
    assert [f.t for f in w.frames] == [float(k) for k in range(10)]


def test_nextafter_times_accepted():
    t1 = math.nextafter(1.0, math.inf)
    frames = parse_trace(f"t\n1.0\n{t1!r}".encode(), "csv")
    assert len(frames) == 2
