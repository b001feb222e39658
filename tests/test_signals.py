import json
import math
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traces
from oracles import parse_csv_rowwise, parse_jsonl_rowwise, windows_oracle
from fatiguekit import (
    CHANNELS,
    ArgumentError,
    DecodeError,
    DriverProfile,
    MonotonicityError,
    RangeError,
    Sex,
    SignalFrame,
    Trace,
    Window,
    generate_scenario,
    load_config,
    make_windows,
    parse_trace,
    serialize_trace,
    simple_spec,
)
from fatiguekit import signals


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
        frames = list(parse_trace(b"t,swa\n0.0,1.5\n0.1,2.0", "csv"))
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
        frames = list(parse_trace(b"t,swa,yaw\n0.0,1.0,\n0.1,,0.5", "csv"))
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
        frames = list(parse_trace(b'{"t": 0.0, "swa": null}', "jsonl"))
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
        assert list(parse_trace(b"", "csv")) == []
        assert list(parse_trace(b"", "jsonl")) == []


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_csv_round_trip(self, frames):
        blob = serialize_trace(frames, "csv")
        assert list(parse_trace(blob, "csv")) == frames

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_jsonl_round_trip(self, frames):
        blob = serialize_trace(frames, "jsonl")
        assert list(parse_trace(blob, "jsonl")) == frames


class TestMakeWindows:
    def test_even_split(self):
        frames = frames_gapped(0.0, 100, 0.1, swa=0.0)
        windows = make_windows(Trace.from_frames(frames), 5.0, 5.0)
        assert len(windows) == 2
        assert all(len(w.frames) == 50 for w in windows)

    def test_overlapping_stride(self):
        # hand-enumerated: starts 0,2,4,6,8 all hold at least two frames
        frames = frames_gapped(0.0, 100, 0.1, swa=0.0)
        windows = make_windows(Trace.from_frames(frames), 6.0, 2.0)
        assert [w.start_t for w in windows] == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert len(windows) == 5

    def test_empty(self):
        assert make_windows(Trace.from_frames([]), 5.0, 5.0) == []

    def test_boundary_frame_goes_to_next_window(self):
        frames = [SignalFrame(t=0.0), SignalFrame(t=4.9), SignalFrame(t=5.0),
                  SignalFrame(t=9.0)]
        windows = make_windows(Trace.from_frames(frames), 5.0, 5.0)
        assert [f.t for f in windows[0].frames] == [0.0, 4.9]
        assert [f.t for f in windows[1].frames] == [5.0, 9.0]

    def test_single_frame_window_dropped(self):
        frames = [SignalFrame(t=0.0), SignalFrame(t=0.5), SignalFrame(t=7.0)]
        windows = make_windows(Trace.from_frames(frames), 5.0, 5.0)
        assert len(windows) == 1
        assert windows[0].start_t == 0.0

    def test_bad_args(self):
        with pytest.raises(ArgumentError):
            make_windows(Trace.from_frames([]), 0.0, 5.0)
        with pytest.raises(ArgumentError):
            make_windows(Trace.from_frames([]), 5.0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["length", "stride"])
    def test_non_finite_geometry_rejected(self, which, bad):
        trace = Trace.from_frames([SignalFrame(t=float(t)) for t in range(30)])
        geometry = {"length": 10.0, "stride": 10.0, which: bad}
        with pytest.raises(ArgumentError, match=f"window {which} must be finite"):
            make_windows(trace, geometry["length"], geometry["stride"])

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
        windows = make_windows(Trace.from_frames(frames), 4.0, 2.0)
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
        windows = make_windows(Trace.from_frames([SignalFrame(t=t) for t in times]),
                               length, stride)
        got = [(w.start_t, w.end_t, [f.t for f in w.frames]) for w in windows]
        assert got == windows_oracle(times, length, stride)

    def test_epoch_timestamps(self):
        # 1.7e9 and the 0.125 s step are exact in binary, so the windows are
        # those of the same trace at t = 100, shifted
        base = [100.0 + i * 0.125 for i in range(960)]
        epoch = 1.7e9
        started = time.perf_counter()
        windows = make_windows(Trace.from_frames([SignalFrame(t=epoch + t) for t in base]),
                               60.0, 10.0)
        assert time.perf_counter() - started < 1.0
        expected = windows_oracle(base, 60.0, 10.0)
        assert [(w.start_t - epoch, len(w.frames)) for w in windows] == \
            [(start, len(inside)) for start, _, inside in expected]


class TestWindow:
    def test_length(self):
        w = Window(start_t=10.0, end_t=70.0,
                   frames=Trace.from_frames((SignalFrame(t=12.0), SignalFrame(t=30.0))))
        assert w.length == 60.0

    def test_frame_outside_bounds_rejected(self):
        with pytest.raises(ArgumentError):
            Window(start_t=0.0, end_t=5.0,
                   frames=Trace.from_frames((SignalFrame(t=0.0), SignalFrame(t=5.0))))

    def test_channel_extraction(self):
        w = Window(start_t=0.0, end_t=5.0,
                   frames=Trace.from_frames((SignalFrame(t=0.0, swa=1.0),
                                             SignalFrame(t=1.0),
                                             SignalFrame(t=2.0, swa=3.0))))
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

    def test_profile_rejects_unknown_sex(self):
        with pytest.raises(ArgumentError, match="unknown sex 'robot'"):
            DriverProfile(id="d", sex="robot")


def test_serialize_csv_only_used_columns():
    frames = [SignalFrame(t=0.0, swa=1.0), SignalFrame(t=1.0, swa=2.0)]
    text = serialize_trace(frames, "csv").decode()
    assert text.splitlines()[0] == "t,swa"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_serialize_holds_its_output_once(fmt):
    # 2 400 rows of t and 11 channels. Holding the text, a str copy and the
    # encoded bytes at once peaked at 2.6 times the output for CSV and 3.2
    # times for JSONL.
    trace = generate_scenario(simple_spec("drowsy", duration=240.0, seed=3))
    tracemalloc.start()
    try:
        blob = serialize_trace(trace, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 2400 and blob.count(b"\n") == 2400 + (fmt == "csv")
    assert peak < 2 * len(blob)


def test_window_frames_half_open():
    # interval convention: start in, end out
    frames = [SignalFrame(t=float(k)) for k in range(12)]
    w = make_windows(Trace.from_frames(frames), 10.0, 10.0)[0]
    assert [f.t for f in w.frames] == [float(k) for k in range(10)]


def test_nextafter_times_accepted():
    t1 = math.nextafter(1.0, math.inf)
    frames = parse_trace(f"t\n1.0\n{t1!r}".encode(), "csv")
    assert len(frames) == 2


# -- the columnar parser against the row-wise reference ----------------------

def outcome(parse, text):
    """Frames parsed, or the class and message of the error raised."""
    try:
        return list(parse(text))
    except Exception as e:
        return type(e), str(e)


# Columns of the fault-injection traces; the three with a range check are in.
FAULT_COLUMNS = ("t", "swa", "eye_closure", "mouth_open", "heart_bpm")
VALID_CELL = {
    "swa": st.floats(-720.0, 720.0),
    "eye_closure": st.floats(0.0, 1.0),
    "mouth_open": st.floats(0.0, 3.0),
    "heart_bpm": st.floats(30.0, 200.0),
}
CSV_FAULTS = ("text", "nan", "eye", "bpm", "negative_t", "repeated_t",
              "missing_t", "cell_count", "blank_row", "padded")
JSONL_FAULTS = ("text", "nan", "eye", "bpm", "negative_t", "repeated_t",
                "missing_t", "unknown_key", "bad_json", "not_object", "bool",
                "huge_int", "digit_limit", "blank_row", "padded")


@st.composite
def fault_records(draw, faults):
    """Valid rows (dicts of column -> value, None = blank), then one to
    three faults from `faults`, each at a random row."""
    n = draw(st.integers(1, 12))
    times = np.cumsum(draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n)))
    rows = []
    for t in times.tolist():
        row = {"t": t}
        for col, cell in VALID_CELL.items():
            row[col] = draw(cell) if draw(st.booleans()) else None
        rows.append(row)
    injected = draw(st.lists(st.tuples(st.sampled_from(faults), st.integers(0, n - 1)),
                             min_size=1, max_size=3))
    return rows, injected


def csv_text(rows, injected, order, draw_sep):
    header = list(order)
    lines = [[("" if r[c] is None else repr(r[c])) for c in header] for r in rows]
    extra = []  # (index, line) inserted after the rows are built
    for kind, i in injected:
        cells = lines[i]
        at = header.index
        if kind == "text":
            cells[at("swa")] = "abc"
        elif kind == "nan":
            cells[at("swa")] = "nan"
            cells[at("t")] = "inf" if i % 2 else cells[at("t")]
        elif kind == "eye":
            cells[at("eye_closure")] = "1.5"
        elif kind == "bpm":
            cells[at("heart_bpm")] = "300" if i % 2 else "0"
        elif kind == "negative_t":
            cells[at("t")] = "-1.0"
        elif kind == "repeated_t":
            cells[at("t")] = lines[i - 1][at("t")] if i else "0.0"
        elif kind == "missing_t":
            cells[at("t")] = ""
        elif kind == "cell_count":
            cells.append("1.0")
        elif kind == "blank_row":
            # an empty line, a short blank line, a full-width blank line
            extra.append((i, [[""], ["", ""], [" "] * len(header)][i % 3]))
        elif kind == "padded":
            lines[i] = [f"  {c}\t" for c in cells]
    for i, line in sorted(extra, reverse=True):
        lines.insert(i, line)
    return draw_sep.join([",".join(header), *(",".join(c) for c in lines)])


def jsonl_text(rows, injected, sep):
    # a blank swa is written as an explicit null, which reads as absent
    lines = [json.dumps({k: v for k, v in r.items() if v is not None or k == "swa"})
             for r in rows]
    extra = []
    for kind, i in injected:
        obj = {k: v for k, v in rows[i].items() if v is not None}
        text = None
        if kind == "text":
            obj["swa"] = "abc"
        elif kind == "nan":
            obj["swa"] = float("nan") if i % 2 else float("inf")
        elif kind == "eye":
            obj["eye_closure"] = 1.5
        elif kind == "bpm":
            obj["heart_bpm"] = 300 if i % 2 else 0
        elif kind == "negative_t":
            obj["t"] = -1.0
        elif kind == "repeated_t":
            obj["t"] = rows[i - 1]["t"] if i else 0.0
        elif kind == "missing_t":
            del obj["t"]
        elif kind == "unknown_key":
            obj["wheel"] = 1.0
        elif kind == "bad_json":
            text = '{"t": 1.0,'
        elif kind == "not_object":
            text = "[1.0]"
        elif kind == "bool":
            obj["swa"] = True
        elif kind == "huge_int":
            obj["swa"] = 10 ** 400
        elif kind == "digit_limit":  # past the digits int() may parse
            text = json.dumps(obj)[:-1] + ', "swa": 1' + "0" * 5000 + "}"
        elif kind == "blank_row":
            extra.append((i, " \t"))
            continue
        elif kind == "padded":
            text = f"  {json.dumps(obj)}  "
        lines[i] = json.dumps(obj) if text is None else text
    for i, line in sorted(extra, reverse=True):
        lines.insert(i, line)
    return sep.join(lines)


# Rows to a chunk: the parser's own, and three, so that sparse rows, padded
# cells and faults also fall in later chunks, and chunks converted at once
# follow chunks read row by row.
CHUNK_ROWS = st.sampled_from([signals._CHUNK_ROWS, 3])


@contextmanager
def chunk_rows(rows: int):
    """signals._CHUNK_ROWS set to `rows` within the block. Not a fixture:
    hypothesis runs a test body many times under one function-scoped
    fixture."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signals, "_CHUNK_ROWS", rows)
        yield


class TestParseMatchesRowwiseOracle:
    @settings(max_examples=120, deadline=None)
    @given(traces(), CHUNK_ROWS)
    def test_valid_traces_give_equal_frames(self, frames, rows):
        for fmt, oracle in (("csv", parse_csv_rowwise), ("jsonl", parse_jsonl_rowwise)):
            text = serialize_trace(frames, fmt).decode()
            with chunk_rows(rows):
                parsed = parse_trace(text, fmt)
            assert isinstance(parsed, Trace)
            assert list(parsed) == oracle(text) == frames
            assert len(parsed) == len(frames)

    @settings(max_examples=600, deadline=None)
    @given(fault_records(CSV_FAULTS), st.permutations(FAULT_COLUMNS),
           st.sampled_from(["\n", "\r\n", "\r"]), CHUNK_ROWS)
    def test_csv_faults_raise_as_the_oracle(self, case, order, sep, rows):
        text = csv_text(*case, order, sep)
        with chunk_rows(rows):
            got = outcome(lambda x: parse_trace(x, "csv"), text)
        assert got == outcome(parse_csv_rowwise, text)

    @settings(max_examples=300, deadline=None)
    @given(fault_records(JSONL_FAULTS),
           st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"]))
    def test_jsonl_faults_raise_as_the_oracle(self, case, sep):
        text = jsonl_text(*case, sep)
        assert outcome(lambda x: parse_trace(x, "jsonl"), text) == \
            outcome(parse_jsonl_rowwise, text)

    @pytest.mark.parametrize("text,error,row", [
        # a range fault ranks before a decode fault in a later row
        ("t,eye_closure,swa\n0.0,0.5,1\n0.1,1.5,1\n0.2,0.5,abc\n", RangeError, 2),
        ("t,swa\n0.0,1\n0.1,abc\n0.05,1\n", DecodeError, 2),
        ("t,swa\n0.0,1\n0.0,1\n0.2,1,2\n", MonotonicityError, 2),
        ("t,heart_bpm\n0.0,60\n\n , \n0.1,0\n", RangeError, 4),
    ])
    def test_first_fault_wins(self, text, error, row):
        with pytest.raises(error) as exc:
            parse_trace(text, "csv")
        assert exc.value.row == row
        assert outcome(lambda x: parse_trace(x, "csv"), text) == \
            outcome(parse_csv_rowwise, text)


# -- columns and windows as views ------------------------------------------

def channel_oracle(frames, name, start, end):
    pairs = [(f.t, getattr(f, name)) for f in frames
             if start <= f.t < end and getattr(f, name) is not None]
    return [t for t, _ in pairs], [v for _, v in pairs]


_CFG = load_config()
GEOMETRIES = [(_CFG.window_length_s, _CFG.window_stride_s),
              (_CFG.perclos_window_s, _CFG.window_stride_s),
              (5.0, 2.0)]


class TestColumnViews:
    @settings(max_examples=60, deadline=None)
    @given(traces(max_frames=40), st.sampled_from(GEOMETRIES))
    def test_window_channel_matches_frame_oracle(self, frames, geometry):
        trace = Trace.from_frames(frames)
        windows = make_windows(trace, *geometry)
        for w in windows:
            for name in CHANNELS:
                t, v = w.channel(name)
                want_t, want_v = channel_oracle(frames, name, w.start_t, w.end_t)
                assert t.dtype == v.dtype == np.float64
                assert t.tolist() == want_t and v.tolist() == want_v
                assert not t.flags.writeable and not v.flags.writeable
                if len(v):
                    assert np.shares_memory(v, trace.channel(name)[1])
                    with pytest.raises(ValueError):
                        v[0] = 0.0

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_samples_on_window_bounds(self, geometry):
        # a 0.5 s grid puts samples exactly on window starts and ends
        frames = [SignalFrame(t=k * 0.5, swa=float(k) if k % 2 else None,
                              eye_closure=0.5 if k % 3 else None) for k in range(400)]
        for w in make_windows(Trace.from_frames(frames), *geometry):
            for name in ("swa", "eye_closure", "yaw"):
                t, v = w.channel(name)
                assert (t.tolist(), v.tolist()) == \
                    channel_oracle(frames, name, w.start_t, w.end_t)

    @settings(max_examples=40, deadline=None)
    @given(traces())
    def test_trace_is_a_sequence_of_frames(self, frames):
        trace = Trace.from_frames(frames)
        assert len(trace) == len(frames)
        assert list(trace) == frames
        with pytest.raises(TypeError):
            trace[0]  # a trace is not a frame list
        assert trace == Trace.from_frames(list(trace))
        assert Trace.from_frames(trace) is trace
        assert trace.channels == tuple(
            c for c in CHANNELS if any(getattr(f, c) is not None for f in frames))

    def test_from_frames_rejects_unordered_times(self):
        with pytest.raises(ArgumentError, match="not strictly increasing at t=1.0"):
            Trace.from_frames([SignalFrame(t=0.0), SignalFrame(t=2.0), SignalFrame(t=1.0)])

    def test_unknown_channel(self):
        with pytest.raises(ArgumentError):
            Trace.from_frames([SignalFrame(t=0.0)]).channel("wheel")

    def test_absent_channel_is_empty_and_read_only(self):
        t, v = Trace.from_frames([SignalFrame(t=0.0, swa=1.0)]).channel("yaw")
        assert len(t) == len(v) == 0
        assert not t.flags.writeable and not v.flags.writeable
