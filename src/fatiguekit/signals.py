"""Core signal types and trace ingestion.

A trace is a time-ordered sequence of frames. Each frame has a mandatory
timestamp ``t`` (seconds) plus any subset of the named channels; a channel
missing from a frame simply was not sampled at that instant. Traces are
exchanged as CSV (header row, empty cell = absent) or JSONL (one object per
line, absent key = absent channel).

In memory a trace is a `Trace`: the frame times plus, for each channel
sampled somewhere, the times and values of its samples, as read-only
float64 arrays checked once with vectorised tests. `SignalFrame` is the
per-instant view used to build and serialise traces.

Windows are half-open ``[start_t, end_t)`` slices of a trace. All downstream
feature extraction works on windows, never on whole traces.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .errors import (
    ArgumentError,
    DecodeError,
    MonotonicityError,
    OrderingError,
    RangeError,
)

# Channel order here is also the canonical CSV column order.
CHANNELS = (
    "swa",          # steering wheel angle, degrees
    "yaw",          # vehicle yaw angle, degrees
    "speed",        # m/s
    "lat_accel",    # lateral acceleration, m/s^2
    "lon_accel",    # longitudinal acceleration, m/s^2
    "lane_offset",  # lateral offset from lane centre, m
    "eye_closure",  # eyelid closure fraction, 0 = open .. 1 = closed
    "mouth_open",   # mouth opening ratio, >= 0
    "head_pitch",   # head pitch, degrees (positive = drooping forward)
    "heart_bpm",    # heart rate, beats per minute
    "gaze_offset",  # gaze angle offset from road centre, degrees
)


@dataclass(frozen=True, slots=True)
class SignalFrame:
    """One sampling instant. Channels not sampled are None."""

    t: float
    swa: float | None = None
    yaw: float | None = None
    speed: float | None = None
    lat_accel: float | None = None
    lon_accel: float | None = None
    lane_offset: float | None = None
    eye_closure: float | None = None
    mouth_open: float | None = None
    head_pitch: float | None = None
    heart_bpm: float | None = None
    gaze_offset: float | None = None

    def __post_init__(self):
        if not isinstance(self.t, (int, float)) or isinstance(self.t, bool):
            raise RangeError("t", "must be a number")
        if not math.isfinite(self.t) or self.t < 0:
            raise RangeError("t", f"must be finite and non-negative, got {self.t!r}")
        for name in CHANNELS:
            v = getattr(self, name)
            if v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise RangeError(name, "must be a number or absent")
            if not math.isfinite(v):
                raise RangeError(name, f"must be finite, got {v!r}")
        ec = self.eye_closure
        if ec is not None and not 0.0 <= ec <= 1.0:
            raise RangeError("eye_closure", f"must lie in [0, 1], got {ec!r}")
        mo = self.mouth_open
        if mo is not None and mo < 0.0:
            raise RangeError("mouth_open", f"must be >= 0, got {mo!r}")
        bpm = self.heart_bpm
        if bpm is not None and not 0.0 < bpm < 300.0:
            raise RangeError("heart_bpm", f"must lie in (0, 300), got {bpm!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_EMPTY = _readonly(np.empty(0))


class Trace(Sequence):
    """A valid trace held column by column.

    `t` is every frame's time, strictly increasing. `channel(name)` gives the
    times and values of the samples of one channel. All arrays are read-only
    float64; windows share them. Indexing or iterating builds
    `SignalFrame`s on demand. Make one with `parse_trace` or `from_frames`;
    the constructor trusts its arrays.
    """

    __slots__ = ("t", "_columns")

    def __init__(self, t: np.ndarray, columns: dict[str, tuple[np.ndarray, np.ndarray]]):
        self.t = t
        self._columns = columns  # channel -> (times, values), CHANNELS order, non-empty

    @classmethod
    def from_frames(cls, frames) -> Trace:
        """The trace of a sequence of frames; a Trace is returned as is.

        Raises:
            ArgumentError: frame times that do not strictly increase.
        """
        if isinstance(frames, Trace):
            return frames
        frames = list(frames)
        t = np.array([f.t for f in frames], dtype=float)
        step = np.flatnonzero(np.diff(t) <= 0)
        if len(step):
            raise ArgumentError(
                f"frame timestamps not strictly increasing at t={frames[step[0] + 1].t}")
        columns = {}
        for name in CHANNELS:
            # frames hold finite values only, so NaN marks an absent sample
            v = np.array([getattr(f, name) for f in frames], dtype=float)
            present = ~np.isnan(v)
            if present.any():
                columns[name] = (_readonly(t[present]), _readonly(v[present]))
        return cls(_readonly(t), columns)

    @property
    def channels(self) -> tuple[str, ...]:
        """The channels sampled at least once, in canonical order."""
        return tuple(self._columns)

    def channel(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Times and values of one channel's samples (read-only views)."""
        if name not in CHANNELS:
            raise ArgumentError(f"unknown channel {name!r}")
        return self._columns.get(name, (_EMPTY, _EMPTY))

    def _view(self, lo: int, hi: int, spans) -> Trace:
        """Frames [lo, hi), holding samples [a, b) of each channel, with one
        (a, b) in spans per channel, in order."""
        return Trace(self.t[lo:hi], {
            name: (ct[a:b], cv[a:b])
            for (name, (ct, cv)), (a, b) in zip(self._columns.items(), spans)
            if b > a})

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index: int) -> SignalFrame:
        t = self.t[range(len(self.t))[operator.index(index)]]
        values = {}
        for name, (ct, cv) in self._columns.items():
            j = int(np.searchsorted(ct, t))
            if j < len(ct) and ct[j] == t:
                values[name] = float(cv[j])
        return SignalFrame(t=float(t), **values)

    def _rows(self):
        """(t, values) for each frame, values holding one float or None per
        channel, in `channels` order. Built a frame at a time, so nothing
        per frame is held."""
        columns = []
        for ct, cv in self._columns.values():
            present = np.zeros(len(self.t), dtype=bool)
            present[np.searchsorted(self.t, ct)] = True
            columns.append((present, map(float, cv)))
        for i, t in enumerate(map(float, self.t)):
            yield t, [next(values) if present[i] else None for present, values in columns]

    def __iter__(self):
        names = self.channels
        for t, values in self._rows():
            yield SignalFrame(t, **dict(zip(names, values)))

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (np.array_equal(self.t, other.t)
                and self.channels == other.channels
                and all(np.array_equal(a, b)
                        for name in self.channels
                        for a, b in zip(self._columns[name], other._columns[name])))

    __hash__ = None


@dataclass(frozen=True, slots=True)
class Window:
    """A half-open [start_t, end_t) slice of a trace.

    Every frame satisfies start_t <= t < end_t. A window knows its nominal
    bounds even when the frames do not reach them; frequencies are always
    normalised by the nominal length. Frames given as a plain sequence are
    converted to a `Trace` once.
    """

    start_t: float
    end_t: float
    frames: Trace

    def __post_init__(self):
        if not self.end_t > self.start_t:
            raise ArgumentError(f"window bounds reversed: [{self.start_t}, {self.end_t})")
        frames = Trace.from_frames(self.frames)
        object.__setattr__(self, "frames", frames)
        t = frames.t
        if len(t) and not (self.start_t <= t[0] and t[-1] < self.end_t):
            outside = t[0] if t[0] < self.start_t else t[np.searchsorted(t, self.end_t)]
            raise ArgumentError(
                f"frame t={float(outside)} outside window [{self.start_t}, {self.end_t})")

    @property
    def length(self) -> float:
        return self.end_t - self.start_t

    def channel(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Times and values of one channel within the window (read-only views)."""
        return self.frames.channel(name)


class Sex(str, Enum):
    MALE = "male"
    FEMALE = "female"
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True, slots=True)
class DriverProfile:
    """Static facts about the monitored driver."""

    id: str
    sex: Sex = Sex.UNSPECIFIED

    def __post_init__(self):
        if not self.id:
            raise ArgumentError("driver id must be non-empty")
        if not isinstance(self.sex, Sex):
            object.__setattr__(self, "sex", Sex(self.sex))


@dataclass(frozen=True, slots=True)
class ObstacleEvent:
    """Timestamps of one obstacle-response episode, seconds, in event order."""

    t_visible: float
    t_physical_reaction: float
    t_movement: float
    t_vehicle_response: float

    def __post_init__(self):
        ts = (self.t_visible, self.t_physical_reaction,
              self.t_movement, self.t_vehicle_response)
        if any(not math.isfinite(t) for t in ts):
            raise ArgumentError("obstacle timestamps must be finite")
        if not (ts[0] <= ts[1] <= ts[2] <= ts[3]):
            raise OrderingError(f"obstacle timestamps out of order: {ts}")


# Rows whose cells are converted to float64 together.
_CHUNK_ROWS = 1024


class _Rows:
    """A trace being parsed: every frame's cells as float64 (0.0 where
    blank), a mask of the cells that are set, and the frames' row numbers.

    Rows are only decoded on the way in; the frame invariants are checked
    over whole columns. The first frame that breaks one is rebuilt as a
    SignalFrame, so its error is the one a frame-by-frame check raises.
    """

    def __init__(self, names: tuple[str, ...]):
        from array import array  # here, so importing the package does not load it

        self.names = names  # "t" and channels, in cell order
        self.blocks: list[np.ndarray] = []  # flat float64 cells, in row order
        self.loose: list[float] = []  # cells of frames added one at a time
        self.set = bytearray()
        self.rows = array("q")

    def add(self, row: int, values: list[float | None]):
        """One frame; values has one entry per name, None where blank."""
        self.set.extend([v is not None for v in values])
        self.loose.extend([0.0 if v is None else v for v in values])
        self.rows.append(row)
        if len(self.loose) >= _CHUNK_ROWS * len(self.names):
            self._seal()

    def add_block(self, cells: list[str], is_set: bytearray, rows: list[int]):
        """Frames given as their cell texts, every set cell a number and
        every other one "0". Adds nothing if a cell is not a number.

        Raises:
            ValueError: a cell float() does not take.
        """
        block = np.array(cells, dtype=float)  # float() on each cell
        self._seal()
        self.blocks.append(block)
        self.set += is_set
        self.rows.extend(rows)

    def _seal(self):
        if self.loose:
            self.blocks.append(np.array(self.loose, dtype=float))
            self.loose = []

    def _columns(self):
        """Frame times, and each set channel's frame indices and values."""
        width = len(self.names)
        self._seal()
        cells = np.concatenate([np.empty(0), *self.blocks]).reshape(-1, width)
        is_set = np.frombuffer(self.set, dtype=bool).reshape(-1, width)
        t = cells[:, self.names.index("t")].copy()
        columns = {}
        for name in CHANNELS:
            if name in self.names:
                j = self.names.index(name)
                index = np.flatnonzero(is_set[:, j])
                if len(index):
                    columns[name] = (index, cells[index, j])
        return t, columns

    def finish(self, error: Exception | None = None) -> Trace:
        """The parsed trace. `error`, met at some row, is raised only when
        no earlier row holds an invalid frame."""
        t, columns = self._columns()
        bad = ~(np.isfinite(t) & (t >= 0))
        bad[1:] |= ~(t[1:] > t[:-1])
        for name, (index, v) in columns.items():
            ok = np.isfinite(v)
            if name == "eye_closure":
                ok &= (v >= 0.0) & (v <= 1.0)
            elif name == "mouth_open":
                ok &= v >= 0.0
            elif name == "heart_bpm":
                ok &= (v > 0.0) & (v < 300.0)
            bad[index[~ok]] = True
        faults = np.flatnonzero(bad)
        if len(faults):
            self._raise_fault(int(faults[0]), t, columns)
        if error is not None:
            raise error
        t = _readonly(t)
        return Trace(t, {name: (_readonly(t[index]), _readonly(v))
                         for name, (index, v) in columns.items()})

    def _raise_fault(self, i: int, t: np.ndarray, columns):
        row = self.rows[i]
        values = {name: float(v[j]) for name, (index, v) in columns.items()
                  if (j := int(np.searchsorted(index, i))) < len(index) and index[j] == i}
        try:
            SignalFrame(t=float(t[i]), **values)
        except RangeError as e:
            raise RangeError(e.channel, "range violation", row=row) from e
        raise MonotonicityError(
            f"t={float(t[i])} does not increase past {float(t[i - 1])}", row=row)


def _add_csv_row(out: _Rows, header: list[str], row: int, cells: list[str]):
    if len(cells) != len(header):
        if not any(c.strip() for c in cells):
            return
        raise DecodeError(f"expected {len(header)} cells, got {len(cells)}", row=row)
    values = []
    for col, cell in zip(header, cells):
        cell = cell.strip()
        try:
            values.append(float(cell) if cell else None)
        except ValueError:
            raise DecodeError(f"non-numeric value {cell!r} in column {col!r}",
                              row=row) from None
    if values[header.index("t")] is None:
        if all(v is None for v in values):
            return
        raise DecodeError("missing value for 't'", row=row)
    out.add(row, values)


def _add_csv_chunk(out: _Rows, header: list[str], chunk: list[tuple[int, list[str]]]):
    """Rows in file order. When each is a frame whose set cells are plain
    numbers, as in a well-formed file, their cells are converted at once;
    otherwise row by row, which finds the first faulty row."""
    width = len(header)
    t_at = header.index("t")
    all_set = b"\x01" * width
    texts: list[str] = []
    is_set = bytearray()
    for _, cells in chunk:
        if len(cells) != width or not cells[t_at]:
            break
        if "" in cells:
            is_set.extend(map(bool, cells))
            texts.extend([c or "0" for c in cells])
        else:
            is_set += all_set
            texts += cells
    else:
        try:
            out.add_block(texts, is_set, [row for row, _ in chunk])
            return
        except ValueError:  # padded or non-numeric cells
            pass
    for row, cells in chunk:
        _add_csv_row(out, header, row, cells)


def _parse_csv(text: str) -> Trace:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return _Rows(("t",)).finish()
    header = [h.strip() for h in header]
    known = set(CHANNELS) | {"t"}
    for col in header:
        if col not in known:
            raise DecodeError(f"unknown column {col!r} in header")
    if "t" not in header:
        raise DecodeError("header lacks mandatory column 't'")
    if len(set(header)) != len(header):
        raise DecodeError("duplicate column in header")

    out = _Rows(tuple(header))
    rows = enumerate(reader, start=1)
    error = None
    try:
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            _add_csv_chunk(out, header, chunk)
    except Exception as e:
        error = e
    return out.finish(error)


# The line boundaries of str.splitlines, found one at a time.
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _lines(text: str):
    start = 0
    for m in _LINE_BREAK.finditer(text):
        yield text[start:m.start()]
        start = m.end()
    if start < len(text):
        yield text[start:]


def _parse_jsonl(text: str) -> Trace:
    names = ("t", *CHANNELS)
    out = _Rows(names)
    known = set(names)
    error = None
    try:
        for row, line in enumerate(_lines(text), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DecodeError(f"bad JSON: {e.msg}", row=row) from None
            if not isinstance(obj, dict):
                raise DecodeError("each line must be a JSON object", row=row)
            record = {}
            for key, value in obj.items():
                if key not in known:
                    raise DecodeError(f"unknown key {key!r}", row=row)
                if value is None:
                    continue  # explicit null reads the same as an absent key
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise DecodeError(f"value for {key!r} must be a number", row=row)
                record[key] = float(value)
            if "t" not in record:
                raise DecodeError("missing key 't'", row=row)
            out.add(row, [record.get(name) for name in names])
    except Exception as e:
        error = e
    return out.finish(error)


def parse_trace(data: bytes | str, format: str = "csv") -> Trace:
    """Decode a trace from bytes.

    Args:
        data: raw file content, UTF-8.
        format: "csv" or "jsonl".

    Raises:
        DecodeError: malformed bytes, header or cell.
        MonotonicityError: timestamps that do not strictly increase.
        RangeError: a channel value outside its documented range.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DecodeError(f"not valid UTF-8: {e.reason}") from None
    else:
        text = data
    if format == "csv":
        return _parse_csv(text)
    if format == "jsonl":
        return _parse_jsonl(text)
    raise ArgumentError(f"unknown trace format {format!r}")


def serialize_trace(frames: Sequence[SignalFrame], format: str = "csv") -> bytes:
    """Encode frames so that parse_trace(serialize_trace(f)) == f.

    CSV output includes only the channels present somewhere in the trace,
    in canonical column order. A plain frame list is read as it is, not
    converted to a Trace first, so nothing per frame is copied.
    """
    if format not in ("csv", "jsonl"):
        raise ArgumentError(f"unknown trace format {format!r}")
    if isinstance(frames, Trace):
        names, rows = frames.channels, frames._rows()
    else:
        names = [c for c in CHANNELS if any(getattr(f, c) is not None for f in frames)]
        rows = ((f.t, [getattr(f, c) for c in names]) for f in frames)
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["t", *names])
        writer.writerows([repr(t), *("" if v is None else repr(v) for v in values)]
                         for t, values in rows)
        return out.getvalue().encode("utf-8")
    lines = []
    for t, values in rows:
        obj = {"t": t}
        obj.update((name, v) for name, v in zip(names, values) if v is not None)
        lines.append(json.dumps(obj, sort_keys=True))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def make_windows(frames: Sequence[SignalFrame], length: float, stride: float) -> list[Window]:
    """Slice a trace into half-open windows.

    Window k spans [k * stride, k * stride + length) and exists while it
    starts before the last frame. Windows holding fewer than two frames are
    dropped: nothing differential can be computed from one sample. Windows
    that end by the first frame are empty, so k starts at
    floor((t0 - length) / stride), not 0: a trace stamped in epoch seconds
    would otherwise step through about 1e8 empty windows first. Each
    window's frames are views into the trace's arrays, found for all
    windows at once with one search per channel.
    """
    if length <= 0:
        raise ArgumentError(f"window length must be positive, got {length}")
    if stride <= 0:
        raise ArgumentError(f"window stride must be positive, got {stride}")
    trace = Trace.from_frames(frames)
    t = trace.t
    if len(t) < 2:
        return []
    last_t = float(t[-1])
    k0 = max(0, math.floor((float(t[0]) - length) / stride))
    starts = np.arange(k0, max(k0, math.ceil(last_t / stride)) + 1) * stride
    starts = starts[starts < last_t]
    ends = starts + length
    lo = np.searchsorted(t, starts)
    hi = np.searchsorted(t, ends)
    keep = np.flatnonzero(hi - lo >= 2)
    starts, ends = starts[keep], ends[keep]
    spans = [zip(np.searchsorted(ct, starts).tolist(), np.searchsorted(ct, ends).tolist())
             for ct, _ in trace._columns.values()]
    return [Window(start_t=start, end_t=end, frames=trace._view(a, b, span))
            for start, end, a, b, *span in zip(starts.tolist(), ends.tolist(),
                                               lo[keep].tolist(), hi[keep].tolist(), *spans)]
