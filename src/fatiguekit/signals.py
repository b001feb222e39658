"""Core signal types and trace ingestion.

A trace is a time-ordered sequence of frames. Each frame has a mandatory
timestamp ``t`` (seconds) plus any subset of the named channels; a channel
missing from a frame simply was not sampled at that instant. Traces are
exchanged as CSV (header row, empty cell = absent) or JSONL (one object per
line, absent key = absent channel), in UTF-8 with or without a leading byte
order mark; a CSV line ends at "\\r\\n", "\\r" or "\\n".

In memory a trace is a `Trace`: the frame times plus, for each channel
sampled somewhere, the times and values of its samples, as read-only
float64 arrays checked once with vectorised tests. It is the one trace
type that moves between stages: `parse_trace` and `generate_scenario` make
one, and `make_windows`, `Window`, `run` and `serialize_trace` read one.
`SignalFrame` is the row record: parse errors check a faulty row as one,
and `Trace.from_frames` is the adapter for callers that hold frames.

Windows are half-open ``[start_t, end_t)`` slices of a trace. All downstream
feature extraction works on windows, never on whole traces.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections.abc import Iterable
from dataclasses import dataclass, fields
from enum import Enum
from itertools import repeat
from operator import attrgetter

import numpy as np

from . import _inputs
from .errors import (
    ArgumentError,
    DecodeError,
    MonotonicityError,
    RangeError,
    excerpt,
)

__all__ = ["CHANNELS", "DriverProfile", "Sex", "SignalFrame", "Trace", "Window",
           "make_windows", "parse_trace", "serialize_trace"]

# The bounded channels: a test of a value or a whole column of values, and
# the words that name the range in its error.
_RANGES = {
    "eye_closure": (lambda v: (v >= 0.0) & (v <= 1.0), "must lie in [0, 1]"),
    "mouth_open": (lambda v: v >= 0.0, "must be >= 0"),
    "heart_bpm": (lambda v: (v > 0.0) & (v < 300.0), "must lie in (0, 300)"),
}


@dataclass(frozen=True, slots=True)
class SignalFrame:
    """One sampling instant, the row record. Its fields after `t` are the
    channels, in the canonical CSV column order; `CHANNELS` is read off
    them. Channels not sampled are None."""

    t: float                            # seconds
    swa: float | None = None            # steering wheel angle, degrees
    yaw: float | None = None            # vehicle yaw angle, degrees
    speed: float | None = None          # m/s
    lat_accel: float | None = None      # lateral acceleration, m/s^2
    lon_accel: float | None = None      # longitudinal acceleration, m/s^2
    lane_offset: float | None = None    # lateral offset from lane centre, m
    eye_closure: float | None = None    # eyelid closure fraction, 0 = open .. 1 = closed
    mouth_open: float | None = None     # mouth opening ratio, >= 0
    head_pitch: float | None = None     # head pitch, degrees (positive = drooping forward)
    heart_bpm: float | None = None      # heart rate, beats per minute
    gaze_offset: float | None = None    # gaze angle offset from road centre, degrees

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
        for name, (in_range, words) in _RANGES.items():
            v = getattr(self, name)
            if v is not None and not in_range(v):
                raise RangeError(name, f"{words}, got {v!r}")


CHANNELS = tuple(f.name for f in fields(SignalFrame))[1:]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_EMPTY = _readonly(np.empty(0))


class Trace:
    """A valid trace held column by column.

    `t` is every frame's time, strictly increasing. `channel(name)` gives the
    times and values of the samples of one channel. All arrays are read-only
    float64; windows share them. Make one with `parse_trace`,
    `generate_scenario` or `from_frames`; the constructor trusts its arrays.
    It is not a frame list and cannot be indexed. `len()` counts its frames,
    as the CLI and the benchmark's tracer do; iterating builds `SignalFrame`s
    on demand, as the benchmark's trace builder (perfbench/workloads.py) does.
    """

    __slots__ = ("t", "_columns")

    def __init__(self, t: np.ndarray, columns: dict[str, tuple[np.ndarray, np.ndarray]]):
        self.t = t
        self._columns = columns  # channel -> (times, values), CHANNELS order, non-empty

    @classmethod
    def from_frames(cls, frames) -> Trace:
        """The trace of a sequence of frames, each fed as one row to the
        parsers' column builder `_Rows`; a Trace is returned as is.

        Raises:
            ArgumentError: frame times that do not strictly increase, naming
                the later frame's t.
        """
        if isinstance(frames, Trace):
            return frames
        frames = list(frames)
        out, cells = _Rows(("t", *CHANNELS)), attrgetter("t", *CHANNELS)
        for i, f in enumerate(frames):
            out.add(i, cells(f))
        try:
            return out.finish()
        except MonotonicityError as e:
            raise ArgumentError(
                f"frame timestamps not strictly increasing at t={frames[e.row].t}") from None

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


@dataclass(frozen=True, slots=True)
class Window:
    """A half-open [start_t, end_t) slice of a trace.

    Every frame satisfies start_t <= t < end_t. A window knows its nominal
    bounds even when the frames do not reach them; frequencies are always
    normalised by the nominal length. `frames` is the `Trace` of the frames
    inside the window; make one from frames with `Trace.from_frames`.
    """

    start_t: float
    end_t: float
    frames: Trace

    def __post_init__(self):
        if not self.end_t > self.start_t:
            raise ArgumentError(f"window bounds reversed: [{self.start_t}, {self.end_t})")
        t = self.frames.t
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
        try:
            object.__setattr__(self, "sex", Sex(self.sex))
        except ValueError:
            raise ArgumentError(f"unknown sex {excerpt(self.sex)}: "
                                "use male, female or unspecified") from None


# Rows to a block, whose lines are split and cells converted together.
_CHUNK_ROWS = 256


class _Rows:
    """A trace being parsed, column by column: for each name the float64
    values of its set cells, a piece per block of rows, so no row-major
    copy of the cells outlives its block; a mask of the cells that are
    set; and the frames' row numbers.

    Rows are only decoded on the way in; the frame invariants are checked
    over whole columns. The first frame that breaks one is rebuilt as a
    SignalFrame, so its error is the one a frame-by-frame check raises.
    """

    def __init__(self, names: tuple[str, ...]):
        from array import array  # here, so importing the package does not load it

        self.names = names  # "t" and channels, in cell order
        self.parts: list[list[np.ndarray]] = [[] for _ in names]
        self.loose: list[float | None] = []  # cells of frames added one at a time
        self.set = bytearray()
        self.rows = array("q")

    def add(self, row: int, values: list[float | None]):
        """One frame; values has one entry per name, None where blank."""
        self.loose.extend(values)
        self.rows.append(row)
        if len(self.loose) >= _CHUNK_ROWS * len(self.names):
            self._seal()

    def add_block(self, cells: list[str], rows: Iterable[int]):
        """Frames given as their cell texts in row order, a blank cell unset
        and every other one a number. Adds nothing if a set cell is not a
        number.

        Raises:
            ValueError: a set cell float() does not take.
        """
        if "" in cells:
            is_set = bytes(map(bool, cells))
            block = np.zeros(len(cells))
            block[np.frombuffer(is_set, dtype=bool)] = np.array(
                list(filter(None, cells)), dtype=float)  # float() on each set cell
        else:
            is_set = b"\x01" * len(cells)
            block = np.array(cells, dtype=float)  # float() on each cell
        self._seal()
        self._store(block, is_set)
        self.rows.extend(rows)

    def _seal(self):
        if self.loose:
            # None reads as nan, in a cell that is not set
            self._store(np.array(self.loose, dtype=float),
                        bytes([v is not None for v in self.loose]))
            self.loose = []

    def _store(self, cells: np.ndarray, is_set: bytes):
        """Frames given as their cells, flat in row order, and set flags."""
        width = len(self.names)
        present = np.frombuffer(is_set, dtype=bool).reshape(-1, width)
        for parts, column, mask in zip(self.parts, cells.reshape(-1, width).T, present.T):
            parts.append(column[mask])
        self.set += is_set

    def finish(self, error: Exception | None = None) -> Trace:
        """The parsed trace. `error`, met at some row, is raised only when
        no earlier row holds an invalid frame."""
        self._seal()
        is_set = np.frombuffer(self.set, dtype=bool).reshape(-1, len(self.names))
        columns = {}  # name -> (mask of the frames that set it, its values)
        for j, (name, parts) in enumerate(zip(self.names, self.parts)):
            columns[name] = (is_set[:, j], np.concatenate([_EMPTY, *parts]))
            parts.clear()  # each column's pieces go once it is joined
        t = columns["t"][1]
        columns = {name: columns[name] for name in CHANNELS
                   if name in columns and len(columns[name][1])}
        bad = ~(np.isfinite(t) & (t >= 0))
        bad[1:] |= ~(t[1:] > t[:-1])
        for name, (present, v) in columns.items():
            ok = np.isfinite(v)
            if name in _RANGES:
                ok &= _RANGES[name][0](v)
            if not ok.all():
                bad[np.flatnonzero(present)[~ok]] = True
        faults = np.flatnonzero(bad)
        if len(faults):
            self._raise_fault(int(faults[0]), t, columns)
        if error is not None:
            raise error
        t = _readonly(t)
        # a channel set in every frame shares the frame times
        return Trace(t, {name: (t if len(v) == len(t) else _readonly(t[present]), _readonly(v))
                         for name, (present, v) in columns.items()})

    def _raise_fault(self, i: int, t: np.ndarray, columns):
        row = self.rows[i]
        values = {name: float(v[np.count_nonzero(present[:i])])
                  for name, (present, v) in columns.items() if present[i]}
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
            raise DecodeError(f"non-numeric value {excerpt(cell)} in column {col!r}",
                              row=row) from None
    if values[header.index("t")] is None:
        if all(v is None for v in values):
            return
        raise DecodeError("missing value for 't'", row=row)
    out.add(row, values)


def _add_csv_block(out: _Rows, header: list[str], first: int, lines: list[str]):
    """Lines free of quotes and line ends, in file order, the first of them
    row `first`, split on commas. When each is a frame whose set cells are
    plain numbers, as in a well-formed file, their cells are converted at
    once; otherwise row by row, which finds the first faulty row."""
    width = len(header)
    if set(map(str.count, lines, repeat(","))) == {width - 1}:
        cells = ",".join(lines).split(",")
        if all(cells[header.index("t")::width]):
            try:
                out.add_block(cells, range(first, first + len(lines)))
                return
            except ValueError:  # padded or non-numeric cells
                pass
    for row, line in enumerate(lines, start=first):
        _add_csv_row(out, header, row, line.split(","))


# One CSV line with its end, as a file opened with newline="" yields it.
_CSV_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _csv_blocks(text: str, pos: int):
    """The lines of text[pos:], _CHUNK_ROWS to a block, without their ends,
    each block cut on its own, so the text is never held twice. "\\r\\n",
    "\\r" and "\\n" each end a line, as for `csv`."""
    end = "\n" if "\n" in text else "\r"
    cr = end == "\n" and "\r" in text
    guess = 64 * _CHUNK_ROWS  # characters, then a little over the last block
    while pos < len(text):
        lines = text[pos:pos + guess].split(end, _CHUNK_ROWS)
        taken = min(guess, len(text) - pos)
        if len(lines) > _CHUNK_ROWS:
            taken -= len(lines.pop())
        elif pos + guess >= len(text):  # the last lines
            if not lines[-1]:
                lines.pop()
        else:
            guess *= 2
            continue
        pos += taken
        guess = taken + taken // 8 + 64
        if cr:
            lines = [part for line in lines for part in line.removesuffix("\r").split("\r")]
        yield lines


def _parse_csv(text: str) -> Trace:
    records = csv.reader(m.group() for m in _CSV_LINE.finditer(text))
    try:
        header = next(records, None)
    except csv.Error as e:  # such as a name past csv.field_size_limit()
        raise DecodeError(f"bad CSV header: {e}") from None
    if header is None:
        return _Rows(("t",)).finish()
    header = [h.strip() for h in header]
    known = set(CHANNELS) | {"t"}
    for col in header:
        if col not in known:
            raise DecodeError(f"unknown column {excerpt(col)} in header")
    if "t" not in header:
        raise DecodeError("header lacks mandatory column 't'")
    if len(set(header)) != len(header):
        raise DecodeError("duplicate column in header")

    out = _Rows(tuple(header))
    error = None
    row = 0  # the last row read by csv
    try:
        if '"' in text:  # a quoted cell may hold a comma or a line end
            for row, cells in enumerate(records, start=1):
                _add_csv_row(out, header, row, cells)
        else:  # the header is the first line
            row = 1  # row number of the block's first line
            for lines in _csv_blocks(text, _CSV_LINE.match(text).end()):
                _add_csv_block(out, header, row, lines)
                row += len(lines)
    except csv.Error as e:  # csv reads no row of quote-free text
        error = DecodeError(f"bad CSV: {e}", row=row + 1)
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
            except (ValueError, RecursionError) as e:  # bad JSON, too many digits, or too deep
                raise DecodeError(f"bad JSON: {getattr(e, 'msg', e)}", row=row) from None
            if not isinstance(obj, dict):
                raise DecodeError("each line must be a JSON object", row=row)
            record = {}
            for key, value in obj.items():
                if key not in known:
                    raise DecodeError(f"unknown key {excerpt(key)}", row=row)
                if value is None:
                    continue  # explicit null reads the same as an absent key
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise DecodeError(f"value for {excerpt(key)} must be a number",
                                      row=row)
                # a non-finite float is a range fault, found in row order by finish()
                record[key] = value if isinstance(value, float) else \
                    _inputs.number(value, f"value for {key!r}", row)
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
    text = _inputs.text(data, "trace")
    if format == "csv":
        return _parse_csv(text)
    if format == "jsonl":
        return _parse_jsonl(text)
    raise ArgumentError(f"unknown trace format {format!r}")


def serialize_trace(trace: Trace | Iterable[SignalFrame], format: str = "csv") -> bytes:
    """Encode a trace so that parse_trace(serialize_trace(trace)) == trace.

    CSV output includes only the channels present somewhere in the trace,
    in canonical column order. Every value is written as a float. Frames
    are read through `Trace.from_frames`, so there is one writer; that input
    stays because the benchmark's trace builder passes a frame list.
    """
    if format not in ("csv", "jsonl"):
        raise ArgumentError(f"unknown trace format {format!r}")
    trace = Trace.from_frames(trace)
    names, rows = trace.channels, trace._rows()
    # text is encoded as it is written, so the output is held once, as bytes
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    if format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["t", *names])
        writer.writerows([repr(t), *("" if v is None else repr(v) for v in values)]
                         for t, values in rows)
    else:
        for t, values in rows:
            obj = {"t": t}
            obj.update((name, v) for name, v in zip(names, values) if v is not None)
            out.write(json.dumps(obj, sort_keys=True) + "\n")
    out.flush()
    return buf.getvalue()


def _grid(k0, k1, scale, below, error, need, after=-math.inf) -> np.ndarray:
    """scale(k) below `below` for the integers k0 .. ceil(k1), counted in Python integers
    first: k * stride in make_windows, k / sample_rate in generate_scenario. Raises
    error(need(count)) for a grid past a numpy index or memory, or error naming the
    first point that float64 puts no higher than the one before (than `after`)."""
    count = math.ceil(k1) + 1 - k0 if math.isfinite(k1) else math.inf
    if count > np.iinfo(np.intp).max:
        raise error(need(count))
    try:
        grid = scale(np.arange(k0, k0 + count))
    except MemoryError:  # a grid numpy refuses to allocate
        raise error(need(count)) from None
    grid = grid[:np.searchsorted(grid, below)]  # scaling keeps the points in order
    stuck = np.concatenate([grid[:1] <= after, grid[1:] <= grid[:-1]])
    if stuck.any():
        i = int(stuck.argmax())
        raise error(f"{need(count)}, but in float64 point {float(grid[i])!r} does not "
                    f"increase past {float(grid[i - 1] if i else after)!r}")
    return grid


def make_windows(trace: Trace, length: float, stride: float) -> list[Window]:
    """Slice a trace into half-open windows.

    Window k spans [k * stride, k * stride + length) and exists while it
    starts before the last frame. Windows holding fewer than two frames are
    dropped: nothing differential can be computed from one sample. Windows
    that end by the first frame are empty, so k starts at
    floor((t0 - length) / stride), not 0: a trace stamped in epoch seconds
    would otherwise step through about 1e8 empty windows first. Each
    window's frames are views into the trace's arrays, found for all
    windows at once with one search per channel.

    Raises:
        ArgumentError: a length or stride not finite and positive, or window
            starts past a numpy index or memory, or repeated in float64.
    """
    if not (math.isfinite(length) and length > 0):
        raise ArgumentError(f"window length must be finite and positive, got {length}")
    if not (math.isfinite(stride) and stride > 0):
        raise ArgumentError(f"window stride must be finite and positive, got {stride}")
    t = trace.t
    if len(t) < 2:
        return []
    last_t = float(t[-1])
    # a finite k1 bounds k0, as (t[0] - length) / stride <= k1
    k1 = last_t / stride
    k0 = math.floor(max(0.0, (float(t[0]) - length) / stride)) if math.isfinite(k1) else 0
    starts = _grid(k0, k1, lambda k: k * stride, last_t, ArgumentError,
                   lambda count: f"window length {length} and stride {stride} need "
                                 f"{count:.3g} window starts to reach t={last_t}")
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
