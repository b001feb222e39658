"""Core signal types and trace ingestion.

A trace is a time-ordered sequence of frames. Each frame has a mandatory
timestamp ``t`` (seconds) plus any subset of the named channels; a channel
missing from a frame simply was not sampled at that instant. Traces are
exchanged as CSV (header row, empty cell = absent) or JSONL (one object per
line, absent key = absent channel).

Windows are half-open ``[start_t, end_t)`` slices of a trace. All downstream
feature extraction works on windows, never on whole traces.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from enum import Enum

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

    def present_channels(self) -> tuple[str, ...]:
        return tuple(c for c in CHANNELS if getattr(self, c) is not None)


@dataclass(frozen=True, slots=True)
class Window:
    """A half-open [start_t, end_t) slice of a trace.

    Frames are strictly increasing in t and every frame satisfies
    start_t <= t < end_t. A window knows its nominal bounds even when the
    frames do not reach them; frequencies are always normalised by the
    nominal length.
    """

    start_t: float
    end_t: float
    frames: tuple[SignalFrame, ...]

    def __post_init__(self):
        if not self.end_t > self.start_t:
            raise ArgumentError(f"window bounds reversed: [{self.start_t}, {self.end_t})")
        last = None
        for f in self.frames:
            if not self.start_t <= f.t < self.end_t:
                raise ArgumentError(
                    f"frame t={f.t} outside window [{self.start_t}, {self.end_t})")
            if last is not None and f.t <= last:
                raise ArgumentError(f"frame timestamps not strictly increasing at t={f.t}")
            last = f.t

    @property
    def length(self) -> float:
        return self.end_t - self.start_t

    def channel(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Times and values of one channel, restricted to frames where it is present."""
        if name not in CHANNELS:
            raise ArgumentError(f"unknown channel {name!r}")
        pairs = [(f.t, getattr(f, name)) for f in self.frames if getattr(f, name) is not None]
        if not pairs:
            return np.empty(0), np.empty(0)
        t, v = zip(*pairs)
        return np.asarray(t, dtype=float), np.asarray(v, dtype=float)


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


def _coerce_number(text: str, column: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DecodeError(f"non-numeric value {text!r} in column {column!r}", row=row) from None
    return value


def _build_frame(t, values: dict, row: int) -> SignalFrame:
    try:
        return SignalFrame(t=t, **values)
    except RangeError as e:
        raise RangeError(e.channel, "range violation", row=row) from e


def _parse_csv(text: str) -> list[SignalFrame]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return []
    header = [h.strip() for h in header]
    known = set(CHANNELS) | {"t"}
    for col in header:
        if col not in known:
            raise DecodeError(f"unknown column {col!r} in header")
    if "t" not in header:
        raise DecodeError("header lacks mandatory column 't'")
    if len(set(header)) != len(header):
        raise DecodeError("duplicate column in header")

    frames: list[SignalFrame] = []
    prev_t = None
    for row_idx, cells in enumerate(reader, start=1):
        if not cells or all(c.strip() == "" for c in cells):
            continue
        if len(cells) != len(header):
            raise DecodeError(
                f"expected {len(header)} cells, got {len(cells)}", row=row_idx)
        record = {}
        for col, cell in zip(header, cells):
            cell = cell.strip()
            if cell == "":
                continue
            record[col] = _coerce_number(cell, col, row_idx)
        if "t" not in record:
            raise DecodeError("missing value for 't'", row=row_idx)
        t = record.pop("t")
        frame = _build_frame(t, record, row_idx)
        if prev_t is not None and frame.t <= prev_t:
            raise MonotonicityError(
                f"t={frame.t} does not increase past {prev_t}", row=row_idx)
        prev_t = frame.t
        frames.append(frame)
    return frames


def _parse_jsonl(text: str) -> list[SignalFrame]:
    frames: list[SignalFrame] = []
    prev_t = None
    known = set(CHANNELS) | {"t"}
    for line_idx, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DecodeError(f"bad JSON: {e.msg}", row=line_idx) from None
        if not isinstance(obj, dict):
            raise DecodeError("each line must be a JSON object", row=line_idx)
        record = {}
        for key, value in obj.items():
            if key not in known:
                raise DecodeError(f"unknown key {key!r}", row=line_idx)
            if value is None:
                continue  # explicit null reads the same as an absent key
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DecodeError(f"value for {key!r} must be a number", row=line_idx)
            record[key] = float(value)
        if "t" not in record:
            raise DecodeError("missing key 't'", row=line_idx)
        t = record.pop("t")
        frame = _build_frame(t, record, line_idx)
        if prev_t is not None and frame.t <= prev_t:
            raise MonotonicityError(
                f"t={frame.t} does not increase past {prev_t}", row=line_idx)
        prev_t = frame.t
        frames.append(frame)
    return frames


def parse_trace(data: bytes | str, format: str = "csv") -> list[SignalFrame]:
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


def _format_value(v: float) -> str:
    # repr keeps the shortest digit string that round-trips exactly
    return repr(v)


def serialize_trace(frames: list[SignalFrame], format: str = "csv") -> bytes:
    """Encode frames so that parse_trace(serialize_trace(f)) == f.

    CSV output includes only the channels present somewhere in the trace,
    in canonical column order.
    """
    if format == "csv":
        used = [c for c in CHANNELS if any(getattr(f, c) is not None for f in frames)]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["t", *used])
        for f in frames:
            row = [_format_value(f.t)]
            for c in used:
                v = getattr(f, c)
                row.append("" if v is None else _format_value(v))
            writer.writerow(row)
        return out.getvalue().encode("utf-8")
    if format == "jsonl":
        lines = []
        for f in frames:
            obj = {"t": f.t}
            for c in CHANNELS:
                v = getattr(f, c)
                if v is not None:
                    obj[c] = v
            lines.append(json.dumps(obj, sort_keys=True))
        return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
    raise ArgumentError(f"unknown trace format {format!r}")


def make_windows(frames: list[SignalFrame], length: float, stride: float) -> list[Window]:
    """Slice a trace into half-open windows.

    Window k spans [k * stride, k * stride + length). Windows holding fewer
    than two frames are dropped: nothing differential can be computed from
    one sample. Windows that end by the first frame are empty, so k starts
    at floor((t0 - length) / stride), not 0: a trace stamped in epoch
    seconds would otherwise step through about 1e8 empty windows first.
    """
    if length <= 0:
        raise ArgumentError(f"window length must be positive, got {length}")
    if stride <= 0:
        raise ArgumentError(f"window stride must be positive, got {stride}")
    if not frames:
        return []
    last_t = frames[-1].t
    times = np.array([f.t for f in frames])
    windows: list[Window] = []
    k = max(0, math.floor((frames[0].t - length) / stride))
    while k * stride < last_t or (k == 0 and last_t == 0.0):
        start = k * stride
        end = start + length
        lo = int(np.searchsorted(times, start, side="left"))
        hi = int(np.searchsorted(times, end, side="left"))
        if hi - lo >= 2:
            windows.append(Window(start_t=start, end_t=end, frames=tuple(frames[lo:hi])))
        k += 1
    return windows


def resample_uniform(frames: list[SignalFrame], dt: float) -> list[SignalFrame]:
    """Resample a trace onto a uniform grid by linear interpolation.

    The grid starts at the first frame and steps by dt up to the last frame.
    Each channel is interpolated on its own support (the frames where it is
    present); grid points outside that support leave the channel absent.
    There is no extrapolation.
    """
    if dt <= 0:
        raise ArgumentError(f"dt must be positive, got {dt}")
    if len(frames) < 2:
        return list(frames)
    t0 = frames[0].t
    t_last = frames[-1].t
    n_steps = int(math.floor((t_last - t0) / dt + 1e-9))
    grid = t0 + np.arange(n_steps + 1) * dt

    supports: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for c in CHANNELS:
        pairs = [(f.t, getattr(f, c)) for f in frames if getattr(f, c) is not None]
        if pairs:
            ts, vs = zip(*pairs)
            supports[c] = (np.asarray(ts, dtype=float), np.asarray(vs, dtype=float))

    out: list[SignalFrame] = []
    for tau in grid:
        values: dict[str, float] = {}
        for c, (ts, vs) in supports.items():
            if ts[0] - 1e-9 <= tau <= ts[-1] + 1e-9:
                values[c] = float(np.interp(tau, ts, vs))
        out.append(SignalFrame(t=float(tau), **values))
    return out


def frame_fields() -> tuple[str, ...]:
    """All SignalFrame field names including t, in declaration order."""
    return tuple(f.name for f in fields(SignalFrame))
