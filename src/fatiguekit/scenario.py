"""Deterministic synthetic drive traces for two driver regimes.

The generator exists so the pipeline can be exercised end to end with
known ground truth. An "alert" segment produces smooth sub-threshold
steering, tightly bounded yaw, brief blinks and a normal heart rate. A
"drowsy" segment weaves: sustained large steering swings crossing the
6 degree correction threshold many times a minute, yaw drift with
second-difference spikes, long eyelid closures driving the closure
fraction past 0.4, yawns, and a heart rate in the drowsy band.

Each regime writes its channels as sums of sinusoids, made by one helper
that draws each phase from the segment's generator where the sinusoid is
written, plus events marked on top, and returns them keyed by `CHANNELS`.
The output is a `Trace` built straight from each segment's channel
arrays; no per-sample Python object is made. Same spec, same trace, every
run: all randomness comes from generators seeded by (spec.seed, segment
index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _inputs
from .errors import ScenarioSpecError, excerpt
from .signals import CHANNELS, Trace, _grid, _readonly

__all__ = ["REGIMES", "ScenarioSpec", "Segment", "generate_scenario", "parse_scenario_spec",
           "simple_spec"]

REGIMES = ("alert", "drowsy")


@dataclass(frozen=True, slots=True)
class Segment:
    start: float
    end: float
    regime: str

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ScenarioSpecError(f"unknown regime {excerpt(self.regime)}")
        if not self.start < self.end:
            raise ScenarioSpecError(
                f"segment bounds reversed: [{self.start}, {self.end})")
        if self.start < 0:
            raise ScenarioSpecError(f"segment starts before zero: {self.start}")


@dataclass(frozen=True)
class ScenarioSpec:
    """What to synthesise: segment layout, sampling rate and seed."""

    duration: float
    sample_rate: float = 10.0
    seed: int = 0
    segments: tuple[Segment, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.duration > 0:
            raise ScenarioSpecError(f"duration must be positive, got {self.duration}")
        if not self.sample_rate > 0:
            raise ScenarioSpecError(
                f"sample_rate must be positive, got {self.sample_rate}")
        ordered = sorted(self.segments, key=lambda s: s.start)
        for seg in ordered:
            if seg.end > self.duration + 1e-9:
                raise ScenarioSpecError(
                    f"segment [{seg.start}, {seg.end}) exceeds duration {self.duration}")
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end - 1e-9:
                raise ScenarioSpecError(
                    f"segments overlap at [{b.start}, {min(a.end, b.end)})")
        object.__setattr__(self, "segments", tuple(ordered))


def parse_scenario_spec(data: bytes | str) -> ScenarioSpec:
    """Read a spec from JSON: duration, sample_rate, seed, segments."""
    obj = _inputs.json_object(data, "scenario spec")
    known = {"duration", "sample_rate", "seed", "segments"}
    unknown = set(obj) - known
    if unknown:
        raise ScenarioSpecError(f"unknown spec keys: {excerpt(sorted(unknown))}")
    if "duration" not in obj:
        raise ScenarioSpecError("spec needs a duration")
    segments = []
    raw_segments = _inputs.of_type(obj.get("segments", []), list, "scenario spec segments",
                                   "a list")
    for i, raw in enumerate(raw_segments):
        if not isinstance(raw, dict) or set(raw) != {"start", "end", "regime"}:
            raise ScenarioSpecError(
                f"segment {i} needs exactly start/end/regime, got {excerpt(raw)}")
        key = f"scenario spec segments[{i}]"
        segments.append(Segment(
            start=_inputs.number(raw["start"], f"{key}.start"),
            end=_inputs.number(raw["end"], f"{key}.end"),
            regime=_inputs.of_type(raw["regime"], str, f"{key}.regime", "a regime name")))
    return ScenarioSpec(
        duration=_inputs.number(obj["duration"], "scenario spec duration"),
        sample_rate=_inputs.number(obj.get("sample_rate", 10.0), "scenario spec sample_rate"),
        seed=_inputs.count(obj.get("seed", 0), "scenario spec seed"),
        segments=tuple(segments),
    )


def simple_spec(regime: str, duration: float = 600.0, *,
                sample_rate: float = 10.0, seed: int = 0) -> ScenarioSpec:
    """One segment covering the whole duration."""
    return ScenarioSpec(
        duration=duration, sample_rate=sample_rate, seed=seed,
        segments=(Segment(start=0.0, end=duration, regime=regime),))


def _event_starts(rng, total: float, gap_lo: float, gap_hi: float) -> list[float]:
    starts = []
    t = rng.uniform(gap_lo, gap_hi) * 0.5
    while t < total:
        starts.append(t)
        t += rng.uniform(gap_lo, gap_hi)
    return starts


def _mark(values: np.ndarray, rate: float, start: float, dur: float, level: float):
    i = int(round(start * rate))
    j = int(round((start + dur) * rate))
    values[max(i, 0):max(j, 0)] = level


def _waves(tau: np.ndarray, rng):
    """wave(a, f): a * sin(2 pi f tau + phase), its phase drawn from rng when
    wave is called, so the draws follow the order the waves are written in."""
    def wave(a: float, f: float) -> np.ndarray:
        return a * np.sin(2 * np.pi * f * tau + rng.uniform(0, 2 * np.pi))
    return wave


def _alert_channels(tau: np.ndarray, rate: float, rng) -> dict[str, np.ndarray]:
    n, total, wave = len(tau), float(tau[-1]), _waves(tau, rng)

    a1, f1 = rng.uniform(2.0, 2.6), rng.uniform(0.10, 0.13)
    a2, f2 = rng.uniform(1.0, 1.4), rng.uniform(0.18, 0.22)
    swa = wave(a1, f1) + wave(a2, f2) + rng.uniform(-0.04, 0.04, n)

    yc, ya = rng.uniform(0.30, 0.40), rng.uniform(0.20, 0.28)
    yaw = yc + wave(ya, 0.05) + wave(0.03, 0.3)

    speed = 25.0 + wave(0.5, 0.02)
    lat = wave(0.3, 0.1)
    lon = wave(0.15, 0.05)
    lane = wave(0.15, 0.07) + wave(0.04, 0.23)

    eye = 0.05 + wave(0.02, 0.11)
    blink_samples = max(int(round(0.3 * rate)), 1)
    for s in _event_starts(rng, total, 3.5, 5.0):
        i = int(round(s * rate))
        eye[i:i + blink_samples] = 1.0

    mouth = 0.08 + np.abs(wave(0.04, 0.03))
    head = wave(1.5, 0.06) + wave(0.5, 0.21)
    bpm = 80.0 + wave(3.0, 0.01)

    gaze = wave(1.0, 0.1)
    for s in _event_starts(rng, total, 7.0, 13.0):
        jump = rng.uniform(4.0, 8.0) * rng.choice((-1.0, 1.0))
        _mark(gaze, rate, s, rng.uniform(0.5, 1.0), jump)

    return dict(zip(CHANNELS, (swa, yaw, speed, lat, lon, lane, eye, mouth, head, bpm, gaze),
                    strict=True))


def _drowsy_channels(tau: np.ndarray, rate: float, rng) -> dict[str, np.ndarray]:
    n, total, wave = len(tau), float(tau[-1]), _waves(tau, rng)

    # Weaving: every swing tops 10 degrees and dips under the re-arm level,
    # so the 6 degree correction counter runs well past 12 per minute.
    c = rng.uniform(11.0, 12.5)
    a = rng.uniform(7.5, min(8.5, c - 2.5))
    f = rng.uniform(0.22, 0.28)
    swa = c + wave(a, f) + rng.uniform(-0.1, 0.1, n)

    d1 = rng.uniform(1.6, 2.0)
    d2 = rng.uniform(1.0, 1.4)
    yaw = wave(d1, 0.04) + wave(d2, 0.09)
    # Single-sample jolts put a sharp spike into the second difference.
    for s in _event_starts(rng, total, 15.0, 25.0):
        i = int(round(s * rate))
        if 0 <= i < n:
            yaw[i] += rng.uniform(0.04, 0.07)

    speed = 24.0 + wave(2.0, 0.008)
    lat = wave(1.0, 0.1) + wave(0.4, 0.31)
    lon = wave(0.3, 0.04)
    lane = wave(1.9, 0.05) + wave(0.1, 0.17)

    eye = np.full(n, 0.1)
    t_cursor = 0.0
    while t_cursor < total:
        closed = rng.uniform(3.0, 3.5)
        _mark(eye, rate, t_cursor, closed, 1.0)
        t_cursor += closed + rng.uniform(3.5, 4.0)

    mouth = np.full(n, 0.1)
    for s in _event_starts(rng, total, 40.0, 55.0):
        _mark(mouth, rate, s, rng.uniform(3.5, 4.5), 0.85)

    head = 8.0 + wave(6.0, 0.015)
    bpm = 57.0 + wave(2.0, 0.005)

    gaze = wave(2.0, 0.02)
    for s in _event_starts(rng, total, 18.0, 28.0):
        jump = rng.uniform(4.0, 6.0) * rng.choice((-1.0, 1.0))
        _mark(gaze, rate, s, rng.uniform(0.8, 1.5), jump)

    return dict(zip(CHANNELS, (swa, yaw, speed, lat, lon, lane, eye, mouth, head, bpm, gaze),
                    strict=True))


def generate_scenario(spec: ScenarioSpec) -> Trace:
    """Synthesise the trace described by spec.

    Frames sit on the global grid k / sample_rate restricted to the
    segments; gaps between segments emit nothing. A segment that starts
    within the 1e-9 s overlap the spec allows resumes the grid after the
    previous segment's last frame. Every channel is sampled in every frame.
    The output is a valid trace: strictly increasing t, all channel
    invariants satisfied.

    Raises:
        ScenarioSpecError: a segment grid past a numpy index or memory,
            naming the count, or frame times repeated in float64.
    """
    rate = spec.sample_rate
    parts = []  # (times, channels) of each segment that holds a frame
    next_k = 0
    for index, seg in enumerate(spec.segments):
        rng = np.random.default_rng([spec.seed & 0xFFFFFFFF, index])
        end_k = seg.end * rate
        k0 = max(math.ceil(seg.start * rate - 1e-9), next_k) if math.isfinite(end_k) else 0
        t = _grid(k0, end_k, lambda k: k / rate, seg.end - 1e-12, ScenarioSpecError,
                  lambda count: f"duration {spec.duration} at sample_rate {rate} needs "
                                f"{count:.3g} frames for segment [{seg.start}, {seg.end})",
                  parts[-1][0][-1] if parts else -math.inf)
        if len(t) == 0:
            continue
        next_k = k0 + len(t)
        synth = _alert_channels if seg.regime == "alert" else _drowsy_channels
        channels = synth(t - seg.start, rate, rng)
        channels["eye_closure"] = np.clip(channels["eye_closure"], 0.0, 1.0)
        channels["mouth_open"] = np.clip(channels["mouth_open"], 0.0, None)
        parts.append((t, channels))
    t = _readonly(np.concatenate([np.empty(0), *(t for t, _ in parts)]))
    return Trace(t, {name: (t, _readonly(np.concatenate([c[name] for _, c in parts])))
                     for name in CHANNELS if parts})
