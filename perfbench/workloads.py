"""The benchmark's workloads: what each input trace is made of.

Every trace comes from `fatiguekit.scenario` with the run's seed, so the
same seed gives the same bytes. Each trace ends on a window-stride
boundary; see README.md for why.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from fatiguekit import SignalFrame, default_config_text, generate_scenario, serialize_trace
from fatiguekit.scenario import ScenarioSpec, Segment

VEHICLE = ("swa", "yaw", "speed", "lat_accel", "lon_accel", "lane_offset")
CAMERA = ("eye_closure", "mouth_open", "head_pitch", "gaze_offset")
CABIN = CAMERA[:3] + ("heart_bpm",) + CAMERA[3:]


@dataclass(frozen=True)
class Workload:
    name: str
    sample_rate: float
    # (start, end, regime) for the full-size run and for the small self-check
    segments: tuple[tuple[float, float, str], ...]
    small_segments: tuple[tuple[float, float, str], ...]
    # channel -> keep one row in this many; channels not listed are dropped
    keep_every: dict[str, int]
    config: dict = field(default_factory=dict)
    # does the run write one snapshot per window into a directory?
    snapshots: bool = False

    def segments_for(self, small: bool):
        return self.small_segments if small else self.segments

    def drowsy_onset(self, small: bool) -> float:
        return next(s for s, _, regime in self.segments_for(small) if regime == "drowsy")

    def settings(self) -> dict:
        """The config the run uses: shipped defaults plus this workload's keys."""
        defaults = json.loads(default_config_text())
        return {**defaults, **self.config}


WORKLOADS = {
    w.name: w for w in (
        # All 11 channels, dense. ApEn on ~600-sample series dominates; the
        # only workload where the rules fire and an alert is raised.
        Workload(
            name="drive_10hz",
            sample_rate=10.0,
            segments=((0.0, 90.0, "alert"), (90.0, 240.0, "drowsy")),
            small_segments=((0.0, 60.0, "alert"), (60.0, 150.0, "drowsy")),
            keep_every={c: 1 for c in VEHICLE + CAMERA + ("heart_bpm",)},
        ),
        # Vehicle channels at 100 Hz, camera at 10 Hz, heart rate at 1 Hz:
        # ApEn on thousands of samples (quadratic time and memory) and a
        # CSV that is mostly empty cells.
        Workload(
            name="drive_100hz",
            sample_rate=100.0,
            segments=((0.0, 10.0, "alert"), (10.0, 20.0, "drowsy")),
            small_segments=((0.0, 5.0, "alert"), (5.0, 10.0, "drowsy")),
            keep_every={**{c: 1 for c in VEHICLE}, **{c: 10 for c in CAMERA},
                        "heart_bpm": 100},
        ),
        # Camera and physiology only, for half an hour: ApEn never runs;
        # parsing, windowing, the closure-window pass, the fact base and the
        # snapshot writer take the time. Every layer's cost grows linearly
        # with the drive's length; half an hour keeps one operation near a
        # second, so a run's median is taken over some twenty of them.
        Workload(
            name="cabin_10hz",
            sample_rate=10.0,
            segments=((0.0, 900.0, "alert"), (900.0, 1800.0, "drowsy")),
            small_segments=((0.0, 300.0, "alert"), (300.0, 600.0, "drowsy")),
            keep_every={c: 1 for c in CABIN},
            config={"snapshot_every_windows": 1},
            snapshots=True,
        ),
    )
}


def build_trace(w: Workload, seed: int, small: bool) -> bytes:
    """The workload's input trace as CSV bytes."""
    segments = w.segments_for(small)
    spec = ScenarioSpec(
        duration=segments[-1][1], sample_rate=w.sample_rate, seed=seed,
        segments=tuple(Segment(start=s, end=e, regime=r) for s, e, r in segments))
    frames = []
    for f in generate_scenario(spec):
        # rows sit on the grid k / sample_rate; thin each channel by k
        k = int(round(f.t * w.sample_rate))
        frames.append(SignalFrame(t=f.t, **{
            c: getattr(f, c) for c, every in w.keep_every.items() if k % every == 0}))
    return serialize_trace(frames, "csv")

