"""Windowed feature extraction for drive and driver signals.

Each extractor pulls one channel family off a Window and returns a partial
FeatureVector; extract_features merges the families and is what the pipeline
calls. Extractors are independent so a trace missing, say, the camera
channels still yields the vehicular features.

Units are the channel units: degrees for angles, seconds for durations,
events per minute for frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    ArgumentError,
    InsufficientDataError,
    MissingChannelError,
)
from .signals import ObstacleEvent, Window

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class ApEnParams:
    """Approximate-entropy parameters.

    m is the embedding (template) length. The tolerance may be given
    directly as r, or left None to be derived per series as
    r_scale * population std of that series.
    """

    m: int = 2
    r: float | None = None
    r_scale: float = 0.2

    def __post_init__(self):
        if self.m < 1:
            raise ArgumentError(f"apen m must be >= 1, got {self.m}")
        if self.r is not None and not self.r > 0:
            raise ArgumentError(f"apen r must be positive, got {self.r}")
        if self.r is None and not self.r_scale > 0:
            raise ArgumentError(f"apen r_scale must be positive, got {self.r_scale}")


# Elements of one block of the near matrix (rows x series length), so a
# block's float64 differences (512 KiB) stay in cache. Of the powers of two
# from 2**13 to 2**22 this was fastest at n = 540, 1500 and 6000 on a
# 2-vCPU Xeon VM with one thread: about 1.7x faster than 2**20 at n = 6000.
_BLOCK_ELEMENTS = 1 << 16


def _phi_pair(x: np.ndarray, m: int, r: float) -> tuple[float, float]:
    """phi_m and phi_{m+1}: mean log correlation sums over the templates of
    length m and m + 1.

    Templates i and j match when |x[i+k] - x[j+k]| <= r for every offset k
    (Chebyshev distance, self-match included, so every count is >= 1). The
    near matrix |x_i - x_j| <= r is built a block of template rows at a
    time, only rows [a, b + m) for template rows [a, b): the m-matches are
    the AND of its first m diagonal shifts, and the (m+1)-matches AND one
    more shift onto those. Peak memory is O(block * n), not O(n^2). The
    counts are exact integers, so the result does not depend on the block
    size.
    """
    n = len(x)
    count_m, count_m1 = n - m + 1, n - m
    c_m = np.empty(count_m, dtype=np.intp)
    c_m1 = np.empty(count_m1, dtype=np.intp)
    rows = max(1, _BLOCK_ELEMENTS // n)
    for a in range(0, count_m, rows):
        b = min(a + rows, count_m)
        diff = x[a:min(b + m, n), None] - x
        near = np.abs(diff, out=diff) <= r
        match = near[:b - a, :count_m].copy()
        for k in range(1, m):
            match &= near[k:k + b - a, k:k + count_m]
        c_m[a:b] = np.count_nonzero(match, axis=1)
        b1 = min(b, count_m1)
        if a < b1:
            match = match[:b1 - a, :count_m1]
            match &= near[m:m + b1 - a, m:m + count_m1]
            c_m1[a:b1] = np.count_nonzero(match, axis=1)
    return (float(np.mean(np.log(c_m / count_m))),
            float(np.mean(np.log(c_m1 / count_m1))))


def approximate_entropy(x, params: ApEnParams = ApEnParams()) -> float:
    """Approximate entropy of a scalar series.

    ApEn(m, r) = phi_m(r) - phi_{m+1}(r) with the self-match-inclusive
    correlation sums, so a constant series scores exactly 0. The value is
    not bounded below by 0: on short or near-periodic series phi_{m+1} can
    exceed phi_m, and ApEn is truly negative (not a rounding artefact).

    Raises:
        InsufficientDataError: fewer than m + 2 samples.
        ArgumentError: invalid parameters.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ArgumentError("apen input must be one-dimensional")
    n = len(x)
    if n < params.m + 2:
        raise InsufficientDataError(
            f"apen needs at least m + 2 = {params.m + 2} samples, got {n}")
    r = params.r
    if r is None:
        sigma = float(np.std(x))
        if sigma == 0.0:
            # Constant series: every template matches every other at any
            # positive tolerance, so both phi terms vanish identically.
            return 0.0
        r = params.r_scale * sigma
    phi_m, phi_m1 = _phi_pair(x, params.m, r)
    return phi_m - phi_m1


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """All window features. Fields a window could not produce stay None."""

    window_start: float
    window_end: float

    # steering wheel angle
    mean_swa_abs: float | None = None           # degrees
    max_swa_abs: float | None = None            # degrees
    swa_correction_freq: float | None = None    # corrections / minute
    swa_angular_velocity_max: float | None = None  # degrees / s
    swa_apen: float | None = None

    # yaw angle
    mean_yaw_abs: float | None = None           # degrees
    var_yaw: float | None = None                # degrees^2, population
    yaw_apen: float | None = None
    yaw_accel_max: float | None = None          # degrees / s^2

    # kinematics and lane keeping
    lat_accel_range: float | None = None        # m/s^2
    lane_std: float | None = None               # m, population
    lane_crossings: int | None = None           # lane-line crossings in window

    # eyes
    perclos80: float | None = None              # fraction of time in [0, 1]
    blink_freq: float | None = None             # blinks / minute
    blink_dur_mean: float | None = None         # seconds
    microsleep_count: int | None = None

    # mouth
    yawn_count: int | None = None
    yawn_freq: float | None = None              # yawns / minute

    # head
    head_ewma: float | None = None              # degrees
    head_ewvar: float | None = None             # degrees^2

    # physiology and gaze
    mean_bpm: float | None = None
    gaze_persac: float | None = None            # fraction in [0, 1]

    def to_dict(self) -> dict:
        """JSON-ready mapping; absent features are omitted."""
        out = {"window_start": self.window_start, "window_end": self.window_end}
        for f in fields(self):
            if f.name in ("window_start", "window_end"):
                continue
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = v
        return out


FEATURE_NAMES = tuple(
    f.name for f in fields(FeatureVector) if f.name not in ("window_start", "window_end"))


def merge_features(*parts: FeatureVector) -> FeatureVector:
    """Combine partial vectors for one window. Later parts win on overlap."""
    if not parts:
        raise ArgumentError("nothing to merge")
    base = parts[0]
    for p in parts[1:]:
        if (p.window_start, p.window_end) != (base.window_start, base.window_end):
            raise ArgumentError("cannot merge features from different windows")
        updates = {f.name: getattr(p, f.name) for f in fields(p)
                   if f.name not in ("window_start", "window_end")
                   and getattr(p, f.name) is not None}
        base = replace(base, **updates)
    return base


def _channel_or_raise(w: Window, name: str, minimum: int):
    t, v = w.channel(name)
    if len(t) == 0:
        raise MissingChannelError(name)
    if len(t) < minimum:
        raise InsufficientDataError(
            f"channel {name!r} has {len(t)} samples, need {minimum}")
    return t, v


def _resample_series(t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Put one channel onto a uniform grid at its mean spacing."""
    dt = (t[-1] - t[0]) / (len(t) - 1)
    n_steps = int(math.floor((t[-1] - t[0]) / dt + _EPS))
    grid = t[0] + np.arange(n_steps + 1) * dt
    return np.interp(grid, t, v), dt


def count_upcrossings(values, threshold: float, hysteresis: float) -> int:
    """Upward crossings of a series through threshold, debounced.

    A crossing is counted when the series reaches threshold from below; a
    new crossing arms only after the series drops under
    threshold - hysteresis. A series that starts at or above threshold is
    already "up" and does not count until it re-arms.
    """
    count = 0
    below = values[0] < threshold
    rearm = threshold - hysteresis
    for x in values[1:]:
        if below:
            if x >= threshold:
                count += 1
                below = False
        elif x < rearm:
            below = True
    return count


def swa_features(w: Window, apen: ApEnParams = ApEnParams(), *,
                 correction_threshold: float = 6.0,
                 correction_hysteresis: float = 0.5) -> FeatureVector:
    """Steering-wheel angle features for one window.

    A correction is an upward crossing of |swa| through the 6 degree
    threshold (0.5 degree re-arm hysteresis). The frequency is normalised
    to events per minute over the nominal window length. ApEn runs on the
    resampled series; when the window is too short for the chosen embedding
    the swa_apen field is simply left absent.
    """
    t, v = _channel_or_raise(w, "swa", 2)
    abs_v = np.abs(v)
    crossings = count_upcrossings(abs_v, correction_threshold, correction_hysteresis)
    velocity = np.abs(np.diff(v) / np.diff(t))
    resampled, _ = _resample_series(t, v)
    try:
        apen_value = approximate_entropy(resampled, apen)
    except InsufficientDataError:
        apen_value = None
    return FeatureVector(
        window_start=w.start_t,
        window_end=w.end_t,
        mean_swa_abs=float(np.mean(abs_v)),
        max_swa_abs=float(np.max(abs_v)),
        swa_correction_freq=crossings * 60.0 / w.length,
        swa_angular_velocity_max=float(np.max(velocity)),
        swa_apen=apen_value,
    )


def yaw_features(w: Window, apen: ApEnParams = ApEnParams()) -> FeatureVector:
    """Yaw angle features: mean magnitude, population variance, ApEn and
    the largest second difference per squared step (a yaw-rate acceleration
    proxy), the latter two on the resampled series."""
    t, v = _channel_or_raise(w, "yaw", 3)
    resampled, dt = _resample_series(t, v)
    accel = np.abs(np.diff(resampled, n=2)) / (dt * dt)
    try:
        apen_value = approximate_entropy(resampled, apen)
    except InsufficientDataError:
        apen_value = None
    return FeatureVector(
        window_start=w.start_t,
        window_end=w.end_t,
        mean_yaw_abs=float(np.mean(np.abs(v))),
        var_yaw=float(np.var(v)),
        yaw_apen=apen_value,
        yaw_accel_max=float(np.max(accel)) if len(accel) else None,
    )


def kinematics_features(w: Window, *, half_lane_width: float = 1.75) -> FeatureVector:
    """Lateral acceleration range plus lane-keeping spread and crossings.

    The two source channels are independent: whichever is present on at
    least two frames contributes its fields. Only when neither is usable
    does the extractor raise.
    """
    out: dict[str, float | int] = {}
    t_a, a = w.channel("lat_accel")
    if len(a) >= 2:
        out["lat_accel_range"] = float(np.max(a) - np.min(a))
    t_l, lane = w.channel("lane_offset")
    if len(lane) >= 2:
        out["lane_std"] = float(np.std(lane))
        # crossing = |offset| reaching the lane line from inside
        g = np.abs(lane) - half_lane_width
        out["lane_crossings"] = int(np.sum((g[:-1] < 0) & (g[1:] >= 0)))
    if not out:
        raise MissingChannelError("lat_accel/lane_offset")
    return FeatureVector(window_start=w.start_t, window_end=w.end_t, **out)


def _hold_runs(t: np.ndarray, above: np.ndarray) -> list[tuple[float, float]]:
    """Maximal runs where a boolean sample series holds true.

    Each sample holds its value until the next sample, so a run covering
    samples i..j lasts t[j+1] - t[i]; a run reaching the final sample is
    truncated at that sample's time.
    """
    runs: list[tuple[float, float]] = []
    n = len(t)
    i = 0
    while i < n:
        if above[i]:
            j = i
            while j + 1 < n and above[j + 1]:
                j += 1
            end = t[j + 1] if j + 1 < n else t[j]
            runs.append((float(t[i]), float(end - t[i])))
            i = j + 1
        else:
            i += 1
    return runs


def closed_fraction(t: np.ndarray, v: np.ndarray, closed_threshold: float) -> float:
    """Time-weighted fraction of the span t[0]..t[-1] with closure at or
    above the threshold; each sample holds until the next one. Needs two or
    more samples."""
    closed = v[:-1] >= closed_threshold
    return float(np.sum(np.diff(t)[closed])) / float(t[-1] - t[0])


def eye_features(w: Window, *, closed_threshold: float = 0.8,
                 blink_min_s: float = 0.2, microsleep_min_s: float = 0.5) -> FeatureVector:
    """Eyelid features from the closure channel.

    perclos80 is the time-weighted fraction of the observed span with
    closure at or above the threshold (each sample holds until the next
    one). Closed episodes lasting [blink_min_s, microsleep_min_s) are
    blinks; anything at or past microsleep_min_s is a micro-sleep.
    """
    t, v = _channel_or_raise(w, "eye_closure", 2)
    runs = _hold_runs(t, v >= closed_threshold)
    blinks = [dur for _, dur in runs
              if blink_min_s - _EPS <= dur < microsleep_min_s - _EPS]
    microsleeps = [dur for _, dur in runs if dur >= microsleep_min_s - _EPS]
    return FeatureVector(
        window_start=w.start_t,
        window_end=w.end_t,
        perclos80=closed_fraction(t, v, closed_threshold),
        blink_freq=len(blinks) * 60.0 / w.length,
        blink_dur_mean=float(np.mean(blinks)) if blinks else None,
        microsleep_count=len(microsleeps),
    )


def mouth_features(w: Window, *, yawn_ratio: float = 0.6,
                   yawn_min_dur: float = 3.0) -> FeatureVector:
    """Yawn detection: mouth_open at or above yawn_ratio held for at least
    yawn_min_dur seconds counts one yawn."""
    t, v = _channel_or_raise(w, "mouth_open", 1)
    runs = _hold_runs(t, v >= yawn_ratio)
    yawns = [dur for _, dur in runs if dur >= yawn_min_dur - _EPS]
    return FeatureVector(
        window_start=w.start_t,
        window_end=w.end_t,
        yawn_count=len(yawns),
        yawn_freq=len(yawns) * 60.0 / w.length,
    )


def head_features(w: Window, alpha: float = 0.3) -> FeatureVector:
    """Exponentially weighted mean and variance of head pitch.

    Seeded with the first sample (variance 0) and stepped once per further
    sample:

        ewma_k  = alpha * x_k + (1 - alpha) * ewma_{k-1}
        ewvar_k = (1 - alpha) * (ewvar_{k-1} + alpha * (x_k - ewma_{k-1})^2)

    The final values are reported.
    """
    if not 0 < alpha <= 1:
        raise ArgumentError(f"alpha must lie in (0, 1], got {alpha}")
    t, v = _channel_or_raise(w, "head_pitch", 1)
    ewma = float(v[0])
    ewvar = 0.0
    for x in v[1:].tolist():
        delta = x - ewma
        ewma = alpha * x + (1 - alpha) * ewma
        ewvar = (1 - alpha) * (ewvar + alpha * delta * delta)
    return FeatureVector(
        window_start=w.start_t, window_end=w.end_t,
        head_ewma=ewma, head_ewvar=ewvar)


def physiology_features(w: Window) -> FeatureVector:
    t, v = _channel_or_raise(w, "heart_bpm", 1)
    return FeatureVector(
        window_start=w.start_t, window_end=w.end_t,
        mean_bpm=float(np.mean(v)))


def gaze_features(w: Window, *, saccade_speed: float = 30.0) -> FeatureVector:
    """Fraction of gaze transitions faster than the saccade speed threshold
    (degrees per second)."""
    t, v = _channel_or_raise(w, "gaze_offset", 2)
    speed = np.abs(np.diff(v) / np.diff(t))
    return FeatureVector(
        window_start=w.start_t, window_end=w.end_t,
        gaze_persac=float(np.mean(speed > saccade_speed)))


@dataclass(frozen=True, slots=True)
class ReactionTimes:
    """Successive stage durations of one obstacle response, seconds.

    visual:   obstacle visible -> physical reaction begins
    physical: physical reaction -> movement begins
    movement: movement -> vehicle responds
    vehicle_response: full span, obstacle visible -> vehicle responds
    """

    visual: float
    physical: float
    movement: float
    vehicle_response: float


def reaction_times(e: ObstacleEvent) -> ReactionTimes:
    return ReactionTimes(
        visual=e.t_physical_reaction - e.t_visible,
        physical=e.t_movement - e.t_physical_reaction,
        movement=e.t_vehicle_response - e.t_movement,
        vehicle_response=e.t_vehicle_response - e.t_visible,
    )


@dataclass(frozen=True, slots=True)
class FeatureParams:
    """Tunables shared by the extractors, pipeline-configurable."""

    apen: ApEnParams = field(default_factory=ApEnParams)
    correction_threshold_deg: float = 6.0
    correction_hysteresis_deg: float = 0.5
    half_lane_width_m: float = 1.75
    eye_closed_threshold: float = 0.8
    yawn_ratio: float = 0.6
    yawn_min_dur_s: float = 3.0
    head_alpha: float = 0.3
    saccade_speed_dps: float = 30.0


_EXTRACTORS = (
    lambda w, p: swa_features(w, p.apen,
                              correction_threshold=p.correction_threshold_deg,
                              correction_hysteresis=p.correction_hysteresis_deg),
    lambda w, p: yaw_features(w, p.apen),
    lambda w, p: kinematics_features(w, half_lane_width=p.half_lane_width_m),
    lambda w, p: eye_features(w, closed_threshold=p.eye_closed_threshold),
    lambda w, p: mouth_features(w, yawn_ratio=p.yawn_ratio, yawn_min_dur=p.yawn_min_dur_s),
    lambda w, p: head_features(w, p.head_alpha),
    lambda w, p: physiology_features(w),
    lambda w, p: gaze_features(w, saccade_speed=p.saccade_speed_dps),
)


def extract_features(w: Window, params: FeatureParams = FeatureParams()
                     ) -> tuple[FeatureVector, list[str]]:
    """Run every extractor the window can feed.

    Returns the merged vector plus a list of notes for the families that
    could not run (missing channel, too little data). A window missing
    every channel still returns an all-absent vector.
    """
    fv = FeatureVector(window_start=w.start_t, window_end=w.end_t)
    notes: list[str] = []
    for extract in _EXTRACTORS:
        try:
            fv = merge_features(fv, extract(w, params))
        except (MissingChannelError, InsufficientDataError) as e:
            notes.append(str(e))
    return fv, notes
