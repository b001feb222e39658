"""Output checks for each workload, made apart from the program.

Every check recomputes what the report must say from the input trace
alone, read with the csv module rather than fatiguekit's parser, or tests
a property the method must have. Nothing is compared against a stored
copy of earlier output. The snapshot round trip goes through fatiguekit's
own loader and writer, since that round trip is the property checked.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

from fatiguekit import load_snapshot, save_snapshot

from workloads import Workload

_EPS = 1e-9  # the program's tolerance on durations and window ends


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def close(a, b, what: str, tol: float = 1e-9):
    expect(a is not None and math.isclose(a, b, rel_tol=tol, abs_tol=tol),
           f"{what}: report says {a!r}, independent value {float(b)!r}")


# -- reading inputs and outputs -----------------------------------------------

def read_trace(data: bytes) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Row times, and (times, values) of each channel where its cell is set."""
    rows = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(rows)
    row_t = []
    cells: dict[str, tuple[list, list]] = {c: ([], []) for c in header[1:]}
    for row in rows:
        t = float(row[0])
        row_t.append(t)
        for name, cell in zip(header[1:], row[1:]):
            if cell:
                cells[name][0].append(t)
                cells[name][1].append(float(cell))
    return np.array(row_t), {c: (np.array(ts), np.array(vs)) for c, (ts, vs) in cells.items()}


def in_window(ch: tuple[np.ndarray, np.ndarray], start: float, end: float):
    t, v = ch
    keep = (t >= start) & (t < end)
    return t[keep], v[keep]


# -- independent computations -----------------------------------------------

def uniform_resample(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Linear interpolation onto len(t) evenly spaced points spanning t."""
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    out = np.empty(n)
    j = 0
    for i in range(n):
        g = t[0] + i * dt
        while j < n - 2 and t[j + 1] <= g:
            j += 1
        frac = min(max((g - t[j]) / (t[j + 1] - t[j]), 0.0), 1.0)
        out[i] = v[j] + frac * (v[j + 1] - v[j])
    return out


def apen(x: np.ndarray, m: int, r_scale: float) -> float:
    """Approximate entropy, template by template (Pincus 1991).

    One row of Chebyshev distances at a time, so memory stays linear in
    the series length.
    """
    r = r_scale * statistics.pstdev(x.tolist())
    if r == 0.0:
        return 0.0

    def phi(mm: int) -> float:
        count = len(x) - mm + 1
        templates = np.column_stack([x[k:k + count] for k in range(mm)])
        logs = [math.log(np.count_nonzero(np.abs(templates - row).max(axis=1) <= r) / count)
                for row in templates]
        return math.fsum(logs) / count

    return phi(m) - phi(m + 1)


def upcrossings(values: np.ndarray, threshold: float, hysteresis: float) -> int:
    """Rises to the threshold from below; re-arms below threshold - hysteresis."""
    count, armed = 0, values[0] < threshold
    for x in values[1:]:
        if armed and x >= threshold:
            count, armed = count + 1, False
        elif x < threshold - hysteresis:
            armed = True
    return count


def hold_run_durations(t: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Durations of maximal runs where `on` holds; each sample holds until the
    next one, and a run reaching the last sample ends at that sample."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], on.astype(np.int8), [0]))))
    first, after = edges[0::2], edges[1::2]
    ends = t[np.minimum(after, len(t) - 1)]
    return ends - t[first]


def closed_fraction(t: np.ndarray, v: np.ndarray, threshold: float) -> float:
    """Time-weighted share of the observed span with v at or above threshold."""
    closed = math.fsum(float(t[i + 1] - t[i]) for i in range(len(t) - 1) if v[i] >= threshold)
    return closed / float(t[-1] - t[0])


def ewm(v: np.ndarray, alpha: float) -> tuple[float, float]:
    """Exponentially weighted mean and variance, seeded with the first sample."""
    mean, var = float(v[0]), 0.0
    for x in v[1:]:
        delta = x - mean
        mean += alpha * delta
        var = (1 - alpha) * (var + alpha * delta * delta)
    return mean, var


# -- the checks -------------------------------------------------------------

def check_windows(records: list[dict], row_t: np.ndarray, settings: dict):
    """Window k spans [k * stride, k * stride + length) while it starts before
    the last row; windows with fewer than two rows are dropped."""
    length, stride = settings["window_length_s"], settings["window_stride_s"]
    bounds = []
    k = 0
    while k * stride < row_t[-1]:
        start = k * stride
        if np.count_nonzero((row_t >= start) & (row_t < start + length)) >= 2:
            bounds.append([start, start + length])
        k += 1
    expect(len(records) == len(bounds),
           f"{len(records)} records, trace span gives {len(bounds)} windows")
    for r, b in zip(records, bounds):
        expect(r["window"] == b, f"record window {r['window']}, expected {b}")


def check_drive_10hz(w: Workload, small: bool, records, channels, settings):
    feat = settings["features"]
    onset = w.drowsy_onset(small)
    end = w.segments_for(small)[-1][1]
    for i, r in enumerate(records):
        s, e = r["window"]
        f = r["features"]
        t, swa = in_window(channels["swa"], s, e)
        abs_swa = np.abs(swa)
        close(f["mean_swa_abs"], math.fsum(abs_swa) / len(abs_swa), f"window {s}: mean |swa|")
        close(f["max_swa_abs"], float(abs_swa.max()), f"window {s}: max |swa|")
        corrections = upcrossings(abs_swa, feat["correction_threshold_deg"],
                                  feat["correction_hysteresis_deg"])
        close(f["swa_correction_freq"], corrections * 60.0 / (e - s),
              f"window {s}: corrections per minute")
        if i % 3 == 0:
            for channel in ("swa", "yaw"):
                ct, cv = in_window(channels[channel], s, e)
                want = apen(uniform_resample(ct, cv), feat["apen_m"], feat["apen_r_scale"])
                close(f[f"{channel}_apen"], want, f"window {s}: {channel}_apen")

    alert = [r for r in records if r["window"][1] <= onset]
    drowsy = [r for r in records if r["window"][0] >= onset and r["window"][1] <= end]
    expect(alert and drowsy, "no window lies wholly inside one segment")
    for r in alert:
        expect(r["overall"] == "Low" and not r["alert"],
               f"alert-segment window {r['window']} reads {r['overall']}, alert={r['alert']}")
    highs = sum(r["overall"] == "High" for r in drowsy)
    expect(highs >= 0.8 * len(drowsy),
           f"only {highs} of {len(drowsy)} drowsy-segment windows read High")
    alerts = [r for r in records if r["alert"]]
    expect(alerts and alerts[0]["window"][1] > onset,
           "no alert is raised after the drowsy onset")


def check_drive_100hz(records, channels, settings):
    feat = settings["features"]
    for r in records:
        s, e = r["window"]
        f = r["features"]
        for channel in ("swa", "yaw"):
            ct, cv = in_window(channels[channel], s, e)
            want = apen(uniform_resample(ct, cv), feat["apen_m"], feat["apen_r_scale"])
            close(f[f"{channel}_apen"], want, f"window {s}: {channel}_apen")
        check_sparse_channels(r, channels, feat)


def check_sparse_channels(r: dict, channels, feat: dict):
    """Camera and heart-rate features on each channel's own samples."""
    s, e = r["window"]
    f = r["features"]
    _, bpm = in_window(channels["heart_bpm"], s, e)
    close(f["mean_bpm"], math.fsum(bpm) / len(bpm), f"window {s}: mean_bpm")
    _, pitch = in_window(channels["head_pitch"], s, e)
    mean, var = ewm(pitch, feat["head_alpha"])
    close(f["head_ewma"], mean, f"window {s}: head_ewma")
    close(f["head_ewvar"], var, f"window {s}: head_ewvar")
    gt, gv = in_window(channels["gaze_offset"], s, e)
    speed = np.abs(np.diff(gv) / np.diff(gt))
    close(f["gaze_persac"], np.count_nonzero(speed > feat["saccade_speed_dps"]) / len(speed),
          f"window {s}: gaze_persac")
    mt, mv = in_window(channels["mouth_open"], s, e)
    yawns = np.count_nonzero(
        hold_run_durations(mt, mv >= feat["yawn_ratio"]) >= feat["yawn_min_dur_s"] - _EPS)
    expect(f["yawn_count"] == yawns,
           f"window {s}: yawn_count {f['yawn_count']}, independent count {yawns}")


def check_cabin_10hz(records, channels, settings, snapshot_dir: Path):
    feat = settings["features"]
    length, stride = settings["window_length_s"], settings["window_stride_s"]
    closure = settings["perclos_window_s"]
    for r in records:
        s, e = r["window"]
        f = r["features"]
        # the freshest closure window that has fully elapsed by this window's end
        k = math.floor((s + length - closure) / stride + _EPS)
        if k < 0:
            expect("perclos80" not in f, f"window {s}: perclos80 before any closure window")
        else:
            ct, cv = in_window(channels["eye_closure"], k * stride, k * stride + closure)
            close(f.get("perclos80"), closed_fraction(ct, cv, feat["eye_closed_threshold"]),
                  f"window {s}: perclos80")
        check_sparse_channels(r, channels, feat)
    check_snapshots(records, snapshot_dir)


def check_snapshots(records, snapshot_dir: Path):
    files = sorted(snapshot_dir.iterdir())
    expect(len(files) == len(records),
           f"{len(files)} snapshot files for {len(records)} windows")
    for i, (r, path) in enumerate(zip(records, files)):
        expect(path.name == f"window_{i:05d}.snapshot.json", f"unexpected snapshot {path.name}")
        data = path.read_bytes()
        snap = load_snapshot(data)
        expect(save_snapshot(snap) == data, f"{path.name} does not re-save to the same bytes")
        expect(list(snap.window) == r["window"], f"{path.name} holds window {snap.window}")
        fb = snap.factbase
        for fact in r["facts"]:
            expect((fact["individual"], fact["class"]) in fb.memberships,
                   f"{path.name} lacks {fact['individual']} in {fact['class']}")
            expect((fact["individual"], f"has_{fact['feature']}", fact["value"])
                   in fb.data_properties, f"{path.name} lacks the value of {fact['individual']}")


def check_run(w: Workload, small: bool, trace: bytes, report: bytes,
              snapshot_dir: Path | None, digests: list[tuple]):
    """Raise CheckFailed unless the run's outputs are right."""
    expect(len(set(digests)) == 1,
           f"{len(set(digests))} different outputs from {len(digests)} operations")
    settings = w.settings()
    records = [json.loads(line) for line in report.decode("utf-8").splitlines()]
    row_t, channels = read_trace(trace)
    check_windows(records, row_t, settings)
    if w.name == "drive_10hz":
        check_drive_10hz(w, small, records, channels, settings)
    elif w.name == "drive_100hz":
        check_drive_100hz(records, channels, settings)
    else:
        check_cabin_10hz(records, channels, settings, snapshot_dir)
