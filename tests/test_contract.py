"""The behaviour contract: report and snapshot bytes for fixed inputs.

Two small synthetic traces go through the whole pipeline from their
serialised bytes: a 10 Hz alert-to-drowsy drive read as CSV, and a sparse
mixed-rate trace (vehicle 20 Hz, camera 5 Hz, heart rate 1 Hz) read as
JSONL. The digests pin the exact bytes of `FatigueReport.to_jsonl()` and
of every snapshot file. A refactor must leave them as they are; a change
that means to alter the output updates them and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from fatiguekit import (
    SignalFrame,
    generate_scenario,
    load_config,
    parse_trace,
    run,
    serialize_trace,
)
from fatiguekit.scenario import ScenarioSpec, Segment

VEHICLE = ("swa", "yaw", "speed", "lat_accel", "lon_accel", "lane_offset")
CAMERA = ("eye_closure", "mouth_open", "head_pitch", "gaze_offset")


def drive_10hz() -> bytes:
    spec = ScenarioSpec(duration=150.0, sample_rate=10.0, seed=11, segments=(
        Segment(0.0, 60.0, "alert"), Segment(60.0, 150.0, "drowsy")))
    return serialize_trace(generate_scenario(spec), "csv")


def sparse_mixed_rate() -> bytes:
    rate = 20.0
    spec = ScenarioSpec(duration=200.0, sample_rate=rate, seed=29, segments=(
        Segment(0.0, 80.0, "drowsy"), Segment(80.0, 200.0, "alert")))
    every = {**{c: 1 for c in VEHICLE}, **{c: 4 for c in CAMERA}, "heart_bpm": 20}
    frames = []
    for f in generate_scenario(spec):
        k = int(round(f.t * rate))
        frames.append(SignalFrame(t=f.t, **{
            c: getattr(f, c) for c, n in every.items() if k % n == 0}))
    return serialize_trace(frames, "jsonl")


CASES = {
    "drive_10hz_csv": (drive_10hz, "csv", {
        "report":
            "e3004765c378eeb40e9b138c5ba294e68944da968437c534c9008ffc1ea9f002",
        "snapshots":
            "6433a7b6d3fcfec63a586fb79a523c6416f786e58c8e67a6bb5639f6c7264840",
    }),
    "sparse_mixed_rate_jsonl": (sparse_mixed_rate, "jsonl", {
        "report":
            "e15a936fc776a64be306d5d7607e5ae9bf0dc79f229e02b59951245e743c850f",
        "snapshots":
            "d490bdfc6d825e1509125a8441739f175c7b296e8cc10bd5e0243f4ae26e00c7",
    }),
}


def snapshot_digest(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_and_snapshot_bytes(case, tmp_path):
    build, fmt, want = CASES[case]
    cfg = load_config(json.dumps({"snapshot_every_windows": 3}),
                      snapshot_dir_override=str(tmp_path), trace_id=case)
    report = run(parse_trace(build(), fmt), cfg)
    assert len(list(tmp_path.iterdir())) > 1
    got = {"report": hashlib.sha256(report.to_jsonl()).hexdigest(),
           "snapshots": snapshot_digest(tmp_path)}
    assert got == want
