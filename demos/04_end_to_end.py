"""The whole pipeline in one call.

Generates a drive that degrades from alert to drowsy, runs it through
feature extraction, qualification, inference, fusion, and alerting, then
prints a per-window timeline plus the snapshot files the run left behind.
Run with:  python3 demos/04_end_to_end.py
"""

import json
import tempfile
from pathlib import Path

from fatiguekit import (
    ScenarioSpec,
    Segment,
    generate_scenario,
    load_config,
    run,
)


def main() -> None:
    spec = ScenarioSpec(duration=720.0, seed=3, segments=(
        Segment(0.0, 300.0, "alert"),
        Segment(300.0, 720.0, "drowsy")))
    trace = generate_scenario(spec)
    print(f"trace: {len(trace)} frames, alert for 5 min, weaving for 7 min")

    snapshot_dir = Path(tempfile.mkdtemp(prefix="fatiguekit-demo-"))
    cfg = load_config(json.dumps({"snapshot_every_windows": 12}),
                      snapshot_dir_override=str(snapshot_dir),
                      trace_id="demo-drive")
    report = run(trace, cfg)

    print(f"windows: {len(report.records)}\n")
    print("timeline (one character per 10 s window; "
          "L/M/H = overall level, . = undetermined, ! = alert):")
    line = []
    for r in report.records:
        if r.alert:
            line.append("!")
        elif r.overall is None:
            line.append(".")
        else:
            line.append(r.overall.display()[0])
    print("  " + "".join(line))

    first_alert = next((r for r in report.records if r.alert), None)
    if first_alert is not None:
        start, end = first_alert.window.start_t, first_alert.window.end_t
        print(f"\nfirst alert: window [{start:.0f}, {end:.0f}) s — raised after "
              f"two consecutive High windows")

    snapshots = sorted(snapshot_dir.iterdir())
    print(f"\nsnapshots written: {len(snapshots)} in {snapshot_dir}")
    for p in snapshots[:3]:
        meta = json.loads(p.read_text())["meta"]
        print(f"  {p.name}: window {meta['window']}")

    # The JSONL report is the machine-readable counterpart of the timeline.
    record = json.loads(report.to_jsonl().decode("utf-8").splitlines()[40])
    print(f"\nrecord 40 (window {record['window']}): overall={record['overall']}, "
          f"levels={record['levels']}, {len(record['facts'])} facts, "
          f"rules fired: {[f['rule'] for f in record['fired_rules']]}")


if __name__ == "__main__":
    main()
