"""The measured process of one workload run.

Started fresh by run.py for every run: it reads the trace bytes, builds
the config, runs one warm-up operation and then repeats the timed
operation until `--seconds` have passed, collecting garbage (and emptying
the snapshot directory) before each repetition. Between operations,
outside their timing, it starts fresh interpreters that time set-up
(setup_probe.py), `--setup-probes` of them spread evenly over the
`--seconds`, so the set-up figures sample the same stretch of the host's
speed as the operations do. It prints one JSON object with, for every
operation, its wall time, the process's peak RSS so far, a digest of its
outputs and, with `--trace 1`, its per-layer metrics, and the figures of
every timed set-up probe. The report bytes of the first operation go to
`--report` for the checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from fatiguekit import FatigueKitError, load_config, pipeline, signals

from workloads import WORKLOADS

SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_PROBES = 21
SETUP_PROBE_TIMEOUT_S = 30


def operation(data: bytes, cfg) -> bytes:
    """One trace turned into its report, as `fatiguekit run` does it."""
    frames = signals.parse_trace(data, "csv")
    return pipeline.run(frames, cfg).to_jsonl()


def setup_probe(traced: bool) -> dict[str, float]:
    """One fresh interpreter's set-up figures; see setup_probe.py."""
    proc = subprocess.run([sys.executable, str(SETUP_PROBE), *(["--trace"] if traced else [])],
                          capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"setup_probe.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def snapshot_digest(directory: Path | None) -> str | None:
    if directory is None:
        return None
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--input", required=True, type=Path)
    ap.add_argument("--report", required=True, type=Path)
    ap.add_argument("--snapshot-dir", type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probes", type=int, default=SETUP_PROBES)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    data = args.input.read_bytes()
    cfg = load_config(json.dumps(w.config), trace_id=w.name,
                      snapshot_dir_override=None if args.snapshot_dir is None
                      else str(args.snapshot_dir))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(cfg.perclos_window_s)
        tracer.install()

    operations = []  # one entry per operation that did not fail
    setups = []      # one entry per timed set-up probe
    attempted = failed = 0
    deadline = None  # set when the warm-up operation ends
    while deadline is None or time.perf_counter() < deadline:
        if args.snapshot_dir is not None:
            # every operation writes into an empty directory, as a first run
            # does; the previous operation's files are on disk first, so no
            # writeback or overwrite of them falls inside the timing
            shutil.rmtree(args.snapshot_dir)
            args.snapshot_dir.mkdir()
            os.sync()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        attempted += 1
        t0 = time.perf_counter()
        try:
            report = operation(data, cfg)
        except FatigueKitError as e:
            print(f"operation failed: {type(e).__name__}: {e}", file=sys.stderr)
            failed += 1
            report = None
        seconds = time.perf_counter() - t0
        if report is not None:
            if not operations:
                args.report.write_bytes(report)
            operations.append({
                "warm_up": deadline is None,
                "wall_s": seconds,
                "report_sha256": hashlib.sha256(report).hexdigest(),
                "snapshots_sha256": snapshot_digest(args.snapshot_dir),
                "layers": None if tracer is None else tracer.operation_metrics(),
                # the process's peak so far, in MB
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            })
        if deadline is None:
            # this probe fills the file caches and is not kept
            setup_probe(bool(args.trace))
            window_start = time.perf_counter()
            deadline = window_start + args.seconds
        # probes keep pace with the clock; once the deadline has passed, all
        # of them have run
        elapsed = min(1.0, (time.perf_counter() - window_start) / args.seconds)
        while len(setups) < math.ceil(args.setup_probes * elapsed):
            setups.append(setup_probe(bool(args.trace)))

    result = {
        "attempted": attempted,
        "failed": failed,
        "operations": operations,
        "setups": setups,
        "spans": None if tracer is None else tracer.summary(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
