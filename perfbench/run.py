"""fatiguekit's benchmark.

    python3 perfbench/run.py --workload drive_10hz --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                  # every workload, one fresh process each
    python3 perfbench/run.py --self-check     # every workload at a small size, in seconds

Run from the repository root; the package is imported from `src/`. One
workload run builds its trace from the seed, runs the workload in a fresh
worker process (worker.py), which also times `import fatiguekit` plus
`load_config()` in a fresh interpreter after each operation, checks the
outputs (checks.py) and prints, as
its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. Files it writes go under perfbench/out/.
"""

import os

# One thread in numpy's and BLAS's pools, before anything imports numpy;
# child processes inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SMALL_SETUP_PROBES = 3  # fresh interpreters timed with --small
WORKER_TIMEOUT_S = 150


def child(script: str, *args: str, timeout: float = 60) -> str:
    """Run one of the benchmark's scripts in a fresh interpreter; its stdout."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{script} {' '.join(args)} exited {proc.returncode}")
    return proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    from checks import CheckFailed, check_run
    from tracer import OPERATION_UNITS, SETUP_UNITS
    from workloads import WORKLOADS, build_trace

    w = WORKLOADS[name]
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    report_path = out / "report.jsonl"
    trace_bytes = build_trace(w, seed, small)
    trace_path.write_bytes(trace_bytes)
    snapshot_dir = None
    if w.snapshots:
        snapshot_dir = out / "snapshots"
        shutil.rmtree(snapshot_dir, ignore_errors=True)
        snapshot_dir.mkdir()

    worker_args = ["--workload", name, "--input", str(trace_path),
                   "--report", str(report_path), "--seconds", str(seconds),
                   "--trace", str(int(trace))]
    if small:
        worker_args += ["--setup-probes", str(SMALL_SETUP_PROBES)]
    if snapshot_dir is not None:
        worker_args += ["--snapshot-dir", str(snapshot_dir)]
    result = last_json(child("worker.py", *worker_args, timeout=WORKER_TIMEOUT_S))
    operations = result["operations"]
    timed = [op for op in operations if not op["warm_up"]]
    setup = {key: statistics.median(p[key] for p in result["setups"])
             for key in result["setups"][0]}
    if not timed:
        raise RuntimeError("no timed operation succeeded")

    correct = True
    try:
        check_run(w, small, trace_bytes, report_path.read_bytes(), snapshot_dir,
                  [(op["report_sha256"], op["snapshots_sha256"]) for op in operations])
    except CheckFailed as e:
        print(f"{name}: check failed: {e}", file=sys.stderr)
        correct = False

    if trace:
        values = {key: statistics.median(op["layers"][key] for op in timed)
                  for key in OPERATION_UNITS}
        values.update(setup)
        units = {**OPERATION_UNITS, **SETUP_UNITS}
        (out / "spans.json").write_text(json.dumps(result["spans"], indent=1, sort_keys=True))
    else:
        values = {"wall_s": statistics.median(op["wall_s"] for op in timed),
                  # a fresh process running one operation, as `fatiguekit run`
                  # does; later repetitions only add allocator growth
                  "peak_rss_mb": operations[0]["peak_rss_mb"],
                  "setup_s": setup["setup_s"]}
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def validate_small_run(workload: str, trace: int, units: dict[str, str]) -> list[str]:
    """Problems with one small run of a workload; empty when all is well."""
    try:
        res = last_json(child("run.py", "--workload", workload, "--seed", "1",
                              "--seconds", "0.5", "--trace", str(trace), "--small",
                              timeout=WORKER_TIMEOUT_S + 30))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        return [str(e)]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        problems.append(f"correct={res.get('correct')} failed={res.get('failed')}")
    if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 2):
        problems.append(f"attempted={res.get('attempted')}")
    metrics = res.get("metrics", {})
    if {k: m.get("unit") for k, m in metrics.items()} != units:
        problems.append("metric names or units differ from BENCHMARK.json")
    for key, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or (trace == 0 and not value > 0):
            problems.append(f"{key} = {value!r}")
    return problems


def self_check() -> int:
    """Every workload at its small size, both modes: checks pass and the
    output has the form BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            where = f"{w['name']} --trace {trace}"
            found = validate_small_run(w["name"], trace, declared[trace])
            print(f"{where}: {'ok' if not found else 'FAILED'}", file=sys.stderr)
            problems += [f"{where}: {p}" for p in found]
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="small inputs, for a quick check of the harness")
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload small, in both modes, and validate the output")
    args = ap.parse_args(argv)

    if not (SRC / "fatiguekit" / "__init__.py").is_file():
        print(f"error: no fatiguekit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    if args.self_check:
        return self_check()
    from workloads import WORKLOADS
    if args.workload == "all":
        correct = True
        for name in WORKLOADS:
            res = last_json(child("run.py", "--workload", name, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                                  *(["--small"] if args.small else []),
                                  timeout=WORKER_TIMEOUT_S + 30))
            correct &= res["correct"]
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for key, m in res["metrics"].items():
                print(f"  {key:28s} {m['value']:14.6g} {m['unit']}")
        return 0 if correct else 1
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.small)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
