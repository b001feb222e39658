"""Command line front end.

Subcommands:
  run       process a trace file into a JSONL fatigue report
  gen       synthesize a trace from a scenario spec
  rules     validate a rule pack (rules check <file>)
  snapshot  inspect a saved fact-base snapshot (snapshot dump <file>)

Exit codes: 0 on success, 1 for bad input (parse errors, missing files,
invalid configs), 2 for anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DecodeError, FatigueKitError, excerpt
from .kstore import default_taxonomy, load_snapshot, snapshot_meta
from .pipeline import load_config, run
from .qualify import default_scheme
from .rules import dead_conditions, parse_rules
from .scenario import generate_scenario, parse_scenario_spec
from .signals import parse_trace, serialize_trace


def _trace_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".jsonl":
        return "jsonl"
    raise DecodeError(
        f"cannot tell trace format from extension {excerpt(suffix)}; use .csv or .jsonl")


def _cmd_run(args: argparse.Namespace) -> int:
    trace_path = Path(args.trace)
    fmt = _trace_format(trace_path)
    trace = parse_trace(trace_path.read_bytes(), fmt)

    config_data = None
    base_dir = None
    if args.config is not None:
        config_path = Path(args.config)
        config_data = config_path.read_bytes()
        base_dir = config_path.parent
    cfg = load_config(
        config_data,
        base_dir=base_dir,
        rule_pack_override="verbatim" if args.verbatim_table1 else None,
        snapshot_dir_override=args.snapshot_dir,
        trace_id=trace_path.stem,
    )

    report = run(trace, cfg)
    payload = report.to_jsonl()
    if args.out is not None:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))

    n_alerts = len(report.alert_indices())
    print(f"{len(report.records)} windows, {n_alerts} alerts", file=sys.stderr)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = parse_scenario_spec(Path(args.spec).read_bytes())
    trace = generate_scenario(spec)
    out_path = Path(args.out)
    fmt = _trace_format(out_path)
    out_path.write_bytes(serialize_trace(trace, fmt))
    print(f"wrote {len(trace)} frames to {out_path}", file=sys.stderr)
    return 0


def _cmd_rules_check(args: argparse.Namespace) -> int:
    taxonomy = default_taxonomy()
    pack = parse_rules(Path(args.pack).read_bytes(), taxonomy)
    for rule, cls in dead_conditions(pack, default_scheme(), taxonomy):
        print(f"warning: rule {rule!r} never fires: nothing produces {cls} or a subclass",
              file=sys.stderr)
    print(f"{len(pack.rules)} rules OK")
    return 0


def _cmd_snapshot_dump(args: argparse.Namespace) -> int:
    snap = load_snapshot(Path(args.file).read_bytes())
    fb = snap.factbase
    print(json.dumps(snapshot_meta(snap), sort_keys=True))
    # each individual's classes and (property, value) pairs, read in one pass
    classes: dict[str, list[str]] = {}
    values: dict[str, list[tuple[str, float]]] = {}
    for ind, cls in fb.memberships:
        classes.setdefault(ind, []).append(cls)
    for ind, prop, value in fb.data_properties:
        values.setdefault(ind, []).append((prop, value))
    for ind in sorted(classes.keys() | values.keys()):
        print(f"{ind}: {', '.join(sorted(classes.get(ind, ())))}")
        for prop, value in sorted(values.get(ind, ())):
            print(f"  {prop} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatiguekit",
        description="Driver fatigue inference over driving and physiology traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="process a trace into a fatigue report")
    p_run.add_argument("trace", help="trace file (.csv or .jsonl)")
    p_run.add_argument("--config", help="pipeline config JSON", default=None)
    p_run.add_argument("--out", help="report path (default: stdout)", default=None)
    p_run.add_argument("--verbatim-table1", action="store_true",
                       help="use the as-printed rule table instead of the corrected one")
    p_run.add_argument("--snapshot-dir", default=None,
                       help="write fact-base snapshots into this directory")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate a synthetic trace")
    p_gen.add_argument("spec", help="scenario spec JSON")
    p_gen.add_argument("--out", required=True, help="trace output (.csv or .jsonl)")
    p_gen.set_defaults(func=_cmd_gen)

    p_rules = sub.add_parser("rules", help="rule pack utilities")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p_check = rules_sub.add_parser("check", help="parse and validate a rule pack")
    p_check.add_argument("pack", help="rule pack file")
    p_check.set_defaults(func=_cmd_rules_check)

    p_snap = sub.add_parser("snapshot", help="snapshot utilities")
    snap_sub = p_snap.add_subparsers(dest="snapshot_command", required=True)
    p_dump = snap_sub.add_parser("dump", help="print a snapshot in readable form")
    p_dump.add_argument("file", help="snapshot JSON file")
    p_dump.set_defaults(func=_cmd_snapshot_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FatigueKitError, OSError) as e:
        msg = str(e)
        if isinstance(e, OSError) and e.filename is not None:
            # the file name is outside text, so it is quoted cut short
            msg = f"[Errno {e.errno}] {e.strerror}: {excerpt(e.filename)}"
        print(f"error: {msg}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - defensive
        print(f"unexpected error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
