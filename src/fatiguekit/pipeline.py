"""End-to-end orchestration: trace in, fatigue report out.

Per window the pipeline extracts features, qualifies them into facts,
builds a fresh fact base seeded with the taxonomy and one anchor individual
per verdict source, runs the rule pack to fixpoint, reads the per-source
levels and fuses them into an overall level. Alerts follow a consecutive-
windows policy over the overall levels.

Everything is deterministic: the same trace and config produce the same
report bytes and the same snapshot bytes.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .errors import ArgumentError, DecodeError, EmptyInputError
from .features import (
    ApEnParams,
    FeatureParams,
    FeatureVector,
    closed_fraction,
    extract_features,
)
from .kstore import FactBase, KnowledgeSnapshot, default_taxonomy, save_snapshot
from .kstore import assert_fact, assert_value  # noqa: F401  patched by perfbench's tracer
from .qualify import QualificationScheme, QualifiedFact, load_scheme, qualify
from .rules import (
    FatigueLevel,
    FiredRule,
    FusionWeights,
    RulePack,
    fuse,
    infer,
    load_stock_pack,
    parse_rules,
    read_fatigue,
)
from .signals import DriverProfile, SignalFrame, Trace, Window, make_windows

# Anchor individuals seeded into every window's fact base, one per verdict
# source the stock packs know about.
ANCHOR_CLASSES = {
    "steering": "SteeringWheelMeasurementFatigue",
    "yaw": "YawAngleMeasurementFatigue",
}


@dataclass(frozen=True)
class AlertPolicy:
    """Raise an alert after `consecutive` overall levels at or above `level`."""

    level: FatigueLevel = FatigueLevel.HIGH
    consecutive: int = 2

    def __post_init__(self):
        if self.consecutive < 1:
            raise ArgumentError(
                f"alert window count must be >= 1, got {self.consecutive}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; load_config fills it from default_config.json."""

    window_length_s: float
    window_stride_s: float
    perclos_window_s: float
    scheme: QualificationScheme
    rule_pack: RulePack
    weights: FusionWeights
    fusion_cutoffs: tuple[float, float]
    alert: AlertPolicy
    snapshot_dir: str | None
    snapshot_every_windows: int
    profile: DriverProfile
    feature_params: FeatureParams
    trace_id: str

    def __post_init__(self):
        if self.window_length_s <= 0 or self.window_stride_s <= 0:
            raise ArgumentError("window length and stride must be positive")
        if self.perclos_window_s <= 0:
            raise ArgumentError("perclos window must be positive")
        if self.snapshot_every_windows < 1:
            raise ArgumentError("snapshot cadence must be >= 1")


def default_config_text() -> str:
    return resources.files("fatiguekit").joinpath(
        "data/default_config.json").read_text("utf-8")


def _of_type(value, kind, key: str, what: str):
    """value if it is a kind and not a bool, else DecodeError naming key."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DecodeError(f"config {key} must be {what}, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """A finite JSON number as a float."""
    value = _of_type(value, (int, float), key, "a number")
    # false for nan, infinities and integers past float64's range alike
    if not abs(value) <= sys.float_info.max:
        raise DecodeError(f"config {key} must be finite and within float64 range, got {value!r}")
    return float(value)


def _count(value, key: str) -> int:
    """A JSON number with an integral value as an int."""
    value = _number(value, key)
    if not value.is_integer():
        raise DecodeError(f"config {key} must be an integer, got {value!r}")
    return int(value)


def load_config(data: bytes | str | None = None, *,
                base_dir: Path | None = None,
                rule_pack_override: str | None = None,
                snapshot_dir_override: str | None = None,
                trace_id: str = "trace") -> PipelineConfig:
    """Build a PipelineConfig from JSON, falling back to shipped defaults.

    Keys the config omits keep their default values. `scheme_path` and a
    path-valued `rule_pack` are resolved relative to base_dir. A value of
    the wrong type or shape raises DecodeError naming its key.
    """
    defaults = json.loads(default_config_text())
    if data is None:
        obj = defaults
    else:
        if isinstance(data, bytes):
            try:
                data = data.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DecodeError(f"config not valid UTF-8: {e.reason}") from None
        try:
            override = json.loads(data)
        except json.JSONDecodeError as e:
            raise DecodeError(f"config not valid JSON: {e.msg}", row=e.lineno) from None
        if not isinstance(override, dict):
            raise DecodeError("config must be a JSON object")
        unknown = set(override) - set(defaults)
        if unknown:
            raise DecodeError(f"unknown config keys: {sorted(unknown)}")
        obj = {**defaults, **override}
        if "features" in override:
            obj["features"] = {**defaults["features"],
                               **_of_type(override["features"], dict, "features", "an object")}

    feat = dict(obj["features"])
    extra_feat = set(feat) - set(defaults["features"])
    if extra_feat:
        raise DecodeError(f"unknown feature config keys: {sorted(extra_feat)}")
    # every key but the three apen_* ones names a FeatureParams field
    apen_r = feat.pop("apen_r")
    apen = ApEnParams(m=_count(feat.pop("apen_m"), "features.apen_m"),
                      r=None if apen_r is None else _number(apen_r, "features.apen_r"),
                      r_scale=_number(feat.pop("apen_r_scale"), "features.apen_r_scale"))
    params = FeatureParams(apen=apen, **{k: _number(v, f"features.{k}") for k, v in feat.items()})

    scheme_path = _of_type(obj["scheme_path"], (str, type(None)), "scheme_path",
                           "a path or null")
    if scheme_path is None:
        scheme = load_scheme()
    else:
        p = Path(scheme_path)
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        scheme = load_scheme(p.read_bytes())

    pack_name = rule_pack_override or _of_type(obj["rule_pack"], str, "rule_pack",
                                               "a pack name or path")
    if pack_name in ("corrected", "verbatim"):
        pack = load_stock_pack(pack_name)
    else:
        p = Path(pack_name)
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        pack = parse_rules(p.read_bytes(), default_taxonomy(scheme))

    profile_obj = _of_type(obj["profile"], dict, "profile", "an object")
    profile = DriverProfile(id=str(profile_obj.get("id") or "driver"),
                            sex=profile_obj.get("sex") or "unspecified")

    snapshot_dir = snapshot_dir_override if snapshot_dir_override is not None \
        else _of_type(obj["snapshot_dir"], (str, type(None)), "snapshot_dir", "a path or null")

    weights = _of_type(obj["fusion_weights"], dict, "fusion_weights", "an object")
    cutoffs = obj["fusion_cutoffs"]
    if not (isinstance(cutoffs, list) and len(cutoffs) == 2):
        raise DecodeError(f"config fusion_cutoffs must be two numbers, got {cutoffs!r}")

    return PipelineConfig(
        window_length_s=_number(obj["window_length_s"], "window_length_s"),
        window_stride_s=_number(obj["window_stride_s"], "window_stride_s"),
        perclos_window_s=_number(obj["perclos_window_s"], "perclos_window_s"),
        scheme=scheme,
        rule_pack=pack,
        weights=FusionWeights(weights={k: _number(v, f"fusion_weights.{k}")
                                       for k, v in weights.items()}),
        fusion_cutoffs=(_number(cutoffs[0], "fusion_cutoffs"),
                        _number(cutoffs[1], "fusion_cutoffs")),
        alert=AlertPolicy(
            level=FatigueLevel.from_name(
                _of_type(obj["alert_level"], str, "alert_level", "a level name")),
            consecutive=_count(obj["alert_consecutive_windows"], "alert_consecutive_windows")),
        snapshot_dir=snapshot_dir,
        snapshot_every_windows=_count(obj["snapshot_every_windows"], "snapshot_every_windows"),
        profile=profile,
        feature_params=params,
        trace_id=trace_id,
    )


@dataclass(frozen=True)
class WindowRecord:
    """Everything the pipeline concluded about one window."""

    window: Window
    features: FeatureVector
    facts: tuple[QualifiedFact, ...]
    fired_rules: tuple[FiredRule, ...]
    levels: dict[str, FatigueLevel]
    overall: FatigueLevel | None
    alert: bool
    errors: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "window": [self.window.start_t, self.window.end_t],
            "features": self.features.to_dict(),
            "facts": [f.to_dict() for f in self.facts],
            "fired_rules": [f.to_dict() for f in self.fired_rules],
            "levels": {s: lvl.display() for s, lvl in sorted(self.levels.items())},
            "overall": self.overall.display() if self.overall is not None else None,
            "alert": self.alert,
            "errors": list(self.errors),
        }


@dataclass(frozen=True)
class FatigueReport:
    records: tuple[WindowRecord, ...]

    def to_jsonl(self) -> bytes:
        lines = [json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
                 for r in self.records]
        return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")

    def alert_indices(self) -> list[int]:
        return [i for i, r in enumerate(self.records) if r.alert]


def decide(levels: list[FatigueLevel | None], policy: AlertPolicy) -> list[int]:
    """Indices where the alert fires.

    The alert fires at the first index where the last `consecutive` levels
    all reach policy.level, then stays quiet until a level drops below
    (re-arming) and the run builds up again. Missing levels break runs and
    re-arm.
    """
    out: list[int] = []
    streak = 0
    armed = True
    for i, level in enumerate(levels):
        if level is not None and level >= policy.level:
            streak += 1
            if armed and streak >= policy.consecutive:
                out.append(i)
                armed = False
        else:
            streak = 0
            armed = True
    return out


def _perclos_by_window_end(trace: Trace, cfg: PipelineConfig
                           ) -> tuple[list[float], list[float]]:
    """Ends and closure fractions of the closure windows holding two or more
    eyelid samples, in window order."""
    ends: list[float] = []
    values: list[float] = []
    for w in make_windows(trace, cfg.perclos_window_s, cfg.window_stride_s):
        t, v = w.channel("eye_closure")
        if len(t) >= 2:
            ends.append(w.end_t)
            values.append(closed_fraction(t, v, cfg.feature_params.eye_closed_threshold))
    return ends, values


def _latest_elapsed(ends: list[float], values: list[float], end_t: float) -> float | None:
    """The value of the last closure window ending by end_t, if any."""
    i = bisect_right(ends, end_t + 1e-9)
    return values[i - 1] if i else None


def run(frames: Sequence[SignalFrame], cfg: PipelineConfig | None = None) -> FatigueReport:
    """Process a whole trace.

    The eyelid-closure fraction is computed over its own longer sliding
    window; each vehicular window picks up the latest closure window that
    has fully elapsed by its end. Windows missing channels still produce a
    degraded record with whatever features ran, flagged under "errors".
    Snapshots of the post-inference fact base are written every
    `snapshot_every_windows` windows when a snapshot directory is set.
    """
    if cfg is None:
        cfg = load_config()
    trace = Trace.from_frames(frames)
    windows = make_windows(trace, cfg.window_length_s, cfg.window_stride_s)
    perclos_ends, perclos_values = _perclos_by_window_end(trace, cfg)
    taxonomy = default_taxonomy(cfg.scheme)

    records: list[WindowRecord] = []
    snapshots: list[tuple[int, KnowledgeSnapshot]] = []
    for index, w in enumerate(windows):
        fv, notes = extract_features(w, cfg.feature_params)

        # join the freshest fully elapsed closure window, if any
        fv = replace(fv, perclos80=_latest_elapsed(perclos_ends, perclos_values, w.end_t))

        facts = tuple(qualify(fv, cfg.scheme, cfg.profile))

        # one build per window; a repeated (individual, property) keeps the
        # last value, as assert_value would
        members = {(f"{name}@{w.start_t}", cls) for name, cls in ANCHOR_CLASSES.items()}
        values: dict[tuple[str, str], float] = {}
        for fact in facts:
            members.add((fact.individual, fact.class_label))
            values[fact.individual, f"has_{fact.source_feature}"] = fact.value
        fb = FactBase(taxonomy=taxonomy, memberships=frozenset(members),
                      data_properties=frozenset((i, p, v) for (i, p), v in values.items()),
                      timestamp=w.end_t)

        fb, fired = infer(fb, cfg.rule_pack)
        levels = read_fatigue(fb)
        overall = None
        if levels:
            try:
                overall = fuse(levels, cfg.weights, cfg.fusion_cutoffs)
            except EmptyInputError:
                notes = list(notes)
                notes.append("fusion skipped: contributing sources all have zero weight")

        records.append(WindowRecord(
            window=w, features=fv, facts=facts, fired_rules=tuple(fired),
            levels=levels, overall=overall, alert=False, errors=tuple(notes)))

        if cfg.snapshot_dir is not None and index % cfg.snapshot_every_windows == 0:
            snapshots.append((index, KnowledgeSnapshot(
                factbase=fb, trace_id=cfg.trace_id,
                window=(w.start_t, w.end_t))))

    alert_at = set(decide([r.overall for r in records], cfg.alert))
    records = [r if i not in alert_at else replace(r, alert=True)
               for i, r in enumerate(records)]

    if cfg.snapshot_dir is not None:
        out_dir = Path(cfg.snapshot_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for index, snap in snapshots:
            path = out_dir / f"window_{index:05d}.snapshot.json"
            path.write_bytes(save_snapshot(snap))

    return FatigueReport(records=tuple(records))
