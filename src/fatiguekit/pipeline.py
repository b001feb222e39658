"""End-to-end orchestration: trace in, fatigue report out.

Per window the pipeline gathers the feature families' fields, builds the
window's one FeatureVector from them, qualifies it into facts, builds a
fresh fact base seeded with the taxonomy and one anchor individual per
verdict source, runs the rule pack to fixpoint, reads the per-source levels
and fuses them into an overall level. A window's snapshot, when one is due,
is written as the window closes. Alerts follow a consecutive-windows policy
over the overall levels.

Everything is deterministic: the same trace and config produce the same
report bytes and the same snapshot bytes.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from . import _inputs
from .errors import ArgumentError, DecodeError, EmptyInputError
from .features import (
    ApEnParams,
    FeatureParams,
    FeatureVector,
    closed_fraction,
    extract_features,
)
from .kstore import FactBase, KnowledgeSnapshot, Taxonomy, default_taxonomy, ontology, save_snapshot
from .kstore import assert_fact, assert_value  # noqa: F401  patched by perfbench's tracer
from .qualify import QualificationScheme, QualifiedFact, individual_name, load_scheme, qualify
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
from .signals import DriverProfile, Trace, Window, make_windows

@dataclass(frozen=True)
class AlertPolicy:
    """Raise an alert after `consecutive` overall levels at or above `level`."""

    level: FatigueLevel
    consecutive: int

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
    taxonomy: Taxonomy  # derived: the scheme's taxonomy, which rule_pack was checked against
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
        for name in ("window_length_s", "window_stride_s", "perclos_window_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ArgumentError(f"{name} must be finite and positive, got {value}")
        if self.snapshot_every_windows < 1:
            raise ArgumentError("snapshot cadence must be >= 1")


def default_config_text() -> str:
    return resources.files("fatiguekit").joinpath(
        "data/default_config.json").read_text("utf-8")


def load_config(data: bytes | str | None = None, *,
                base_dir: Path | None = None,
                rule_pack_override: str | None = None,
                snapshot_dir_override: str | None = None,
                trace_id: str = "trace") -> PipelineConfig:
    """Build a PipelineConfig from JSON, falling back to shipped defaults.

    Keys the config omits keep their default values, as do null `profile`
    keys. `scheme_path` and a path-valued `rule_pack` are resolved relative
    to base_dir; the pack is checked against the scheme's taxonomy. A value
    of the wrong type or shape raises DecodeError naming its key.
    """
    defaults = json.loads(default_config_text())
    obj = dict(defaults)
    if data is not None:
        override = _inputs.json_object(data, "config")
        unknown = set(override) - set(defaults)
        if unknown:
            raise DecodeError(f"unknown config keys: {sorted(unknown)}")
        obj.update(override)
    for block in ("features", "profile"):  # merged key by key over their defaults
        given = _inputs.of_type(obj[block], dict, f"config {block}", "an object")
        unknown = set(given) - set(defaults[block])
        if unknown:
            raise DecodeError(f"unknown {block} config keys: {sorted(unknown)}")
        obj[block] = {**defaults[block], **given}

    feat = obj["features"]
    # every key but the three apen_* ones names a FeatureParams field
    apen_r = feat.pop("apen_r")
    apen = ApEnParams(
        m=_inputs.count(feat.pop("apen_m"), "config features.apen_m"),
        r=None if apen_r is None else _inputs.number(apen_r, "config features.apen_r"),
        r_scale=_inputs.number(feat.pop("apen_r_scale"), "config features.apen_r_scale"))
    params = FeatureParams(apen=apen, **{k: _inputs.number(v, f"config features.{k}")
                                         for k, v in feat.items()})
    # each profile key names a DriverProfile field; null reads as the default
    profile = DriverProfile(**{k: _inputs.of_type(defaults["profile"][k] if v is None else v,
                                                  str, f"config profile.{k}", "a string")
                               for k, v in obj["profile"].items()})

    def resolve(path: str) -> Path:
        p = Path(path)
        return base_dir / p if base_dir is not None and not p.is_absolute() else p

    scheme_path = _inputs.of_type(obj["scheme_path"], (str, type(None)), "config scheme_path",
                                  "a path or null")
    scheme = load_scheme(None if scheme_path is None else resolve(scheme_path).read_bytes())
    taxonomy = default_taxonomy(scheme)
    pack_name = rule_pack_override or _inputs.of_type(obj["rule_pack"], str, "config rule_pack",
                                                      "a pack name or path")
    if pack_name in ("corrected", "verbatim"):
        pack = load_stock_pack(pack_name, taxonomy)
    else:
        pack = parse_rules(resolve(pack_name).read_bytes(), taxonomy)

    snapshot_dir = snapshot_dir_override if snapshot_dir_override is not None \
        else _inputs.of_type(obj["snapshot_dir"], (str, type(None)), "config snapshot_dir",
                             "a path or null")

    weights = _inputs.of_type(obj["fusion_weights"], dict, "config fusion_weights", "an object")
    cutoffs = obj["fusion_cutoffs"]
    if not (isinstance(cutoffs, list) and len(cutoffs) == 2):
        raise DecodeError(f"config fusion_cutoffs must be two numbers, got {cutoffs!r}")
    cutoffs = tuple(_inputs.number(c, "config fusion_cutoffs") for c in cutoffs)
    if not cutoffs[0] < cutoffs[1]:
        raise DecodeError(f"config fusion_cutoffs must increase, got {list(cutoffs)}")

    return PipelineConfig(
        window_length_s=_inputs.number(obj["window_length_s"], "config window_length_s"),
        window_stride_s=_inputs.number(obj["window_stride_s"], "config window_stride_s"),
        perclos_window_s=_inputs.number(obj["perclos_window_s"], "config perclos_window_s"),
        scheme=scheme,
        taxonomy=taxonomy,
        rule_pack=pack,
        weights=FusionWeights(weights={k: _inputs.number(v, f"config fusion_weights.{k}")
                                       for k, v in weights.items()}),
        fusion_cutoffs=cutoffs,
        alert=AlertPolicy(
            level=FatigueLevel.from_name(
                _inputs.of_type(obj["alert_level"], str, "config alert_level", "a level name")),
            consecutive=_inputs.count(obj["alert_consecutive_windows"],
                                      "config alert_consecutive_windows")),
        snapshot_dir=snapshot_dir,
        snapshot_every_windows=_inputs.count(obj["snapshot_every_windows"],
                                             "config snapshot_every_windows"),
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


def run(trace: Trace, cfg: PipelineConfig | None = None) -> FatigueReport:
    """Process a whole trace.

    The eyelid-closure fraction is computed over its own longer sliding
    window; each vehicular window picks up the latest closure window that
    has fully elapsed by its end. Windows missing channels still produce a
    degraded record with whatever features ran, flagged under "errors".
    When a snapshot directory is set, the post-inference fact base of every
    `snapshot_every_windows`-th window is written as that window closes, so
    a run that raises part-way leaves the snapshots of the windows before
    the fault.
    """
    if cfg is None:
        cfg = load_config()
    windows = make_windows(trace, cfg.window_length_s, cfg.window_stride_s)
    perclos_ends, perclos_values = _perclos_by_window_end(trace, cfg)
    anchors = ontology().anchors

    out_dir = None if cfg.snapshot_dir is None else Path(cfg.snapshot_dir)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    records: list[WindowRecord] = []
    for index, w in enumerate(windows):
        fields, notes = extract_features(w, cfg.feature_params)
        # the freshest fully elapsed closure window, if any, replaces the
        # window's own closure fraction
        fields["perclos80"] = _latest_elapsed(perclos_ends, perclos_values, w.end_t)
        fv = FeatureVector(w.start_t, w.end_t, **fields)

        facts = tuple(qualify(fv, cfg.scheme, cfg.profile))

        # qualify emits at most one fact per feature, so no (individual,
        # property) pair repeats; FactBase rejects a pair given two values
        members = {(individual_name(name, w.start_t), cls) for name, cls in anchors.items()}
        members.update((f.individual, f.class_label) for f in facts)
        fb = FactBase(taxonomy=cfg.taxonomy, memberships=frozenset(members),
                      data_properties=frozenset((f.individual, f"has_{f.source_feature}", f.value)
                                                for f in facts),
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

        if out_dir is not None and index % cfg.snapshot_every_windows == 0:
            (out_dir / f"window_{index:05d}.snapshot.json").write_bytes(save_snapshot(
                KnowledgeSnapshot(factbase=fb, trace_id=cfg.trace_id,
                                  window=(w.start_t, w.end_t))))

    alert_at = set(decide([r.overall for r in records], cfg.alert))
    records = [r if i not in alert_at else replace(r, alert=True)
               for i, r in enumerate(records)]
    return FatigueReport(records=tuple(records))
