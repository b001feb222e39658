"""End-to-end orchestration: trace in, fatigue report out.

Per window the pipeline gathers the feature families' fields, builds the
window's one FeatureVector from them, qualifies it into facts, builds a
fresh fact base seeded with the taxonomy and one anchor individual per
verdict source, runs the rule pack to fixpoint, reads the per-source levels
and fuses them into an overall level. Each window is finished as it closes:
its closure fraction is joined from the closure windows elapsed by then,
its alert is decided by `AlertPolicy.step`, once per run of elevated
overall levels, and its snapshot, when one is due, is written.

Everything is deterministic: the same trace and config produce the same
report bytes and the same snapshot bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import _inputs
from .errors import ArgumentError, DecodeError, EmptyInputError, excerpt
from .features import (
    FEATURE_NAMES,
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

__all__ = ["AlertPolicy", "FatigueReport", "PipelineConfig", "WindowRecord",
           "default_config_text", "load_config", "run"]


@dataclass(frozen=True)
class AlertPolicy:
    """Raise an alert after `consecutive` overall levels at or above `level`."""

    level: FatigueLevel
    consecutive: int

    def __post_init__(self):
        if self.consecutive < 1:
            raise ArgumentError(
                f"alert window count must be >= 1, got {self.consecutive}")

    def step(self, before: int, level: FatigueLevel | None) -> tuple[int, bool]:
        """The run of levels at or above self.level after one more level,
        given the run `before` it (a lower or missing level ends the run),
        and whether the alert fires on that level: where the run reaches
        `consecutive`, so once per run."""
        after = before + 1 if level is not None and level >= self.level else 0
        return after, after == self.consecutive


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
    return _inputs.shipped("default_config.json")


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
            raise DecodeError(f"unknown config keys: {excerpt(sorted(unknown))}")
        obj.update(override)
    for block in ("features", "profile"):  # merged key by key over their defaults
        given = _inputs.of_type(obj[block], dict, f"config {block}", "an object")
        unknown = set(given) - set(defaults[block])
        if unknown:
            raise DecodeError(
                f"unknown {block} config keys: {excerpt(sorted(unknown))}")
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
        raise DecodeError(
            f"config fusion_cutoffs must be two numbers, got {excerpt(cutoffs)}")
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
        weights=FusionWeights(weights={
            k: _inputs.number(v, f"config fusion_weights[{excerpt(k)}]")
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
        """The window's report line as a JSON-ready mapping. Every key of
        the line is written here: absent features are omitted, and each
        fact and fired rule becomes one object."""
        fv = self.features
        features = {"window_start": fv.window_start, "window_end": fv.window_end}
        for name in FEATURE_NAMES:
            v = getattr(fv, name)
            if v is not None:
                features[name] = v
        return {
            "window": [self.window.start_t, self.window.end_t],
            "features": features,
            "facts": [{"individual": f.individual, "class": f.class_label, "value": f.value,
                       "window": [f.window_start, f.window_end], "feature": f.source_feature}
                      for f in self.facts],
            "fired_rules": [{"rule": r.rule, "individual": r.individual,
                             "iteration": r.iteration} for r in self.fired_rules],
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


def run(trace: Trace, cfg: PipelineConfig | None = None) -> FatigueReport:
    """Process a whole trace.

    Each window's record is built once, as the window closes. The
    eyelid-closure fraction is computed over its own longer sliding window,
    consumed in order as those windows elapse: each vehicular window picks
    up the latest closure window that has fully elapsed by its end. The
    alert is decided as the window closes, by one `AlertPolicy.step`, once
    per run of elevated overall levels. Windows missing channels still
    produce a degraded record with whatever features ran, flagged under
    "errors". When a snapshot directory is set, the post-inference fact
    base of every `snapshot_every_windows`-th window is written as that
    window closes, so a run that raises part-way leaves the snapshots of
    the windows before the fault.
    """
    if cfg is None:
        cfg = load_config()
    windows = make_windows(trace, cfg.window_length_s, cfg.window_stride_s)
    closure = iter(make_windows(trace, cfg.perclos_window_s, cfg.window_stride_s))
    pending = next(closure, None)
    perclos = None
    streak = 0
    anchors = ontology().anchors

    out_dir = None if cfg.snapshot_dir is None else Path(cfg.snapshot_dir)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    records: list[WindowRecord] = []
    for index, w in enumerate(windows):
        fields, notes = extract_features(w, cfg.feature_params)
        # the window's closure fraction is the freshest fully elapsed closure
        # window's with two or more eyelid samples, if any, not its own
        while pending is not None and pending.end_t <= w.end_t + 1e-9:
            t, v = pending.channel("eye_closure")
            if len(t) >= 2:
                perclos = closed_fraction(t, v, cfg.feature_params.eye_closed_threshold)
            pending = next(closure, None)
        fields["perclos80"] = perclos
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
                notes.append("fusion skipped: contributing sources all have zero weight")

        streak, alert = cfg.alert.step(streak, overall)
        records.append(WindowRecord(
            window=w, features=fv, facts=facts, fired_rules=tuple(fired), levels=levels,
            overall=overall, alert=alert, errors=tuple(notes)))

        if out_dir is not None and index % cfg.snapshot_every_windows == 0:
            (out_dir / f"window_{index:05d}.snapshot.json").write_bytes(save_snapshot(
                KnowledgeSnapshot(factbase=fb, trace_id=cfg.trace_id,
                                  window=(w.start_t, w.end_t))))

    return FatigueReport(records=tuple(records))
