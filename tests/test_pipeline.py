import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traces
from oracles import decide_armed, latest_elapsed_scan

from fatiguekit import (
    AlertPolicy,
    AmbiguityError,
    ArgumentError,
    DecodeError,
    FatigueLevel,
    FeatureParams,
    FeatureVector,
    PipelineConfig,
    RulePack,
    SignalFrame,
    Trace,
    UnknownClassError,
    default_config_text,
    eye_features,
    generate_scenario,
    load_config,
    load_snapshot,
    make_windows,
    parse_rules,
    parse_scenario_spec,
    run,
    simple_spec,
)
from fatiguekit.pipeline import WindowRecord
from fatiguekit.scenario import ScenarioSpec, Segment

LOW = FatigueLevel.LOW
MED = FatigueLevel.MEDIUM
HIGH = FatigueLevel.HIGH
POLICY = load_config().alert  # High, two windows in a row


def cfg_from(overrides, **kwargs):
    return load_config(json.dumps(overrides), **kwargs)


def pack_flavor(pack):
    yaw_low = next(r for r in pack.rules if r.name == "yaw_low")
    if any(c.startswith("MeanYaw_") for c in yaw_low.conditions):
        return "corrected"
    return "verbatim"


def fold(levels: list, policy: AlertPolicy) -> list[int]:
    """Indices where the alert fires, by AlertPolicy.step taken level by
    level from a run of 0, as `run` takes it window by window."""
    out, streak = [], 0
    for i, level in enumerate(levels):
        streak, fires = policy.step(streak, level)
        if fires:
            out.append(i)
    return out


class TestDecide:
    """The alert rule, AlertPolicy.step, folded over a sequence of levels."""

    def test_two_high_in_a_row(self):
        assert fold([LOW, HIGH, HIGH], POLICY) == [2]

    def test_interrupted_streak(self):
        assert fold([HIGH, LOW, HIGH], POLICY) == []

    def test_rearm_after_drop(self):
        assert fold([HIGH, HIGH, HIGH, LOW, HIGH, HIGH], POLICY) == [1, 5]

    def test_none_breaks_streak(self):
        assert fold([HIGH, None, HIGH, HIGH], POLICY) == [3]

    def test_consecutive_one(self):
        policy = dataclasses.replace(POLICY, consecutive=1)
        assert fold([LOW, HIGH, LOW, HIGH], policy) == [1, 3]

    def test_no_levels_no_alerts(self):
        assert fold([], POLICY) == []
        assert fold([None, None], POLICY) == []

    def test_medium_threshold_policy(self):
        policy = AlertPolicy(level=MED, consecutive=2)
        # MEDIUM or higher counts toward the streak
        assert fold([MED, HIGH, LOW, MED, MED], policy) == [1, 4]

    def test_policy_validation(self):
        with pytest.raises(ArgumentError):
            dataclasses.replace(POLICY, consecutive=0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([None, LOW, MED, HIGH]), max_size=12),
           st.sampled_from([LOW, MED, HIGH]), st.integers(1, 5))
    def test_one_counter_equals_the_armed_flag(self, levels, level, consecutive):
        policy = AlertPolicy(level=level, consecutive=consecutive)
        assert fold(levels, policy) == decide_armed(levels, policy)


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.window_length_s == 60.0
        assert cfg.window_stride_s == 10.0
        assert cfg.perclos_window_s == 180.0
        assert cfg.alert.level is HIGH
        assert cfg.alert.consecutive == 2
        assert cfg.snapshot_every_windows == 10
        assert cfg.snapshot_dir is None
        assert pack_flavor(cfg.rule_pack) == "corrected"
        assert cfg.profile.id == "driver"
        assert cfg.profile.sex.value == "unspecified"

    def test_feature_defaults_have_one_home(self):
        # the shipped features block and the FeatureParams defaults agree,
        # and each features key other than apen_* names a FeatureParams field
        assert load_config().feature_params == FeatureParams()
        keys = set(json.loads(default_config_text())["features"])
        names = {f.name for f in dataclasses.fields(FeatureParams)} - {"apen"}
        assert keys == names | {"apen_m", "apen_r", "apen_r_scale"}

    def test_default_text_parses(self):
        raw = json.loads(default_config_text())
        assert raw["rule_pack"] == "corrected"
        assert raw["window_length_s"] == 60.0

    def test_top_level_override(self):
        cfg = cfg_from({"window_length_s": 30.0, "window_stride_s": 5.0})
        assert cfg.window_length_s == 30.0
        assert cfg.window_stride_s == 5.0
        # untouched keys keep defaults
        assert cfg.perclos_window_s == 180.0

    def test_unknown_key_rejected(self):
        with pytest.raises(DecodeError):
            cfg_from({"window_len": 30.0})

    def test_invalid_json_rejected(self):
        with pytest.raises(DecodeError):
            load_config("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(DecodeError):
            load_config("[1, 2]")

    def test_features_deep_merge(self):
        cfg = cfg_from({"features": {"apen_m": 3}})
        assert cfg.feature_params.apen.m == 3
        # sibling feature keys survive the merge
        assert cfg.feature_params.apen.r_scale == 0.2
        assert cfg.feature_params.eye_closed_threshold == 0.8

    def test_unknown_feature_key_rejected(self):
        with pytest.raises(DecodeError):
            cfg_from({"features": {"apen_q": 1}})

    def test_verbatim_pack_by_name(self):
        cfg = cfg_from({"rule_pack": "verbatim"})
        assert pack_flavor(cfg.rule_pack) == "verbatim"

    def test_rule_pack_override_parameter(self):
        cfg = load_config(rule_pack_override="verbatim")
        assert pack_flavor(cfg.rule_pack) == "verbatim"

    def test_rule_pack_from_file(self, tmp_path):
        text = ("rule only:\n"
                "  when instance(?x, SteeringWheelMeasurementFatigue),\n"
                "       exists(MeanSWA_Small)\n"
                "  then classify(?x, SteeringWheelMeasurmentFatigue_Low)\n")
        (tmp_path / "my.rules").write_text(text)
        cfg = cfg_from({"rule_pack": "my.rules"}, base_dir=tmp_path)
        assert cfg.rule_pack.names() == ("only",)

    def test_profile_override(self):
        cfg = cfg_from({"profile": {"id": "d42", "sex": "female"}})
        assert cfg.profile.id == "d42"
        assert cfg.profile.sex.value == "female"

    def test_null_profile_fields(self):
        cfg = cfg_from({"profile": {"id": None, "sex": None}})
        assert cfg.profile.id == "driver"
        assert cfg.profile.sex.value == "unspecified"

    def test_stock_pack_checked_against_the_scheme_taxonomy(self, tmp_path):
        # renamed mean steering labels leave the stock pack's MeanSWA_*
        # conditions unknown; the config fails, naming the rule and line
        (tmp_path / "s.json").write_text(json.dumps({"mean_swa_abs": [
            {"label": "MSWA_Small", "lower": 0.0, "upper": 6.0},
            {"label": "MSWA_Large", "lower": 6.0, "upper": None}]}))
        with pytest.raises(UnknownClassError) as exc:
            cfg_from({"scheme_path": "s.json"}, base_dir=tmp_path)
        assert (exc.value.class_name, exc.value.rule, exc.value.line) == \
            ("MeanSWA_Small", "steering_low", 9)

    def test_fusion_weights(self):
        cfg = cfg_from({"fusion_weights": {"SteeringWheel": 3.0, "YawAngle": 1.0}})
        assert cfg.weights.get("SteeringWheel") == 3.0
        assert cfg.weights.get("YawAngle") == 1.0

    def test_cutoffs(self):
        cfg = cfg_from({"fusion_cutoffs": [0.4, 1.6]})
        assert cfg.fusion_cutoffs == (0.4, 1.6)

    @pytest.mark.parametrize("cutoffs", [[1.5, 0.5], [1.0, 1.0]])
    def test_cutoffs_must_increase(self, cutoffs):
        with pytest.raises(DecodeError, match="config fusion_cutoffs must increase"):
            cfg_from({"fusion_cutoffs": cutoffs})

    def test_alert_settings(self):
        cfg = cfg_from({"alert_level": "Medium", "alert_consecutive_windows": 3})
        assert cfg.alert.level is MED
        assert cfg.alert.consecutive == 3

    def test_snapshot_dir_override_parameter(self):
        cfg = load_config(snapshot_dir_override="/tmp/somewhere")
        assert cfg.snapshot_dir == "/tmp/somewhere"

    def test_trace_id(self):
        cfg = load_config(trace_id="drive-07")
        assert cfg.trace_id == "drive-07"

    def test_cadence_validation(self):
        with pytest.raises(ArgumentError):
            cfg_from({"snapshot_every_windows": 0})

    def test_window_validation(self):
        with pytest.raises(ArgumentError):
            cfg_from({"window_length_s": -1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["window_length_s", "window_stride_s", "perclos_window_s"])
    def test_non_finite_geometry_rejected(self, key, bad):
        with pytest.raises(ArgumentError, match=f"{key} must be finite and positive"):
            dataclasses.replace(load_config(), **{key: bad})


def run_scenario(regime, duration=600.0, seed=0, cfg=None):
    frames = generate_scenario(simple_spec(regime, duration=duration, seed=seed))
    return run(frames, cfg)


class TestRunEndToEnd:
    def test_empty_trace(self):
        report = run(Trace.from_frames([]), None)
        assert report.records == ()
        assert report.to_jsonl() == b""

    def test_record_per_window(self):
        report = run_scenario("alert", duration=200.0)
        # stride 10s over a 200s trace: starts at 0, 10, ..., 190
        assert len(report.records) == 20
        starts = [r.window.start_t for r in report.records]
        assert starts == [i * 10.0 for i in range(20)]

    def test_negative_apen_qualifies_low(self):
        # the last window holds 11 samples, a series on which ApEn is truly
        # negative; it must land in the Low band, not abort the whole run
        spec = parse_scenario_spec(json.dumps({
            "duration": 351.1, "sample_rate": 10.0, "seed": 7,
            "segments": [{"start": 0.0, "end": 351.1, "regime": "alert"}]}))
        report = run(generate_scenario(spec))
        assert len(report.records) == 36
        last = report.records[-1]
        assert last.features.swa_apen < 0
        labels = {f.source_feature: f.class_label for f in last.facts}
        assert labels["swa_apen"] == "ApproximateEntropySWA_Low"

    def test_alert_scenario_stays_low(self):
        report = run_scenario("alert")
        overall = [r.overall for r in report.records]
        present = [lv for lv in overall if lv is not None]
        assert present and all(lv is LOW for lv in present)
        assert report.alert_indices() == []

    def test_drowsy_scenario_goes_high_and_alerts(self):
        report = run_scenario("drowsy")
        overall = [r.overall for r in report.records]
        present = [lv for lv in overall if lv is not None]
        highs = sum(1 for lv in present if lv is HIGH)
        assert highs / len(present) >= 0.8
        assert report.alert_indices()

    def test_alert_flags_match_decide(self):
        # drowsy, alert, drowsy: the alert fires once per drowsy stretch
        spec = ScenarioSpec(duration=600.0, seed=0, segments=(
            Segment(0.0, 200.0, "drowsy"), Segment(200.0, 400.0, "alert"),
            Segment(400.0, 600.0, "drowsy")))
        report = run(generate_scenario(spec))
        flagged = [i for i, r in enumerate(report.records) if r.alert]
        assert len(flagged) == 2
        assert flagged == decide_armed([r.overall for r in report.records], POLICY)

    def test_determinism(self):
        a = run_scenario("drowsy", duration=240.0, seed=5).to_jsonl()
        b = run_scenario("drowsy", duration=240.0, seed=5).to_jsonl()
        assert a == b

    def test_jsonl_shape(self):
        report = run_scenario("alert", duration=120.0)
        lines = report.to_jsonl().decode("utf-8").splitlines()
        assert len(lines) == len(report.records)
        rec = json.loads(lines[0])
        assert set(rec) == {"window", "features", "facts", "fired_rules",
                            "levels", "overall", "alert", "errors"}

    def test_levels_use_display_names(self):
        report = run_scenario("drowsy", duration=120.0)
        rec = json.loads(report.to_jsonl().decode("utf-8").splitlines()[2])
        assert rec["overall"] in ("Low", "Medium", "High", None)
        for v in rec["levels"].values():
            assert v in ("Low", "Medium", "High")

    def test_missing_channel_does_not_crash(self):
        frames = generate_scenario(simple_spec("drowsy", duration=120.0))
        for channel in ("swa", "yaw", "eye_closure", "heart_bpm", "lat_accel",
                        "lane_offset", "mouth_open", "head_pitch", "gaze_offset",
                        "speed"):
            stripped = [dataclasses.replace(f, **{channel: None}) for f in frames]
            report = run(Trace.from_frames(stripped), None)
            assert len(report.records) > 0

    def test_time_only_trace_degrades_gracefully(self):
        frames = generate_scenario(simple_spec("alert", duration=90.0))
        blank = {c: None for c in
                 ("swa", "yaw", "speed", "lat_accel", "lon_accel", "lane_offset",
                  "eye_closure", "mouth_open", "head_pitch", "heart_bpm",
                  "gaze_offset")}
        bare = [dataclasses.replace(f, **blank) for f in frames]
        report = run(Trace.from_frames(bare), None)
        assert report.records
        for r in report.records:
            assert r.overall is None
            assert r.errors  # extraction notes recorded, not raised

    def test_perclos_join_uses_completed_window(self):
        report = run_scenario("drowsy", duration=400.0)
        # before any 180s closure window completes, the fraction is absent
        early = report.records[0]
        assert "perclos80" not in early.to_dict()["features"]
        # once one has fully elapsed it is joined in
        late = next(r for r in report.records if r.window.end_t >= 240.0)
        assert "perclos80" in late.to_dict()["features"]
        assert late.features.perclos80 >= 0.4

    def test_facts_and_rules_recorded(self):
        report = run_scenario("drowsy", duration=120.0)
        rec = report.records[2]
        classes = {f.class_label for f in rec.facts}
        assert any(c.startswith("MeanSWA_") for c in classes)
        assert any(fr.rule == "steering_high" for fr in rec.fired_rules)
        assert rec.levels.get("SteeringWheel") is HIGH
        assert rec.overall is HIGH

    def test_verbatim_pack_adds_yaw_source(self):
        cfg = load_config(rule_pack_override="verbatim")
        report = run_scenario("alert", duration=120.0, cfg=cfg)
        rec = report.records[2]
        assert rec.levels.get("SteeringWheel") is LOW
        assert rec.levels.get("YawAngle") is LOW

    def test_zero_weight_contributor_skips_fusion(self):
        # yaw never concludes under the default pack, so giving the steering
        # source zero weight leaves no weighted contributor at all
        cfg = cfg_from({"fusion_weights": {"SteeringWheel": 0.0, "YawAngle": 1.0}})
        report = run_scenario("drowsy", duration=120.0, cfg=cfg)
        rec = report.records[2]
        assert rec.levels.get("SteeringWheel") is HIGH
        assert rec.overall is None
        assert any("fusion skipped" in e for e in rec.errors)


class TestSnapshots:
    def test_files_written_at_cadence(self, tmp_path):
        cfg = cfg_from({"snapshot_dir": str(tmp_path),
                        "snapshot_every_windows": 5})
        report = run_scenario("drowsy", duration=200.0, cfg=cfg)
        names = sorted(p.name for p in tmp_path.iterdir())
        expected = [f"window_{i:05d}.snapshot.json"
                    for i in range(len(report.records)) if i % 5 == 0]
        assert names == expected

    def test_snapshots_loadable_and_stamped(self, tmp_path):
        cfg = load_config(snapshot_dir_override=str(tmp_path), trace_id="t9")
        report = run_scenario("drowsy", duration=150.0, cfg=cfg)
        snap = load_snapshot((tmp_path / "window_00000.snapshot.json").read_bytes())
        first = report.records[0]
        assert snap.window == (first.window.start_t, first.window.end_t)
        assert snap.trace_id == "t9"
        inds = {i for i, _ in snap.factbase.memberships}
        assert f"steering@{first.window.start_t}" in inds
        assert f"yaw@{first.window.start_t}" in inds

    def test_failed_run_leaves_the_earlier_windows_snapshots(self, tmp_path):
        # clash concludes Low beside steering_high's High, so read_fatigue
        # raises at the first window that reads High
        trace = generate_scenario(ScenarioSpec(duration=240.0, sample_rate=10.0, seed=0, segments=(
            Segment(0.0, 120.0, "alert"), Segment(120.0, 240.0, "drowsy"))))
        stock = cfg_from({"snapshot_every_windows": 3},
                         snapshot_dir_override=str(tmp_path / "stock"))
        levels = [r.levels.get("SteeringWheel") for r in run(trace, stock).records]
        fault = levels.index(HIGH)
        assert fault > 3
        clash = parse_rules(
            "rule clash: when instance(?f, SteeringWheelMeasurementFatigue),"
            " exists(SteeringWheelMeasurmentFatigue_High)"
            " then classify(?f, SteeringWheelMeasurmentFatigue_Low)", stock.taxonomy)
        out = tmp_path / "clash"
        cfg = dataclasses.replace(stock, snapshot_dir=str(out),
                                  rule_pack=RulePack(stock.rule_pack.rules + clash.rules))
        with pytest.raises(AmbiguityError):
            run(trace, cfg)
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"window_{i:05d}.snapshot.json" for i in range(0, fault, 3)]
        for name in names:
            data = (out / name).read_bytes()
            assert data == (tmp_path / "stock" / name).read_bytes()
            load_snapshot(data)

    def test_no_dir_no_files(self, tmp_path):
        cfg = cfg_from({"snapshot_every_windows": 5})
        run_scenario("alert", duration=100.0, cfg=cfg)
        assert list(tmp_path.iterdir()) == []


class TestPipelineConfigObject:
    def test_is_frozen(self):
        cfg = load_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.window_length_s = 5.0

    def test_is_pipeline_config(self):
        assert isinstance(load_config(), PipelineConfig)


class TestClosurePass:
    """run joins into each window the closure fraction of the last closure
    window with two or more eyelid samples that ends by the window's end."""

    @staticmethod
    def full_pass(trace, cfg):
        out = []
        for w in make_windows(trace, cfg.perclos_window_s, cfg.window_stride_s):
            try:
                fv = eye_features(w, cfg.feature_params)
            except Exception:
                continue
            out.append((w.end_t, fv["perclos80"]))
        return out

    def assert_joined(self, trace, cfg):
        """Every record's perclos80 is the linear scan's, bit for bit."""
        pairs = self.full_pass(trace, cfg)
        report = run(trace, cfg)
        for r in report.records:
            assert r.features.perclos80 == latest_elapsed_scan(pairs, r.window.end_t)
        return pairs, report

    @pytest.mark.parametrize("regime,threshold", [("drowsy", 0.8), ("alert", 0.3)])
    def test_equals_eye_features_on_scenario(self, regime, threshold):
        cfg = cfg_from({"features": {"eye_closed_threshold": threshold}})
        trace = Trace.from_frames(generate_scenario(simple_spec(regime, duration=400.0)))
        pairs, report = self.assert_joined(trace, cfg)
        assert len(pairs) > 10
        assert sum(r.features.perclos80 is not None for r in report.records) > 10

    @settings(max_examples=60, deadline=None)
    @given(traces(max_frames=40))
    def test_equals_eye_features_on_random_traces(self, frames):
        cfg = cfg_from({"perclos_window_s": 9.0, "window_stride_s": 2.0})
        self.assert_joined(Trace.from_frames(frames), cfg)

    def test_join_where_window_ends_differ_only_by_rounding(self):
        # at stride 0.1, window k ends at k * 0.1 + 2.0 and closure window
        # k - 30 at (k - 30) * 0.1 + 5.0: the same end in exact arithmetic,
        # but rounded, some closure ends lie a hair past the window's end
        cfg = cfg_from({"window_length_s": 2.0, "perclos_window_s": 5.0,
                        "window_stride_s": 0.1})
        frames = generate_scenario(simple_spec("drowsy", duration=40.0))
        trace = Trace.from_frames([SignalFrame(t=f.t, eye_closure=f.eye_closure)
                                   for f in frames])
        pairs, report = self.assert_joined(trace, cfg)
        past = [(r, value) for r in report.records for end, value in pairs
                if r.window.end_t < end <= r.window.end_t + 1e-9]
        assert past
        # such a closure window changes the value a window reads: a join
        # without the tolerance would read an older one
        assert any(value != next((v for end, v in reversed(pairs) if end <= r.window.end_t),
                                 None) for r, value in past)


class TestKnowledgeLayerPerWindow:
    def test_one_fact_base_per_window_plus_one_per_round_that_added_a_pair(
            self, monkeypatch):
        from fatiguekit import kstore
        # both marks conclude in the round after steering_high, so that
        # round adds two pairs
        cfg = load_config()
        marks = parse_rules("""
            rule mark_steering: when instance(?f, SteeringWheelMeasurementFatigue),
                exists(SteeringWheelMeasurmentFatigue_High)
                then classify(?f, VehicleBasedMeasurementFatigue)
            rule mark_yaw: when instance(?f, YawAngleMeasurementFatigue),
                exists(SteeringWheelMeasurmentFatigue_High)
                then classify(?f, VehicleBasedMeasurementFatigue)
            """, cfg.taxonomy)
        cfg = dataclasses.replace(cfg, rule_pack=RulePack(cfg.rule_pack.rules + marks.rules))
        built = []
        post_init = kstore.FactBase.__post_init__

        def counted(fb):
            built.append(fb)
            post_init(fb)
        monkeypatch.setattr(kstore.FactBase, "__post_init__", counted)
        report = run(generate_scenario(simple_spec("drowsy", duration=120.0)), cfg)
        rounds = [{f.iteration for f in r.fired_rules} for r in report.records]
        assert any(len(r.fired_rules) > len(its) for r, its in zip(report.records, rounds))
        assert len(built) == len(report.records) + sum(map(len, rounds))

    def test_run_reuses_the_config_taxonomy(self, monkeypatch):
        from fatiguekit import pipeline

        def rebuilt(scheme=None):
            raise AssertionError("run rebuilt the taxonomy")
        cfg = load_config()
        trace = generate_scenario(simple_spec("drowsy", duration=90.0))
        monkeypatch.setattr(pipeline, "default_taxonomy", rebuilt)
        first = run(trace, cfg)
        assert run(trace, cfg).to_jsonl() == first.to_jsonl()
        assert any(r.fired_rules for r in first.records)

    def test_benchmark_tracer_patch_points_resolve(self):
        # perfbench's tracer wraps pipeline, rules and kstore names by
        # getattr; install() fails if one of them is renamed or moved
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")])}
        proc = subprocess.run(
            [sys.executable, "-c", "from tracer import Tracer; Tracer(180.0).install()"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def joined_overflow_trace() -> Trace:
    """A 120 s trace, t = 100 to 220 s, with no yaw, lateral-acceleration or
    lane channel; swa alternates +-1e308 over [150, 160) s, and eye closure
    spans the first 180 s closure windows to elapse."""
    spec = ScenarioSpec(duration=220.0, sample_rate=10.0, seed=5, segments=(
        Segment(100.0, 160.0, "alert"), Segment(160.0, 220.0, "drowsy")))
    kept = ("swa", "speed", "lon_accel", "eye_closure", "mouth_open", "head_pitch",
            "heart_bpm", "gaze_offset")
    frames = []
    for k, f in enumerate(generate_scenario(spec)):
        channels = {c: getattr(f, c) for c in kept}
        if 150.0 <= f.t < 160.0:
            channels["swa"] = 1e308 if k % 2 else -1e308
        frames.append(SignalFrame(t=f.t, **channels))
    return Trace.from_frames(frames)


class TestFeatureVectorPerWindow:
    def test_run_builds_one_window_record_per_window(self, monkeypatch):
        built = []
        init = WindowRecord.__init__

        def counted(record, *args, **kwargs):
            init(record, *args, **kwargs)
            built.append(record)
        monkeypatch.setattr(WindowRecord, "__init__", counted)
        report = run(generate_scenario(simple_spec("drowsy", duration=120.0)), load_config())
        assert report.alert_indices()
        assert built == list(report.records)

    def test_run_builds_one_feature_vector_per_window(self, monkeypatch):
        built = []
        init = FeatureVector.__init__

        def counted(fv, *args, **kwargs):
            init(fv, *args, **kwargs)
            built.append((fv.window_start, fv.window_end))
        monkeypatch.setattr(FeatureVector, "__init__", counted)
        report = run(joined_overflow_trace(), load_config())
        assert len(report.records) == 17
        assert built == [(r.window.start_t, r.window.end_t) for r in report.records]

    def test_missing_families_overflow_notes_and_closure_join_bytes(self):
        # the digest pins the order of overflow notes, the notes of absent
        # families and the joined closure fractions, which the contract
        # traces do not reach
        report = run(joined_overflow_trace(), load_config())
        notes = {n for r in report.records for n in r.errors}
        assert "swa_apen: overflows float64, left absent" in notes
        assert "channel 'yaw' absent from window" in notes
        assert sum(r.features.perclos80 is not None for r in report.records) == 10
        assert hashlib.sha256(report.to_jsonl()).hexdigest() == \
            "82bc2024339e619f0157b57a17fa26b07fcf4f68885c6494748da7dbf1d00889"
