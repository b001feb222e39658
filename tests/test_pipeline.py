import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traces
from oracles import latest_elapsed_scan

from fatiguekit import (
    AlertPolicy,
    ArgumentError,
    DecodeError,
    FatigueLevel,
    PipelineConfig,
    Trace,
    decide,
    default_config_text,
    eye_features,
    generate_scenario,
    load_config,
    load_snapshot,
    make_windows,
    parse_scenario_spec,
    run,
    simple_spec,
)
from fatiguekit.pipeline import _latest_elapsed, _perclos_by_window_end

LOW = FatigueLevel.LOW
MED = FatigueLevel.MEDIUM
HIGH = FatigueLevel.HIGH


def cfg_from(overrides, **kwargs):
    return load_config(json.dumps(overrides), **kwargs)


def pack_flavor(pack):
    yaw_low = next(r for r in pack.rules if r.name == "yaw_low")
    if any(c.startswith("MeanYaw_") for c in yaw_low.conditions):
        return "corrected"
    return "verbatim"


class TestDecide:
    def test_two_high_in_a_row(self):
        assert decide([LOW, HIGH, HIGH], AlertPolicy()) == [2]

    def test_interrupted_streak(self):
        assert decide([HIGH, LOW, HIGH], AlertPolicy()) == []

    def test_rearm_after_drop(self):
        assert decide([HIGH, HIGH, HIGH, LOW, HIGH, HIGH], AlertPolicy()) == [1, 5]

    def test_none_breaks_streak(self):
        assert decide([HIGH, None, HIGH, HIGH], AlertPolicy()) == [3]

    def test_consecutive_one(self):
        policy = AlertPolicy(consecutive=1)
        assert decide([LOW, HIGH, LOW, HIGH], policy) == [1, 3]

    def test_no_levels_no_alerts(self):
        assert decide([], AlertPolicy()) == []
        assert decide([None, None], AlertPolicy()) == []

    def test_medium_threshold_policy(self):
        policy = AlertPolicy(level=MED, consecutive=2)
        # MEDIUM or higher counts toward the streak
        assert decide([MED, HIGH, LOW, MED, MED], policy) == [1, 4]

    def test_policy_validation(self):
        with pytest.raises(ArgumentError):
            AlertPolicy(consecutive=0)


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

    def test_fusion_weights(self):
        cfg = cfg_from({"fusion_weights": {"SteeringWheel": 3.0, "YawAngle": 1.0}})
        assert cfg.weights.get("SteeringWheel") == 3.0
        assert cfg.weights.get("YawAngle") == 1.0

    def test_cutoffs(self):
        cfg = cfg_from({"fusion_cutoffs": [0.4, 1.6]})
        assert cfg.fusion_cutoffs == (0.4, 1.6)

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


def run_scenario(regime, duration=600.0, seed=0, cfg=None):
    frames = generate_scenario(simple_spec(regime, duration=duration, seed=seed))
    return run(frames, cfg)


class TestRunEndToEnd:
    def test_empty_trace(self):
        report = run([], None)
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
        overall = report.overall_levels()
        present = [lv for lv in overall if lv is not None]
        assert present and all(lv is LOW for lv in present)
        assert report.alert_indices() == []

    def test_drowsy_scenario_goes_high_and_alerts(self):
        report = run_scenario("drowsy")
        overall = report.overall_levels()
        present = [lv for lv in overall if lv is not None]
        highs = sum(1 for lv in present if lv is HIGH)
        assert highs / len(present) >= 0.8
        assert report.alert_indices()

    def test_alert_flags_match_decide(self):
        report = run_scenario("drowsy", duration=300.0)
        flagged = [i for i, r in enumerate(report.records) if r.alert]
        assert flagged == decide(report.overall_levels(), AlertPolicy())

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
            report = run(stripped, None)
            assert len(report.records) > 0

    def test_time_only_trace_degrades_gracefully(self):
        frames = generate_scenario(simple_spec("alert", duration=90.0))
        blank = {c: None for c in
                 ("swa", "yaw", "speed", "lat_accel", "lon_accel", "lane_offset",
                  "eye_closure", "mouth_open", "head_pitch", "heart_bpm",
                  "gaze_offset")}
        bare = [dataclasses.replace(f, **blank) for f in frames]
        report = run(bare, None)
        assert report.records
        for r in report.records:
            assert r.overall is None
            assert r.errors  # extraction notes recorded, not raised

    def test_perclos_join_uses_completed_window(self):
        report = run_scenario("drowsy", duration=400.0)
        # before any 180s closure window completes, the fraction is absent
        early = report.records[0]
        assert "perclos80" not in early.features.to_dict()
        # once one has fully elapsed it is joined in
        late = next(r for r in report.records if r.window.end_t >= 240.0)
        assert "perclos80" in late.features.to_dict()
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
    """The closure-window pass keeps only perclos80, and joins it by bisection."""

    @staticmethod
    def full_pass(trace, cfg):
        out = []
        for w in make_windows(trace, cfg.perclos_window_s, cfg.window_stride_s):
            try:
                fv = eye_features(w, closed_threshold=cfg.feature_params.eye_closed_threshold)
            except Exception:
                continue
            out.append((w.end_t, fv.perclos80))
        return out

    @pytest.mark.parametrize("regime,threshold", [("drowsy", 0.8), ("alert", 0.3)])
    def test_equals_eye_features_on_scenario(self, regime, threshold):
        cfg = cfg_from({"features": {"eye_closed_threshold": threshold}})
        trace = Trace.from_frames(generate_scenario(simple_spec(regime, duration=400.0)))
        ends, values = _perclos_by_window_end(trace, cfg)
        want = self.full_pass(trace, cfg)
        assert len(want) > 10
        assert list(zip(ends, values)) == want  # bit for bit

    @settings(max_examples=60, deadline=None)
    @given(traces(max_frames=40))
    def test_equals_eye_features_on_random_traces(self, frames):
        cfg = cfg_from({"perclos_window_s": 9.0, "window_stride_s": 2.0})
        trace = Trace.from_frames(frames)
        ends, values = _perclos_by_window_end(trace, cfg)
        assert list(zip(ends, values)) == self.full_pass(trace, cfg)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e4), max_size=12, unique=True),
           st.integers(0, 12),
           st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9, 0.5, -0.5]),
           st.sampled_from([-math.inf, 0.0, math.inf]))
    @example(ends=[180.0, 190.0], pick=1, offset=-1e-9, nudge=0.0)
    @example(ends=[180.0, 190.0], pick=1, offset=-1e-9, nudge=-math.inf)
    @example(ends=[180.0, 190.0], pick=0, offset=-1e-9, nudge=math.inf)
    def test_bisect_join_equals_linear_scan(self, ends, pick, offset, nudge):
        ends = sorted(ends)
        values = [float(i) for i in range(len(ends))]
        base = ends[pick] if pick < len(ends) else 60.0
        end_t = math.nextafter(base + offset, nudge) if nudge else base + offset
        assert _latest_elapsed(ends, values, end_t) == \
            latest_elapsed_scan(list(zip(ends, values)), end_t)
