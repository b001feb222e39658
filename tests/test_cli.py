import copy
import hashlib
import json
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from importlib import resources

from fatiguekit import (
    default_config_text,
    generate_scenario,
    load_config,
    parse_trace,
    run,
    save_snapshot,
    simple_spec,
)
from fatiguekit.cli import main
from fatiguekit.kstore import (
    FactBase,
    KnowledgeSnapshot,
    Taxonomy,
    assert_fact,
    default_taxonomy,
)
from fatiguekit.signals import serialize_trace

STOCK_PACK_DIR = resources.files("fatiguekit") / "data" / "rules"


@pytest.fixture
def drowsy_trace(tmp_path):
    frames = generate_scenario(simple_spec("drowsy", duration=180.0, seed=4))
    path = tmp_path / "drive.csv"
    path.write_bytes(serialize_trace(frames, "csv"))
    return path


class TestRun:
    def test_report_to_file(self, tmp_path, drowsy_trace, capsys):
        out = tmp_path / "report.jsonl"
        assert main(["run", str(drowsy_trace), "--out", str(out)]) == 0
        lines = out.read_bytes().decode("utf-8").splitlines()
        assert len(lines) == 18  # 180s trace, 10s stride
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "18 windows" in captured.err

    def test_finite_samples_that_overflow_float64(self, tmp_path):
        # every sample is finite, but differences, means and the resampled
        # series overflow: those fields are left absent and noted
        import test_contract

        trace = tmp_path / "huge.csv"
        trace.write_text("t,swa\n" + "".join(
            f"{k / 10},{1e308 if k % 2 else -1e308}\n" for k in range(600)))
        out = tmp_path / "report.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked RuntimeWarning exits 2
            assert main(["run", str(trace), "--out", str(out)]) == 0

        def no_constant(name):
            raise AssertionError(f"non-JSON constant {name} in the report")

        lines = out.read_text("utf-8").splitlines()
        assert len(lines) == 6
        for line in lines:
            rec = json.loads(line, parse_constant=no_constant)
            assert rec["features"]["max_swa_abs"] == 1e308
            for name in ("mean_swa_abs", "swa_angular_velocity_max", "swa_apen"):
                assert name not in rec["features"]
                assert f"{name}: overflows float64, left absent" in rec["errors"]
        for case in sorted(test_contract.CASES):
            (tmp_path / case).mkdir()
            test_contract.test_report_and_snapshot_bytes(case, tmp_path / case)

    def test_report_to_stdout(self, drowsy_trace, capsys):
        assert main(["run", str(drowsy_trace)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 18
        rec = json.loads(lines[0])
        assert set(rec) == {"window", "features", "facts", "fired_rules",
                            "levels", "overall", "alert", "errors"}

    def test_missing_trace(self, capsys):
        assert main(["run", "no-such-trace.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unrecognized_extension(self, tmp_path, capsys):
        bad = tmp_path / "trace.txt"
        bad.write_text("t,swa\n0.0,1.0\n")
        assert main(["run", str(bad)]) == 1
        assert ".csv or .jsonl" in capsys.readouterr().err

    def test_verbatim_flag_adds_yaw_verdict(self, tmp_path, capsys):
        # the as-printed yaw rows key on steering-mean classes, so only a
        # calm trace satisfies one of them end to end
        frames = generate_scenario(simple_spec("alert", duration=120.0, seed=4))
        trace = tmp_path / "calm.csv"
        trace.write_bytes(serialize_trace(frames, "csv"))
        assert main(["run", str(trace), "--verbatim-table1"]) == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[2])
        assert set(rec["levels"]) == {"SteeringWheel", "YawAngle"}
        assert rec["levels"]["YawAngle"] == "Low"

    def test_snapshot_dir_flag(self, tmp_path, drowsy_trace, capsys):
        snaps = tmp_path / "snaps"
        assert main(["run", str(drowsy_trace), "--snapshot-dir", str(snaps),
                     "--out", str(tmp_path / "r.jsonl")]) == 0
        capsys.readouterr()
        files = sorted(p.name for p in snaps.iterdir())
        assert files == ["window_00000.snapshot.json", "window_00010.snapshot.json"]

    def test_config_file(self, tmp_path, drowsy_trace, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alert_consecutive_windows": 5}))
        assert main(["run", str(drowsy_trace), "--config", str(cfg)]) == 0
        capsys.readouterr()

    def test_bad_config(self, tmp_path, drowsy_trace, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert main(["run", str(drowsy_trace), "--config", str(cfg)]) == 1
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"profile": {"id": "d", "sex": "robot"}}',
        '{"features": {"apen_m": "x"}}',
        '{"fusion_weights": [1, 2]}',
        '{"window_length_s": "abc"}',
        '{"fusion_cutoffs": [0.5]}',
        '{"alert_level": 3}',
        '{"profile": "x"}',
        '{"features": [1]}',
        '{"snapshot_every_windows": 2.7}',
        '{"window_length_s": NaN}',
        pytest.param('{"alert_consecutive_windows": 1' + '0' * 400 + '}',
                     id="integer-past-float64"),
    ])
    def test_malformed_config_value(self, tmp_path, drowsy_trace, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["run", str(drowsy_trace), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestGen:
    def test_gen_then_run(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "duration": 120.0, "sample_rate": 10.0, "seed": 9,
            "segments": [{"start": 0.0, "end": 120.0, "regime": "alert"}]}))
        trace = tmp_path / "trace.jsonl"
        assert main(["gen", str(spec), "--out", str(trace)]) == 0
        assert "wrote 1200 frames" in capsys.readouterr().err
        assert main(["run", str(trace)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 12

    def test_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sample_rate": 10.0}))
        assert main(["gen", str(spec), "--out", str(tmp_path / "t.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRulesCheck:
    def test_stock_packs_ok(self, capsys):
        for name in ("table1_corrected.rules", "table1_verbatim.rules"):
            assert main(["rules", "check", str(STOCK_PACK_DIR / name)]) == 0
            assert capsys.readouterr().out.strip() == "6 rules OK"

    @pytest.mark.parametrize("name, dead", [
        # the corrected yaw rules need MeanYaw_*, which no scheme band produces
        ("table1_corrected.rules", [("yaw_medium", "MeanYaw_Large"),
                                    ("yaw_low", "MeanYaw_Small"),
                                    ("yaw_high", "MeanYaw_Small")]),
        ("table1_verbatim.rules", []),
    ])
    def test_stock_packs_dead_rules_warned(self, capsys, name, dead):
        assert main(["rules", "check", str(STOCK_PACK_DIR / name)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: rule {rule!r} never fires: nothing produces {cls} or a subclass"
                       for rule, cls in dead]

    def test_anchor_class_nothing_produces(self, tmp_path, capsys):
        # no band label falls under MeanYaw's subclasses; MeanSWA's labels do
        pack = tmp_path / "p.rules"
        pack.write_text("rule r1: when instance(?x, MeanYaw), exists(SWA_Small) "
                        "then classify(?x, SteeringWheelMeasurmentFatigue_Low)\n"
                        "rule r2: when instance(?x, SteeringWheelMeasurementFatigue), "
                        "exists(MeanSWA) then classify(?x, SteeringWheelMeasurmentFatigue_Low)\n")
        assert main(["rules", "check", str(pack)]) == 0
        out, err = capsys.readouterr()
        assert out.strip() == "2 rules OK"
        assert err.splitlines() == [
            "warning: rule 'r1' never fires: nothing produces MeanYaw or a subclass"]

    def test_broken_pack(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("rule r1: when instance(?x, NoSuchClass) "
                       "then classify(?x, SteeringWheelMeasurmentFatigue_Low)\n")
        assert main(["rules", "check", str(bad)]) == 1
        assert "NoSuchClass" in capsys.readouterr().err


# sha256 of `snapshot dump`'s output over the drive_10hz contract case's
# snapshot files, one every third window, in file name order
CONTRACT_DUMP_DIGEST = "4b2564bcc5ed9e5759b36fa822ec3ef899499f3c6a187643eece9d0fdb11d9b8"


class TestSnapshotDump:
    def test_dump(self, tmp_path, capsys):
        fb = FactBase(taxonomy=default_taxonomy(), timestamp=60.0)
        fb = assert_fact(fb, "steering@0.0", "SteeringWheelMeasurementFatigue")
        snap = KnowledgeSnapshot(factbase=fb, trace_id="demo", window=(0.0, 60.0),
                                 meta_extra={"note": "x"})
        path = tmp_path / "w.snapshot.json"
        path.write_bytes(save_snapshot(snap))
        assert main(["snapshot", "dump", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        meta = json.loads(out[0])
        assert meta["trace_id"] == "demo"
        assert meta["window"] == [0.0, 60.0]
        assert meta["note"] == "x"  # the meta the file holds, extra keys too
        assert any(line.startswith("steering@0.0:") for line in out[1:])

    def test_dump_bytes(self, tmp_path, capsys):
        # classes sorted after each name, then its properties; "c" has
        # properties and no class, and an integer value stays an integer
        taxonomy = Taxonomy(classes=frozenset({"A", "B", "C"}), parents={})
        fb = FactBase(taxonomy=taxonomy, timestamp=5.0,
                      memberships=frozenset({("b", "B"), ("b", "A"), ("a", "C")}),
                      data_properties=frozenset({("b", "has_y", 2.5), ("b", "has_x", 1),
                                                 ("c", "has_x", -0.5)}))
        path = tmp_path / "w.snapshot.json"
        path.write_bytes(save_snapshot(
            KnowledgeSnapshot(factbase=fb, trace_id="demo", window=(0.0, 5.0))))
        assert main(["snapshot", "dump", str(path)]) == 0
        assert capsys.readouterr().out == (
            '{"engine_version": "0.1.0", "timestamp": 5.0, "trace_id": "demo", '
            '"window": [0.0, 5.0]}\n'
            "a: C\n"
            "b: A, B\n"
            "  has_x = 1\n"
            "  has_y = 2.5\n"
            "c: \n"
            "  has_x = -0.5\n")

    def test_dump_bytes_on_contract_snapshots(self, tmp_path, capsys):
        import test_contract
        cfg = load_config(json.dumps({"snapshot_every_windows": 3}),
                          snapshot_dir_override=str(tmp_path), trace_id="drive_10hz_csv")
        run(parse_trace(test_contract.drive_10hz(), "csv"), cfg)
        h = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            assert main(["snapshot", "dump", str(path)]) == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == CONTRACT_DUMP_DIGEST

    def test_dump_reads_the_fact_base_once(self, tmp_path, capsys):
        # 20 000 individuals, half with a data property: the dump reads the
        # fact base once, so this takes well under a second, not the ~45 s
        # of one scan of the fact base per individual
        taxonomy = default_taxonomy()
        fb = FactBase(
            taxonomy=taxonomy,
            memberships=frozenset((f"ind{k:05d}", "SteeringWheelMeasurementFatigue")
                                  for k in range(20_000)),
            data_properties=frozenset((f"ind{k:05d}", "has_x", float(k))
                                      for k in range(0, 20_000, 2)))
        path = tmp_path / "big.snapshot.json"
        path.write_bytes(save_snapshot(KnowledgeSnapshot(factbase=fb)))
        start = time.perf_counter()
        assert main(["snapshot", "dump", str(path)]) == 0
        elapsed = time.perf_counter() - start
        assert len(capsys.readouterr().out.splitlines()) == 1 + 20_000 + 10_000
        assert elapsed < 5.0

    def test_dump_garbage(self, tmp_path, capsys):
        path = tmp_path / "w.snapshot.json"
        path.write_text("{")
        assert main(["snapshot", "dump", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


# -- malformed input in every format exits 1 -------------------------------

SNAPSHOT = {"taxonomy": {"classes": ["A"], "subclass_of": {}}, "memberships": [],
            "data_properties": [], "meta": {"timestamp": 60.0, "window": [0.0, 60.0]}}
SPEC = {"duration": 20.0, "seed": 1,
        "segments": [{"start": 0.0, "end": 20.0, "regime": "alert"}]}
STOCK_SCHEME = json.loads((resources.files("fatiguekit") / "data" / "default_scheme.json")
                          .read_text("utf-8"))


RUN = ["run", "t.csv", "--config", "c.json"]
GEN = ["gen", "spec.json", "--out", "g.csv"]
DUMP = ["snapshot", "dump", "snap.json"]


@pytest.mark.parametrize("argv, files, named", [
    pytest.param(["rules", "check", "bad.rules"], {"bad.rules": b"rule \xff"},
                 "rule pack not valid UTF-8", id="pack-not-utf8"),
    pytest.param(RUN, {"c.json": {"rule_pack": "bad.rules"}, "bad.rules": b"\xff"},
                 "rule pack not valid UTF-8", id="config-pack-not-utf8"),
    pytest.param(GEN, {"spec.json": {**SPEC, "duration": "abc"}}, "duration",
                 id="spec-duration-text"),
    pytest.param(GEN, {"spec.json": {**SPEC, "seed": "x"}}, "seed", id="spec-seed-text"),
    pytest.param(GEN, {"spec.json": {**SPEC, "seed": 1.7}}, "seed", id="spec-seed-fraction"),
    pytest.param(GEN, {"spec.json": {**SPEC, "seed": True}}, "seed", id="spec-seed-bool"),
    pytest.param(GEN, {"spec.json": {**SPEC, "segments": [
        {"start": "a", "end": 20.0, "regime": "alert"}]}}, "segments[0].start",
                 id="spec-segment-start-text"),
    pytest.param(GEN, {"spec.json": {**SPEC, "segments": 5}}, "segments",
                 id="spec-segments-number"),
    pytest.param(DUMP, {"snap.json": {**SNAPSHOT, "meta": {"window": ["a", 1]}}},
                 "meta.window", id="snapshot-window-text"),
    pytest.param(DUMP, {"snap.json": {**SNAPSHOT, "meta": {"timestamp": "x"}}},
                 "meta.timestamp", id="snapshot-timestamp-text"),
    pytest.param(DUMP, {"snap.json": {**SNAPSHOT, "meta": {"timestamp": [1]}}},
                 "meta.timestamp", id="snapshot-timestamp-list"),
    pytest.param(DUMP, {"snap.json": {**SNAPSHOT, "taxonomy": {
        "classes": [1, 2], "subclass_of": {}}}}, "taxonomy.classes",
                 id="snapshot-class-numbers"),
    pytest.param(["run", "t.jsonl"], {"t.jsonl": b'{"t": 0.0, "swa": 1' + b"0" * 400 + b"}"},
                 "value for 'swa' must be finite", id="jsonl-integer-past-float64"),
    pytest.param(["run", "t.jsonl"], {"t.jsonl": b'{"t": 0.0, "swa": 1' + b"0" * 5000 + b"}"},
                 "bad JSON", id="jsonl-integer-past-digit-limit"),
    pytest.param(RUN, {"c.json": {"scheme_path": "s.json"}, "s.json": {"mean_swa_abs": [
        {"label": "MeanSWA_Small", "lower": 0.0, "upper": 6.0},
        {"label": "MeanSWA_Large", "lower": 6.0, "upper": float("nan")},
        {"label": "MeanSWA_Extreme", "lower": float("nan"), "upper": None}]}},
                 "scheme mean_swa_abs upper must be finite", id="scheme-nan-bound"),
    pytest.param(RUN, {"c.json": b'{"window_length_s": 1' + b"0" * 5000 + b"}"},
                 "config not valid JSON", id="config-integer-past-digit-limit"),
    pytest.param(["run", "t.jsonl"], {"t.jsonl": b"[" * 100_000}, "bad JSON",
                 id="jsonl-nested-past-recursion-limit"),
    pytest.param(RUN, {"c.json": b"[" * 100_000}, "config not valid JSON",
                 id="config-nested-past-recursion-limit"),
    pytest.param(DUMP, {"snap.json": b"[" * 100_000}, "snapshot not valid JSON",
                 id="snapshot-nested-past-recursion-limit"),
    pytest.param(["run", "t.csv"], {"t.csv": b"t,swa\n0.0," + b"a" * 200_000 + b"\n"},
                 "(200000 characters) in column 'swa' (row 1)", id="csv-cell-past-field-limit"),
    pytest.param(["run", "t.csv"], {"t.csv": b't,swa\n0.0,"1' + b"0" * 139_999 + b'"\n'},
                 "field larger than field limit", id="csv-quoted-cell-past-field-limit"),
    pytest.param(["run", "t.csv"], {"t.csv": b"t," + b"b" * 100_000 + b"\n0.0,1.0\n"},
                 "(100000 characters) in header", id="csv-header-name-long"),
    pytest.param(["run", "t.csv"], {"t.csv": b"t," + b"b" * 200_000 + b"\n0.0,1.0\n"},
                 "bad CSV header", id="csv-header-name-past-field-limit"),
    pytest.param(["run", "t.jsonl"], {"t.jsonl": b'{"t": 0.0, "' + b"k" * 200_000 + b'": 1}\n'},
                 "(200000 characters) (row 1)", id="jsonl-key-long"),
    pytest.param(RUN, {"c.json": {"window_length_s": "x" * 200_000}}, "config window_length_s",
                 id="config-value-long"),
    pytest.param(RUN, {"c.json": {"window_stride_s": 1e-17}}, "stride 1e-17 need",
                 id="config-stride-grid-past-memory"),
    pytest.param(RUN, {"c.json": {"window_stride_s": 1e-300}}, "stride 1e-300 need",
                 id="config-stride-grid-past-index"),
    pytest.param(RUN, {"c.json": {"window_stride_s": 5e-324}}, "stride 5e-324 need",
                 id="config-stride-grid-infinite"),
    pytest.param(RUN, {"c.json": {"profile": {"id": "d", "sexx": "female"}}}, "sexx",
                 id="profile-unknown-key"),
    pytest.param(RUN, {"c.json": {"profile": {"id": 5}}}, "profile.id",
                 id="profile-id-number"),
    pytest.param(RUN, {"c.json": {"scheme_path": "s.json"}, "s.json": {"mean_swa_abs": [
        {**band, "label": band["label"].replace("MeanSWA", "MSWA")}
        for band in STOCK_SCHEME["mean_swa_abs"]]}},
                 "unknown class 'MeanSWA_Small' in rule 'steering_low'",
                 id="stock-pack-against-scheme-taxonomy"),
    # 300-character outside values, each quoted cut short
    pytest.param(["run", "t." + "x" * 300], {}, "cannot tell trace format",
                 id="trace-extension-long"),
    pytest.param(RUN, {"c.json": {"rule_pack": "p" * 300}}, "File name too long",
                 id="config-rule-pack-path-long"),
    pytest.param(RUN, {"c.json": {"alert_level": "x" * 300}}, "unknown fatigue level",
                 id="config-alert-level-long"),
    pytest.param(RUN, {"c.json": {"k" * 300: 1}}, "unknown config keys",
                 id="config-unknown-key-long"),
    pytest.param(RUN, {"c.json": {"features": {"k" * 300: 1}}}, "unknown features config keys",
                 id="config-unknown-features-key-long"),
    pytest.param(RUN, {"c.json": {"fusion_cutoffs": [0.5] * 300}}, "fusion_cutoffs",
                 id="config-fusion-cutoffs-long"),
    pytest.param(RUN, {"c.json": {"profile": {"sex": "s" * 300}}}, "unknown sex",
                 id="profile-sex-long"),
    pytest.param(RUN, {"c.json": {"scheme_path": "s.json"}, "s.json": {"f" * 300: []}},
                 "unknown feature", id="scheme-unknown-feature-long"),
    pytest.param(RUN, {"c.json": {"scheme_path": "s.json"}, "s.json": {"mean_swa_abs": [
        {"label": "A", "lower": 0.0, "upper": None, "x" * 300: 1}]}},
                 "mean_swa_abs: each band needs", id="scheme-band-extra-key-long"),
    pytest.param(RUN, {"c.json": {"scheme_path": "s.json"},
                       "s.json": {"mean_bpm": {"by_sex": {"s" * 300: []}}}},
                 "mean_bpm: unknown sex", id="scheme-unknown-sex-long"),
    pytest.param(GEN, {"spec.json": {**SPEC, "k" * 300: 1}}, "unknown spec keys",
                 id="spec-unknown-key-long"),
    pytest.param(GEN, {"spec.json": {**SPEC, "segments": [
        {"start": 0.0, "end": 20.0, "regime": "r" * 300}]}}, "unknown regime",
                 id="spec-regime-long"),
    pytest.param(GEN, {"spec.json": {**SPEC, "segments": [
        {"start": 0.0, "end": 20.0, "regime": "alert", "x" * 300: 1}]}},
                 "segment 0 needs exactly", id="spec-segment-extra-key-long"),
    # sample grids past a numpy index, counted before any allocation
    pytest.param(GEN, {"spec.json": {"duration": 1e300, "segments": [
        {"start": 0.0, "end": 1e300, "regime": "alert"}]}},
                 "duration 1e+300 at sample_rate 10.0 needs 1e+301 frames",
                 id="spec-grid-past-index"),
    pytest.param(GEN, {"spec.json": {"duration": 1e300, "sample_rate": 1e300, "segments": [
        {"start": 0.0, "end": 1e300, "regime": "alert"}]}},
                 "duration 1e+300 at sample_rate 1e+300 needs inf frames",
                 id="spec-grid-infinite"),
    # grids whose points float64 rounds together: 0.1 s frames and 10 s window
    # starts where float64 spaces values 16 s apart
    pytest.param(GEN, {"spec.json": {"duration": 1e17, "segments": [
        {"start": 99999999999999900, "end": 1e17, "regime": "alert"}]}},
                 "does not increase past", id="spec-grid-repeats"),
    pytest.param(RUN, {"c.json": {}, "t.csv": ("t,swa\n" + "".join(
        f"{1e17 + 16.0 * i!r},1.0\n" for i in range(40))).encode()},
                 "does not increase past", id="trace-window-starts-repeat"),
    pytest.param(["rules", "check", "bad.rules"], {"bad.rules": (
        "rule r1: when instance(?x, " + "C" * 300
        + ") then classify(?x, SteeringWheelMeasurmentFatigue_Low)\n").encode()},
                 "unknown class", id="pack-unknown-class-long"),
    pytest.param(["rules", "check", "bad.rules"], {"bad.rules": b"rule r1 " + b"x" * 300},
                 "expected ':', found", id="pack-token-long"),
    pytest.param(["rules", "check", "bad.rules"], {"bad.rules": 2 * (
        b"rule " + b"r" * 300 + b": when instance(?x, SteeringWheelMeasurementFatigue) "
        b"then classify(?x, SteeringWheelMeasurmentFatigue_Low)\n")},
                 "duplicate rule name", id="pack-duplicate-name-long"),
    pytest.param(RUN, {"c.json": {"scheme_path": "s.json"}, "s.json": {"max_swa_abs": [
        {"label": "a" * 300, "lower": 0.0, "upper": None},
        {"label": "b" * 300, "lower": 5.0, "upper": None}]}},
                 "max_swa_abs: bands", id="scheme-band-labels-long"),
    pytest.param(DUMP, {"snap.json": {**SNAPSHOT, "memberships": [["a" * 300]]}},
                 "snapshot membership", id="snapshot-membership-shape-long"),
    pytest.param(DUMP, {"snap.json": {**SNAPSHOT, "memberships": [["a", "B" * 300]]}},
                 "unknown class", id="snapshot-membership-class-long"),
    pytest.param(DUMP, {"snap.json": {**SNAPSHOT, "taxonomy": {
        "classes": ["A"], "subclass_of": {"Z" * 300: ["A"]}}}},
                 "taxonomy invalid: unknown class", id="snapshot-taxonomy-class-long"),
    pytest.param(RUN, {"c.json": {"fusion_weights": {"w" * 300: "x"}}},
                 "config fusion_weights[", id="config-fusion-weights-key-long"),
    pytest.param(RUN, {"c.json": {"fusion_weights": {"w" * 300: -1.0}}},
                 "must be >= 0", id="config-fusion-weight-negative-key-long"),
    # the sum of these weights overflows float64, which fusion must not meet
    pytest.param(RUN, {"c.json": {"fusion_weights": {"A": 1e308, "B": 1e308}}},
                 "fusion_weights", id="config-fusion-weights-sum-overflows"),
])
def test_malformed_input_exits_1_naming_the_field(tmp_path, monkeypatch, capsys,
                                                  argv, files, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("t,swa\n0.0,1.0\n0.1,1.0\n")
    for name, content in files.items():
        (tmp_path / name).write_bytes(
            content if isinstance(content, bytes) else json.dumps(content).encode())
    assert main(argv) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    # outside text is quoted cut short, however long it is
    assert errors and named in errors[0] and len(errors[0]) < 200


BOM = "\ufeff".encode()


@pytest.mark.parametrize("files", [
    pytest.param({"t.csv": BOM + b"t,swa\n0.0,1.0\n0.1,2.0\n"}, id="csv-bom"),
    pytest.param({"t.csv": b"t,swa\r0.0,1.0\r0.1,2.0\r"}, id="csv-bare-cr"),
    pytest.param({"t.csv": b"t,swa\r\n0.0,1.0\r\n0.1,2.0"}, id="csv-crlf"),
    pytest.param({"t.jsonl": BOM + b'{"t": 0.0, "swa": 1.0}\n{"t": 0.1, "swa": 2.0}\n'},
                 id="jsonl-bom"),
    pytest.param({"c.json": BOM + b'{"window_length_s": 60.0}'}, id="config-bom"),
])
def test_byte_order_mark_and_line_ends_read_as_plain_input(tmp_path, monkeypatch, capsys,
                                                           files):
    monkeypatch.chdir(tmp_path)
    plain = {"t.csv": b"t,swa\n0.0,1.0\n0.1,2.0\n",
             "t.jsonl": b'{"t": 0.0, "swa": 1.0}\n{"t": 0.1, "swa": 2.0}\n',
             "c.json": b'{"window_length_s": 60.0}'}
    trace = "t.jsonl" if "t.jsonl" in files else "t.csv"
    reports = []
    for contents in (plain, {**plain, **files}):
        for name, content in contents.items():
            (tmp_path / name).write_bytes(content)
        assert main(["run", trace, "--config", "c.json", "--out", "r.jsonl"]) == 0
        reports.append((tmp_path / "r.jsonl").read_bytes())
    assert reports[0] == reports[1] and reports[0]


# -- any value of another type: exit 0 or 1, never 2 -------------------------

def json_positions(doc, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_positions(value, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Each JSON input format's stock document, and the command reading it."""
    root = tmp_path_factory.mktemp("documents")
    trace = root / "drive.csv"
    trace.write_bytes(serialize_trace(
        generate_scenario(simple_spec("drowsy", duration=70.0, seed=2)), "csv"))
    assert main(["run", str(trace), "--snapshot-dir", str(root / "snaps"),
                 "--out", str(root / "r.jsonl")]) == 0
    run = ["run", str(trace), "--config", "c.json", "--out", "r.jsonl"]
    return {
        "config": (json.loads(default_config_text()), "c.json", run),
        "scheme": (STOCK_SCHEME, "s.json", run),
        "spec": ({**SPEC, "segments": [{"start": 0.0, "end": 10.0, "regime": "alert"},
                                       {"start": 10.0, "end": 20.0, "regime": "drowsy"}]},
                 "spec.json", GEN),
        "snapshot": (json.loads((root / "snaps" / "window_00000.snapshot.json").read_text()),
                     "snap.json", DUMP),
    }


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_value_of_another_type_never_exits_2(tmp_path, monkeypatch, capsys,
                                                 documents, data):
    monkeypatch.chdir(tmp_path)  # a snapshot_dir string is a relative path
    kind = data.draw(st.sampled_from(sorted(documents)))
    doc, name, argv = documents[kind]
    path = data.draw(st.sampled_from(list(json_positions(doc))))
    value = data.draw(st.sampled_from(["x", True, None, [1], {"k": 1}, float("nan"), 10**400]))
    (tmp_path / name).write_text(json.dumps(replaced(doc, path, value)))
    if kind == "scheme":
        (tmp_path / "c.json").write_text(json.dumps({"scheme_path": "s.json"}))
    assert main(argv) in (0, 1), capsys.readouterr().err
