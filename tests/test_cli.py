import json
import warnings

import pytest

from importlib import resources

from fatiguekit import generate_scenario, save_snapshot, simple_spec
from fatiguekit.cli import main
from fatiguekit.kstore import FactBase, KnowledgeSnapshot, assert_fact, default_taxonomy
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

    def test_broken_pack(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("rule r1: when instance(?x, NoSuchClass) "
                       "then classify(?x, SteeringWheelMeasurmentFatigue_Low)\n")
        assert main(["rules", "check", str(bad)]) == 1
        assert "NoSuchClass" in capsys.readouterr().err


class TestSnapshotDump:
    def test_dump(self, tmp_path, capsys):
        fb = FactBase(taxonomy=default_taxonomy(), timestamp=60.0)
        fb = assert_fact(fb, "steering@0.0", "SteeringWheelMeasurementFatigue")
        snap = KnowledgeSnapshot(factbase=fb, trace_id="demo", window=(0.0, 60.0))
        path = tmp_path / "w.snapshot.json"
        path.write_bytes(save_snapshot(snap))
        assert main(["snapshot", "dump", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        meta = json.loads(out[0])
        assert meta["trace_id"] == "demo"
        assert meta["window"] == [0.0, 60.0]
        assert any(line.startswith("steering@0.0:") for line in out[1:])

    def test_dump_garbage(self, tmp_path, capsys):
        path = tmp_path / "w.snapshot.json"
        path.write_text("{")
        assert main(["snapshot", "dump", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
