"""Acceptance gate: nine go/no-go checks over the whole package.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or in captured output on failure). The checks are
deliberately independent of the unit suites: tables, boundaries, and random
batches are reconstructed locally against the oracles module.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from fatiguekit import (
    ApEnParams,
    DriverProfile,
    DuplicateRuleNameError,
    FactBase,
    FatigueLevel,
    FeatureVector,
    FusionWeights,
    KnowledgeSnapshot,
    Rule,
    RulePack,
    RuleSyntaxError,
    Taxonomy,
    UnknownClassError,
    Window,
    approximate_entropy,
    assert_fact,
    default_scheme,
    default_taxonomy,
    eye_features,
    fuse,
    infer,
    load_config,
    load_snapshot,
    load_stock_pack,
    parse_rules,
    qualify,
    save_snapshot,
)
from fatiguekit.cli import main as cli_main
from fatiguekit.signals import SignalFrame, Trace

from oracles import apen_oracle, chaining_oracle


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {number} — {label}")
        raise
    print(f"PASS: criterion {number} — {label}")


# ---------------------------------------------------------------------------
# 1. Exact reproduction of the six-row classification table, both packs.

STEERING = "SteeringWheelMeasurementFatigue"
YAW = "YawAngleMeasurementFatigue"

# (anchor class, corrected-pack inputs, as-printed inputs, output class)
TABLE = [
    (STEERING,
     ("MeanSWA_Small", "AngularVelocity_Normal", "FrequencyCorrection_Low",
      "SWA_Small"),
     ("MeanSWA_Small", "AngularVelocity_Normal", "FrequencyCorrection_Low",
      "SWA_Small"),
     "SteeringWheelMeasurmentFatigue_Low"),
    (STEERING,
     ("MeanSWA_Large", "AngularVelocity_High", "FrequencyCorrection_Normal",
      "SWA_Large"),
     ("MeanSWA_Large", "AngularVelocity_High", "FrequencyCorrection_Normal",
      "SWA_Large"),
     "SteeringWheelMeasurmentFatigue_Medium"),
    (STEERING,
     ("MeanSWA_Extreme", "AngularVelocity_High", "FrequencyCorrection_High",
      "SWA_Extreme"),
     ("MeanSWA_Extreme", "AngularVelocity_High", "FrequencyCorrection_High",
      "SWA_Extreme"),
     "SteeringWheelMeasurmentFatigue_High"),
    (YAW,
     ("MeanYaw_Large", "VarYaw_Large", "AccelerationYawRate_Medium",
      "Yaw_Large"),
     ("MeanSWA_Large", "VarYaw_Large", "AccelerationYawRate_Medium",
      "Yaw_Large"),
     "YawAngleMeasurmentFatigue_Medium"),
    (YAW,
     ("MeanYaw_Small", "VarYaw_Small", "AccelerationYawRate_Low",
      "Yaw_Small"),
     ("MeanSWA_Small", "VarYaw_Small", "AccelerationYawRate_Low",
      "Yaw_Small"),
     "YawAngleMeasurmentFatigue_Low"),
    (YAW,
     ("MeanYaw_Small", "VarYaw_Extreme", "AccelerationYawRate_High",
      "Yaw_Extreme"),
     ("MeanSWA_Small", "VarYaw_Extreme", "AccelerationYawRate_High",
      "Yaw_Extreme"),
     "YawAngleMeasurmentFatigue_High"),
]


def test_criterion_1_table_reproduction():
    with criterion(1, "six-row table reproduced exactly under both packs"):
        packs = {"corrected": load_stock_pack("corrected"),
                 "verbatim": load_stock_pack("verbatim")}
        taxonomy = default_taxonomy()
        started = time.perf_counter()
        for flavor, pack in packs.items():
            for anchor_cls, corrected_in, verbatim_in, out_cls in TABLE:
                inputs = corrected_in if flavor == "corrected" else verbatim_in
                fb = FactBase(taxonomy=taxonomy)
                fb = assert_fact(fb, "anchor", anchor_cls)
                for i, cls in enumerate(inputs):
                    fb = assert_fact(fb, f"obs{i}", cls)
                before = fb.memberships
                after, log = infer(fb, pack)
                derived = after.memberships - before
                assert derived == {("anchor", out_cls)}, (flavor, out_cls, derived)
                assert len(log) == 1
        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 2. Band boundaries under the lower-inclusive / upper-exclusive convention.

def _label_for(feature: str, value: float, sex: str = "unspecified") -> str:
    fv = FeatureVector(window_start=0.0, window_end=60.0, **{feature: value})
    facts = qualify(fv, default_scheme(), DriverProfile(id="d", sex=sex))
    assert len(facts) == 1
    return facts[0].class_label


def test_criterion_2_threshold_boundaries():
    with criterion(2, "band boundary suite is exact at the edges"):
        swa_cases = [(5.999, "SWA_Small"), (6.0, "SWA_Large"),
                     (9.999, "SWA_Large"), (10.0, "SWA_Extreme"),
                     (10.001, "SWA_Extreme")]
        for value, expected in swa_cases:
            assert _label_for("max_swa_abs", value) == expected, value

        assert _label_for("mean_yaw_abs", 0.999) == "Yaw_Small"
        assert _label_for("mean_yaw_abs", 1.0) == "Yaw_Large"

        assert _label_for("swa_angular_velocity_max", 5.999) == "AngularVelocity_Normal"
        assert _label_for("swa_angular_velocity_max", 6.0) == "AngularVelocity_High"

        assert _label_for("yaw_accel_max", 2.499) == "AccelerationYawRate_Medium"
        assert _label_for("yaw_accel_max", 2.5) == "AccelerationYawRate_High"

        male_cases = [(49.999, "BPM_Atypical"), (50.0, "BPM_Drowsy"),
                      (64.999, "BPM_Drowsy"), (65.0, "BPM_Intermediate"),
                      (74.999, "BPM_Intermediate"), (75.0, "BPM_Normal"),
                      (99.999, "BPM_Normal"), (100.0, "BPM_Atypical")]
        for value, expected in male_cases:
            assert _label_for("mean_bpm", value, "male") == expected, value

        female_cases = [(44.999, "BPM_Atypical"), (45.0, "BPM_Drowsy"),
                        (62.999, "BPM_Drowsy"), (63.0, "BPM_Intermediate"),
                        (69.999, "BPM_Intermediate"), (70.0, "BPM_Normal"),
                        (94.999, "BPM_Normal"), (95.0, "BPM_Atypical")]
        for value, expected in female_cases:
            assert _label_for("mean_bpm", value, "female") == expected, value


# ---------------------------------------------------------------------------
# 3. Entropy statistic equals a brute-force oracle.

def test_criterion_3_apen_oracle_equivalence():
    with criterion(3, "entropy matches the brute-force oracle on 200 batches"):
        rng = np.random.default_rng(987123)
        for _ in range(200):
            n = int(rng.integers(8, 61))
            m = int(rng.integers(1, 3))
            xs = rng.normal(0.0, rng.uniform(0.5, 4.0), size=n)
            sigma = float(np.std(xs))
            r = float(rng.uniform(0.1, 0.5)) * sigma
            got = approximate_entropy(xs, ApEnParams(m=m, r=r))
            want = apen_oracle(xs, m, r)
            assert abs(got - want) <= 1e-9

        for const in (0.0, -3.5, 42.0):
            xs = [const] * 30
            assert approximate_entropy(xs, ApEnParams(m=2, r=0.3)) == 0.0
            assert approximate_entropy(xs, ApEnParams(m=1)) == 0.0


# ---------------------------------------------------------------------------
# 4. Eyelid-closure fraction and blink/micro-sleep segmentation.

def _closure_window(times, closures):
    frames = tuple(SignalFrame(t=t, eye_closure=c)
                   for t, c in zip(times, closures))
    return Window(start_t=times[0], end_t=times[-1] + 1e-6, frames=Trace.from_frames(frames))


def test_criterion_4_perclos_and_blinks():
    with criterion(4, "closure fraction exact; pulse trains segment correctly"):
        times = [float(t) for t in range(181)]            # spans 180 s
        closures = [1.0 if t < 36 else 0.0 for t in range(181)]
        fv = eye_features(_closure_window(times, closures))
        assert abs(fv["perclos80"] - 0.200) <= 1e-9

        dt = 0.1
        times = [round(i * dt, 10) for i in range(31)]    # 3 s at 10 Hz
        w_len = times[-1] + 1e-6 - times[0]

        short = [1.0 if 1.0 <= t <= 1.25 else 0.0 for t in times]
        fv = eye_features(_closure_window(times, short))
        blinks = round(fv["blink_freq"] * w_len / 60.0)
        assert (blinks, fv["microsleep_count"]) == (1, 0)

        long_pulse = [1.0 if 1.0 <= t <= 1.75 else 0.0 for t in times]
        fv = eye_features(_closure_window(times, long_pulse))
        blinks = round(fv["blink_freq"] * w_len / 60.0)
        assert (blinks, fv["microsleep_count"]) == (0, 1)


# ---------------------------------------------------------------------------
# 5. Forward chaining is confluent and terminates inside the size bound.

def _random_universe(rng):
    n_classes = int(rng.integers(6, 13))
    classes = [f"C{i}" for i in range(n_classes)]
    parents = {}
    for i, cls in enumerate(classes):
        if i and rng.random() < 0.5:
            k = int(rng.integers(1, min(i, 2) + 1))
            chosen = rng.choice(i, size=k, replace=False)
            parents[cls] = tuple(classes[int(j)] for j in chosen)
    taxonomy = Taxonomy(classes=frozenset(classes), parents=parents)

    individuals = [f"i{k}" for k in range(int(rng.integers(2, 6)))]
    memberships = set()
    for ind in individuals:
        for _ in range(int(rng.integers(1, 4))):
            memberships.add((ind, classes[int(rng.integers(n_classes))]))
    fb = FactBase(taxonomy=taxonomy, memberships=frozenset(memberships))

    rules = []
    for r in range(int(rng.integers(3, 9))):
        conditions = tuple(classes[int(j)] for j in
                           rng.choice(n_classes, size=int(rng.integers(0, 4)),
                                      replace=False))
        rules.append(Rule(
            name=f"r{r}", anchor_var="x",
            anchor_class=classes[int(rng.integers(n_classes))],
            conditions=conditions,
            conclusion_class=classes[int(rng.integers(n_classes))]))
    return taxonomy, fb, RulePack(rules=tuple(rules)), individuals


def test_criterion_5_chaining_confluence():
    with criterion(5, "fixpoints agree across orderings and match the oracle"):
        rng = np.random.default_rng(55801)
        for _ in range(50):
            taxonomy, fb, pack, individuals = _random_universe(rng)

            reference, log = infer(fb, pack)
            bound = len(taxonomy.classes) * len(individuals)
            if log:
                assert max(f.iteration for f in log) <= bound

            oracle_rules = [(r.anchor_class, r.conditions, r.conclusion_class)
                            for r in pack.rules]
            want = chaining_oracle(dict(taxonomy.parents),
                                   set(fb.memberships), oracle_rules)
            assert reference.memberships == want

            for seed in range(10):
                order = np.random.default_rng(seed).permutation(len(pack.rules))
                shuffled, _ = infer(fb, RulePack(rules=tuple(pack.rules[i] for i in order)))
                assert shuffled.memberships == reference.memberships


# ---------------------------------------------------------------------------
# 6. Whole-pipeline scenario behavior, determinism, and runtime.

def test_criterion_6_end_to_end_scenarios(tmp_path):
    with criterion(6, "drowsy trace alerts, calm trace stays quiet, runs repeat"):
        drowsy_spec = tmp_path / "drowsy.json"
        drowsy_spec.write_text(json.dumps({
            "duration": 600.0, "sample_rate": 10.0, "seed": 0,
            "segments": [{"start": 0.0, "end": 600.0, "regime": "drowsy"}]}))
        trace = tmp_path / "drowsy.csv"
        assert cli_main(["gen", str(drowsy_spec), "--out", str(trace)]) == 0

        report_a = tmp_path / "a.jsonl"
        started = time.perf_counter()
        assert cli_main(["run", str(trace), "--out", str(report_a)]) == 0
        assert time.perf_counter() - started < 10.0

        report_b = tmp_path / "b.jsonl"
        assert cli_main(["run", str(trace), "--out", str(report_b)]) == 0
        assert report_a.read_bytes() == report_b.read_bytes()

        records = [json.loads(line) for line in
                   report_a.read_text().splitlines()]
        steady = [r for r in records if r["window"][1] <= 600.0]
        highs = sum(1 for r in steady if r["overall"] == "High")
        assert steady and highs / len(steady) >= 0.8
        assert sum(1 for r in records if r["alert"]) >= 1

        calm_spec = tmp_path / "calm.json"
        calm_spec.write_text(json.dumps({
            "duration": 600.0, "sample_rate": 10.0, "seed": 0,
            "segments": [{"start": 0.0, "end": 600.0, "regime": "alert"}]}))
        calm_trace = tmp_path / "calm.csv"
        assert cli_main(["gen", str(calm_spec), "--out", str(calm_trace)]) == 0
        calm_report = tmp_path / "calm.jsonl"
        assert cli_main(["run", str(calm_trace), "--out", str(calm_report)]) == 0
        calm_records = [json.loads(line) for line in
                        calm_report.read_text().splitlines()]
        assert all(not r["alert"] for r in calm_records)
        present = [r["overall"] for r in calm_records if r["overall"] is not None]
        assert present and all(level == "Low" for level in present)


# ---------------------------------------------------------------------------
# 7. Snapshot files survive a save → load → save cycle byte for byte.

def test_criterion_7_snapshot_round_trip():
    with criterion(7, "100 randomized stores round-trip byte-identically"):
        rng = np.random.default_rng(770331)
        for case in range(100):
            taxonomy, fb, _, _ = _random_universe(rng)
            inds = sorted({i for i, _ in fb.memberships})
            props = set()
            for ind in inds:
                for p in range(int(rng.integers(0, 3))):
                    props.add((ind, f"has_p{p}", float(rng.normal())))
            fb = FactBase(taxonomy=taxonomy, memberships=fb.memberships,
                          data_properties=frozenset(props),
                          timestamp=float(rng.uniform(0, 1e4)))
            snap = KnowledgeSnapshot(
                factbase=fb, trace_id=f"t{case}",
                window=(float(case), float(case + 60)),
                meta_extra={"note": f"case {case}"} if case % 3 == 0 else {})
            first = save_snapshot(snap)
            second = save_snapshot(load_snapshot(first))
            assert first == second


# ---------------------------------------------------------------------------
# 8. Parser diagnostics: designated errors with exact positions.

BASE_RULES = (
    "rule r1: when instance(?x, SteeringWheelMeasurementFatigue), "
    "exists(MeanSWA_Small) then classify(?x, SteeringWheelMeasurmentFatigue_Low)\n"
    "rule r2: when instance(?y, YawAngleMeasurementFatigue), "
    "exists(Yaw_Small) then classify(?y, YawAngleMeasurmentFatigue_Low)\n"
)


def _pos(text: str, needle: str, occurrence: int = 1) -> tuple[int, int]:
    """1-based (line, col) of the Nth occurrence of needle."""
    index = -1
    for _ in range(occurrence):
        index = text.index(needle, index + 1)
    line = text.count("\n", 0, index) + 1
    col = index - (text.rfind("\n", 0, index) + 1) + 1
    return line, col


def _delete_nth(text: str, token: str, occurrence: int) -> str:
    pieces = text.split(token)
    return token.join(pieces[:occurrence]) + token.join(pieces[occurrence:])


def test_criterion_8_parser_mutations():
    with criterion(8, "shipped packs parse; 20 mutations diagnose correctly"):
        for flavor in ("corrected", "verbatim"):
            assert len(load_stock_pack(flavor).rules) == 6
        assert len(parse_rules(BASE_RULES).rules) == 2

        checks = []

        def deleted(token: str, occurrence: int, lands_on: str,
                    lands_occurrence: int = 1):
            text = _delete_nth(BASE_RULES, token, occurrence)
            line, col = _pos(text, lands_on, lands_occurrence)
            checks.append((f"deleted {token.strip() or token!r}", text,
                           RuleSyntaxError, line, col))

        # -- ten deleted-token mutations ----------------------------------
        deleted("when ", 1, "instance")          # r1 loses 'when'
        deleted("when ", 2, "instance", 2)       # r2 loses 'when'
        deleted(" then", 1, "classify")          # r1 loses 'then'
        deleted(" then", 2, "classify", 2)       # r2 loses 'then'
        deleted(":", 1, "when")                  # r1 loses the header colon
        deleted("(?x, SteeringWheelMeasurementFatigue)", 1, ",")  # anchor args gone
        deleted("?y, ", 2, "YawAngleMeasurmentFatigue_Low")       # classify var gone
        deleted("r1", 1, ":")                    # rule name missing
        deleted(" classify", 2, "(", 6)          # r2's classify keyword gone
        deleted("exists", 1, "(", 2)             # r1's exists keyword gone

        # -- six unknown-class mutations -----------------------------------
        unknowns = [
            ("MeanSWA_Small", "MeanSWA_Smol"),
            ("Yaw_Small", "Yaw_Smol"),
            ("SteeringWheelMeasurementFatigue", "SteeringWheelFatigues"),
            ("YawAngleMeasurementFatigue", "YawAngleFatigues"),
            ("SteeringWheelMeasurmentFatigue_Low",
             "SteeringWheelMeasurmentFatigue_Lowest"),
            ("YawAngleMeasurmentFatigue_Low", "YawAngleMeasurmentFatigue_None"),
        ]
        for original, bad in unknowns:
            text = BASE_RULES.replace(original, bad)
            line, col = _pos(text, bad)
            checks.append((f"unknown class {bad}", text,
                           UnknownClassError, line, col))

        # -- four duplicate-name mutations ---------------------------------
        dup1 = BASE_RULES.replace("rule r2:", "rule r1:")
        checks.append(("duplicate name r1", dup1, DuplicateRuleNameError,
                       2, None))
        dup2 = BASE_RULES + BASE_RULES.splitlines(True)[0]
        checks.append(("re-appended r1", dup2, DuplicateRuleNameError,
                       3, None))
        dup3 = BASE_RULES.replace("rule r1:", "rule same:").replace(
            "rule r2:", "rule same:")
        checks.append(("both named same", dup3, DuplicateRuleNameError,
                       2, None))
        dup4 = BASE_RULES + BASE_RULES.splitlines(True)[1]
        checks.append(("re-appended r2", dup4, DuplicateRuleNameError,
                       3, None))

        assert len(checks) == 20
        for label, text, exc_type, line, col in checks:
            try:
                parse_rules(text)
            except exc_type as e:
                assert e.line == line, (label, e.line, line)
                if col is not None:
                    assert e.col == col, (label, e.col, col)
            else:
                raise AssertionError(f"mutation not diagnosed: {label}")


# ---------------------------------------------------------------------------
# 9. Fusion is scale-invariant in the weights and honors unanimity.

def test_criterion_9_fusion_properties():
    with criterion(9, "1000 weight scalings never move the answer; unanimity holds"):
        rng = np.random.default_rng(900412)
        cutoffs = load_config().fusion_cutoffs
        all_levels = list(FatigueLevel)
        for _ in range(1000):
            n_sources = int(rng.integers(1, 5))
            levels = {f"S{k}": all_levels[int(rng.integers(3))]
                      for k in range(n_sources)}
            weights = {name: float(rng.uniform(0.05, 10.0)) for name in levels}
            scale = float(rng.uniform(0.01, 100.0))
            base = fuse(levels, FusionWeights(weights=weights), cutoffs)
            scaled = fuse(levels, FusionWeights(
                weights={k: v * scale for k, v in weights.items()}), cutoffs)
            assert scaled is base

            unanimous = all_levels[int(rng.integers(3))]
            same = {name: unanimous for name in levels}
            assert fuse(same, FusionWeights(weights=weights), cutoffs) is unanimous
