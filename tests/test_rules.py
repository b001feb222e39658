import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatiguekit import (
    AmbiguityError,
    ArgumentError,
    DuplicateRuleNameError,
    EmptyInputError,
    FactBase,
    FatigueLevel,
    FusionWeights,
    RuleSyntaxError,
    Taxonomy,
    UnknownClassError,
    assert_fact,
    default_taxonomy,
    fuse,
    infer,
    load_stock_pack,
    parse_rules,
    read_fatigue,
)

STEERING_ANCHOR = "SteeringWheelMeasurementFatigue"
YAW_ANCHOR = "YawAngleMeasurementFatigue"

# Six rule-table rows as (anchor class, inputs under the corrected pack,
# inputs under the as-printed pack, expected conclusion).
TABLE_ROWS = [
    (STEERING_ANCHOR,
     ("MeanSWA_Small", "AngularVelocity_Normal", "FrequencyCorrection_Low", "SWA_Small"),
     ("MeanSWA_Small", "AngularVelocity_Normal", "FrequencyCorrection_Low", "SWA_Small"),
     "SteeringWheelMeasurmentFatigue_Low"),
    (STEERING_ANCHOR,
     ("MeanSWA_Large", "AngularVelocity_High", "FrequencyCorrection_Normal", "SWA_Large"),
     ("MeanSWA_Large", "AngularVelocity_High", "FrequencyCorrection_Normal", "SWA_Large"),
     "SteeringWheelMeasurmentFatigue_Medium"),
    (STEERING_ANCHOR,
     ("MeanSWA_Extreme", "AngularVelocity_High", "FrequencyCorrection_High", "SWA_Extreme"),
     ("MeanSWA_Extreme", "AngularVelocity_High", "FrequencyCorrection_High", "SWA_Extreme"),
     "SteeringWheelMeasurmentFatigue_High"),
    (YAW_ANCHOR,
     ("MeanYaw_Large", "VarYaw_Large", "AccelerationYawRate_Medium", "Yaw_Large"),
     ("MeanSWA_Large", "VarYaw_Large", "AccelerationYawRate_Medium", "Yaw_Large"),
     "YawAngleMeasurmentFatigue_Medium"),
    (YAW_ANCHOR,
     ("MeanYaw_Small", "VarYaw_Small", "AccelerationYawRate_Low", "Yaw_Small"),
     ("MeanSWA_Small", "VarYaw_Small", "AccelerationYawRate_Low", "Yaw_Small"),
     "YawAngleMeasurmentFatigue_Low"),
    (YAW_ANCHOR,
     ("MeanYaw_Small", "VarYaw_Extreme", "AccelerationYawRate_High", "Yaw_Extreme"),
     ("MeanSWA_Small", "VarYaw_Extreme", "AccelerationYawRate_High", "Yaw_Extreme"),
     "YawAngleMeasurmentFatigue_High"),
]

LEVEL_CLASSES = {
    "SteeringWheelMeasurmentFatigue_Low",
    "SteeringWheelMeasurmentFatigue_Medium",
    "SteeringWheelMeasurmentFatigue_High",
    "YawAngleMeasurmentFatigue_Low",
    "YawAngleMeasurmentFatigue_Medium",
    "YawAngleMeasurmentFatigue_High",
}


def row_factbase(anchor_class: str, inputs) -> FactBase:
    fb = FactBase(taxonomy=default_taxonomy())
    fb = assert_fact(fb, "f", anchor_class)
    for i, cls in enumerate(inputs):
        fb = assert_fact(fb, f"m{i}", cls)
    return fb


TINY = Taxonomy(
    classes=frozenset({"A", "B", "C", "D"}),
    parents={"B": ("A",)},
)


class TestParser:
    def test_shipped_packs(self):
        for variant in ("corrected", "verbatim"):
            pack = load_stock_pack(variant)
            assert len(pack.rules) == 6
            assert pack.names() == ("steering_low", "steering_medium",
                                    "steering_high", "yaw_medium", "yaw_low",
                                    "yaw_high")

    def test_minimal_rule(self):
        pack = parse_rules(
            "rule r1: when instance(?f, A), exists(B) then classify(?f, C)", TINY)
        (rule,) = pack.rules
        assert rule.anchor_var == "?f"
        assert rule.anchor_class == "A"
        assert rule.conditions == ("B",)
        assert rule.conclusion_class == "C"

    def test_comments_and_whitespace(self):
        text = """
        # leading comment
        rule r1:   # trailing comment
            when instance(?x, A) ,
                 exists(B)        # another
            then classify(?x, C)
        """
        pack = parse_rules(text, TINY)
        assert len(pack.rules) == 1

    def test_missing_then(self):
        text = "rule r1: when instance(?f, A) classify(?f, C)"
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules(text, TINY)
        assert exc.value.line == 1
        assert exc.value.col == 31  # the 'classify' token

    def test_missing_colon(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules("rule r1 when instance(?f, A) then classify(?f, C)", TINY)
        assert exc.value.line == 1
        assert exc.value.col == 9

    def test_truncated_input(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules("rule r1: when instance(?f, A) then", TINY)
        assert "end of input" in str(exc.value)

    def test_unknown_class_position(self):
        text = "rule r1: when instance(?f, A), exists(Ghost) then classify(?f, C)"
        with pytest.raises(UnknownClassError) as exc:
            parse_rules(text, TINY)
        assert exc.value.class_name == "Ghost"
        assert exc.value.rule == "r1"
        assert exc.value.line == 1
        assert exc.value.col == 39

    def test_duplicate_rule_name(self):
        text = ("rule r1: when instance(?f, A) then classify(?f, C)\n"
                "rule r1: when instance(?f, A) then classify(?f, D)")
        with pytest.raises(DuplicateRuleNameError) as exc:
            parse_rules(text, TINY)
        assert exc.value.name == "r1"
        assert exc.value.line == 2

    def test_two_instance_atoms(self):
        text = ("rule r1: when instance(?f, A), instance(?g, B) "
                "then classify(?f, C)")
        with pytest.raises(RuleSyntaxError):
            parse_rules(text, TINY)

    def test_no_instance_atom(self):
        text = "rule r1: when exists(B) then classify(?f, C)"
        with pytest.raises(RuleSyntaxError):
            parse_rules(text, TINY)

    def test_classify_var_must_match_anchor(self):
        text = "rule r1: when instance(?f, A) then classify(?g, C)"
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules(text, TINY)
        assert "?g" in str(exc.value)

    def test_keyword_not_a_name(self):
        text = "rule rule: when instance(?f, A) then classify(?f, C)"
        with pytest.raises(RuleSyntaxError):
            parse_rules(text, TINY)

    def test_var_requires_question_mark(self):
        text = "rule r1: when instance(f, A) then classify(f, C)"
        with pytest.raises(RuleSyntaxError):
            parse_rules(text, TINY)

    def test_garbage_after_rules(self):
        text = "rule r1: when instance(?f, A) then classify(?f, C)\n@@@"
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules(text, TINY)
        assert exc.value.line == 2

    def test_unknown_stock_variant(self):
        with pytest.raises(ArgumentError):
            load_stock_pack("experimental")


class TestInference:
    @pytest.mark.parametrize("row", range(6))
    def test_table_rows_corrected(self, row):
        anchor_cls, corrected_inputs, _, conclusion = TABLE_ROWS[row]
        fb = row_factbase(anchor_cls, corrected_inputs)
        out, log = infer(fb, load_stock_pack("corrected"))
        derived = out.memberships - fb.memberships
        assert derived == {("f", conclusion)}
        assert len(log) == 1
        assert log[0].individual == "f"

    @pytest.mark.parametrize("row", range(6))
    def test_table_rows_verbatim(self, row):
        anchor_cls, _, verbatim_inputs, conclusion = TABLE_ROWS[row]
        fb = row_factbase(anchor_cls, verbatim_inputs)
        out, _ = infer(fb, load_stock_pack("verbatim"))
        derived = out.memberships - fb.memberships
        # as printed, the yaw rows share steering inputs, so a row can
        # legitimately light up a second rule when inputs overlap; the
        # designated conclusion must always be present and no competing
        # level may appear for its own source
        assert ("f", conclusion) in derived
        sources = {cls.split("_")[0] for _, cls in derived}
        for _, cls in derived:
            assert cls in LEVEL_CLASSES
        assert len(sources) == len(derived)

    def test_empty_factbase(self):
        fb = FactBase(taxonomy=default_taxonomy())
        out, log = infer(fb, load_stock_pack())
        assert out.memberships == frozenset()
        assert log == []

    def test_no_anchor_individual_no_firing(self):
        fb = FactBase(taxonomy=default_taxonomy())
        for i, cls in enumerate(TABLE_ROWS[0][1]):
            fb = assert_fact(fb, f"m{i}", cls)
        out, log = infer(fb, load_stock_pack())
        assert out.memberships == fb.memberships
        assert log == []

    def test_chained_rules(self):
        tax = Taxonomy(
            classes=frozenset({"Seed", "Stage1", "Stage2", "Anchor"}),
            parents={})
        text = """
        rule first: when instance(?x, Anchor), exists(Seed) then classify(?x, Stage1)
        rule second: when instance(?x, Anchor), exists(Stage1) then classify(?x, Stage2)
        """
        pack = parse_rules(text, tax)
        fb = FactBase(taxonomy=tax)
        fb = assert_fact(fb, "a", "Anchor")
        fb = assert_fact(fb, "s", "Seed")
        out, log = infer(fb, pack)
        assert ("a", "Stage2") in out.memberships
        by_rule = {f.rule: f.iteration for f in log}
        assert by_rule["first"] < by_rule["second"]

    def test_conditions_read_subclass_closed(self):
        tax = Taxonomy(
            classes=frozenset({"Broad", "Narrow", "Anchor", "Out"}),
            parents={"Narrow": ("Broad",)})
        pack = parse_rules(
            "rule r: when instance(?x, Anchor), exists(Broad) then classify(?x, Out)",
            tax)
        fb = FactBase(taxonomy=tax)
        fb = assert_fact(fb, "a", "Anchor")
        fb = assert_fact(fb, "n", "Narrow")  # satisfies exists(Broad) via subclass
        out, _ = infer(fb, pack)
        assert ("a", "Out") in out.memberships

    def test_monotone(self):
        anchor_cls, inputs, _, _ = TABLE_ROWS[2]
        fb = row_factbase(anchor_cls, inputs)
        out, _ = infer(fb, load_stock_pack())
        assert fb.memberships <= out.memberships

    def test_order_independence_on_stock_pack(self):
        anchor_cls, inputs, _, _ = TABLE_ROWS[2]
        fb = row_factbase(anchor_cls, inputs)
        pack = load_stock_pack()
        baseline, _ = infer(fb, pack)
        for seed in range(10):
            shuffled, _ = infer(fb, pack, order_seed=seed)
            assert shuffled.memberships == baseline.memberships


class TestReadFatigue:
    def test_row_three_verdict(self):
        anchor_cls, inputs, _, _ = TABLE_ROWS[2]
        fb = row_factbase(anchor_cls, inputs)
        out, _ = infer(fb, load_stock_pack())
        assert read_fatigue(out) == {"SteeringWheel": FatigueLevel.HIGH}

    def test_empty(self):
        assert read_fatigue(FactBase(taxonomy=default_taxonomy())) == {}

    def test_conflicting_levels_raise(self):
        fb = FactBase(taxonomy=default_taxonomy())
        fb = assert_fact(fb, "f", "SteeringWheelMeasurmentFatigue_Low")
        fb = assert_fact(fb, "f", "SteeringWheelMeasurmentFatigue_High")
        with pytest.raises(AmbiguityError):
            read_fatigue(fb)

    def test_highest_across_individuals(self):
        fb = FactBase(taxonomy=default_taxonomy())
        fb = assert_fact(fb, "f1", "SteeringWheelMeasurmentFatigue_Low")
        fb = assert_fact(fb, "f2", "SteeringWheelMeasurmentFatigue_High")
        assert read_fatigue(fb) == {"SteeringWheel": FatigueLevel.HIGH}

    def test_sources_are_aliased(self):
        fb = FactBase(taxonomy=default_taxonomy())
        fb = assert_fact(fb, "f", "YawAngleMeasurmentFatigue_Medium")
        assert read_fatigue(fb) == {"YawAngle": FatigueLevel.MEDIUM}

    def test_most_specific_assertion_wins(self):
        # a verdict class refined by its own subclass: the asserted, nearer
        # one decides
        tax = Taxonomy(
            classes=frozenset({"CustomFatigue_Low", "CustomFatigue_High"}),
            parents={"CustomFatigue_Low": ("CustomFatigue_High",)})
        fb = FactBase(taxonomy=tax)
        fb = assert_fact(fb, "x", "CustomFatigue_Low")
        assert read_fatigue(fb) == {"CustomFatigue": FatigueLevel.LOW}


class TestFatigueLevel:
    def test_order(self):
        assert FatigueLevel.LOW < FatigueLevel.MEDIUM < FatigueLevel.HIGH

    def test_display_and_parse(self):
        for level in FatigueLevel:
            assert FatigueLevel.from_name(level.display()) is level

    def test_from_name_rejects_junk(self):
        with pytest.raises(ArgumentError):
            FatigueLevel.from_name("Sleepy")


class TestFusion:
    def test_unanimous_high(self):
        levels = {"SteeringWheel": FatigueLevel.HIGH, "YawAngle": FatigueLevel.HIGH}
        assert fuse(levels) is FatigueLevel.HIGH

    def test_split_is_medium(self):
        levels = {"SteeringWheel": FatigueLevel.HIGH, "YawAngle": FatigueLevel.LOW}
        assert fuse(levels) is FatigueLevel.MEDIUM

    def test_single_source_identity(self):
        for level in FatigueLevel:
            assert fuse({"SteeringWheel": level}) is level

    def test_weighted_tilt(self):
        levels = {"SteeringWheel": FatigueLevel.HIGH, "YawAngle": FatigueLevel.LOW}
        w = FusionWeights(weights={"SteeringWheel": 3.0, "YawAngle": 1.0})
        assert fuse(levels, w) is FatigueLevel.HIGH  # score 1.5 sits on the cutoff

    def test_score_half_is_medium(self):
        levels = {"SteeringWheel": FatigueLevel.LOW, "YawAngle": FatigueLevel.MEDIUM}
        assert fuse(levels) is FatigueLevel.MEDIUM

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            fuse({})

    def test_zero_present_weight_rejected(self):
        levels = {"SteeringWheel": FatigueLevel.HIGH}
        w = FusionWeights(weights={"SteeringWheel": 0.0, "YawAngle": 1.0})
        with pytest.raises(EmptyInputError):
            fuse(levels, w)

    def test_bad_cutoffs(self):
        with pytest.raises(ArgumentError):
            fuse({"SteeringWheel": FatigueLevel.LOW}, cutoffs=(1.5, 0.5))

    def test_negative_weight_rejected(self):
        with pytest.raises(ArgumentError):
            FusionWeights(weights={"SteeringWheel": -1.0})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ArgumentError):
            FusionWeights(weights={"SteeringWheel": 0.0})

    def test_unknown_source_gets_unit_weight(self):
        levels = {"Mystery": FatigueLevel.MEDIUM}
        assert fuse(levels, FusionWeights()) is FatigueLevel.MEDIUM

    def test_equal_weight_tie_at_cutoff_survives_scaling(self):
        # High and Medium at equal weight tie the 1.5 cutoff exactly; summing
        # before dividing rounded this one to Medium and its triple to High
        levels = {"SteeringWheel": FatigueLevel.HIGH, "Third": FatigueLevel.MEDIUM}
        w = 43.018805847241126
        for scale in (1.0, 3.0, 0.1, 1000.0):
            weights = FusionWeights(weights={"SteeringWheel": w * scale, "Third": w * scale})
            assert fuse(levels, weights) is FatigueLevel.HIGH

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["SteeringWheel", "YawAngle", "Third"]),
        st.sampled_from(list(FatigueLevel)), min_size=1, max_size=3),
        st.lists(st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
                 min_size=3, max_size=3),
        st.floats(min_value=0.001, max_value=1000.0, allow_nan=False))
    def test_scaling_invariance(self, levels, raw_weights, factor):
        names = ["SteeringWheel", "YawAngle", "Third"]
        base = FusionWeights(weights=dict(zip(names, raw_weights)))
        scaled = FusionWeights(
            weights={s: w * factor for s, w in base.weights.items()})
        assert fuse(levels, base) is fuse(levels, scaled)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(list(FatigueLevel)),
           st.integers(min_value=1, max_value=4))
    def test_unanimity(self, level, n):
        levels = {f"S{i}": level for i in range(n)}
        assert fuse(levels) is level
