import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatiguekit import (
    AmbiguityError,
    ArgumentError,
    DuplicateRuleNameError,
    EmptyInputError,
    FactBase,
    FatigueLevel,
    FusionWeights,
    Rule,
    RulePack,
    RuleSyntaxError,
    Taxonomy,
    UnknownClassError,
    assert_fact,
    default_taxonomy,
    fuse,
    infer,
    load_stock_pack,
    parse_rules,
    load_config,
    read_fatigue,
)

WEIGHTS = load_config().weights  # SteeringWheel and YawAngle at 1.0
CUTOFFS = load_config().fusion_cutoffs  # 0.5 and 1.5
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
        assert str(exc.value) == "duplicate rule name 'r1' (line 2)"

    def test_duplicate_rule_name_in_code_has_no_line(self):
        rule = Rule(name="a", anchor_var="x", anchor_class="A", conditions=(),
                    conclusion_class="C")
        with pytest.raises(DuplicateRuleNameError) as exc:
            RulePack(rules=(rule, rule))
        assert exc.value.name == "a"
        assert exc.value.line is None
        assert str(exc.value) == "duplicate rule name 'a'"

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
            order = np.random.default_rng(seed).permutation(len(pack.rules))
            shuffled, _ = infer(fb, RulePack(rules=tuple(pack.rules[i] for i in order)))
            assert shuffled.memberships == baseline.memberships


def _rule(name, anchor, conditions, conclusion):
    return Rule(name=name, anchor_var="x", anchor_class=anchor,
                conditions=tuple(conditions), conclusion_class=conclusion)


@st.composite
def inference_universes(draw):
    """A random acyclic taxonomy over a few classes, a fact base over a few
    individuals and a pack of rules over those classes; few classes, so
    rules often conclude the same pair or enable one another."""
    classes = [f"C{i}" for i in range(draw(st.integers(2, 7)))]
    parents = {}
    for i, cls in enumerate(classes[1:], start=1):
        chosen = draw(st.lists(st.sampled_from(classes[:i]), max_size=2, unique=True))
        if chosen:
            parents[cls] = tuple(chosen)
    taxonomy = Taxonomy(classes=frozenset(classes), parents=parents)
    individuals = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    members = draw(st.frozensets(st.tuples(st.sampled_from(individuals),
                                           st.sampled_from(classes)), max_size=8))
    rules = draw(st.lists(st.tuples(st.sampled_from(classes),
                                    st.lists(st.sampled_from(classes), max_size=3),
                                    st.sampled_from(classes)), min_size=1, max_size=8))
    pack = RulePack(rules=tuple(_rule(f"r{k}", *r) for k, r in enumerate(rules)))
    fb = FactBase(taxonomy=taxonomy, memberships=members,
                  data_properties=frozenset({("i0", "has_x", 1.5)}), timestamp=60.0)
    return fb, pack


_CHAIN = Taxonomy(classes=frozenset({"Anchor", "Seed", "Mid", "Out"}), parents={})
# "twin" and "first" conclude (a, Mid) in round 1, so the pair is logged
# under "first", the earlier rule in pack order; "later" needs Mid, so it
# fires in round 2
_SAME_PAIR_THEN_CHAIN = (
    FactBase(taxonomy=_CHAIN, memberships=frozenset({("a", "Anchor"), ("b", "Anchor"),
                                                     ("s", "Seed")})),
    RulePack(rules=(_rule("later", "Anchor", ["Mid"], "Out"),
                    _rule("first", "Anchor", ["Seed"], "Mid"),
                    _rule("twin", "Anchor", ["Seed"], "Mid"))))


class TestInferMatchesPerConclusion:
    @settings(max_examples=300, deadline=None)
    @example(universe=_SAME_PAIR_THEN_CHAIN)
    @given(universe=inference_universes())
    def test_same_memberships_and_log(self, universe):
        from oracles import infer_per_conclusion
        fb, pack = universe
        out, log = infer(fb, pack)
        want, want_log = infer_per_conclusion(fb, pack)
        assert out.memberships == want.memberships
        assert log == want_log
        assert (out.taxonomy, out.data_properties, out.timestamp) == \
            (fb.taxonomy, fb.data_properties, fb.timestamp)

    def test_same_round_pair_keeps_first_rule(self):
        fb, pack = _SAME_PAIR_THEN_CHAIN
        _, log = infer(fb, pack)
        assert [(f.rule, f.individual, f.iteration) for f in log] == [
            ("first", "a", 1), ("first", "b", 1), ("later", "a", 2), ("later", "b", 2)]


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
        assert fuse(levels, WEIGHTS, CUTOFFS) is FatigueLevel.HIGH

    def test_split_is_medium(self):
        levels = {"SteeringWheel": FatigueLevel.HIGH, "YawAngle": FatigueLevel.LOW}
        assert fuse(levels, WEIGHTS, CUTOFFS) is FatigueLevel.MEDIUM

    def test_single_source_identity(self):
        for level in FatigueLevel:
            assert fuse({"SteeringWheel": level}, WEIGHTS, CUTOFFS) is level

    def test_weighted_tilt(self):
        levels = {"SteeringWheel": FatigueLevel.HIGH, "YawAngle": FatigueLevel.LOW}
        w = FusionWeights(weights={"SteeringWheel": 3.0, "YawAngle": 1.0})
        assert fuse(levels, w, CUTOFFS) is FatigueLevel.HIGH  # score 1.5 sits on the cutoff

    def test_score_half_is_medium(self):
        levels = {"SteeringWheel": FatigueLevel.LOW, "YawAngle": FatigueLevel.MEDIUM}
        assert fuse(levels, WEIGHTS, CUTOFFS) is FatigueLevel.MEDIUM

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            fuse({}, WEIGHTS, CUTOFFS)

    def test_zero_present_weight_rejected(self):
        levels = {"SteeringWheel": FatigueLevel.HIGH}
        w = FusionWeights(weights={"SteeringWheel": 0.0, "YawAngle": 1.0})
        with pytest.raises(EmptyInputError):
            fuse(levels, w, CUTOFFS)

    def test_bad_cutoffs(self):
        with pytest.raises(ArgumentError):
            fuse({"SteeringWheel": FatigueLevel.LOW}, WEIGHTS, (1.5, 0.5))

    def test_negative_weight_rejected(self):
        with pytest.raises(ArgumentError):
            FusionWeights(weights={"SteeringWheel": -1.0})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ArgumentError):
            FusionWeights(weights={"SteeringWheel": 0.0})

    def test_unknown_source_gets_unit_weight(self):
        levels = {"Mystery": FatigueLevel.MEDIUM}
        assert fuse(levels, WEIGHTS, CUTOFFS) is FatigueLevel.MEDIUM

    def test_equal_weight_tie_at_cutoff_survives_scaling(self):
        # High and Medium at equal weight tie the 1.5 cutoff exactly; summing
        # before dividing rounded this one to Medium and its triple to High
        levels = {"SteeringWheel": FatigueLevel.HIGH, "Third": FatigueLevel.MEDIUM}
        w = 43.018805847241126
        for scale in (1.0, 3.0, 0.1, 1000.0):
            weights = FusionWeights(weights={"SteeringWheel": w * scale, "Third": w * scale})
            assert fuse(levels, weights, CUTOFFS) is FatigueLevel.HIGH

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["SteeringWheel", "YawAngle", "Third"]),
        st.sampled_from(list(FatigueLevel)), min_size=1, max_size=3),
        st.lists(st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
                 min_size=3, max_size=3),
        st.integers(min_value=-10, max_value=10))
    # a score of 0.4999999999999999 from weights that, times 19, round to
    # exactly the 0.5 cutoff: a power of two scales them exactly
    @example({"YawAngle": FatigueLevel.LOW, "Third": FatigueLevel.MEDIUM},
             [1.0, 0.010000000000000002, 0.01], 4)
    def test_scaling_invariance(self, levels, raw_weights, exponent):
        # fuse promises invariance under power-of-two factors only; another
        # factor rounds the scaled weights and can move a score off a cutoff
        factor = 2.0 ** exponent
        names = ["SteeringWheel", "YawAngle", "Third"]
        base = FusionWeights(weights=dict(zip(names, raw_weights)))
        scaled = FusionWeights(
            weights={s: w * factor for s, w in base.weights.items()})
        assert fuse(levels, base, CUTOFFS) is fuse(levels, scaled, CUTOFFS)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(list(FatigueLevel)),
           st.integers(min_value=1, max_value=4))
    def test_unanimity(self, level, n):
        levels = {f"S{i}": level for i in range(n)}
        assert fuse(levels, WEIGHTS, CUTOFFS) is level


class TestFusionOrder:
    """fuse is a function of its levels and weights: the order in which the
    sources arrive, which for read_fatigue follows the string hash seed,
    never changes the fused level."""

    def test_three_sources_fuse_alike_in_every_order(self):
        levels = {"A": FatigueLevel.HIGH, "B": FatigueLevel.MEDIUM, "C": FatigueLevel.MEDIUM}
        weights = FusionWeights({"A": 0.3, "B": 0.1, "C": 0.2})
        # the score is 0.5 * 2 + (1/6 + 2/6) * 1 = 1.5, on the High cutoff
        for order in itertools.permutations(levels):
            assert fuse({s: levels[s] for s in order}, weights, CUTOFFS) is FatigueLevel.HIGH

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(FatigueLevel)),
                              st.floats(min_value=0.001, max_value=1000.0)),
                    min_size=3, max_size=5))
    @example([(FatigueLevel.HIGH, 0.3), (FatigueLevel.MEDIUM, 0.1),
              (FatigueLevel.MEDIUM, 0.2)])
    def test_any_sources_fuse_alike_in_every_order(self, sources):
        levels = {f"S{i}": level for i, (level, _) in enumerate(sources)}
        weights = FusionWeights({f"S{i}": w for i, (_, w) in enumerate(sources)})
        fused = {fuse({s: levels[s] for s in order}, weights, CUTOFFS)
                 for order in itertools.permutations(levels)}
        assert len(fused) == 1


class TestFusionWeights:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ArgumentError, match="weight for 'A' must be finite"):
            FusionWeights(weights={"A": bad, "B": 1.0})

    def test_weights_whose_sum_overflows_rejected(self):
        # each weight is finite, but fuse sums them with math.fsum
        with pytest.raises(ArgumentError, match="fusion_weights must sum"):
            FusionWeights(weights={"A": 1e308, "B": 1e308})
        largest = FusionWeights(weights={"A": sys.float_info.max, "B": 0.0})
        assert fuse({"A": FatigueLevel.HIGH, "B": FatigueLevel.LOW}, largest,
                    (0.5, 1.5)) is FatigueLevel.HIGH


def _reading(fb):
    """read_fatigue's verdicts, or AmbiguityError's type when it raises."""
    try:
        return read_fatigue(fb)
    except AmbiguityError:
        return AmbiguityError


def _oracle_reading(fb):
    from oracles import read_fatigue_oracle
    try:
        return read_fatigue_oracle(fb)
    except AmbiguityError:
        return AmbiguityError


class TestMemoisedReading:
    LEVEL_NAMES = ["AFatigue_Low", "AFatigue_Medium", "AFatigue_High",
                   "BFatigue_Low", "BFatigue_High", "Plain1", "Plain2", "Plain3"]

    def random_taxonomy(self, rng) -> Taxonomy:
        names = list(rng.permutation(self.LEVEL_NAMES))
        parents = {}
        for i in range(1, len(names)):
            if rng.random() < 0.6:
                k = int(rng.integers(1, min(i, 2) + 1))
                parents[str(names[i])] = tuple(
                    str(p) for p in rng.choice(names[:i], size=k, replace=False))
        return Taxonomy(classes=frozenset(str(n) for n in names), parents=parents)

    def test_equals_uncached_reading_on_random_fact_bases(self):
        rng = np.random.default_rng(77)
        stock = default_taxonomy()
        stock_classes = sorted(stock.classes)
        raised = 0
        for trial in range(150):
            tax = stock if trial % 3 == 0 else self.random_taxonomy(rng)
            classes = stock_classes if tax is stock else sorted(tax.classes)
            members = {(f"i{int(rng.integers(0, 3))}", str(rng.choice(classes)))
                       for _ in range(int(rng.integers(0, 8)))}
            fb = FactBase(taxonomy=tax, memberships=frozenset(members))
            expected = _oracle_reading(fb)
            raised += expected is AmbiguityError
            # twice on the same (warm) taxonomy, once on an equal fresh one
            fresh = Taxonomy(classes=tax.classes, parents=dict(tax.parents))
            assert _reading(fb) == expected
            assert _reading(fb) == expected
            assert _reading(FactBase(taxonomy=fresh, memberships=fb.memberships)) == expected
        assert raised > 0

    def test_conflict_still_raises_when_warm(self):
        tax = default_taxonomy()
        low = assert_fact(FactBase(taxonomy=tax), "f", "SteeringWheelMeasurmentFatigue_Low")
        high = assert_fact(FactBase(taxonomy=tax), "f", "SteeringWheelMeasurmentFatigue_High")
        assert read_fatigue(low) == {"SteeringWheel": FatigueLevel.LOW}
        assert read_fatigue(high) == {"SteeringWheel": FatigueLevel.HIGH}
        both = assert_fact(low, "f", "SteeringWheelMeasurmentFatigue_High")
        for _ in range(2):
            with pytest.raises(AmbiguityError):
                read_fatigue(both)
