import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatiguekit import (
    Band,
    DriverProfile,
    FEATURE_NAMES,
    FeatureVector,
    QualificationScheme,
    SchemeError,
    Sex,
    UnboundFeatureError,
    default_scheme,
    individual_name,
    load_scheme,
    qualify,
)

MALE = DriverProfile(id="d", sex="male")
FEMALE = DriverProfile(id="d", sex="female")
ANON = DriverProfile(id="d")


def one_fact(feature: str, value: float, profile=ANON):
    fv = FeatureVector(window_start=0.0, window_end=60.0, **{feature: value})
    facts = qualify(fv, default_scheme(), profile)
    assert len(facts) == 1
    return facts[0]


class TestBoundaries:
    @pytest.mark.parametrize("value,label", [
        (5.999, "SWA_Small"),
        (6.0, "SWA_Large"),
        (9.999, "SWA_Large"),
        (10.0, "SWA_Extreme"),
        (10.001, "SWA_Extreme"),
    ])
    def test_swa_amplitude(self, value, label):
        assert one_fact("max_swa_abs", value).class_label == label

    @pytest.mark.parametrize("value,label", [
        (5.999, "MeanSWA_Small"),
        (6.0, "MeanSWA_Large"),
        (10.0, "MeanSWA_Extreme"),
    ])
    def test_swa_mean(self, value, label):
        assert one_fact("mean_swa_abs", value).class_label == label

    @pytest.mark.parametrize("value,label", [
        (0.999, "Yaw_Small"),
        (1.0, "Yaw_Large"),
        (2.499, "Yaw_Large"),
        (2.5, "Yaw_Extreme"),
    ])
    def test_yaw_mean(self, value, label):
        assert one_fact("mean_yaw_abs", value).class_label == label

    @pytest.mark.parametrize("value,label", [
        (5.999, "AngularVelocity_Normal"),
        (6.0, "AngularVelocity_High"),
    ])
    def test_angular_velocity(self, value, label):
        assert one_fact("swa_angular_velocity_max", value).class_label == label

    @pytest.mark.parametrize("value,label", [
        (0.999, "AccelerationYawRate_Low"),
        (1.0, "AccelerationYawRate_Medium"),
        (2.499, "AccelerationYawRate_Medium"),
        (2.5, "AccelerationYawRate_High"),
    ])
    def test_yaw_acceleration(self, value, label):
        assert one_fact("yaw_accel_max", value).class_label == label

    @pytest.mark.parametrize("value,label", [
        (49.999, "BPM_Atypical"),
        (50.0, "BPM_Drowsy"),
        (64.999, "BPM_Drowsy"),
        (65.0, "BPM_Intermediate"),
        (74.999, "BPM_Intermediate"),
        (75.0, "BPM_Normal"),
        (99.999, "BPM_Normal"),
        (100.0, "BPM_Atypical"),
    ])
    def test_bpm_male(self, value, label):
        assert one_fact("mean_bpm", value, MALE).class_label == label

    @pytest.mark.parametrize("value,label", [
        (44.999, "BPM_Atypical"),
        (45.0, "BPM_Drowsy"),
        (62.999, "BPM_Drowsy"),
        (63.0, "BPM_Intermediate"),
        (69.999, "BPM_Intermediate"),
        (70.0, "BPM_Normal"),
        (94.999, "BPM_Normal"),
        (95.0, "BPM_Atypical"),
    ])
    def test_bpm_female(self, value, label):
        assert one_fact("mean_bpm", value, FEMALE).class_label == label

    def test_bpm_unspecified_follows_male_bands(self):
        assert one_fact("mean_bpm", 72.0, ANON).class_label == "BPM_Intermediate"
        assert one_fact("mean_bpm", 72.0, MALE).class_label == "BPM_Intermediate"
        assert one_fact("mean_bpm", 72.0, FEMALE).class_label == "BPM_Normal"


class TestSpecValues:
    def test_extreme_swa(self):
        assert one_fact("max_swa_abs", 12.0).class_label == "SWA_Extreme"

    def test_small_swa(self):
        assert one_fact("max_swa_abs", 3.0).class_label == "SWA_Small"

    def test_small_yaw(self):
        assert one_fact("mean_yaw_abs", 0.5).class_label == "Yaw_Small"

    def test_drowsy_male_bpm(self):
        assert one_fact("mean_bpm", 58.0, MALE).class_label == "BPM_Drowsy"

    def test_high_angular_velocity(self):
        assert one_fact("swa_angular_velocity_max", 7.0).class_label \
            == "AngularVelocity_High"

    def test_head_pitch_signed(self):
        assert one_fact("head_ewma", -15.0).class_label == "HeadPitch_Back"
        assert one_fact("head_ewma", 0.0).class_label == "HeadPitch_Neutral"
        assert one_fact("head_ewma", 12.0).class_label == "HeadPitch_Drooping"


class TestQualify:
    def test_fact_shape(self):
        fact = one_fact("max_swa_abs", 12.0)
        assert fact.individual == individual_name("max_swa_abs", 0.0)
        assert fact.individual == "max_swa_abs@0.0"
        assert fact.value == 12.0
        assert fact.window_start == 0.0
        assert fact.window_end == 60.0
        assert fact.source_feature == "max_swa_abs"

    def test_absent_fields_make_no_facts(self):
        fv = FeatureVector(window_start=0.0, window_end=60.0)
        assert qualify(fv, default_scheme(), ANON) == []

    def test_one_fact_per_present_field(self):
        fv = FeatureVector(window_start=0.0, window_end=60.0,
                           max_swa_abs=3.0, mean_yaw_abs=0.5, mean_bpm=80.0)
        facts = qualify(fv, default_scheme(), MALE)
        assert len(facts) == 3
        assert {f.source_feature for f in facts} \
            == {"max_swa_abs", "mean_yaw_abs", "mean_bpm"}

    def test_determinism(self):
        fv = FeatureVector(window_start=0.0, window_end=60.0,
                           max_swa_abs=7.3, var_yaw=0.4, perclos80=0.2)
        a = qualify(fv, default_scheme(), ANON)
        b = qualify(fv, default_scheme(), ANON)
        assert a == b

    def test_negative_value_for_nonnegative_feature(self):
        fv = FeatureVector(window_start=0.0, window_end=60.0, max_swa_abs=-1.0)
        with pytest.raises(SchemeError):
            qualify(fv, default_scheme(), ANON)

    def test_unbound_feature(self):
        scheme = QualificationScheme(
            bands={"max_swa_abs": (Band("Only", None, None),)})
        fv = FeatureVector(window_start=0.0, window_end=60.0, mean_yaw_abs=0.5)
        with pytest.raises(UnboundFeatureError):
            qualify(fv, scheme, ANON)

    def test_sex_band_missing_for_profile(self):
        scheme = QualificationScheme(
            bands={"mean_bpm": {Sex.MALE: (Band("B", None, None),)}})
        fv = FeatureVector(window_start=0.0, window_end=60.0, mean_bpm=70.0)
        with pytest.raises(UnboundFeatureError):
            qualify(fv, scheme, FEMALE)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(FEATURE_NAMES),
           st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
           st.sampled_from([MALE, FEMALE, ANON]))
    def test_totality_nonnegative(self, feature, value, profile):
        # every finite non-negative value lands in exactly one band
        fact = one_fact(feature, value, profile)
        bands = default_scheme().band_set_for(feature, profile)
        hits = [b for b in bands if b.contains(value)]
        assert len(hits) == 1
        assert hits[0].label == fact.class_label

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_totality_signed_head_pitch(self, value):
        one_fact("head_ewma", value)


class TestSchemeValidation:
    def test_overlap_reported_with_interval(self):
        config = json.dumps({"max_swa_abs": [
            {"label": "A", "lower": 0, "upper": 6},
            {"label": "B", "lower": 5, "upper": 10},
            {"label": "C", "lower": 10, "upper": None},
        ]})
        with pytest.raises(SchemeError) as exc:
            load_scheme(config)
        msg = str(exc.value)
        assert "overlap" in msg
        assert "[5, 6)" in msg

    def test_gap_reported_with_interval(self):
        config = json.dumps({"max_swa_abs": [
            {"label": "A", "lower": 0, "upper": 6},
            {"label": "B", "lower": 7, "upper": None},
        ]})
        with pytest.raises(SchemeError) as exc:
            load_scheme(config)
        msg = str(exc.value)
        assert "gap" in msg
        assert "[6, 7)" in msg

    def test_unbounded_top_required(self):
        config = json.dumps({"max_swa_abs": [
            {"label": "A", "lower": 0, "upper": 6},
        ]})
        with pytest.raises(SchemeError) as exc:
            load_scheme(config)
        assert "gap" in str(exc.value)

    def test_unknown_feature_rejected(self):
        with pytest.raises(SchemeError):
            load_scheme(json.dumps({"wheel_angle": []}))

    def test_empty_config_gives_default(self):
        assert load_scheme(b"") is default_scheme()
        assert load_scheme(None) is default_scheme()

    def test_override_takes_effect(self):
        config = json.dumps({"max_swa_abs": [
            {"label": "Tame", "lower": 0, "upper": 20},
            {"label": "Wild", "lower": 20, "upper": None},
        ]})
        scheme = load_scheme(config)
        fv = FeatureVector(window_start=0.0, window_end=60.0, max_swa_abs=12.0)
        facts = qualify(fv, scheme, ANON)
        assert facts[0].class_label == "Tame"
        # untouched features keep their defaults
        assert scheme.band_set_for("mean_yaw_abs", ANON) \
            == default_scheme().band_set_for("mean_yaw_abs", ANON)

    def test_custom_by_sex_override(self):
        config = json.dumps({"mean_bpm": {"by_sex": {
            "male": [{"label": "X", "lower": None, "upper": None}],
            "female": [{"label": "Y", "lower": None, "upper": None}],
            "unspecified": [{"label": "Z", "lower": None, "upper": None}],
        }}})
        scheme = load_scheme(config)
        assert one_bpm_label(scheme, MALE) == "X"
        assert one_bpm_label(scheme, FEMALE) == "Y"
        assert one_bpm_label(scheme, ANON) == "Z"

    @pytest.mark.parametrize("config, message", [
        pytest.param({"max_swa_abs": []}, "band set is empty", id="empty-band-set"),
        pytest.param({"max_swa_abs": [{"label": "A", "lower": 0, "upper": None},
                                      {"label": "B", "lower": 5, "upper": None}]},
                     r"'A' and 'B' overlap \[5, inf\)", id="band-after-unbounded-above"),
        pytest.param({"head_ewma": [{"label": "A", "lower": 0, "upper": None}]},
                     "signed feature, first band must be unbounded below",
                     id="signed-feature-bounded-below"),
        pytest.param({"max_swa_abs": [{"label": "A", "lower": 1, "upper": None}]},
                     r"gap \[0, 1\) before first band 'A'", id="gap-before-first-band"),
        pytest.param({"mean_bpm": {"by_sex": {"other": [
            {"label": "A", "lower": None, "upper": None}]}}},
                     "mean_bpm: unknown sex 'other'", id="unknown-sex-under-by-sex"),
        pytest.param({"mean_bpm": {"by_sex": {"male": [
            {"label": "A", "lower": None, "upper": None}]}, "extra": 1}},
                     "mean_bpm: expected a band list or a by_sex mapping",
                     id="by-sex-mapping-with-extra-key"),
    ])
    def test_band_set_rejected(self, config, message):
        with pytest.raises(SchemeError, match=message):
            load_scheme(json.dumps(config))

    def test_malformed_band_entry(self):
        with pytest.raises(SchemeError):
            load_scheme(json.dumps({"max_swa_abs": [{"label": "A", "lower": 0}]}))

    def test_bad_json(self):
        with pytest.raises(Exception):
            load_scheme(b"{not json")

    def test_default_scheme_covers_every_feature(self):
        scheme = default_scheme()
        for feature in FEATURE_NAMES:
            for profile in (MALE, FEMALE, ANON):
                assert scheme.band_set_for(feature, profile) is not None


class TestOneBandTable:
    def test_constructor_leaves_the_callers_table_as_given(self):
        low, high = Band("Low", 0.0, 6.0), Band("High", 6.0, None)
        plain, per_sex = [high, low], [Band("B", None, None)]
        by_sex = {Sex.MALE: per_sex}
        table = {"max_swa_abs": plain, "mean_bpm": by_sex}
        scheme = QualificationScheme(bands=table)
        assert table == {"max_swa_abs": [high, low], "mean_bpm": {Sex.MALE: [Band("B", None, None)]}}
        assert table["max_swa_abs"] is plain and table["mean_bpm"] is by_sex
        assert by_sex[Sex.MALE] is per_sex
        # the scheme holds its own validated table of sorted tuples
        assert scheme.bands == {"max_swa_abs": (low, high),
                                "mean_bpm": {Sex.MALE: (Band("B", None, None),)}}
        assert scheme.bands is not table and scheme.bands["mean_bpm"] is not by_sex

    def test_load_scheme_leaves_the_default_table_as_given(self):
        default = default_scheme()
        before = {f: dict(e) if isinstance(e, dict) else e for f, e in default.bands.items()}
        scheme = load_scheme(json.dumps({"max_swa_abs": [
            {"label": "Tame", "lower": 0, "upper": 20},
            {"label": "Wild", "lower": 20, "upper": None}]}))
        # the merged table shares no mapping with the default it was filled from
        assert scheme.bands["mean_bpm"] == default.bands["mean_bpm"]
        assert scheme.bands["mean_bpm"] is not default.bands["mean_bpm"]
        scheme.bands["mean_bpm"][Sex.MALE] = ()
        assert default.bands == before
        assert default_scheme() is default

    def test_by_sex_feature_is_one_table_entry(self):
        entry = default_scheme().bands["mean_bpm"]
        assert set(entry) == set(Sex)
        for sex in Sex:
            assert default_scheme().band_set_for("mean_bpm", DriverProfile("d", sex)) \
                is entry[sex]


def one_bpm_label(scheme, profile):
    fv = FeatureVector(window_start=0.0, window_end=60.0, mean_bpm=70.0)
    return qualify(fv, scheme, profile)[0].class_label


class TestBand:
    def test_half_open_contains(self):
        b = Band("X", 1.0, 2.0)
        assert not b.contains(0.999)
        assert b.contains(1.0)
        assert b.contains(1.999)
        assert not b.contains(2.0)

    def test_unbounded_sides(self):
        assert Band("X", None, 5.0).contains(-1e9)
        assert Band("X", 5.0, None).contains(1e9)

    def test_empty_label_rejected(self):
        with pytest.raises(SchemeError, match="band label must be non-empty"):
            Band("", 0.0, None)

    def test_degenerate_band_rejected(self):
        with pytest.raises(SchemeError):
            Band("X", 2.0, 2.0)

    def test_nan_in_no_band(self):
        for band in (Band("X", 1.0, 2.0), Band("X", None, 5.0),
                     Band("X", 5.0, None), Band("X", None, None)):
            assert not band.contains(float("nan"))

    def test_nan_value_matches_no_band(self):
        fv = FeatureVector(window_start=0.0, window_end=60.0, swa_apen=float("nan"))
        with pytest.raises(SchemeError, match="matched 0 bands"):
            qualify(fv, default_scheme(), ANON)
