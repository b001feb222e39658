"""Turn numeric features into class-labelled facts.

A qualification scheme maps each feature to an ordered set of half-open
bands: lower bound inclusive, upper bound exclusive, None meaning
unbounded. Band sets must tile their feature's whole range with no gap and
no overlap, so every finite value lands in exactly one band. Heart-rate
bands depend on the driver profile's sex.

The crisp single-band decision is deliberate; there are no membership
degrees anywhere downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from . import _inputs
from .errors import SchemeError, UnboundFeatureError
from .features import FEATURE_NAMES, FeatureVector
from .signals import DriverProfile, Sex

# Features whose values can be negative; their band sets must reach -inf.
SIGNED_FEATURES = frozenset({"head_ewma"})

@dataclass(frozen=True, slots=True)
class Band:
    """One half-open interval [lower, upper) with a class label.

    A None bound means unbounded on that side.
    """

    label: str
    lower: float | None
    upper: float | None

    def __post_init__(self):
        if not self.label:
            raise SchemeError("band label must be non-empty")
        if self.lower is not None and self.upper is not None \
                and not self.lower < self.upper:
            raise SchemeError(
                f"band {self.label!r}: lower {self.lower} must be < upper {self.upper}")

    def contains(self, value: float) -> bool:
        """lower <= value < upper; nan lies in no band."""
        return (value == value
                and (self.lower is None or self.lower <= value)
                and (self.upper is None or value < self.upper))


def _validate_band_set(feature: str, bands: tuple[Band, ...]) -> tuple[Band, ...]:
    if not bands:
        raise SchemeError(f"{feature}: band set is empty")
    ordered = sorted(bands, key=lambda b: -float("inf") if b.lower is None else b.lower)
    for a, b in zip(ordered, ordered[1:]):
        if a.upper is None:
            raise SchemeError(
                f"{feature}: bands {a.label!r} and {b.label!r} overlap "
                f"[{b.lower}, inf)")
        if b.lower is None or b.lower < a.upper:
            lo = b.lower if b.lower is not None else "-inf"
            raise SchemeError(
                f"{feature}: bands {a.label!r} and {b.label!r} overlap "
                f"[{lo}, {a.upper})")
        if b.lower > a.upper:
            raise SchemeError(
                f"{feature}: gap [{a.upper}, {b.lower}) between "
                f"{a.label!r} and {b.label!r}")
    first, last = ordered[0], ordered[-1]
    if feature in SIGNED_FEATURES:
        if first.lower is not None:
            raise SchemeError(
                f"{feature}: signed feature, first band must be unbounded below, "
                f"got lower {first.lower}")
    elif first.lower is not None and first.lower > 0:
        raise SchemeError(
            f"{feature}: gap [0, {first.lower}) before first band {first.label!r}")
    if last.upper is not None:
        raise SchemeError(
            f"{feature}: gap [{last.upper}, inf) after last band {last.label!r}")
    return tuple(ordered)


@dataclass(frozen=True)
class QualificationScheme:
    """Band sets keyed by feature; mean_bpm is keyed again by sex."""

    bands: dict[str, tuple[Band, ...]]
    bands_by_sex: dict[str, dict[Sex, tuple[Band, ...]]]

    def __post_init__(self):
        for feature, bs in self.bands.items():
            self.bands[feature] = _validate_band_set(feature, tuple(bs))
        for feature, by_sex in self.bands_by_sex.items():
            for sex, bs in by_sex.items():
                by_sex[sex] = _validate_band_set(f"{feature}[{sex.value}]", tuple(bs))

    def band_set_for(self, feature: str, profile: DriverProfile) -> tuple[Band, ...] | None:
        if feature in self.bands_by_sex:
            by_sex = self.bands_by_sex[feature]
            return by_sex.get(profile.sex)
        return self.bands.get(feature)

    def all_labels(self) -> dict[str, frozenset[str]]:
        """Every label the scheme can emit, per feature."""
        out: dict[str, set[str]] = {}
        for feature, bs in self.bands.items():
            out.setdefault(feature, set()).update(b.label for b in bs)
        for feature, by_sex in self.bands_by_sex.items():
            for bs in by_sex.values():
                out.setdefault(feature, set()).update(b.label for b in bs)
        return {f: frozenset(labels) for f, labels in out.items()}


@dataclass(frozen=True, slots=True)
class QualifiedFact:
    """One class-membership statement derived from one feature value."""

    individual: str
    class_label: str
    value: float
    window_start: float
    window_end: float
    source_feature: str

    def to_dict(self) -> dict:
        return {
            "individual": self.individual,
            "class": self.class_label,
            "value": self.value,
            "window": [self.window_start, self.window_end],
            "feature": self.source_feature,
        }


def _bands_from_json(feature: str, raw) -> tuple[Band, ...]:
    bands = []
    for entry in _inputs.of_type(raw, list, f"scheme {feature}", "a band list"):
        if not isinstance(entry, dict) or set(entry) != {"label", "lower", "upper"}:
            raise SchemeError(
                f"{feature}: each band needs exactly label/lower/upper, got {entry!r}")
        for bound in ("lower", "upper"):
            if entry[bound] is not None:  # finite, and read as written: 6 stays 6
                _inputs.number(entry[bound], f"scheme {feature} {bound}")
        label = _inputs.of_type(entry["label"], str, f"scheme {feature} label", "a string")
        bands.append(Band(label=label, lower=entry["lower"], upper=entry["upper"]))
    return tuple(bands)


def _scheme_from_mapping(obj: dict) -> QualificationScheme:
    plain: dict[str, tuple[Band, ...]] = {}
    by_sex: dict[str, dict[Sex, tuple[Band, ...]]] = {}
    for feature, raw in obj.items():
        if feature not in FEATURE_NAMES:
            raise SchemeError(f"unknown feature {feature!r} in scheme")
        if isinstance(raw, dict):
            if set(raw) != {"by_sex"}:
                raise SchemeError(f"{feature}: expected a band list or a by_sex mapping")
            table = _inputs.of_type(raw["by_sex"], dict, f"scheme {feature}.by_sex",
                                    "an object of band lists")
            per_sex: dict[Sex, tuple[Band, ...]] = {}
            for sex_name, bands_raw in table.items():
                try:
                    sex = Sex(sex_name)
                except ValueError:
                    raise SchemeError(f"{feature}: unknown sex {sex_name!r}") from None
                per_sex[sex] = _bands_from_json(feature, bands_raw)
            by_sex[feature] = per_sex
        else:
            plain[feature] = _bands_from_json(feature, raw)
    return QualificationScheme(bands=plain, bands_by_sex=by_sex)


@cache
def default_scheme() -> QualificationScheme:
    """The scheme shipped with the package, read once. Covers every feature."""
    return _scheme_from_mapping(json.loads(resources.files("fatiguekit").joinpath(
        "data/default_scheme.json").read_text("utf-8")))


def load_scheme(config: bytes | str | None = None) -> QualificationScheme:
    """Build a scheme from a JSON config, filling gaps from the default.

    Config shape: {feature: [{label, lower, upper}, ...]} with null bounds
    for unbounded sides; a feature may instead carry
    {"by_sex": {sex: [...]}}. Features the config omits keep their default
    band sets. None or empty input returns the default scheme.
    """
    if config is None:
        return default_scheme()
    config = _inputs.text(config, "scheme config")
    if not config.strip():
        return default_scheme()
    custom = _scheme_from_mapping(_inputs.json_object(config, "scheme config"))
    base = default_scheme()
    bands = dict(base.bands)
    by_sex = {f: dict(t) for f, t in base.bands_by_sex.items()}
    for feature, bs in custom.bands.items():
        by_sex.pop(feature, None)
        bands[feature] = bs
    for feature, table in custom.bands_by_sex.items():
        bands.pop(feature, None)
        by_sex[feature] = dict(table)
    return QualificationScheme(bands=bands, bands_by_sex=by_sex)


def individual_name(feature: str, window_start: float) -> str:
    return f"{feature}@{window_start}"


def qualify(fv: FeatureVector, scheme: QualificationScheme,
            profile: DriverProfile) -> list[QualifiedFact]:
    """Map every present feature to its unique band.

    Returns one fact per present feature, in FeatureVector field order.

    Raises:
        UnboundFeatureError: a feature is present but the scheme has no
            band set for it (a configuration bug worth failing loudly on).
    """
    facts: list[QualifiedFact] = []
    for feature in FEATURE_NAMES:
        value = getattr(fv, feature)
        if value is None:
            continue
        band_set = scheme.band_set_for(feature, profile)
        if band_set is None:
            raise UnboundFeatureError(feature)
        hits = [b for b in band_set if b.contains(value)]
        if len(hits) != 1:
            # validation makes this unreachable for in-range values
            raise SchemeError(
                f"{feature}: value {value} matched {len(hits)} bands")
        facts.append(QualifiedFact(
            individual=individual_name(feature, fv.window_start),
            class_label=hits[0].label,
            value=float(value),
            window_start=fv.window_start,
            window_end=fv.window_end,
            source_feature=feature,
        ))
    return facts
