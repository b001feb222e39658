"""Turn numeric features into class-labelled facts.

A qualification scheme is one band table. It maps each feature to an
ordered set of half-open bands (lower bound inclusive, upper bound
exclusive, None meaning unbounded) or, for a feature banded by the
driver's sex such as heart rate, to one such set per sex. Band sets must
tile their feature's whole range with no gap and no overlap, so every
finite value lands in exactly one band.

The crisp single-band decision is deliberate; there are no membership
degrees anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import _inputs
from .errors import SchemeError, UnboundFeatureError, excerpt
from .features import FEATURE_NAMES, FeatureVector
from .signals import DriverProfile, Sex

__all__ = ["Band", "QualificationScheme", "QualifiedFact", "default_scheme",
           "individual_name", "load_scheme", "qualify"]

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
            raise SchemeError(f"band {excerpt(self.label)}: "
                              f"lower {self.lower} must be < upper {self.upper}")

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
                f"{feature}: bands {excerpt(a.label)} and {excerpt(b.label)} overlap "
                f"[{b.lower}, inf)")
        if b.lower is None or b.lower < a.upper:
            lo = b.lower if b.lower is not None else "-inf"
            raise SchemeError(
                f"{feature}: bands {excerpt(a.label)} and {excerpt(b.label)} overlap "
                f"[{lo}, {a.upper})")
        if b.lower > a.upper:
            raise SchemeError(
                f"{feature}: gap [{a.upper}, {b.lower}) between "
                f"{excerpt(a.label)} and {excerpt(b.label)}")
    first, last = ordered[0], ordered[-1]
    if feature in SIGNED_FEATURES:
        if first.lower is not None:
            raise SchemeError(
                f"{feature}: signed feature, first band must be unbounded below, "
                f"got lower {first.lower}")
    elif first.lower is not None and first.lower > 0:
        raise SchemeError(
            f"{feature}: gap [0, {first.lower}) before first band {excerpt(first.label)}")
    if last.upper is not None:
        raise SchemeError(
            f"{feature}: gap [{last.upper}, inf) after last band {excerpt(last.label)}")
    return tuple(ordered)


@dataclass(frozen=True)
class QualificationScheme:
    """One band table, shaped as the scheme JSON: each feature maps to its
    band set or, for a feature banded by the driver's sex, to a
    {Sex: band set} mapping.

    Construction validates every band set into a new table of sorted tuples;
    the mappings and lists the caller passed are left as given.
    """

    bands: dict[str, tuple[Band, ...] | dict[Sex, tuple[Band, ...]]]

    def __post_init__(self):
        object.__setattr__(self, "bands", {
            feature: {sex: _validate_band_set(f"{feature}[{sex.value}]", tuple(bs))
                      for sex, bs in entry.items()}
            if isinstance(entry, dict) else _validate_band_set(feature, tuple(entry))
            for feature, entry in self.bands.items()})

    def band_set_for(self, feature: str, profile: DriverProfile) -> tuple[Band, ...] | None:
        """The feature's band set for this driver, or None if the table has none."""
        entry = self.bands.get(feature)
        return entry.get(profile.sex) if isinstance(entry, dict) else entry

    def all_labels(self) -> dict[str, frozenset[str]]:
        """Every label the scheme can emit, per feature, over all sexes."""
        out = {}
        for feature, entry in self.bands.items():
            sets = entry.values() if isinstance(entry, dict) else [entry]
            out[feature] = frozenset(b.label for bs in sets for b in bs)
        return out


@dataclass(frozen=True, slots=True)
class QualifiedFact:
    """One class-membership statement derived from one feature value."""

    individual: str
    class_label: str
    value: float
    window_start: float
    window_end: float
    source_feature: str


def _bands_from_json(feature: str, raw) -> tuple[Band, ...]:
    bands = []
    for entry in _inputs.of_type(raw, list, f"scheme {feature}", "a band list"):
        if not isinstance(entry, dict) or set(entry) != {"label", "lower", "upper"}:
            raise SchemeError(
                f"{feature}: each band needs exactly label/lower/upper, got {excerpt(entry)}")
        for bound in ("lower", "upper"):
            if entry[bound] is not None:  # finite, and read as written: 6 stays 6
                _inputs.number(entry[bound], f"scheme {feature} {bound}")
        label = _inputs.of_type(entry["label"], str, f"scheme {feature} label", "a string")
        bands.append(Band(label=label, lower=entry["lower"], upper=entry["upper"]))
    return tuple(bands)


def _bands_from_mapping(obj: dict) -> dict:
    """A decoded scheme document's band table, not yet validated."""
    bands = {}
    for feature, raw in obj.items():
        if feature not in FEATURE_NAMES:
            raise SchemeError(f"unknown feature {excerpt(feature)} in scheme")
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
                    raise SchemeError(f"{feature}: unknown sex {excerpt(sex_name)}") from None
                per_sex[sex] = _bands_from_json(feature, bands_raw)
            bands[feature] = per_sex
        else:
            bands[feature] = _bands_from_json(feature, raw)
    return bands


@cache
def default_scheme() -> QualificationScheme:
    """The scheme shipped with the package, read once. Covers every feature."""
    return QualificationScheme(_bands_from_mapping(
        _inputs.json_object(_inputs.shipped("default_scheme.json"), "scheme")))


def load_scheme(config: bytes | str | None = None) -> QualificationScheme:
    """Build a scheme from a JSON config, filling gaps from the default.

    Config shape: {feature: [{label, lower, upper}, ...]} with null bounds
    for unbounded sides; a feature may instead carry
    {"by_sex": {sex: [...]}}. A feature the config names replaces its
    default table entry whole; features it omits keep theirs. None or empty
    input returns the default scheme.
    """
    if config is None:
        return default_scheme()
    config = _inputs.text(config, "scheme config")
    if not config.strip():
        return default_scheme()
    custom = _bands_from_mapping(_inputs.json_object(config, "scheme config"))
    return QualificationScheme({**default_scheme().bands, **custom})


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
        # a validated band set tiles its range, so at most one band holds value
        hit = next((b for b in band_set if b.contains(value)), None)
        if hit is None:
            raise SchemeError(f"{feature}: value {value} matched 0 bands")
        facts.append(QualifiedFact(
            individual=individual_name(feature, fv.window_start),
            class_label=hit.label,
            value=float(value),
            window_start=fv.window_start,
            window_end=fv.window_end,
            source_feature=feature,
        ))
    return facts
