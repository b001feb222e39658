"""Minimal knowledge store: taxonomy, facts, snapshots.

The taxonomy is an acyclic subclass graph (a class may declare several
parents). A fact base holds class memberships and data-property triples for
named individuals. Both structures are immutable; every update returns a
new fact base and the one you held keeps meaning what it meant, which is
what lets a saved snapshot serve as a faithful historical record.

Snapshots serialize to canonical JSON: sorted keys, sorted arrays, UTF-8,
one trailing newline, so saving the same store twice yields identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import ArgumentError, DecodeError, UnknownClassError

ENGINE_VERSION = "0.1.0"


@dataclass(frozen=True)
class Taxonomy:
    """Classes plus declared subclass-of edges (child -> parents).

    A taxonomy never changes after construction (do not mutate `parents`),
    so each instance computes its subclass closures and its snapshot text
    once and keeps them. `load_snapshot` and `default_taxonomy` build new
    instances, which start with empty caches.
    """

    classes: frozenset[str]
    parents: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for child, ps in self.parents.items():
            if child not in self.classes:
                raise UnknownClassError(child)
            for p in ps:
                if p not in self.classes:
                    raise UnknownClassError(p)
        self._check_acyclic()

    def _check_acyclic(self):
        # Depth-first over parent links with an explicit stack, so chain
        # depth is not bounded by the interpreter's recursion limit. Roots
        # go in sorted order: a frozenset's order follows the string hash
        # seed, and with it which class a cycle is reported from.
        done: set[str] = set()
        for root in sorted(self.classes):
            if root in done:
                continue
            trail = [root]
            on_trail = {root}
            stack = [iter(self.parents.get(root, ()))]
            while stack:
                p = next(stack[-1], None)
                if p is None:
                    stack.pop()
                    c = trail.pop()
                    on_trail.discard(c)
                    done.add(c)
                elif p in on_trail:
                    cycle = " -> ".join(trail + [p])
                    raise ArgumentError(f"subclass cycle: {cycle}")
                elif p not in done:
                    trail.append(p)
                    on_trail.add(p)
                    stack.append(iter(self.parents.get(p, ())))

    @cached_property
    def _children(self) -> dict[str, list[str]]:
        children: dict[str, list[str]] = {}
        for child, ps in self.parents.items():
            for p in ps:
                children.setdefault(p, []).append(child)
        return children

    @cached_property
    def memo(self) -> dict:
        """Values derived from this taxonomy alone, under keys chosen by the
        code that derives them; only known classes are ever cached here."""
        return {}

    def _closure(self, kind: str, cls: str, edges: dict) -> frozenset[str]:
        found = self.memo.get((kind, cls))
        if found is None:
            if cls not in self.classes:
                raise UnknownClassError(cls)
            seen: set[str] = set()
            stack = [cls]
            while stack:
                c = stack.pop()
                if c in seen:
                    continue
                seen.add(c)
                stack.extend(edges.get(c, ()))
            found = self.memo[kind, cls] = frozenset(seen)
        return found

    def ancestors(self, cls: str) -> frozenset[str]:
        """All classes reachable upward from cls, cls included."""
        return self._closure("ancestors", cls, self.parents)

    def descendants(self, cls: str) -> frozenset[str]:
        """All classes from which cls is reachable upward, cls included."""
        return self._closure("descendants", cls, self._children)

    @cached_property
    def _snapshot_text(self) -> str:
        return _render({
            "classes": sorted(self.classes),
            "subclass_of": {c: sorted(ps) for c, ps in sorted(self.parents.items()) if ps},
        })


@dataclass(frozen=True)
class FactBase:
    """Immutable set of memberships and data properties at one instant."""

    taxonomy: Taxonomy
    memberships: frozenset[tuple[str, str]] = frozenset()          # (individual, class)
    data_properties: frozenset[tuple[str, str, float]] = frozenset()  # (ind, prop, value)
    timestamp: float = 0.0

    def __post_init__(self):
        for _, cls in self.memberships:
            if cls not in self.taxonomy.classes:
                raise UnknownClassError(cls)
        keys = [(i, p) for i, p, _ in self.data_properties]
        if len(keys) != len(set(keys)):
            raise ArgumentError("duplicate (individual, property) pair")

    def individuals(self) -> frozenset[str]:
        inds = {i for i, _ in self.memberships}
        inds.update(i for i, _, _ in self.data_properties)
        return frozenset(inds)

    def classes_of(self, individual: str) -> frozenset[str]:
        """Asserted classes only; use query_class for the closed reading."""
        return frozenset(c for i, c in self.memberships if i == individual)


def assert_fact(fb: FactBase, individual: str, cls: str) -> FactBase:
    """A new fact base that also holds (individual, cls). Idempotent."""
    if cls not in fb.taxonomy.classes:
        raise UnknownClassError(cls)
    pair = (individual, cls)
    if pair in fb.memberships:
        return fb
    return replace(fb, memberships=fb.memberships | {pair})


def assert_value(fb: FactBase, individual: str, prop: str, value: float) -> FactBase:
    """A new fact base carrying the data property. Re-asserting the same
    (individual, property) replaces the value; the pair stays unique."""
    triples = {t for t in fb.data_properties if (t[0], t[1]) != (individual, prop)}
    triples.add((individual, prop, value))
    return replace(fb, data_properties=frozenset(triples))


def query_class(fb: FactBase, cls: str) -> frozenset[str]:
    """Individuals entailed to be in cls (subclass-closed)."""
    if cls not in fb.taxonomy.classes:
        raise UnknownClassError(cls)
    wanted = fb.taxonomy.descendants(cls)
    return frozenset(i for i, c in fb.memberships if c in wanted)


@dataclass(frozen=True)
class KnowledgeSnapshot:
    """A fact base frozen to disk together with where it came from."""

    factbase: FactBase
    trace_id: str = "trace"
    window: tuple[float, float] | None = None
    engine_version: str = ENGINE_VERSION
    meta_extra: dict = field(default_factory=dict)


def _render(obj) -> str:
    """Canonical JSON for one top-level snapshot value, indented to sit one
    level down. ensure_ascii escapes every newline inside a string, so each
    newline in the text is a line break of the layout."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True).replace("\n", "\n  ")


# Encodes a flat list of JSON leaves with the C encoder, one per line: with
# ensure_ascii every newline inside a string is escaped, so each "\n" in
# the text separates two leaves.
_encode_leaves = json.JSONEncoder(ensure_ascii=True, separators=("\n", ":")).encode


def _render_rows(rows: list[tuple], width: int) -> str:
    """`_render` of a sorted list of rows, each holding `width` JSON scalars
    (strings and numbers, as fact-base rows do).

    All leaves are encoded by one C-encoder call and laid out in the
    indent-2 form, rows one level below the list.
    """
    if not rows:
        return "[]"
    leaves = iter(_encode_leaves([x for row in rows for x in row])[1:-1].split("\n"))
    rendered = ["[\n      " + ",\n      ".join(row) + "\n    ]"
                for row in zip(*[leaves] * width)]
    return "[\n    " + ",\n    ".join(rendered) + "\n  ]"


def save_snapshot(s: KnowledgeSnapshot) -> bytes:
    """Canonical JSON bytes. Same snapshot, same bytes, every time.

    The bytes are those of `json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=True)` on the whole snapshot object plus a newline; each
    top-level value is rendered on its own. The `data_properties` and
    `memberships` rows are rendered by `_render_rows`, one C-encoder call
    per section; `meta` goes through `_render`, and the taxonomy text is
    rendered once per taxonomy instance.
    """
    fb = s.factbase
    meta = {
        "engine_version": s.engine_version,
        "timestamp": fb.timestamp,
        "trace_id": s.trace_id,
        "window": list(s.window) if s.window is not None else None,
    }
    meta.update(s.meta_extra)
    # tuples sort as the lists of their items would
    parts = (
        ("data_properties", _render_rows(sorted(fb.data_properties), 3)),
        ("memberships", _render_rows(sorted(fb.memberships), 2)),
        ("meta", _render(meta)),
        ("taxonomy", fb.taxonomy._snapshot_text),
    )
    body = ",\n".join(f'  "{key}": {text}' for key, text in parts)
    return ("{\n" + body + "\n}\n").encode("utf-8")


def _expect(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise DecodeError(f"snapshot missing {where}{key!r}")
    if not isinstance(obj[key], kind):
        raise DecodeError(f"snapshot {where}{key!r} has the wrong type")
    return obj[key]


def load_snapshot(data: bytes | str) -> KnowledgeSnapshot:
    """Parse snapshot bytes back into a store.

    Raises DecodeError with a line number for malformed JSON and a key path
    for schema violations.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DecodeError(f"snapshot not valid UTF-8: {e.reason}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise DecodeError(f"snapshot not valid JSON: {e.msg}", row=e.lineno) from None
    if not isinstance(obj, dict):
        raise DecodeError("snapshot must be a JSON object")

    tax_obj = _expect(obj, "taxonomy", dict, "")
    classes = _expect(tax_obj, "classes", list, "taxonomy.")
    sub = _expect(tax_obj, "subclass_of", dict, "taxonomy.")
    parents = {}
    for child, ps in sub.items():
        if not isinstance(ps, list) or not all(isinstance(p, str) for p in ps):
            raise DecodeError(f"snapshot taxonomy.subclass_of[{child!r}] must list classes")
        parents[child] = tuple(ps)
    try:
        taxonomy = Taxonomy(classes=frozenset(classes), parents=parents)
    except (UnknownClassError, ArgumentError) as e:
        raise DecodeError(f"snapshot taxonomy invalid: {e}") from None

    memberships = set()
    for entry in _expect(obj, "memberships", list, ""):
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(x, str) for x in entry)):
            raise DecodeError(f"snapshot membership {entry!r} must be [individual, class]")
        memberships.add((entry[0], entry[1]))
    data_properties = set()
    for entry in _expect(obj, "data_properties", list, ""):
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)
                and isinstance(entry[2], (int, float)) and not isinstance(entry[2], bool)):
            raise DecodeError(
                f"snapshot data property {entry!r} must be [individual, property, number]")
        data_properties.add((entry[0], entry[1], entry[2]))

    meta = _expect(obj, "meta", dict, "")
    window = meta.get("window")
    if window is not None:
        if not (isinstance(window, list) and len(window) == 2):
            raise DecodeError("snapshot meta.window must be [start, end] or null")
        window = (float(window[0]), float(window[1]))
    known_meta = {"engine_version", "timestamp", "trace_id", "window"}
    extra = {k: v for k, v in meta.items() if k not in known_meta}

    try:
        fb = FactBase(
            taxonomy=taxonomy,
            memberships=frozenset(memberships),
            data_properties=frozenset(data_properties),
            timestamp=float(meta.get("timestamp", 0.0)),
        )
    except UnknownClassError as e:
        raise DecodeError(f"snapshot membership invalid: {e}") from None
    return KnowledgeSnapshot(
        factbase=fb,
        trace_id=str(meta.get("trace_id", "trace")),
        window=window,
        engine_version=str(meta.get("engine_version", ENGINE_VERSION)),
        meta_extra=extra,
    )


# ---------------------------------------------------------------------------
# Default taxonomy

# Structural classes: child -> parents. Band labels from the qualification
# scheme and the fatigue verdict classes hang off these.
_SKELETON: dict[str, tuple[str, ...]] = {
    "Vehicle_Measure": (),
    "Physical_Measure": (),
    "Physiological_Measure": (),

    "SteeringWheelAngleMeasurement": ("Vehicle_Measure",),
    "YawAngleMeasurement": ("Vehicle_Measure",),
    "SpeedAccelerationMeasurement": ("Vehicle_Measure",),
    "LanePositionMeasurement": ("Vehicle_Measure",),
    "VehicleBasedMeasurementFatigue": ("Vehicle_Measure",),

    "MeanSWA": ("SteeringWheelAngleMeasurement",),
    "FrequencyCorrection": ("SteeringWheelAngleMeasurement",),
    "SWA_measure": ("SteeringWheelAngleMeasurement",),
    "ApproximateEntropySWA": ("SteeringWheelAngleMeasurement",),
    "AngularVelocity": ("SteeringWheelAngleMeasurement",),

    "MeanYaw": ("YawAngleMeasurement",),
    "VarYaw": ("YawAngleMeasurement",),
    "Yaw_measure": ("YawAngleMeasurement",),
    "ApproximateEntropyYaw": ("YawAngleMeasurement",),
    "AccelerationYawRate": ("YawAngleMeasurement",),

    "LatAccelRange": ("SpeedAccelerationMeasurement",),
    "LaneDeviation": ("LanePositionMeasurement",),
    "LaneCrossings": ("LanePositionMeasurement",),

    "Facial_Measure": ("Physical_Measure",),
    "Eye_Measure": ("Facial_Measure",),
    "Mouth_Measure": ("Facial_Measure",),
    "Head_Measure": ("Facial_Measure",),
    "Gaze_Measure": ("Facial_Measure",),

    "PERCLOS": ("Eye_Measure",),
    "BlinkFrequency": ("Eye_Measure",),
    "BlinkDuration": ("Eye_Measure",),
    "MicroSleep": ("Eye_Measure",),
    "YawnCount": ("Mouth_Measure",),
    "YawnFrequency": ("Mouth_Measure",),
    "HeadPitch": ("Head_Measure",),
    "HeadMovement": ("Head_Measure",),
    "PERSAC": ("Gaze_Measure",),

    "HeartRateMeasurement": ("Physiological_Measure",),
    "BPM": ("HeartRateMeasurement",),

    # Verdict classes. The per-level subclasses keep the compressed spelling
    # ("Measurment") used by the stock rule packs; the anchors are spelled out.
    "SteeringWheelMeasurementFatigue": ("VehicleBasedMeasurementFatigue",),
    "YawAngleMeasurementFatigue": ("VehicleBasedMeasurementFatigue",),
    "SteeringWheelMeasurmentFatigue_Low": ("SteeringWheelMeasurementFatigue",),
    "SteeringWheelMeasurmentFatigue_Medium": ("SteeringWheelMeasurementFatigue",),
    "SteeringWheelMeasurmentFatigue_High": ("SteeringWheelMeasurementFatigue",),
    "YawAngleMeasurmentFatigue_Low": ("YawAngleMeasurementFatigue",),
    "YawAngleMeasurmentFatigue_Medium": ("YawAngleMeasurementFatigue",),
    "YawAngleMeasurmentFatigue_High": ("YawAngleMeasurementFatigue",),

    # Yaw magnitude levels referenced by the corrected rule pack.
    "MeanYaw_Small": ("MeanYaw",),
    "MeanYaw_Large": ("MeanYaw",),
    "MeanYaw_Extreme": ("MeanYaw",),
}


def default_taxonomy(scheme=None) -> Taxonomy:
    """The stock taxonomy: structural skeleton plus every band label of the
    given qualification scheme (the shipped default when omitted), each
    attached to its feature's family class."""
    from .qualify import FEATURE_FAMILIES, default_scheme  # deferred, no cycle at import

    if scheme is None:
        scheme = default_scheme()
    classes = set(_SKELETON)
    parents = dict(_SKELETON)
    for feature, labels in scheme.all_labels().items():
        family = FEATURE_FAMILIES[feature]
        if family not in classes:
            classes.add(family)
            parents[family] = ()
        for label in labels:
            classes.add(label)
            merged = tuple(dict.fromkeys(parents.get(label, ()) + (family,)))
            parents[label] = merged
    return Taxonomy(classes=frozenset(classes), parents=parents)
