"""Minimal knowledge store: the shipped ontology, taxonomy, facts, snapshots.

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
from functools import cache, cached_property
from importlib import resources

from . import _inputs
from .errors import ArgumentError, DecodeError, UnknownClassError
from .features import FEATURE_NAMES
from .qualify import default_scheme

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

    def descendants(self, cls: str) -> frozenset[str]:
        """All classes from which cls is reachable upward, cls included."""
        found = self.memo.get(("descendants", cls))
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
                stack.extend(self._children.get(c, ()))
            found = self.memo["descendants", cls] = frozenset(seen)
        return found

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


def _expect(obj: dict, key: str, kind, what: str, where: str = ""):
    if key not in obj:
        raise DecodeError(f"{what} missing {where}{key!r}")
    if not isinstance(obj[key], kind):
        raise DecodeError(f"{what} {where}{key!r} has the wrong type")
    return obj[key]


def _decode_taxonomy(obj: dict, what: str) -> Taxonomy:
    """The `taxonomy` section of a snapshot or the ontology, named by `what`."""
    tax_obj = _expect(obj, "taxonomy", dict, what)
    classes = _expect(tax_obj, "classes", list, what, "taxonomy.")
    if not all(isinstance(c, str) for c in classes):
        raise DecodeError(f"{what} taxonomy.classes must list class names")
    sub = _expect(tax_obj, "subclass_of", dict, what, "taxonomy.")
    parents = {}
    for child, ps in sub.items():
        if not isinstance(ps, list) or not all(isinstance(p, str) for p in ps):
            raise DecodeError(f"{what} taxonomy.subclass_of[{child!r}] must list classes")
        parents[child] = tuple(ps)
    try:
        return Taxonomy(classes=frozenset(classes), parents=parents)
    except (UnknownClassError, ArgumentError) as e:
        raise DecodeError(f"{what} taxonomy invalid: {e}") from None


def load_snapshot(data: bytes | str) -> KnowledgeSnapshot:
    """Parse snapshot bytes back into a store.

    Raises DecodeError with a line number for malformed JSON and a key path
    for schema violations.
    """
    obj = _inputs.json_object(data, "snapshot")
    taxonomy = _decode_taxonomy(obj, "snapshot")

    memberships = set()
    for entry in _expect(obj, "memberships", list, "snapshot"):
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(x, str) for x in entry)):
            raise DecodeError(f"snapshot membership {entry!r} must be [individual, class]")
        memberships.add((entry[0], entry[1]))
    data_properties = set()
    for entry in _expect(obj, "data_properties", list, "snapshot"):
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise DecodeError(
                f"snapshot data property {entry!r} must be [individual, property, number]")
        # checked finite, but an integer value stays an integer
        _inputs.number(entry[2], f"snapshot data property {entry[:2]!r} value")
        data_properties.add((entry[0], entry[1], entry[2]))

    meta = _expect(obj, "meta", dict, "snapshot")
    window = meta.get("window")
    if window is not None:
        if not (isinstance(window, list) and len(window) == 2):
            raise DecodeError("snapshot meta.window must be [start, end] or null")
        window = tuple(_inputs.number(t, "snapshot meta.window") for t in window)
    known_meta = {"engine_version", "timestamp", "trace_id", "window"}
    extra = {k: v for k, v in meta.items() if k not in known_meta}

    try:
        fb = FactBase(
            taxonomy=taxonomy,
            memberships=frozenset(memberships),
            data_properties=frozenset(data_properties),
            timestamp=_inputs.number(meta.get("timestamp", 0.0), "snapshot meta.timestamp"),
        )
    except UnknownClassError as e:
        raise DecodeError(f"snapshot membership invalid: {e}") from None
    return KnowledgeSnapshot(
        factbase=fb,
        trace_id=_inputs.of_type(meta.get("trace_id", "trace"), str, "snapshot meta.trace_id",
                                 "a string"),
        window=window,
        engine_version=_inputs.of_type(meta.get("engine_version", ENGINE_VERSION), str,
                                       "snapshot meta.engine_version", "a string"),
        meta_extra=extra,
    )


# ---------------------------------------------------------------------------
# The ontology: what the knowledge layer knows

@dataclass(frozen=True)
class Ontology:
    """`data/ontology.json`, decoded and checked; one shared instance, never mutated."""

    taxonomy: Taxonomy                # structural classes; band labels hang off them
    feature_families: dict[str, str]  # feature -> class its band labels hang under
    anchors: dict[str, str]           # anchor individual -> its verdict class
    source_names: dict[str, str]      # verdict-class stem -> source name in reports


def _decode_ontology(data: bytes | str) -> Ontology:
    """An ontology document. Every family and anchor must be a class of its
    taxonomy, and the families must cover exactly FEATURE_NAMES."""
    obj = _inputs.json_object(data, "ontology")
    taxonomy = _decode_taxonomy(obj, "ontology")
    maps = {}
    for section in ("feature_families", "anchors", "source_names"):
        maps[section] = _expect(obj, section, dict, "ontology")
        for key, name in maps[section].items():
            _inputs.of_type(name, str, f"ontology {section}.{key}", "a name")
            if section != "source_names" and name not in taxonomy.classes:
                raise DecodeError(f"ontology {section}.{key} names unknown class {name!r}")
    if set(maps["feature_families"]) != set(FEATURE_NAMES):
        odd = sorted(set(maps["feature_families"]) ^ set(FEATURE_NAMES))
        raise DecodeError(f"ontology feature_families must map exactly the features: {odd}")
    return Ontology(taxonomy=taxonomy, **maps)


@cache
def ontology() -> Ontology:
    """The shipped ontology, read once per process."""
    return _decode_ontology((resources.files("fatiguekit") / "data/ontology.json").read_bytes())


def default_taxonomy(scheme=None) -> Taxonomy:
    """The ontology's taxonomy plus every band label of the given
    qualification scheme (the shipped default when omitted), each attached
    to its feature's family class."""
    onto = ontology()
    if scheme is None:
        scheme = default_scheme()
    classes = set(onto.taxonomy.classes)
    parents = dict(onto.taxonomy.parents)
    for feature, labels in scheme.all_labels().items():
        family = onto.feature_families[feature]
        for label in labels:
            classes.add(label)
            parents[label] = tuple(dict.fromkeys(parents.get(label, ()) + (family,)))
    return Taxonomy(classes=frozenset(classes), parents=parents)
