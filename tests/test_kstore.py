import hashlib
import itertools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatiguekit import (
    FEATURE_NAMES,
    ArgumentError,
    DecodeError,
    FactBase,
    KnowledgeSnapshot,
    Taxonomy,
    UnknownClassError,
    assert_fact,
    assert_value,
    default_taxonomy,
    load_scheme,
    load_snapshot,
    query_class,
    save_snapshot,
)
from fatiguekit.kstore import _decode_ontology, _decode_taxonomy, ontology

DIAMOND = Taxonomy(
    classes=frozenset({"Top", "LeftMid", "RightMid", "Bottom", "Stray"}),
    parents={
        "LeftMid": ("Top",),
        "RightMid": ("Top",),
        "Bottom": ("LeftMid", "RightMid"),
    },
)


class TestTaxonomy:
    def test_cycle_rejected(self):
        with pytest.raises(ArgumentError):
            Taxonomy(classes=frozenset({"A", "B"}),
                     parents={"A": ("B",), "B": ("A",)})

    def test_cycle_message_names_the_path(self):
        # the search may enter the cycle at either class
        with pytest.raises(ArgumentError,
                           match=r"^subclass cycle: (A -> B -> A|B -> A -> B)$"):
            Taxonomy(classes=frozenset({"A", "B"}),
                     parents={"A": ("B",), "B": ("A",)})

    def test_cycle_message_independent_of_hash_seed(self):
        code = ("from fatiguekit import Taxonomy\n"
                "try:\n"
                "    Taxonomy(classes=frozenset({'A', 'B'}),\n"
                "             parents={'A': ('B',), 'B': ('A',)})\n"
                "except Exception as e:\n"
                "    print(e)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        messages = set()
        for seed in ("1", "2", "3", "4"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            messages.add(proc.stdout.strip())
        assert messages == {"subclass cycle: A -> B -> A"}

    def test_deep_chain_snapshot_round_trip(self):
        # deeper than the interpreter's default recursion limit of 1000
        names = [f"C{i}" for i in range(3000)]
        tax = Taxonomy(classes=frozenset(names),
                       parents={c: (p,) for p, c in zip(names, names[1:])})
        fb = assert_fact(FactBase(taxonomy=tax, timestamp=0.0), "x", names[-1])
        snap = load_snapshot(save_snapshot(
            KnowledgeSnapshot(factbase=fb, trace_id="deep", window=(0.0, 60.0))))
        assert snap.factbase.taxonomy.parents == tax.parents

    def test_deep_cycle_rejected(self):
        names = [f"C{i}" for i in range(3000)]
        parents = {c: (p,) for p, c in zip(names, names[1:])}
        parents[names[0]] = (names[-1],)
        with pytest.raises(ArgumentError, match="subclass cycle"):
            Taxonomy(classes=frozenset(names), parents=parents)

    def test_self_loop_rejected(self):
        with pytest.raises(ArgumentError):
            Taxonomy(classes=frozenset({"A"}), parents={"A": ("A",)})

    def test_unknown_parent_rejected(self):
        with pytest.raises(UnknownClassError):
            Taxonomy(classes=frozenset({"A"}), parents={"A": ("Ghost",)})

    def test_ancestors_include_self(self):
        from oracles import reachable_oracle
        assert reachable_oracle(DIAMOND.parents, "Bottom") \
            == {"Bottom", "LeftMid", "RightMid", "Top"}

    def test_descendants_include_self(self):
        assert DIAMOND.descendants("Top") \
            == frozenset({"Top", "LeftMid", "RightMid", "Bottom"})
        assert DIAMOND.descendants("Stray") == frozenset({"Stray"})

    def test_random_dags_match_reachability_oracle(self):
        from oracles import descendants_oracle
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            names = [f"C{i}" for i in range(n)]
            parents = {}
            for i in range(n):
                # edges only toward lower indices keeps the graph acyclic
                choices = names[:i]
                if choices and rng.random() < 0.8:
                    k = int(rng.integers(1, len(choices) + 1))
                    picked = rng.choice(choices, size=k, replace=False)
                    parents[names[i]] = tuple(str(p) for p in picked)
            tax = Taxonomy(classes=frozenset(names), parents=parents)
            for name in names:
                assert tax.descendants(name) == frozenset(
                    descendants_oracle(parents, tax.classes, name))


class TestFactBase:
    def test_assert_idempotent(self):
        fb = FactBase(taxonomy=DIAMOND)
        fb1 = assert_fact(fb, "x", "Bottom")
        fb2 = assert_fact(fb1, "x", "Bottom")
        assert fb1.memberships == fb2.memberships
        assert len(fb2.memberships) == 1

    def test_unknown_class(self):
        fb = FactBase(taxonomy=DIAMOND)
        with pytest.raises(UnknownClassError):
            assert_fact(fb, "x", "SWA_Gigantic")

    def test_persistent_values(self):
        fb0 = FactBase(taxonomy=DIAMOND)
        fb1 = assert_fact(fb0, "x", "Top")
        assert fb0.memberships == frozenset()
        assert ("x", "Top") in fb1.memberships

    def test_data_property_roundtrip(self):
        fb = FactBase(taxonomy=DIAMOND)
        fb = assert_value(fb, "swa@0", "has_max_swa_abs", 12.0)
        assert fb.data_properties == frozenset({("swa@0", "has_max_swa_abs", 12.0)})

    def test_data_property_replaces(self):
        fb = FactBase(taxonomy=DIAMOND)
        fb = assert_value(fb, "x", "p", 1.0)
        fb = assert_value(fb, "x", "p", 2.0)
        assert fb.data_properties == frozenset({("x", "p", 2.0)})

    def test_duplicate_property_pair_rejected_at_construction(self):
        with pytest.raises(ArgumentError):
            FactBase(taxonomy=DIAMOND,
                     data_properties=frozenset({("x", "p", 1.0), ("x", "p", 2.0)}))

    def test_membership_validated_at_construction(self):
        with pytest.raises(UnknownClassError):
            FactBase(taxonomy=DIAMOND, memberships=frozenset({("x", "Nope")}))


class TestEntailment:
    def test_subclass_closure(self):
        fb = assert_fact(FactBase(taxonomy=DIAMOND), "x", "Bottom")
        for cls in ("Bottom", "LeftMid", "RightMid", "Top"):
            assert query_class(fb, cls) == frozenset({"x"})
        assert query_class(fb, "Stray") == frozenset()

    def test_chain_of_three(self):
        tax = Taxonomy(classes=frozenset({"A", "B", "C", "D"}),
                       parents={"B": ("A",), "C": ("B",), "D": ("C",)})
        fb = assert_fact(FactBase(taxonomy=tax), "x", "D")
        assert query_class(fb, "A") == frozenset({"x"})

    def test_no_downward_inheritance(self):
        fb = assert_fact(FactBase(taxonomy=DIAMOND), "x", "Top")
        assert query_class(fb, "Top") == frozenset({"x"})
        assert query_class(fb, "Bottom") == frozenset()

    def test_query_class_collects_siblings(self):
        fb = FactBase(taxonomy=DIAMOND)
        fb = assert_fact(fb, "a", "LeftMid")
        fb = assert_fact(fb, "b", "RightMid")
        assert query_class(fb, "Top") == frozenset({"a", "b"})

    def test_query_empty(self):
        assert query_class(FactBase(taxonomy=DIAMOND), "Top") == frozenset()

    def test_unknown_class_raises(self):
        fb = FactBase(taxonomy=DIAMOND)
        with pytest.raises(UnknownClassError):
            query_class(fb, "Nope")


def random_snapshot(rng) -> KnowledgeSnapshot:
    n = int(rng.integers(2, 8))
    names = [f"K{i}" for i in range(n)]
    parents = {}
    for i in range(1, n):
        if rng.random() < 0.7:
            k = int(rng.integers(1, i + 1))
            picked = rng.choice(names[:i], size=k, replace=False)
            parents[names[i]] = tuple(str(p) for p in picked)
    tax = Taxonomy(classes=frozenset(names), parents=parents)
    fb = FactBase(taxonomy=tax, timestamp=float(rng.integers(0, 1000)))
    for _ in range(int(rng.integers(0, 10))):
        ind = f"i{int(rng.integers(0, 5))}"
        fb = assert_fact(fb, ind, str(rng.choice(names)))
    for _ in range(int(rng.integers(0, 6))):
        ind = f"i{int(rng.integers(0, 5))}"
        fb = assert_value(fb, ind, f"p{int(rng.integers(0, 3))}",
                          float(np.round(rng.normal(), 6)))
    window = None
    if rng.random() < 0.5:
        start = float(rng.integers(0, 100))
        window = (start, start + 60.0)
    return KnowledgeSnapshot(factbase=fb, trace_id=f"t{int(rng.integers(0, 9))}",
                             window=window)


class TestSnapshots:
    def test_round_trip_equality(self):
        fb = FactBase(taxonomy=DIAMOND)
        for ind, cls in itertools.product(("a", "b"), ("Top", "Bottom", "Stray")):
            fb = assert_fact(fb, ind, cls)
        fb = assert_value(fb, "a", "has_val", 3.25)
        snap = KnowledgeSnapshot(factbase=fb, trace_id="tr", window=(0.0, 60.0))
        loaded = load_snapshot(save_snapshot(snap))
        assert loaded.factbase.memberships == fb.memberships
        assert loaded.factbase.data_properties == fb.data_properties
        assert loaded.factbase.taxonomy.classes == DIAMOND.classes
        from oracles import reachable_oracle
        assert reachable_oracle(loaded.factbase.taxonomy.parents, "Bottom") \
            == reachable_oracle(DIAMOND.parents, "Bottom")
        assert loaded.trace_id == "tr"
        assert loaded.window == (0.0, 60.0)

    def test_two_saves_byte_identical(self):
        fb = assert_fact(FactBase(taxonomy=DIAMOND), "x", "Top")
        snap = KnowledgeSnapshot(factbase=fb)
        assert save_snapshot(snap) == save_snapshot(snap)

    def test_save_load_save_byte_identical_randomized(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            snap = random_snapshot(rng)
            first = save_snapshot(snap)
            second = save_snapshot(load_snapshot(first))
            assert first == second

    def test_truncated_file(self):
        fb = assert_fact(FactBase(taxonomy=DIAMOND), "x", "Top")
        blob = save_snapshot(KnowledgeSnapshot(factbase=fb))
        with pytest.raises(DecodeError):
            load_snapshot(blob[: len(blob) // 2])

    def test_missing_key(self):
        with pytest.raises(DecodeError):
            load_snapshot(b'{"taxonomy": {"classes": [], "subclass_of": {}}}')

    def test_extra_meta_keys_survive(self):
        fb = FactBase(taxonomy=DIAMOND)
        snap = KnowledgeSnapshot(factbase=fb, meta_extra={"note": "hello"})
        loaded = load_snapshot(save_snapshot(snap))
        assert loaded.meta_extra == {"note": "hello"}
        assert save_snapshot(loaded) == save_snapshot(snap)

    def test_ordering_in_file(self):
        fb = FactBase(taxonomy=DIAMOND)
        fb = assert_fact(fb, "z", "Top")
        fb = assert_fact(fb, "a", "Top")
        text = save_snapshot(KnowledgeSnapshot(factbase=fb)).decode()
        assert text.index('"a"') < text.index('"z"')


class TestDefaultTaxonomy:
    def test_anchor_classes_present(self):
        tax = default_taxonomy()
        assert "SteeringWheelMeasurementFatigue" in tax.classes
        assert "YawAngleMeasurementFatigue" in tax.classes

    def test_level_classes_under_anchors(self):
        from oracles import reachable_oracle
        tax = default_taxonomy()
        assert "SteeringWheelMeasurementFatigue" \
            in reachable_oracle(tax.parents, "SteeringWheelMeasurmentFatigue_High")
        assert "YawAngleMeasurementFatigue" \
            in reachable_oracle(tax.parents, "YawAngleMeasurmentFatigue_Low")

    def test_scheme_labels_attached(self):
        from fatiguekit import default_scheme
        from oracles import reachable_oracle
        tax = default_taxonomy(default_scheme())
        assert "SWA_Extreme" in tax.classes
        assert "BPM_Drowsy" in tax.classes
        assert "SWA_measure" in reachable_oracle(tax.parents, "SWA_Extreme")

    def test_three_measure_roots(self):
        tax = default_taxonomy()
        for root in ("Vehicle_Measure", "Physical_Measure", "Physiological_Measure"):
            assert root in tax.classes

    # sha256 of the rendered taxonomy, recorded while the structural classes,
    # families and anchors were still Python tables: reading them from
    # data/ontology.json must give the same classes and edges
    RENAMED_SWA = {"mean_swa_abs": [
        {"label": "SwaMean_Low", "lower": 0.0, "upper": 8.0},
        {"label": "SwaMean_High", "lower": 8.0, "upper": None}]}
    BPM_BY_SEX = {"mean_bpm": {"by_sex": {
        "female": [{"label": "HeartRate_Slow", "lower": None, "upper": 60.0},
                   {"label": "HeartRate_Usual", "lower": 60.0, "upper": None}],
        "male": [{"label": "HeartRate_Slow", "lower": None, "upper": 55.0},
                 {"label": "BPM_Normal", "lower": 55.0, "upper": None}]}}}

    @pytest.mark.parametrize("config, digest", [
        (None, "cf376e7f870c43e05a046148d001c07146dbaa160b62c4fd0e67a91514ae227c"),
        (RENAMED_SWA, "5cb75f6909d6e0fecce0bfd40870c7d7c193ad6ee4a2386b4d5cc0e79e76d417"),
        (BPM_BY_SEX, "b6daad1e50fab27ebd4c583893dc0951da9d4aafc01dad823ab06f6a766ac574"),
    ], ids=["default", "renamed-mean-swa", "bpm-by-sex"])
    def test_taxonomy_text_unchanged(self, config, digest):
        scheme = load_scheme(None if config is None else json.dumps(config))
        text = default_taxonomy(scheme)._snapshot_text
        assert hashlib.sha256(text.encode()).hexdigest() == digest


ONTOLOGY_TEXT = (resources.files("fatiguekit") / "data/ontology.json").read_text("utf-8")


def edited_ontology(edit) -> str:
    """The shipped ontology document after edit(doc) changed it in place."""
    doc = json.loads(ONTOLOGY_TEXT)
    edit(doc)
    return json.dumps(doc)


class TestOntology:
    def test_shipped_document_is_what_the_store_knows(self):
        onto = ontology()
        assert onto is ontology()  # read once per process
        assert onto == _decode_ontology(ONTOLOGY_TEXT)
        assert set(onto.feature_families) == set(FEATURE_NAMES)
        assert onto.anchors == {"steering": "SteeringWheelMeasurementFatigue",
                                "yaw": "YawAngleMeasurementFatigue"}
        assert onto.taxonomy.classes <= default_taxonomy().classes

    def test_taxonomy_decoder_shared_with_snapshots(self):
        doc = json.loads(ONTOLOGY_TEXT)
        assert _decode_taxonomy(doc, "ontology") == ontology().taxonomy
        snap = KnowledgeSnapshot(factbase=FactBase(taxonomy=ontology().taxonomy))
        assert load_snapshot(save_snapshot(snap)).factbase.taxonomy == ontology().taxonomy

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d["taxonomy"]["subclass_of"].update(Vehicle_Measure=["MeanSWA"]),
         "taxonomy invalid: subclass cycle: "),
        (lambda d: d["taxonomy"]["subclass_of"].update(MeanSWA=["NoSuchParent"]),
         "taxonomy invalid: unknown class 'NoSuchParent'"),
        (lambda d: d["feature_families"].update(mean_bpm="NoSuchFamily"),
         "feature_families.mean_bpm names unknown class 'NoSuchFamily'"),
        (lambda d: d["anchors"].update(eyes="NoSuchAnchor"),
         "anchors.eyes names unknown class 'NoSuchAnchor'"),
        (lambda d: d["feature_families"].pop("gaze_persac"), "gaze_persac"),
        (lambda d: d["feature_families"].update(pulse="BPM"), "pulse"),
        (lambda d: d["source_names"].update(X=3), "source_names.X"),
        (lambda d: d.pop("anchors"), "missing 'anchors'"),
    ], ids=["cycle", "unknown-parent", "unknown-family", "unknown-anchor",
            "feature-without-family", "family-of-no-feature", "source-name-number",
            "no-anchors"])
    def test_malformed_document_names_ontology(self, edit, named):
        text = edited_ontology(edit)
        with pytest.raises(DecodeError, match=r"^ontology ") as exc:
            _decode_ontology(text)
        assert named in str(exc.value)


def random_dag(rng) -> tuple[list[str], dict]:
    n = int(rng.integers(2, 10))
    names = [f"C{i}" for i in range(n)]
    parents = {}
    for i in range(1, n):
        # edges only toward lower indices keeps the graph acyclic
        if rng.random() < 0.8:
            k = int(rng.integers(1, i + 1))
            picked = rng.choice(names[:i], size=k, replace=False)
            parents[names[i]] = tuple(str(p) for p in picked)
    return names, parents


class TestMemoisedClosures:
    @staticmethod
    def assert_matches_oracles(tax):
        from oracles import descendants_oracle
        for name in sorted(tax.classes):
            assert tax.descendants(name) \
                == frozenset(descendants_oracle(tax.parents, tax.classes, name))

    def test_random_dags_repeated_calls_and_with_classes(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            names, parents = random_dag(rng)
            tax = Taxonomy(classes=frozenset(names), parents=parents)
            before = {c: tax.descendants(c) for c in names}
            for _ in range(3):
                self.assert_matches_oracles(tax)
            # C0 gains a parent and the last class a child: a new instance
            # with closures of its own, the original's left as they were
            grown = Taxonomy(classes=frozenset(names) | {"Top", "Leaf"},
                             parents={**parents, "C0": ("Top",), "Leaf": (names[-1],)})
            self.assert_matches_oracles(grown)
            assert "Leaf" in grown.descendants(names[-1])
            assert {c: tax.descendants(c) for c in names} == before
            with pytest.raises(UnknownClassError):
                tax.descendants("Top")

    def test_unknown_class_raises_on_every_call(self):
        tax = Taxonomy(classes=DIAMOND.classes, parents=dict(DIAMOND.parents))
        for _ in range(3):
            with pytest.raises(UnknownClassError):
                tax.descendants("Nope")
        assert tax.descendants("LeftMid") == frozenset({"LeftMid", "Bottom"})
        with pytest.raises(UnknownClassError):
            query_class(FactBase(taxonomy=tax), "Nope")


# Snapshot writer against the whole-object json.dumps writer.

_KNOWN_META = ("engine_version", "timestamp", "trace_id", "window")
_names = st.one_of(st.text(max_size=6),
                   st.sampled_from(["Fahrer\u2028A", "über", "\u2029", "日本",
                                    "\U0001f600", 'q"\\\n']))
_numbers = st.one_of(st.integers(min_value=-10**30, max_value=10**30),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([-0.0, 1e-300, 5e-324, 1.7976931348623157e308]))
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _numbers, _names),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_names, inner, max_size=3)),
    max_leaves=8)


@st.composite
def taxonomies(draw):
    names = draw(st.lists(_names, min_size=1, max_size=6, unique=True))
    parents = {}
    if draw(st.booleans()):  # else no subclass edges at all
        for i in range(1, len(names)):
            ps = draw(st.lists(st.sampled_from(names[:i]), max_size=2, unique=True))
            if ps or draw(st.booleans()):
                parents[names[i]] = tuple(ps)
    return Taxonomy(classes=frozenset(names), parents=parents)


@st.composite
def snapshots(draw, round_trip=False):
    """Random snapshots; with round_trip, only those load_snapshot reads
    back exactly (float times, no meta_extra key shadowing a known one)."""
    tax = draw(taxonomies())
    members = draw(st.frozensets(st.tuples(_names, st.sampled_from(sorted(tax.classes))),
                                 max_size=6))
    values = draw(st.dictionaries(st.tuples(_names, _names), _numbers, max_size=6))
    times = st.floats(allow_nan=False, allow_infinity=False) if round_trip else _numbers
    window = draw(st.none() | st.tuples(times, times))
    keys = _names if round_trip else st.one_of(_names, st.sampled_from(_KNOWN_META))
    meta_extra = draw(st.dictionaries(keys, _json_values, max_size=3))
    if round_trip:
        meta_extra = {k: v for k, v in meta_extra.items() if k not in _KNOWN_META}
    fb = FactBase(taxonomy=tax, memberships=members,
                  data_properties=frozenset((i, p, v) for (i, p), v in values.items()),
                  timestamp=draw(times))
    return KnowledgeSnapshot(factbase=fb, trace_id=draw(_names), window=window,
                             meta_extra=meta_extra)


class TestSnapshotWriter:
    @settings(max_examples=200, deadline=None)
    @given(snapshots())
    def test_equals_whole_object_writer(self, snap):
        from oracles import save_snapshot_whole
        assert save_snapshot(snap) == save_snapshot_whole(snap)

    @settings(max_examples=100, deadline=None)
    @given(snapshots(round_trip=True))
    def test_round_trip(self, snap):
        first = save_snapshot(snap)
        loaded = load_snapshot(first)
        assert loaded.factbase.memberships == snap.factbase.memberships
        assert save_snapshot(loaded) == first

    def test_shadowing_and_empty_cases(self):
        from oracles import save_snapshot_whole
        flat = Taxonomy(classes=frozenset({"A", "B"}), parents={"B": ()})
        cases = [
            KnowledgeSnapshot(factbase=FactBase(taxonomy=flat)),
            KnowledgeSnapshot(factbase=FactBase(taxonomy=flat), window=(1.0, 2.0),
                              meta_extra={"window": {"nested": [1, {"x": None}]},
                                          "z": [[], {}]}),
            KnowledgeSnapshot(factbase=FactBase(
                taxonomy=flat, memberships=frozenset({("F\u2028x", "A")}),
                data_properties=frozenset({("F\u2028x", "p", -0.0), ("i", "p", 10**40),
                                           ("j", "p", 1e-300), ("k", "p", 3)}))),
        ]
        for snap in cases:
            assert save_snapshot(snap) == save_snapshot_whole(snap)

    def test_two_taxonomies_alternately(self):
        # same classes and facts, different edges: only the taxonomy text
        # tells the snapshots apart
        from oracles import save_snapshot_whole
        flat = Taxonomy(classes=DIAMOND.classes, parents={"Bottom": ("Top",)})
        snaps = [KnowledgeSnapshot(factbase=assert_fact(FactBase(taxonomy=tax), "x", cls))
                 for tax, cls in ((DIAMOND, "Top"), (flat, "Top"),
                                  (default_taxonomy(), "PERCLOS"))]
        for _ in range(3):
            for snap in snaps:
                assert save_snapshot(snap) == save_snapshot_whole(snap)
        assert save_snapshot(snaps[0]) != save_snapshot(snaps[1])


class TestSnapshotRows:
    """The row renderer against the whole-object writer on leaves whose
    encoding or layout could go wrong."""

    NAMES = ("plain", "line\nbreak", "sep\u2028arator", 'quo"te', "back\\slash",
             "[bracket],", "café \U0001f600")

    @pytest.mark.parametrize("members, values", [
        ((), ()),
        ((("x", "A"),), ()),
        ((), (("x", "p", 1.0),)),
    ])
    def test_empty_and_single_rows(self, members, values):
        from oracles import save_snapshot_whole
        tax = Taxonomy(classes=frozenset({"A"}), parents={})
        snap = KnowledgeSnapshot(factbase=FactBase(
            taxonomy=tax, memberships=frozenset(members),
            data_properties=frozenset(values)))
        assert save_snapshot(snap) == save_snapshot_whole(snap)

    @pytest.mark.parametrize("value", [0, 3, -7, 10**20, -0.0, 0.0, 5e-324, -5e-324,
                                       1e16, 1e-7, 123456789.125, 1.7976931348623157e308])
    def test_numbers(self, value):
        from oracles import save_snapshot_whole
        tax = Taxonomy(classes=frozenset({"A"}), parents={})
        snap = KnowledgeSnapshot(factbase=FactBase(
            taxonomy=tax, memberships=frozenset({("x", "A")}),
            data_properties=frozenset({("x", "p", value), ("y", "p", 1.5)})))
        assert save_snapshot(snap) == save_snapshot_whole(snap)

    def test_names_needing_escapes(self):
        from oracles import save_snapshot_whole
        tax = Taxonomy(classes=frozenset(self.NAMES), parents={})
        snap = KnowledgeSnapshot(factbase=FactBase(
            taxonomy=tax,
            memberships=frozenset((i, c) for i in self.NAMES for c in self.NAMES[:3]),
            data_properties=frozenset((i, p, float(k)) for k, (i, p) in enumerate(
                itertools.product(self.NAMES, repeat=2)))))
        data = save_snapshot(snap)
        assert data == save_snapshot_whole(snap)
        assert load_snapshot(data).factbase == snap.factbase
