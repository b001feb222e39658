import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatiguekit import (
    ArgumentError,
    DecodeError,
    FactBase,
    KnowledgeSnapshot,
    Taxonomy,
    UnknownClassError,
    assert_fact,
    assert_value,
    default_taxonomy,
    entails,
    get_value,
    load_snapshot,
    query_class,
    save_snapshot,
)

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
        assert DIAMOND.ancestors("Bottom") \
            == frozenset({"Bottom", "LeftMid", "RightMid", "Top"})

    def test_descendants_include_self(self):
        assert DIAMOND.descendants("Top") \
            == frozenset({"Top", "LeftMid", "RightMid", "Bottom"})
        assert DIAMOND.descendants("Stray") == frozenset({"Stray"})

    def test_with_classes_extends(self):
        grown = DIAMOND.with_classes({"Deeper": ("Bottom",)})
        assert "Deeper" in grown.classes
        assert "Top" in grown.ancestors("Deeper")
        # original value untouched
        assert "Deeper" not in DIAMOND.classes

    def test_random_dags_match_reachability_oracle(self):
        from oracles import reachable_oracle
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
                assert tax.ancestors(name) == frozenset(
                    reachable_oracle(parents, name))


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
        assert get_value(fb, "swa@0", "has_max_swa_abs") == 12.0
        assert get_value(fb, "swa@0", "other") is None

    def test_data_property_replaces(self):
        fb = FactBase(taxonomy=DIAMOND)
        fb = assert_value(fb, "x", "p", 1.0)
        fb = assert_value(fb, "x", "p", 2.0)
        assert get_value(fb, "x", "p") == 2.0
        assert len(fb.data_properties) == 1

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
        assert entails(fb, "x", "Bottom")
        assert entails(fb, "x", "LeftMid")
        assert entails(fb, "x", "Top")
        assert not entails(fb, "x", "Stray")

    def test_chain_of_three(self):
        tax = Taxonomy(classes=frozenset({"A", "B", "C", "D"}),
                       parents={"B": ("A",), "C": ("B",), "D": ("C",)})
        fb = assert_fact(FactBase(taxonomy=tax), "x", "D")
        assert entails(fb, "x", "A")

    def test_no_downward_inheritance(self):
        fb = assert_fact(FactBase(taxonomy=DIAMOND), "x", "Top")
        assert query_class(fb, "Top") == frozenset({"x"})
        assert query_class(fb, "Bottom") == frozenset()
        assert not entails(fb, "x", "Bottom")

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
            entails(fb, "x", "Nope")
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
        assert loaded.factbase.taxonomy.ancestors("Bottom") == DIAMOND.ancestors("Bottom")
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
        tax = default_taxonomy()
        assert "SteeringWheelMeasurementFatigue" \
            in tax.ancestors("SteeringWheelMeasurmentFatigue_High")
        assert "YawAngleMeasurementFatigue" \
            in tax.ancestors("YawAngleMeasurmentFatigue_Low")

    def test_scheme_labels_attached(self):
        from fatiguekit import default_scheme
        tax = default_taxonomy(default_scheme())
        assert "SWA_Extreme" in tax.classes
        assert "BPM_Drowsy" in tax.classes
        assert "SWA_measure" in tax.ancestors("SWA_Extreme")

    def test_three_measure_roots(self):
        tax = default_taxonomy()
        for root in ("Vehicle_Measure", "Physical_Measure", "Physiological_Measure"):
            assert root in tax.classes
