"""Per-layer spans taken from outside fatiguekit.

`Tracer.install()` replaces, in the modules that look them up at call
time, the public functions that `fatiguekit.pipeline.run` calls with
wrappers that record a span (name, parent span, duration) and counters at
the same boundary. Nothing in the package's files changes; the wrappers
last as long as the process. A layer's self time is its spans' durations
minus what their child spans cover.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict

from fatiguekit import features, kstore, pipeline, rules, signals

FAMILIES = ("swa", "yaw", "kinematics", "eye", "mouth", "head", "physiology", "gaze")

# Every per-layer metric a traced operation reports, with its unit. The
# three setup metrics come from traced fresh interpreters instead.
OPERATION_UNITS = {
    "features.apen_s": "s",
    "features.apen_calls": "count",
    "features.apen_samples": "count",
    "features.apen_peak_mb": "MB",
    "features.extract_s": "s",
    **{f"features.{family}_s": "s" for family in FAMILIES},
    "features.skipped": "count",
    "signals.parse_s": "s",
    "signals.frames": "count",
    "signals.windows_s": "s",
    "signals.windows": "count",
    "signals.channel_s": "s",
    "signals.channel_calls": "count",
    "pipeline.perclos_s": "s",
    "qualify.qualify_s": "s",
    "qualify.facts": "count",
    "kstore.build_s": "s",
    "kstore.factbases": "count",
    "kstore.query_s": "s",
    "kstore.query_calls": "count",
    "rules.infer_s": "s",
    "rules.fired": "count",
    "rules.read_s": "s",
    "kstore.snapshot_s": "s",
    "kstore.snapshot_bytes": "bytes",
    "pipeline.jsonl_s": "s",
    "pipeline.report_bytes": "bytes",
    "pipeline.run_s": "s",
}
SETUP_UNITS = {"setup.import_s": "s", "pipeline.load_config_s": "s", "rules.parse_s": "s"}

_CLOSURE = "@closure"


class Tracer:
    """Spans and counters for one operation at a time; see `reset`."""

    def __init__(self, closure_window_s: float):
        self.closure_window_s = closure_window_s
        self.spans: list[list] = []   # [name, parent index or -1, seconds]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- wrapping -----------------------------------------------------------

    def _span(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span = [span_name, self._open[-1] if self._open else -1, 0.0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - start
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper

    def _patch_span(self, owner, attr, name, count=None):
        setattr(owner, attr, self._span(name, getattr(owner, attr), count))

    def install(self):
        def add(key, amount):
            def count(counts, args, result):
                counts[key] += amount(args, result)
            return count

        def windows_name(args):
            closure = args[1] == self.closure_window_s
            return "signals.make_windows" + (_CLOSURE if closure else "")

        self._patch_span(signals, "parse_trace", "signals.parse_trace",
                         add("frames", lambda a, r: len(r)))
        self._patch_span(pipeline, "run", "pipeline.run")
        self._patch_span(pipeline.FatigueReport, "to_jsonl", "pipeline.to_jsonl",
                         add("report_bytes", lambda a, r: len(r)))
        self._patch_span(pipeline, "make_windows", windows_name,
                         add("windows", lambda a, r: len(r)))
        self._patch_span(signals.Window, "channel", "signals.channel")
        self._patch_span(pipeline, "extract_features", "features.extract",
                         add("skipped", lambda a, r: len(r[1])))
        for family in FAMILIES:
            self._patch_span(features, f"{family}_features", f"features.{family}")
        self._patch_apen()
        self._patch_span(pipeline, "qualify", "qualify.qualify",
                         add("facts", lambda a, r: len(r)))
        for attr in ("FactBase", "assert_fact", "assert_value"):
            self._patch_span(pipeline, attr, "kstore.build")
        post_init = kstore.FactBase.__post_init__

        def counted_post_init(fb):
            self.counts["factbases"] += 1
            post_init(fb)
        kstore.FactBase.__post_init__ = counted_post_init
        self._patch_span(pipeline, "infer", "rules.infer",
                         add("fired", lambda a, r: len(r[1])))
        self._patch_span(rules, "query_class", "kstore.query_class")
        self._patch_span(pipeline, "read_fatigue", "rules.read")
        self._patch_span(pipeline, "fuse", "rules.read")
        self._patch_span(pipeline, "save_snapshot", "kstore.save_snapshot",
                         add("snapshot_bytes", lambda a, r: len(r)))

    def _patch_apen(self):
        # tracemalloc sees numpy's buffers; it runs only around each call, so
        # the rest of the operation pays nothing for it
        timed = self._span("features.apen", features.approximate_entropy,
                           lambda counts, args, r: counts.update(apen_samples=len(args[0])))

        def apen(*args, **kwargs):
            tracemalloc.start()
            try:
                return timed(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.counts["apen_peak_mb"] = max(self.counts["apen_peak_mb"], peak)
        features.approximate_entropy = apen

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total and self seconds per span name.

        Eye-feature calls outside feature extraction belong to the
        closure-window pass and get their own name.
        """
        child_time = [0.0] * len(self.spans)
        for _, parent, seconds in self.spans:
            if parent >= 0:
                child_time[parent] += seconds
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, parent, seconds) in enumerate(self.spans):
            if name == "features.eye" and (
                    parent < 0 or self.spans[parent][0] != "features.extract"):
                name += _CLOSURE
            row = out[name]
            row["calls"] += 1
            row["total_s"] += seconds
            row["self_s"] += seconds - child_time[index]
        return dict(out)

    def operation_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the operation traced since `reset`."""
        rows = self.summary()

        def total(*names):
            return sum(rows[n]["total_s"] for n in names if n in rows)

        def calls(name):
            return rows[name]["calls"] if name in rows else 0

        c = self.counts
        return {
            "features.apen_s": total("features.apen"),
            "features.apen_calls": calls("features.apen"),
            "features.apen_samples": c["apen_samples"],
            "features.apen_peak_mb": c["apen_peak_mb"],
            "features.extract_s": total("features.extract"),
            **{f"features.{f}_s": total(f"features.{f}") for f in FAMILIES},
            "features.skipped": c["skipped"],
            "signals.parse_s": total("signals.parse_trace"),
            "signals.frames": c["frames"],
            "signals.windows_s": total("signals.make_windows",
                                       "signals.make_windows" + _CLOSURE),
            "signals.windows": c["windows"],
            "signals.channel_s": total("signals.channel"),
            "signals.channel_calls": calls("signals.channel"),
            "pipeline.perclos_s": total("signals.make_windows" + _CLOSURE,
                                        "features.eye" + _CLOSURE),
            "qualify.qualify_s": total("qualify.qualify"),
            "qualify.facts": c["facts"],
            "kstore.build_s": total("kstore.build"),
            "kstore.factbases": c["factbases"],
            "kstore.query_s": total("kstore.query_class"),
            "kstore.query_calls": calls("kstore.query_class"),
            "rules.infer_s": total("rules.infer"),
            "rules.fired": c["fired"],
            "rules.read_s": total("rules.read"),
            "kstore.snapshot_s": total("kstore.save_snapshot"),
            "kstore.snapshot_bytes": c["snapshot_bytes"],
            "pipeline.jsonl_s": total("pipeline.to_jsonl"),
            "pipeline.report_bytes": c["report_bytes"],
            "pipeline.run_s": total("pipeline.run"),
        }
