"""Independent reference implementations used to check the package.

Everything here is deliberately naive: double loops, linear scans, explicit
recursion. Slow and obvious beats fast and shared-with-the-code-under-test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy as np

from fatiguekit import (
    CHANNELS,
    AmbiguityError,
    DecodeError,
    MonotonicityError,
    RangeError,
    SignalFrame,
)
from fatiguekit.kstore import assert_fact, query_class
from fatiguekit.rules import FiredRule, level_class_parts


def apen_oracle(x, m: int, r: float) -> float:
    """Approximate entropy by direct template counting.

    Phi^m is the average over i of ln(C_i), where C_i counts the templates
    within Chebyshev distance r of template i (self-match included), divided
    by the number of templates. The statistic is Phi^m - Phi^(m+1).
    """
    x = list(map(float, x))
    n = len(x)

    def phi(mm: int) -> float:
        count = n - mm + 1
        templates = [x[i:i + mm] for i in range(count)]
        total = 0.0
        for a in templates:
            matches = 0
            for b in templates:
                dist = max(abs(u - v) for u, v in zip(a, b))
                if dist <= r:
                    matches += 1
            total += math.log(matches / count)
        return total / count

    return phi(m) - phi(m + 1)


def apen_dense(x, m: int, r: float) -> float:
    """Approximate entropy from the full n x n x (m+1) distance tensor.

    The package's former implementation, kept as the bit-exact reference
    for its row-blocked kernel: both count the same integer matches and
    then take the same count / N -> log -> mean steps, so the results must
    be equal with ==, not merely close. Memory is O(n^2 * m) float64.
    """
    x = np.asarray(x, dtype=float)

    def phi(mm: int) -> float:
        count = len(x) - mm + 1
        templates = np.lib.stride_tricks.sliding_window_view(x, mm)
        dist = np.max(np.abs(templates[:, None, :] - templates[None, :, :]), axis=2)
        c = np.count_nonzero(dist <= r, axis=1) / count
        return float(np.mean(np.log(c)))

    return phi(m) - phi(m + 1)


def apen_rowwise(x, m: int, r: float) -> float:
    """Approximate entropy with each template's match count taken from its
    own row of float64 distances, one template at a time.

    The same counts and the same count / N -> log -> mean steps as
    apen_dense, so it is an == reference too, in O(n) memory: for series
    whose n x n x (m+1) tensor would not fit.
    """
    x = np.asarray(x, dtype=float)

    def phi(mm: int) -> float:
        count = len(x) - mm + 1
        c = np.empty(count, dtype=np.intp)
        for i in range(count):
            near = np.ones(count, dtype=bool)
            for k in range(mm):
                near &= np.abs(x[i + k] - x[k:k + count]) <= r
            c[i] = np.count_nonzero(near)
        return float(np.mean(np.log(c / count)))

    return phi(m) - phi(m + 1)


def near_positions_oracle(x, xs, r: float) -> list[np.ndarray]:
    """For each x[i], every position p of the sorted series xs with
    abs(x[i] - xs[p]) <= r, found by testing all p."""
    xs = np.asarray(xs, dtype=float)
    return [np.flatnonzero(np.abs(xi - xs) <= r) for xi in np.asarray(x, dtype=float)]


def upcross_oracle(values, threshold: float, hysteresis: float) -> int:
    """Count threshold upcrossings with a re-arm level, by linear scan.

    A series that opens at or above the threshold has not crossed it from
    below, so the scan starts disarmed in that case.
    """
    count = 0
    armed = values[0] < threshold
    for v in values[1:]:
        if armed and v >= threshold:
            count += 1
            armed = False
        elif not armed and v < threshold - hysteresis:
            armed = True
    return count


def upcrossings_loop(values, threshold: float, hysteresis: float) -> int:
    """`count_upcrossings` stepped over the array's own numpy scalars; the
    package's former loop, which now iterates Python floats."""
    count = 0
    below = values[0] < threshold
    rearm = threshold - hysteresis
    for x in values[1:]:
        if below:
            if x >= threshold:
                count += 1
                below = False
        elif x < rearm:
            below = True
    return count


def windows_oracle(times, length: float, stride: float) -> list[tuple]:
    """(start, end, frame times) of every window holding two or more frames.

    Tries every k from 0, window k spanning [k * stride, k * stride + length),
    and collects its frames by a linear scan.
    """
    out = []
    last = times[-1]
    k = 0
    while k * stride < last or (k == 0 and last == 0.0):
        start = k * stride
        end = start + length
        inside = [t for t in times if start <= t < end]
        if len(inside) >= 2:
            out.append((start, end, inside))
        k += 1
    return out


def generate_scenario_frames(spec) -> list[SignalFrame]:
    """The scenario's trace as frames, walked one sample at a time.

    The package's former generator, kept as the reference for the columnar
    one: a Python loop steps k over each segment's grid k / sample_rate
    until it reaches the segment's end, and each sample becomes one checked
    SignalFrame. A segment resumes the grid after the previous segment's
    last k, so segments that overlap by the spec's 1e-9 s tolerance do not
    repeat a frame. The channel synthesis is the package's own.
    """
    from fatiguekit.scenario import _alert_channels, _drowsy_channels

    frames: list[SignalFrame] = []
    next_k = 0
    for index, seg in enumerate(spec.segments):
        rng = np.random.default_rng([spec.seed & 0xFFFFFFFF, index])
        ks = []
        k = max(int(np.ceil(seg.start * spec.sample_rate - 1e-9)), next_k)
        while k / spec.sample_rate < seg.end - 1e-12:
            ks.append(k)
            k += 1
        t = np.array([k / spec.sample_rate for k in ks])
        if len(t) == 0:
            continue
        next_k = ks[-1] + 1
        synth = _alert_channels if seg.regime == "alert" else _drowsy_channels
        channels = synth(t - seg.start, spec.sample_rate, rng)
        channels["eye_closure"] = np.clip(channels["eye_closure"], 0.0, 1.0)
        channels["mouth_open"] = np.clip(channels["mouth_open"], 0.0, None)
        for i, ti in enumerate(t):
            frames.append(SignalFrame(
                t=float(ti), **{name: float(vals[i]) for name, vals in channels.items()}))
    return frames


def serialize_frames(frames, format: str) -> bytes:
    """Frames written row by row, reading each frame's attributes: the
    package's former frame-list writer, the reference for the columnar one."""
    names = [c for c in CHANNELS if any(getattr(f, c) is not None for f in frames)]
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["t", *names])
        for f in frames:
            writer.writerow([repr(f.t), *("" if getattr(f, c) is None else repr(getattr(f, c))
                                          for c in names)])
        return out.getvalue().encode("utf-8")
    lines = [json.dumps({"t": f.t, **{c: getattr(f, c) for c in names
                                      if getattr(f, c) is not None}}, sort_keys=True)
             for f in frames]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def reachable_oracle(parents: dict, start: str) -> set:
    """All ancestors of start (inclusive) by straightforward recursion."""
    seen = set()

    def walk(node):
        if node in seen:
            return
        seen.add(node)
        for p in parents.get(node, ()):
            walk(p)

    walk(start)
    return seen


def chaining_oracle(taxonomy_parents: dict, memberships: set, rules) -> frozenset:
    """Forward chaining by repeated full scans until nothing changes.

    rules: iterable of (anchor_class, condition_classes, conclusion_class).
    memberships: set of (individual, class) pairs, mutated into the fixpoint.
    """
    facts = set(memberships)

    def entailed_in(cls):
        out = set()
        for ind, c in facts:
            if cls in reachable_oracle(taxonomy_parents, c):
                out.add(ind)
        return out

    changed = True
    while changed:
        changed = False
        for anchor_cls, conditions, conclusion in rules:
            if not all(entailed_in(c) for c in conditions):
                continue
            for ind in entailed_in(anchor_cls):
                if (ind, conclusion) not in facts:
                    facts.add((ind, conclusion))
                    changed = True
    return frozenset(facts)


def infer_per_conclusion(fb, pack):
    """The former engine: forward chaining to fixpoint that builds a new
    fact base with `assert_fact` for every conclusion.

    Each iteration collects (rule, individual, class) for every rule whose
    conditions hold and every anchor individual, in pack order, and then
    asserts them one at a time; a pair an earlier rule of the same
    iteration already added is skipped, so it is logged under that rule.
    """
    iteration = 0
    log = []
    while True:
        iteration += 1
        new = []
        for rule in pack.rules:
            if not all(query_class(fb, c) for c in rule.conditions):
                continue
            for ind in sorted(query_class(fb, rule.anchor_class)):
                if (ind, rule.conclusion_class) not in fb.memberships:
                    new.append((rule.name, ind, rule.conclusion_class))
        if not new:
            return fb, log
        for rule_name, ind, cls in new:
            if (ind, cls) in fb.memberships:
                continue
            fb = assert_fact(fb, ind, cls)
            log.append(FiredRule(rule=rule_name, individual=ind, iteration=iteration))


def excerpt(value) -> str:
    """Outside text as an error message quotes it: repr(value), or, past 40
    characters, its first 40 and the value's length."""
    shown = repr(value)
    if len(shown) <= 40:
        return shown
    return f"{shown[:40]}... ({len(value) if isinstance(value, str) else len(shown)} characters)"


def _coerce_number(text: str, column: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DecodeError(f"non-numeric value {excerpt(text)} in column {column!r}",
                          row=row) from None
    return value


def _build_frame(t, values: dict, row: int) -> SignalFrame:
    try:
        return SignalFrame(t=t, **values)
    except RangeError as e:
        raise RangeError(e.channel, "range violation", row=row) from e


def parse_csv_rowwise(text: str) -> list[SignalFrame]:
    """CSV trace parsed row by row into frames, each checked on its own.

    The package's former parser, kept as the reference for the columnar
    one: the same frames for valid input, and the same error class,
    message and row for the first fault in invalid input.
    """
    reader = csv.reader(io.StringIO(text, newline=""))  # "\r\n", "\r" or "\n" ends a line
    try:
        header = next(reader)
    except StopIteration:
        return []
    header = [h.strip() for h in header]
    known = set(CHANNELS) | {"t"}
    for col in header:
        if col not in known:
            raise DecodeError(f"unknown column {excerpt(col)} in header")
    if "t" not in header:
        raise DecodeError("header lacks mandatory column 't'")
    if len(set(header)) != len(header):
        raise DecodeError("duplicate column in header")

    frames: list[SignalFrame] = []
    prev_t = None
    for row_idx, cells in enumerate(reader, start=1):
        if not cells or all(c.strip() == "" for c in cells):
            continue
        if len(cells) != len(header):
            raise DecodeError(
                f"expected {len(header)} cells, got {len(cells)}", row=row_idx)
        record = {}
        for col, cell in zip(header, cells):
            cell = cell.strip()
            if cell == "":
                continue
            record[col] = _coerce_number(cell, col, row_idx)
        if "t" not in record:
            raise DecodeError("missing value for 't'", row=row_idx)
        t = record.pop("t")
        frame = _build_frame(t, record, row_idx)
        if prev_t is not None and frame.t <= prev_t:
            raise MonotonicityError(
                f"t={frame.t} does not increase past {prev_t}", row=row_idx)
        prev_t = frame.t
        frames.append(frame)
    return frames


def parse_jsonl_rowwise(text: str) -> list[SignalFrame]:
    """JSONL trace parsed line by line; the reference for the columnar parser."""
    frames: list[SignalFrame] = []
    prev_t = None
    known = set(CHANNELS) | {"t"}
    for line_idx, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:  # bad JSON, too many digits, or too deep
            raise DecodeError(f"bad JSON: {getattr(e, 'msg', e)}", row=line_idx) from None
        if not isinstance(obj, dict):
            raise DecodeError("each line must be a JSON object", row=line_idx)
        record = {}
        for key, value in obj.items():
            if key not in known:
                raise DecodeError(f"unknown key {excerpt(key)}", row=line_idx)
            if value is None:
                continue  # explicit null reads the same as an absent key
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DecodeError(f"value for {excerpt(key)} must be a number", row=line_idx)
            if isinstance(value, int) and not abs(value) <= sys.float_info.max:
                raise DecodeError(f"value for {key!r} must be finite and within float64 "
                                  f"range, got {excerpt(value)}", row=line_idx)
            record[key] = float(value)
        if "t" not in record:
            raise DecodeError("missing key 't'", row=line_idx)
        t = record.pop("t")
        frame = _build_frame(t, record, line_idx)
        if prev_t is not None and frame.t <= prev_t:
            raise MonotonicityError(
                f"t={frame.t} does not increase past {prev_t}", row=line_idx)
        prev_t = frame.t
        frames.append(frame)
    return frames


def latest_elapsed_scan(pairs, end_t: float):
    """Value of the last (window_end, value) pair with window_end <= end_t
    + 1e-9, by a linear scan over pairs ordered by window_end; None if no
    pair qualifies. The package's former per-window closure join."""
    found = None
    for window_end, value in pairs:
        if window_end <= end_t + 1e-9:
            found = value
        else:
            break
    return found


def decide_armed(levels, policy) -> list[int]:
    """Indices where the alert fires, with an explicit armed flag: the
    first index where the last policy.consecutive levels all reach
    policy.level, then quiet until a lower or missing level re-arms it. The
    package's former alert rule."""
    out = []
    streak = 0
    armed = True
    for i, level in enumerate(levels):
        if level is not None and level >= policy.level:
            streak += 1
            if armed and streak >= policy.consecutive:
                out.append(i)
                armed = False
        else:
            streak = 0
            armed = True
    return out


def descendants_oracle(parents: dict, classes, start: str) -> set:
    """Every class whose ancestors (by reachable_oracle) include start."""
    return {c for c in classes if start in reachable_oracle(parents, c)}


def read_fatigue_oracle(fb) -> dict:
    """Per-source verdicts of a fact base, recomputed from scratch.

    For each membership, the ancestors of its class are ranked by their
    shortest upward distance, found by moving the whole frontier up one
    level at a time; per source, the per-level classes at the least distance vote.
    Two levels for one (source, individual) raise AmbiguityError, and
    across individuals the highest level is kept.
    """
    parents = fb.taxonomy.parents
    per_pair: dict = {}
    for ind, cls in fb.memberships:
        distance = {cls: 0}
        frontier = {cls}
        step = 0
        while frontier:
            step += 1
            frontier = {p for c in frontier for p in parents.get(c, ())}
            for p in frontier:
                distance.setdefault(p, step)
        nearest: dict = {}
        for c, d in distance.items():
            parts = level_class_parts(c)
            if parts is not None:
                source, level = parts
                best = nearest.setdefault(source, (d, set()))
                if d < best[0]:
                    nearest[source] = best = (d, set())
                if d == best[0]:
                    best[1].add(level)
        for source, (_, levels) in nearest.items():
            per_pair.setdefault((source, ind), set()).update(levels)
    verdicts: dict = {}
    for (source, ind), levels in per_pair.items():
        if len(levels) > 1:
            raise AmbiguityError(f"{ind!r} carries conflicting {source} levels")
        level = next(iter(levels))
        verdicts[source] = max(verdicts.get(source, level), level)
    return verdicts


def save_snapshot_whole(s) -> bytes:
    """Snapshot bytes from one `json.dumps` over the whole snapshot object.

    The package's former writer, kept as the reference for the one that
    renders each top-level value on its own.
    """
    tax = s.factbase.taxonomy
    meta = {
        "engine_version": s.engine_version,
        "timestamp": s.factbase.timestamp,
        "trace_id": s.trace_id,
        "window": list(s.window) if s.window is not None else None,
    }
    meta.update(s.meta_extra)
    obj = {
        "taxonomy": {
            "classes": sorted(tax.classes),
            "subclass_of": {c: sorted(ps) for c, ps in sorted(tax.parents.items()) if ps},
        },
        "memberships": sorted([list(m) for m in s.factbase.memberships]),
        "data_properties": sorted([list(t) for t in s.factbase.data_properties]),
        "meta": meta,
    }
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True)
    return (text + "\n").encode("utf-8")


def head_ewma_loop(v, alpha: float) -> tuple:
    """(ewma, ewvar) of head pitch stepped over the array's own numpy
    scalars; the package's former loop, which now iterates Python floats."""
    ewma = float(v[0])
    ewvar = 0.0
    for x in v[1:]:
        delta = x - ewma
        ewma = alpha * x + (1 - alpha) * ewma
        ewvar = (1 - alpha) * (ewvar + alpha * delta * delta)
    return ewma, ewvar


def hold_runs_loop(t, above) -> list[tuple[float, float]]:
    """(start, duration) of each maximal run where the mask holds true,
    found by walking the samples; the package's former loop.

    Each sample holds its value until the next sample, so a run covering
    samples i..j lasts t[j+1] - t[i]; a run reaching the final sample is
    truncated at that sample's time.
    """
    runs: list[tuple[float, float]] = []
    n = len(t)
    i = 0
    while i < n:
        if above[i]:
            j = i
            while j + 1 < n and above[j + 1]:
                j += 1
            end = t[j + 1] if j + 1 < n else t[j]
            runs.append((float(t[i]), float(end - t[i])))
            i = j + 1
        else:
            i += 1
    return runs

