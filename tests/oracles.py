"""Independent reference implementations used to check the package.

Everything here is deliberately naive: double loops, linear scans, explicit
recursion. Slow and obvious beats fast and shared-with-the-code-under-test.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from fatiguekit import (
    CHANNELS,
    DecodeError,
    MonotonicityError,
    RangeError,
    SignalFrame,
)


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


def _coerce_number(text: str, column: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DecodeError(f"non-numeric value {text!r} in column {column!r}", row=row) from None
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
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return []
    header = [h.strip() for h in header]
    known = set(CHANNELS) | {"t"}
    for col in header:
        if col not in known:
            raise DecodeError(f"unknown column {col!r} in header")
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
        except json.JSONDecodeError as e:
            raise DecodeError(f"bad JSON: {e.msg}", row=line_idx) from None
        if not isinstance(obj, dict):
            raise DecodeError("each line must be a JSON object", row=line_idx)
        record = {}
        for key, value in obj.items():
            if key not in known:
                raise DecodeError(f"unknown key {key!r}", row=line_idx)
            if value is None:
                continue  # explicit null reads the same as an absent key
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DecodeError(f"value for {key!r} must be a number", row=line_idx)
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
