"""Independent reference implementations used to check the package.

Everything here is deliberately naive: double loops, linear scans, explicit
recursion. Slow and obvious beats fast and shared-with-the-code-under-test.
"""

from __future__ import annotations

import math

import numpy as np


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
