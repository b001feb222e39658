import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatiguekit import ApEnParams, ArgumentError, InsufficientDataError, approximate_entropy
from fatiguekit import features
from oracles import apen_dense, apen_oracle


class TestOracleAgreement:
    def test_alternating_sequence(self):
        x = [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]
        p = ApEnParams(m=2, r=0.5)
        expected = apen_oracle(x, 2, 0.5)
        assert abs(approximate_entropy(x, p) - expected) < 1e-9

    def test_random_batch(self):
        rng = np.random.default_rng(20240811)
        for _ in range(200):
            n = int(rng.integers(6, 61))
            m = int(rng.integers(1, 3))
            x = rng.normal(size=n)
            sigma = float(np.std(x))
            r = float(rng.uniform(0.1, 0.5)) * sigma
            if r <= 0:
                continue
            got = approximate_entropy(x, ApEnParams(m=m, r=r))
            want = apen_oracle(x, m, r)
            assert abs(got - want) < 1e-9, (n, m, r)

    def test_ramp(self):
        x = list(range(20))
        p = ApEnParams(m=2, r=1.5)
        assert abs(approximate_entropy(x, p) - apen_oracle(x, 2, 1.5)) < 1e-9


class TestConstantSeries:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_zero(self, m):
        x = [4.2] * 30
        assert approximate_entropy(x, ApEnParams(m=m, r=0.1)) == 0.0

    def test_zero_with_default_tolerance(self):
        # sigma is 0, so the relative default degenerates; still exactly 0
        x = [7.0] * 10
        assert approximate_entropy(x, ApEnParams(m=2)) == 0.0


class TestParams:
    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            approximate_entropy([1.0, 2.0, 3.0], ApEnParams(m=2, r=0.5))

    def test_boundary_length_accepted(self):
        approximate_entropy([1.0, 2.0, 3.0, 4.0], ApEnParams(m=2, r=0.5))

    def test_bad_m(self):
        with pytest.raises(ArgumentError):
            ApEnParams(m=0, r=0.5)

    def test_bad_r(self):
        with pytest.raises(ArgumentError):
            ApEnParams(m=2, r=0.0)
        with pytest.raises(ArgumentError):
            ApEnParams(m=2, r=-1.0)

    def test_bad_r_scale(self):
        with pytest.raises(ArgumentError):
            ApEnParams(m=2, r=None, r_scale=0.0)

    def test_relative_tolerance_matches_explicit(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        sigma = float(np.std(x))
        via_default = approximate_entropy(x, ApEnParams(m=2))
        via_explicit = approximate_entropy(x, ApEnParams(m=2, r=0.2 * sigma))
        assert via_default == via_explicit

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ArgumentError):
            approximate_entropy(np.zeros((4, 4)), ApEnParams(m=1, r=0.5))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=6, max_size=40),
           st.floats(min_value=-1000, max_value=1000, allow_nan=False))
    def test_shift_invariance(self, xs, c):
        sigma = float(np.std(xs))
        if sigma < 1e-6:
            return
        p = ApEnParams(m=2, r=0.3 * sigma)
        a = approximate_entropy(xs, p)
        b = approximate_entropy([x + c for x in xs], p)
        assert math.isclose(a, b, rel_tol=0, abs_tol=1e-9)

    def test_negative_on_short_periodic_series(self):
        # ApEn is not bounded below by 0. r lies below every nonzero gap, so
        # only equal templates match: each value recurs twice in 6 samples,
        # but 4 of the 5 pairs also recur twice, so phi_2 > phi_1
        xs = [1, 2, 0, 1, 2, 0]
        r = 0.25 * float(np.std(xs))
        value = approximate_entropy(xs, ApEnParams(m=1, r=r))
        assert value < -0.04
        assert abs(value - apen_oracle(xs, 1, r)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=6, max_size=30))
    @example([1, 2, 0, 1, 2, 0])
    @example([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    def test_bounded_by_template_counts(self, xs):
        """-ln(N-1)/N - ln(N/(N-1)) <= ApEn <= ln(N-1), N = n - m + 1.

        With C_i^m the self-inclusive match count of m-template i (N of
        them) and C_i^{m+1} that of (m+1)-template i (N - 1 of them):

            phi_m     = (1/N)     sum_{i<N}   ln C_i^m     - ln N
            phi_{m+1} = (1/(N-1)) sum_{i<N-1} ln C_i^{m+1} - ln(N-1)

        Upper: every count is >= 1, so phi_{m+1} >= -ln(N-1), and every
        C_i^m <= N, so phi_m <= 0.
        Lower: an (m+1)-match is an m-match, so C_i^{m+1} <= C_i^m for
        i < N - 1, and ln C_{N-1}^m >= 0; hence, with
        S = sum_{i<N-1} ln C_i^{m+1},

            ApEn >= S/N - ln N - S/(N-1) + ln(N-1)
                  = -S/(N(N-1)) - ln(N/(N-1)),

        and C_i^{m+1} <= N - 1 gives S <= (N-1) ln(N-1).
        """
        sigma = float(np.std(xs))
        if sigma < 1e-6:
            return
        m = 1
        big_n = len(xs) - m + 1
        value = approximate_entropy(xs, ApEnParams(m=m, r=0.25 * sigma))
        lower = -math.log(big_n - 1) / big_n - math.log(big_n / (big_n - 1))
        assert lower - 1e-12 <= value <= math.log(big_n - 1) + 1e-12


def _series(kind: str, n: int, seed: int) -> tuple[np.ndarray, float]:
    """A random walk and a tolerance. "tied" rounds the walk to integers and
    sets r = 1, so many template distances equal r exactly."""
    x = np.cumsum(np.random.default_rng(seed).normal(size=n))
    if kind == "tied":
        return np.round(x), 1.0
    return x, 0.2 * float(np.std(x))


class TestBlockedKernel:
    """The row-blocked kernel counts the same integer matches as the dense
    reference and takes the same steps after, so results must be == equal."""

    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [600, 1200, 2400])
    def test_equals_dense_reference(self, n, m, kind):
        x, r = _series(kind, n, seed=n + m)
        # the continuous case takes r from the default r_scale = 0.2
        params = ApEnParams(m=m, r=r if kind == "tied" else None)
        assert approximate_entropy(x, params) == apen_dense(x, m, r)

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_block_edges(self, monkeypatch, rows, m, edge):
        # n - m + 1 templates: one below, at and one above four blocks; at
        # +1 the last block holds an m-template but no (m+1)-template
        n = 4 * rows + edge + m - 1
        monkeypatch.setattr(features, "_BLOCK_ELEMENTS", rows * n)
        for kind in ("continuous", "tied"):
            x, r = _series(kind, n, seed=rows + m)
            assert approximate_entropy(x, ApEnParams(m=m, r=r)) == apen_dense(x, m, r)

    def test_random_short_series(self, monkeypatch):
        rng = np.random.default_rng(20261018)
        for _ in range(150):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 2, 90))
            x = rng.normal(size=n)
            if rng.random() < 0.5:
                x = np.round(2 * x) / 2
            r = float(rng.uniform(0.1, 0.6)) * float(np.std(x))
            if r <= 0:
                continue
            want = apen_dense(x, m, r)
            for rows in (1, 7, 256):
                monkeypatch.setattr(features, "_BLOCK_ELEMENTS", rows * n)
                assert approximate_entropy(x, ApEnParams(m=m, r=r)) == want, (n, m, rows)

    def test_peak_memory_is_blocked(self):
        # the dense n x n x (m+1) tensor needs about 860 MB at n = 6000
        x, _ = _series("continuous", 6000, seed=6000)
        tracemalloc.start()
        try:
            approximate_entropy(x, ApEnParams(m=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
