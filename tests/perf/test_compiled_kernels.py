"""Kernel-level bit-identity: the compiled kernels vs the numpy oracles.

Every compiled kernel (token-bucket Lindley replay, congestion
timelines, fused congestion-aware routing, Welford fold, CUSUM/EWMA
scan) must reproduce its numpy-tier oracle *exactly* — same
accept/drop decisions, same flags, same IEEE doubles — because the
compiled tier is documented as a pure speed knob. These tests replay
randomized workloads through both implementations and require equality,
not closeness.

Skipped wholesale when the bundled C kernels cannot be built in this
environment; `tests/perf/test_compiled_tier.py` covers the degradation
path itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.compiled import (
    CongestionTable,
    _detect_bins_numpy,
    compiled_backend,
    get_kernels,
)
from repro.perf.fastsim import NUMPY_KERNELS as NUMPY, _grouped_bucket_scan
from tests.perf.scan_oracle import scalar_bucket_scan

pytestmark = pytest.mark.skipif(
    compiled_backend() is None,
    reason="no compiled backend available",
)


@pytest.fixture(scope="module")
def kernels():
    kernel_set = get_kernels("compiled")
    assert kernel_set is not None
    return kernel_set


def _random_events(rng, m, n, horizon=50.0):
    """Flat (slots, times) event arrays with hot and cold slots mixed."""
    # Zipf-ish slot choice so some buckets saturate (run-skip path) while
    # others stay in the closed-form all-accept regime.
    weights = 1.0 / np.arange(1, m + 1)
    weights /= weights.sum()
    slots = rng.choice(m, size=n, p=weights).astype(np.int64)
    times = rng.uniform(0.0, horizon, size=n)
    return slots, np.sort(times)


class TestBucketScan:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_numpy_oracle(self, kernels, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 400))
        capacity = float(rng.uniform(0.2, 20.0))
        burst = float(np.ceil(rng.uniform(1.0, 12.0)))
        slots, times = _random_events(rng, m, n)
        if seed % 3 == 0:  # accept must align with *input* order
            perm = rng.permutation(n)
            slots, times = slots[perm], times[perm]
        expected = _grouped_bucket_scan(slots, times, capacity, burst)
        got = kernels.bucket_scan(slots, times, m, capacity, burst)
        for ours, theirs in zip(got, expected):
            np.testing.assert_array_equal(ours, theirs)

    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_tier_agrees(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(1, 20))
        n = int(rng.integers(1, 200))
        capacity = float(rng.uniform(0.2, 10.0))
        burst = float(np.ceil(rng.uniform(1.0, 8.0)))
        slots, times = _random_events(rng, m, n)
        expected = _grouped_bucket_scan(slots, times, capacity, burst)
        got = scalar_bucket_scan(slots, times, capacity, burst)
        for ours, theirs in zip(got, expected):
            np.testing.assert_array_equal(ours, theirs)

    def test_empty_events(self, kernels):
        slots = np.zeros(0, dtype=np.int64)
        times = np.zeros(0, dtype=np.float64)
        accept, unique_slots, accepted, dropped = kernels.bucket_scan(
            slots, times, 5, 1.0, 3.0
        )
        assert len(accept) == 0
        assert len(unique_slots) == 0
        assert len(accepted) == 0
        assert len(dropped) == 0


class TestTimelineTable:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dict_timelines(self, kernels, seed):
        """The C table equals the numpy tier's table, array for array."""
        rng = np.random.default_rng(200 + seed)
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, 300))
        capacity = float(rng.uniform(0.2, 5.0))
        burst = float(np.ceil(rng.uniform(1.0, 6.0)))
        slots, times = _random_events(rng, m, n)
        table = kernels.timeline_table(slots, times, m, capacity, burst)
        expected = NUMPY.timeline_table(slots, times, m, capacity, burst)
        assert table.offsets.shape == (m + 1,)
        assert int(table.offsets[-1]) == n
        np.testing.assert_array_equal(table.offsets, expected.offsets)
        np.testing.assert_array_equal(table.times, expected.times)
        np.testing.assert_array_equal(table.flags, expected.flags)

    def test_empty_is_empty(self, kernels):
        table = kernels.timeline_table(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64),
            7, 1.0, 2.0,
        )
        assert int(table.offsets[-1]) == 0
        assert len(table.times) == 0


class TestRoute:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_two_step_numpy(self, kernels, seed):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(2, 40))
        rows = int(rng.integers(1, 120))
        cols = int(rng.integers(1, 8))
        capacity = float(rng.uniform(0.2, 3.0))
        burst = float(np.ceil(rng.uniform(1.0, 4.0)))
        slots, times = _random_events(rng, m, int(rng.integers(0, 250)))
        table = NUMPY.timeline_table(slots, times, m, capacity, burst)

        u = rng.random(rows)
        nbr = rng.integers(0, m, size=(rows, cols)).astype(np.int64)
        healthy = rng.random((rows, cols)) < 0.8
        decision_t = rng.uniform(0.0, 60.0, size=rows)
        if seed % 2 == 0:
            # The hot engine path: nondecreasing decision times trigger
            # the marching-cursor fast path; odd seeds keep the
            # binary-search fallback honest.
            decision_t = np.sort(decision_t)

        exp_routable, exp_chosen = NUMPY.route(
            u, nbr, healthy, decision_t, table
        )
        got_routable, got_chosen = kernels.route(
            u, nbr, healthy.astype(np.uint8), decision_t, table
        )
        np.testing.assert_array_equal(got_routable, exp_routable)
        np.testing.assert_array_equal(
            got_chosen[got_routable], exp_chosen[exp_routable]
        )

    def test_no_events_all_healthy(self, kernels):
        table = CongestionTable.empty(4)
        u = np.array([0.0, 0.5, 0.999])
        nbr = np.array([[0, 1], [2, 3], [1, 2]], dtype=np.int64)
        healthy = np.ones((3, 2), dtype=np.uint8)
        decision_t = np.array([1.0, 2.0, 3.0])
        routable, chosen = kernels.route(u, nbr, healthy, decision_t, table)
        assert routable.all()
        np.testing.assert_array_equal(chosen, [0, 3, 2])

    def test_unroutable_rows_flagged(self, kernels):
        table = CongestionTable.empty(3)
        u = np.array([0.3])
        nbr = np.array([[0, 1, 2]], dtype=np.int64)
        healthy = np.zeros((1, 3), dtype=np.uint8)
        decision_t = np.array([5.0])
        routable, _ = kernels.route(u, nbr, healthy, decision_t, table)
        assert not routable.any()


class TestWelford:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_streaming_fold(self, kernels, seed):
        rng = np.random.default_rng(400 + seed)
        values = rng.uniform(0.0, 10.0, size=int(rng.integers(0, 500)))
        count, mean, m2, maxv = (
            int(rng.integers(0, 5)),
            float(rng.uniform(0.0, 5.0)),
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.0, 8.0)),
        )
        if count == 0:
            mean, m2 = 0.0, 0.0
        exp_count, exp_mean, exp_m2, exp_max = count, mean, m2, maxv
        for value in values.tolist():
            exp_count += 1
            delta = value - exp_mean
            exp_mean += delta / exp_count
            exp_m2 += delta * (value - exp_mean)
            if value > exp_max:
                exp_max = value
        expected = (exp_count, exp_mean, exp_m2, exp_max)
        assert kernels.welford(values, count, mean, m2, maxv) == expected
        assert NUMPY.welford(values, count, mean, m2, maxv) == expected


class TestDetect:
    @pytest.mark.parametrize("method", ["cusum", "ewma"])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_numpy_scan(self, kernels, method, seed):
        rng = np.random.default_rng(500 + seed)
        rows = int(rng.integers(1, 50))
        bins = int(rng.integers(1, 60))
        base_end = int(rng.integers(0, bins))
        series = rng.poisson(8.0, size=(rows, bins)).astype(np.float64)
        # Inject a step on half the rows so both outcomes occur.
        series[::2, bins // 2:] += rng.uniform(5.0, 30.0)
        means = rng.uniform(2.0, 12.0, size=rows)
        sigmas = rng.uniform(0.5, 4.0, size=rows)
        threshold = float(rng.uniform(1.0, 8.0))
        drift = float(rng.uniform(0.0, 1.5))
        alpha = float(rng.uniform(0.05, 0.9))
        expected = _detect_bins_numpy(
            series, means, sigmas, base_end, method, threshold, drift, alpha
        )
        got = kernels.detect_bins(
            series, means, sigmas, base_end, method, threshold, drift, alpha
        )
        np.testing.assert_array_equal(got, expected)
        assert (expected >= 0).any() or rows < 3  # workload sanity
