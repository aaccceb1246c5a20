"""The preselected nearest-rank 99th percentile: equal to np.partition's."""

import math

import numpy as np
import pytest

from colebrook import evaluation

pytest.importorskip("hypothesis", reason="hypothesis drives the property tests")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _p99(err):
    """(preselected, partitioned) 99th percentiles of err."""
    err = np.asarray(err, dtype=float)
    rank = max(1, math.ceil(0.99 * err.size))
    return evaluation._nearest_rank(err, rank), np.partition(err, rank - 1)[rank - 1]


def _assert_p99_equal(err):
    got, want = _p99(err)
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 99, 100, 101, evaluation._P99_SAMPLE, 100_003])
def test_all_equal(n):
    _assert_p99_equal(np.full(n, 0.25))


@pytest.mark.parametrize("n", [1, 3, 57, evaluation._P99_SAMPLE - 1])
def test_n_below_the_sample_size(n):
    rng = np.random.default_rng(n)
    _assert_p99_equal(rng.random(n))


def test_many_ties_at_the_p99():
    rng = np.random.default_rng(11)
    n = 200_000
    # 98.5% zeros and 1.5% ones: the p99 falls inside the run of ones
    err = (rng.random(n) < 0.015).astype(float)
    _assert_p99_equal(err)
    # eleven levels: ties everywhere
    _assert_p99_equal(np.round(rng.random(n), 1))
    # the n - rank + 1 = n/100 + 1 largest all equal, the p99 the last of them
    err = rng.random(n)
    err[rng.choice(n, n // 100 + 1, replace=False)] = 2.0
    assert _p99(err)[0] == 2.0
    _assert_p99_equal(err)


@pytest.mark.parametrize("share", [0.0, 0.001, 0.0099, 0.01, 0.02, 1.0])
def test_maps_holding_inf(share):
    rng = np.random.default_rng(3)
    n = 50_000
    err = rng.random(n)
    err[rng.random(n) < share] = math.inf
    _assert_p99_equal(err)


@pytest.mark.parametrize("n", [1000, 65_536, 300_007])
def test_sorted_and_reversed(n):
    err = np.sort(np.random.default_rng(n).random(n))
    _assert_p99_equal(err)
    _assert_p99_equal(err[::-1].copy())


def test_a_misleading_sample_falls_back_to_the_whole_map(monkeypatch):
    # large values exactly on the sample's stride, fewer than the 1% the
    # p99 needs: the threshold lets too few errors through
    n = 1_000_000
    err = np.zeros(n)
    err[::n // evaluation._P99_SAMPLE] = 1.0
    calls, partition = [], np.partition

    def counted(a, kth, *args, **kwargs):
        calls.append(np.size(a))
        return partition(a, kth, *args, **kwargs)

    monkeypatch.setattr(np, "partition", counted)
    got = evaluation._nearest_rank(err, math.ceil(0.99 * n))
    assert n in calls
    monkeypatch.undo()
    assert got == 0.0 == _p99(err)[1]


@st.composite
def _error_maps(draw):
    """Non-negative error maps from a few to some thousand times the
    sample size: few or many distinct values, some inf, in random, sorted,
    reversed or strided order."""
    n = draw(st.integers(1, 40_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 7, 100, 2**52]))
    err = rng.integers(0, levels, n) / levels * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    err[rng.random(n) < draw(st.sampled_from([0.0, 0.005, 0.05]))] = math.inf
    order = draw(st.sampled_from(["random", "sorted", "reversed", "strided"]))
    if order == "sorted":
        err.sort()
    elif order == "reversed":
        err = np.sort(err)[::-1].copy()
    elif order == "strided":
        stride = max(1, n // evaluation._P99_SAMPLE)
        err[::stride] = err.max()
    return err


@settings(max_examples=200, deadline=None)
@given(_error_maps())
def test_equals_partition(err):
    _assert_p99_equal(err)
