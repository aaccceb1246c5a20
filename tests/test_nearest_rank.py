"""The stats fold: a scan's and ``stats_of``'s max, argmax and nearest-rank
99th percentile equal np.lexsort's and np.partition's over the whole map,
at any block size."""

import math

import numpy as np
import pytest

from colebrook import core, evaluation

pytest.importorskip("hypothesis", reason="hypothesis drives the property tests")
from hypothesis import given, settings, strategies as st  # noqa: E402

# 1000 points: the p99 is the m = 11th largest error, so blocks of 3 and 7
# hold fewer than m points and blocks of 64 more
GRID = evaluation.GridSpec(n_re=40, n_rough=25)
N = GRID.size
BLOCKS = [3, 7, 64]


def _reference(err, re, rough):
    """ErrorStats of err at (re, rough) from whole-map formulas."""
    top = float(err.max())
    ties = np.flatnonzero(err == top)
    i = ties[np.lexsort((rough[ties], re[ties]))[0]]
    rank = max(1, math.ceil(0.99 * err.size))
    return evaluation.ErrorStats(
        max_pct=top,
        argmax_re=float(re[i]),
        argmax_rough=float(rough[i]),
        mean_pct=math.fsum(err.tolist()) / err.size,
        p99_pct=float(np.partition(err, rank - 1)[rank - 1]),
    )


@pytest.fixture(scope="module")
def mesh():
    """The clean eq2 map of GRID, computed before any patch."""
    em, _ = evaluation.scan_errors("eq2", grid=GRID)
    return em


def _scan_with_errors(monkeypatch, mesh, err, block, workers):
    """scan_many of eq2 over GRID in blocks of ``block`` points, with the
    errors err (mesh order) in place of its own: the error function looks
    each point up by its oracle lambda, which differs from point to point.
    The returned map derives its errors through the same function."""
    order = np.argsort(mesh.lambda_ref)
    keys = mesh.lambda_ref[order]
    assert (np.diff(keys) > 0).all()

    def designed(lambda_accurate, lambda_approx, out=None):
        at = np.searchsorted(keys, lambda_accurate)
        assert (keys[at] == lambda_accurate).all()
        if out is None:
            return err[order[at]]
        out[...] = err[order[at]]
        return out

    monkeypatch.setattr(core, "relative_error_pct_raw", designed)
    monkeypatch.setattr(evaluation, "_SCAN_BLOCK", block)
    return evaluation.scan_many(["eq2"], grid=GRID, workers=workers)["eq2"]


def _assert_stats(monkeypatch, mesh, err, block, workers=1):
    em, st = _scan_with_errors(monkeypatch, mesh, err, block, workers)
    assert em.rel_err_pct.tobytes() == err.tobytes()
    want = _reference(err, mesh.re, mesh.rel_rough)
    assert st == want
    # stats_of folds the map in blocks of the same size
    assert evaluation.stats_of(em) == want
    plain = evaluation.ErrorMap(None, mesh.re, mesh.rel_rough, mesh.lambda_ref,
                                mesh.lambda_approx, err)
    assert evaluation.stats_of(plain) == want
    return st


def _cases():
    rng = np.random.default_rng(29)
    runs = rng.random(N)
    # 5 errors above a run of 30 ties that crosses block boundaries: the
    # 11th largest lies inside the run
    runs[100:130] = 2.0
    runs[rng.choice(np.r_[:100, 130:N], 5, replace=False)] = 3.0
    # the largest error at three points in three blocks; by (re, rough)
    # the first is mesh point 520 (column 0 of row 13), though 47 (row 1,
    # column 7) comes first in mesh order and 960 shares its Re
    ties = rng.random(N)
    ties[[47, 520, 960, 999]] = 1.5
    inf = rng.random(N)
    inf[333] = math.inf
    ordered = np.sort(rng.random(N))
    return {
        "all_equal": np.full(N, 0.25),
        "p99_run_across_blocks": runs,
        "max_ties_in_different_blocks": ties,
        "inf": inf,
        "sorted": ordered,
        "reversed": ordered[::-1].copy(),
        "eleven_levels": np.round(rng.random(N), 1),
    }


CASES = _cases()


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("case", list(CASES))
def test_scan_and_stats_of_equal_whole_map_formulas(case, block, mesh, monkeypatch):
    assert 7 < evaluation._tail(N) < 64
    st = _assert_stats(monkeypatch, mesh, CASES[case], block)
    if case == "p99_run_across_blocks":
        assert st.p99_pct == 2.0
    elif case == "max_ties_in_different_blocks":
        assert (st.argmax_re, st.argmax_rough) == (mesh.re[520], mesh.rel_rough[520])
        assert mesh.re[520] == mesh.re[960] < mesh.re[47]
    elif case == "inf":
        assert st.max_pct == st.mean_pct == math.inf
        assert (st.argmax_re, st.argmax_rough) == (mesh.re[333], mesh.rel_rough[333])


@pytest.mark.parametrize("block", [7, 64])
def test_two_workers_give_the_same_stats(block, mesh, monkeypatch):
    for err in CASES.values():
        _assert_stats(monkeypatch, mesh, err, block, workers=2)


@pytest.mark.parametrize("block", [3, 64])
def test_nan_errors_are_rejected_with_their_count(block, mesh, monkeypatch):
    err = CASES["p99_run_across_blocks"].copy()
    err[[5, 700]] = math.nan
    message = f"cannot summarize a map with NaN errors: 2 of {N} points are NaN"
    with pytest.raises(evaluation.ConfigError) as folded:
        _scan_with_errors(monkeypatch, mesh, err, block, 1)
    assert str(folded.value) == message
    plain = evaluation.ErrorMap(None, mesh.re, mesh.rel_rough, mesh.lambda_ref,
                                mesh.lambda_approx, err)
    with pytest.raises(evaluation.ConfigError) as whole:
        evaluation.stats_of(plain)
    assert str(whole.value) == message


@pytest.mark.parametrize("order", ["random", "sorted", "reversed"])
def test_candidates_are_cut_back_to_m_past_2m(order, monkeypatch):
    # each block keeps its m largest; the running candidates grow by m
    # per block until they pass 2m, then drop back to m
    sizes, merge = [], evaluation._merge

    def recorded(a, b, m):
        out = merge(a, b, m)
        sizes.append(out.cand.size)
        return out

    monkeypatch.setattr(evaluation, "_merge", recorded)
    monkeypatch.setattr(evaluation, "_SCAN_BLOCK", 64)
    err = np.random.default_rng(5).random(N)
    if order != "random":
        err.sort()
    if order == "reversed":
        err = err[::-1].copy()
    re, rough = np.arange(1.0, N + 1), np.full(N, 1e-4)
    got = evaluation.stats_of(evaluation.ErrorMap(None, re, rough, err, err, err))
    assert got == _reference(err, re, rough)
    m = evaluation._tail(N)
    # 16 blocks: 15 merges; the last block of 40 points also gives m
    assert sizes == [2 * m, m] * 7 + [2 * m]


@st.composite
def _error_maps(draw):
    """(errors, block size): non-negative error maps of a few to some
    thousand points, few or many distinct values, some inf, in random,
    sorted or reversed order, and blocks from 1 point to the whole map."""
    n = draw(st.integers(1, 5_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 7, 100, 2**52]))
    err = rng.integers(0, levels, n) / levels * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    err[rng.random(n) < draw(st.sampled_from([0.0, 0.005, 0.05]))] = math.inf
    order = draw(st.sampled_from(["random", "sorted", "reversed"]))
    if order == "sorted":
        err.sort()
    elif order == "reversed":
        err = np.sort(err)[::-1].copy()
    return err, draw(st.sampled_from([1, 3, 64, 1000, n]))


@settings(max_examples=200, deadline=None)
@given(_error_maps())
def test_stats_of_equals_whole_map_formulas(case):
    err, block = case
    n = err.size
    # few distinct coordinates, so that the largest error ties across them
    re = np.arange(n) % 5 + 1.0
    rough = np.arange(n) % 3 + 1.0
    default = evaluation._SCAN_BLOCK
    evaluation._SCAN_BLOCK = block
    try:
        got = evaluation.stats_of(evaluation.ErrorMap(None, re, rough, err, err, err))
    finally:
        evaluation._SCAN_BLOCK = default
    assert got == _reference(err, re, rough)
