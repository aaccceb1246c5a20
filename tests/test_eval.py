"""Mesh scans, quasi-random sampling, exports, and the cost model."""

import concurrent.futures
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from colebrook import _floatrepr, core, evaluation, kernels, schemes

scipy_qmc = pytest.importorskip("scipy.stats", reason="scipy is the Sobol cross-check")

SMALL = evaluation.GridSpec(n_re=24, n_rough=18)

# the benchmark sweep's 24 specs: the 18 registry schemes plus
# eq4a/eq5a/eq6a with each rational sine
SWEEP_SPECS = [schemes.get_scheme(sid) for sid in schemes.scheme_ids()] + [
    schemes.variant(sid, kernel) for sid in ("eq4a", "eq5a", "eq6a") for kernel in ("pade", "quintic")
]

SOBOL_FIRST_8 = [
    (0.0, 0.0), (0.5, 0.5), (0.75, 0.25), (0.25, 0.75),
    (0.375, 0.375), (0.875, 0.875), (0.625, 0.125), (0.125, 0.625),
]


class TestGridSpec:
    def test_defaults(self):
        g = evaluation.DEFAULT_GRID
        assert (g.re_min, g.re_max) == (4000.0, 1e8)
        assert (g.rough_min, g.rough_max) == (1e-6, 0.05)
        assert (g.n_re, g.n_rough) == (300, 300)
        assert g.re_spacing == g.rough_spacing == "log"
        assert g.size == 90000

    def test_axis_endpoints_are_exact(self):
        re_axis, rough_axis = evaluation.grid_axes(evaluation.DEFAULT_GRID)
        assert re_axis[0] == 4000.0 and re_axis[-1] == 1e8
        assert rough_axis[0] == 1e-6 and rough_axis[-1] == 0.05

    def test_rejects_bad_bounds(self):
        with pytest.raises(evaluation.ConfigError):
            evaluation.GridSpec(re_min=0.0)
        with pytest.raises(evaluation.ConfigError):
            evaluation.GridSpec(re_min=1e6, re_max=1e5)
        with pytest.raises(evaluation.ConfigError):
            evaluation.GridSpec(rough_min=-1e-6)

    def test_rejects_tiny_axes_and_bad_spacing(self):
        with pytest.raises(evaluation.ConfigError):
            evaluation.GridSpec(n_re=1)
        with pytest.raises(evaluation.ConfigError):
            evaluation.GridSpec(re_spacing="cubic")

    @pytest.mark.parametrize("field", ["n_re", "n_rough"])
    def test_rejects_non_integer_counts(self, field):
        with pytest.raises(evaluation.ConfigError, match=f"{field} must be an integer, got 30.0"):
            evaluation.GridSpec(**{field: 30.0})
        assert getattr(evaluation.GridSpec(**{field: np.int64(30)}), field) == 30

    def test_linear_spacing(self):
        g = evaluation.GridSpec(re_min=1e4, re_max=2e4, n_re=3, re_spacing="linear")
        re_axis, _ = evaluation.grid_axes(g)
        assert list(re_axis) == [1e4, 1.5e4, 2e4]

    def test_scan_map_is_rough_major(self):
        g = evaluation.GridSpec(n_re=3, n_rough=2)
        em, _ = evaluation.scan_errors("eq2", grid=g)
        assert em.re.size == em.rel_rough.size == 6
        # roughness varies slowest
        assert em.rel_rough.tolist() == [1e-6] * 3 + [0.05] * 3
        assert em.re.tolist()[:3] == em.re.tolist()[3:]
        assert em.re[0] == 4000.0 and em.re[2] == 1e8


class TestSobol:
    def test_first_eight_points(self):
        pts = evaluation.sobol_2d(8)
        for got, want in zip(pts, SOBOL_FIRST_8):
            assert tuple(got) == want

    @pytest.mark.parametrize("n", [512, 2**17])
    def test_matches_scipy_unscrambled(self, n):
        from scipy.stats import qmc
        ref = qmc.Sobol(d=2, scramble=False).random(n)
        assert np.array_equal(evaluation.sobol_2d(n), ref)

    def test_uniform_mapping_hits_lower_corner(self):
        pts = evaluation.sobol_2d(4, bounds=(4000.0, 1e8, 1e-6, 0.05))
        assert tuple(pts[0]) == (4000.0, 1e-6)
        assert pts[:, 0].min() >= 4000.0 and pts[:, 0].max() <= 1e8

    def test_log_mapping_stays_in_box(self):
        pts = evaluation.sobol_2d(128, bounds=(4000.0, 1e8, 1e-6, 0.05), mapping="log")
        assert pts[:, 0].min() >= 4000.0 and pts[:, 0].max() <= 1e8
        assert pts[:, 1].min() >= 1e-6 and pts[:, 1].max() <= 0.05
        # log mapping balances the decades; uniform would not
        below = (pts[:, 0] < 632455.0).mean()
        assert 0.4 < below < 0.6

    def test_rejects_bad_n(self):
        with pytest.raises(evaluation.ConfigError):
            evaluation.sobol_2d(0)

    def test_rejects_non_integer_n(self):
        with pytest.raises(evaluation.ConfigError, match="n must be an integer, got 4.0"):
            evaluation.sobol_2d(4.0)

    @pytest.mark.parametrize("bounds, mapping", [
        ((1.0, 2.0), "uniform"),
        ((4000.0, 1e8, 1e-6, 0.05, 1.0), "uniform"),
        (5.0, "uniform"),
        (("4000", 1e8, 1e-6, 0.05), "uniform"),
        ((1e8, 4000.0, 1e-6, 0.05), "uniform"),
        ((4000.0, 1e8, 0.05, 0.05), "log"),
        ((4000.0, math.inf, 1e-6, 0.05), "uniform"),
        ((math.nan, 1e8, 1e-6, 0.05), "log"),
        ((4000.0, 1e8, 0.0, 0.05), "log"),
        ((-1.0, 1e8, 1e-6, 0.05), "log"),
    ])
    def test_rejects_bad_bounds(self, bounds, mapping):
        with pytest.raises(evaluation.ConfigError, match="^bounds must be finite"):
            evaluation.sobol_2d(4, bounds=bounds, mapping=mapping)

    def test_zero_rough_floor_maps_uniformly(self):
        pts = evaluation.sobol_2d(4, bounds=(4000.0, 1e8, 0.0, 0.05))
        assert tuple(pts[0]) == (4000.0, 0.0)
        assert np.isfinite(pts).all()

    @pytest.mark.parametrize("bounds", [None, (4000.0, 1e8, 1e-6, 0.05)])
    def test_rejects_unknown_mapping(self, bounds):
        with pytest.raises(evaluation.ConfigError, match="'bogus'"):
            evaluation.sobol_2d(3, bounds=bounds, mapping="bogus")


class TestStats:
    def _map(self, err, re=None, rough=None):
        n = len(err)
        return evaluation.ErrorMap(
            grid=None,
            re=np.array(re if re is not None else np.arange(1, n + 1), dtype=float),
            rel_rough=np.array(rough if rough is not None else np.full(n, 1e-4)),
            lambda_ref=np.full(n, 0.02),
            lambda_approx=np.full(n, 0.02),
            rel_err_pct=np.array(err, dtype=float),
        )

    def test_max_and_argmax(self):
        st = evaluation.stats_of(self._map([0.1, 0.7, 0.3], re=[1e4, 1e5, 1e6]))
        assert st.max_pct == 0.7
        assert st.argmax_re == 1e5

    def test_exact_tie_prefers_lowest_coordinates(self):
        st = evaluation.stats_of(self._map(
            [0.7, 0.7, 0.1],
            re=[1e6, 1e4, 1e5],
            rough=[1e-4, 1e-4, 1e-4],
        ))
        assert st.argmax_re == 1e4

    def test_mean_uses_compensated_sum(self):
        st = evaluation.stats_of(self._map([0.25] * 400))
        assert st.mean_pct == 0.25

    def test_p99_nearest_rank(self):
        err = list(range(1, 101))  # 1..100
        st = evaluation.stats_of(self._map(err))
        assert st.p99_pct == 99.0  # ceil(0.99*100) = 99th ordered value

    def test_p99_small_sample(self):
        st = evaluation.stats_of(self._map([0.3, 0.1, 0.2]))
        assert st.p99_pct == 0.3  # ceil(2.97) = 3rd of 3

    def test_nan_errors_are_rejected_with_their_count(self):
        with pytest.raises(evaluation.ConfigError, match="2 of 4 points are NaN"):
            evaluation.stats_of(self._map([0.1, math.nan, 0.3, math.nan]))

    def test_inf_error_gives_inf_max_and_mean(self):
        st = evaluation.stats_of(self._map([0.1, math.inf, 0.3], re=[1e4, 1e5, 1e6]))
        assert st.max_pct == st.mean_pct == math.inf
        assert st.argmax_re == 1e5

    def test_equal_to_fsum_and_sort_formulas_on_every_sweep_variant(self):
        res = evaluation.scan_many(SWEEP_SPECS, grid=evaluation.GridSpec(n_re=120, n_rough=120))
        assert len(res) == 24
        for sid, (em, st) in res.items():
            err = em.rel_err_pct
            n = err.size
            max_pct = float(err.max())
            ties = np.flatnonzero(err == max_pct)
            i = ties[np.lexsort((em.rel_rough[ties], em.re[ties]))[0]]
            rank = math.ceil(0.99 * n)
            assert st == evaluation.ErrorStats(
                max_pct=max_pct,
                argmax_re=float(em.re[i]),
                argmax_rough=float(em.rel_rough[i]),
                mean_pct=math.fsum(err.tolist()) / n,
                p99_pct=float(np.sort(err)[rank - 1]),
            ), sid


class TestScan:
    def test_matches_pointwise_evaluation(self):
        g = evaluation.GridSpec(n_re=5, n_rough=4)
        errmap, _ = evaluation.scan_errors("eq2a2", grid=g)
        for idx in (0, 7, 19):
            p = core.FlowPoint(float(errmap.re[idx]), float(errmap.rel_rough[idx]))
            it = schemes.evaluate_scheme("eq2a2", p)
            assert errmap.lambda_approx[idx] == pytest.approx(it.lam, rel=1e-15)
            lam_ref = core.solve_colebrook_exact(p).iterate.lam
            assert errmap.lambda_ref[idx] == pytest.approx(lam_ref, rel=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="FrictionIterate.lam is Python's x ** -2.0 (libm pow), the scan's "
        "np.power(x, -2.0): with x equal, lambda differs at about 5% of the mesh",
    )
    def test_scalar_lambda_is_the_scan_lambda(self):
        # the scalar x equal the vector x (tests/test_core.py, test_schemes.py)
        em, _ = evaluation.scan_errors("eq2a2")
        idx = np.random.default_rng(30).choice(em.re.size, 500, replace=False)
        points = [core.FlowPoint(float(em.re[i]), float(em.rel_rough[i])) for i in idx]
        oracle = [core.solve_colebrook_exact(p).iterate.lam for p in points]
        scheme = [schemes.evaluate_scheme("eq2a2", p).lam for p in points]
        differ = [int(np.count_nonzero(np.array(lam) != em_lam[idx]))
                  for lam, em_lam in ((oracle, em.lambda_ref), (scheme, em.lambda_approx))]
        assert differ == [0, 0]

    # 161 points: 23 blocks of 7 shared by up to 8 workers, 3 blocks of
    # 53-54, or one
    @pytest.mark.parametrize("block", [7, 64, 23 * 7 + 1])
    def test_worker_count_does_not_change_anything(self, block, monkeypatch):
        # odd point count so the blocks of at most 64 differ in size
        g = evaluation.GridSpec(n_re=23, n_rough=7)
        specs = ["eq6a", schemes.variant("eq6a", "pade"), "eq2a2-pade"]
        # the default block holds the whole mesh: one pass over whole arrays
        base = evaluation.scan_many(specs, grid=g, workers=1)
        assert base["eq6a-sinpade"][0].sine_fallbacks > 0
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", block)
        # frequent thread switches interleave the workers' writes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = {w: evaluation.scan_many(specs, grid=g, workers=w) for w in (1, 2, 5, 8)}
        finally:
            sys.setswitchinterval(interval)
        for workers, res in results.items():
            assert list(res) == list(base)
            for sid, (em, st) in res.items():
                base_em, base_st = base[sid]
                for name in ("lambda_ref", "lambda_approx", "rel_err_pct"):
                    assert getattr(em, name).tobytes() == getattr(base_em, name).tobytes(), (
                        sid, workers, name)
                assert em.sine_fallbacks == base_em.sine_fallbacks
                assert st == base_st

    @pytest.mark.parametrize("block", [3, 7, 64, evaluation._SCAN_BLOCK])
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_folded_stats_equal_whole_map_stats(self, block, workers, monkeypatch):
        # the scan sums each block's errors while filling it; stats_of sums
        # the returned map at once
        g = evaluation.GridSpec(n_re=23, n_rough=7)
        specs = ["eq6a", schemes.variant("eq6a", "pade"), "eq2a2-pade"]
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", block)
        res = evaluation.scan_many(specs, grid=g, workers=workers)
        assert list(res) == ["eq6a", "eq6a-sinpade", "eq2a2-pade"]
        for sid, (em, st) in res.items():
            whole = evaluation.stats_of(em)
            assert st == whole, sid
            assert st.mean_pct.hex() == whole.mean_pct.hex(), sid

    # 161 points in 23 blocks of 7: the last block is points 154-160
    POISON_GRID = evaluation.GridSpec(n_re=23, n_rough=7)

    def _poisoned_scan(self, monkeypatch, specs, bad, value=math.nan):
        """scan_many of specs at 2 workers in 7-point blocks, with the
        errors at bad[spec id] (flat mesh indices) set to value inside
        the block step: the recipe returns a nan x there, and its nan
        error becomes value (x = 0 would give an inf lambda only with a
        divide warning)."""
        mesh, _ = evaluation.scan_errors("eq2", grid=self.POISON_GRID)
        recipe, rel_err = schemes._recipe, core.relative_error_pct_raw

        def recipe_poisoned(spec, re, rel_rough, sine, ab=None, memo=None):
            x = recipe(spec, re, rel_rough, sine, ab, memo)
            for j in bad.get(spec.id, ()):
                x = np.where((re == mesh.re[j]) & (rel_rough == mesh.rel_rough[j]), math.nan, x)
            return x

        def rel_err_poisoned(lambda_accurate, lambda_approx, out=None):
            out = rel_err(lambda_accurate, lambda_approx, out=out)
            out[np.isnan(out)] = value
            return out

        monkeypatch.setattr(schemes, "_recipe", recipe_poisoned)
        monkeypatch.setattr(core, "relative_error_pct_raw", rel_err_poisoned)
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", 7)
        return evaluation.scan_many(specs, grid=self.POISON_GRID, workers=2)

    def test_nan_inside_a_block_is_reported_as_stats_of_reports_it(self, monkeypatch):
        clean, _ = evaluation.scan_errors("eq6a", grid=self.POISON_GRID)
        err = clean.rel_err_pct.copy()
        err[[158, 160]] = math.nan
        with pytest.raises(evaluation.ConfigError) as whole:
            evaluation.stats_of(replace(clean, rel_err_pct=err))
        assert str(whole.value).endswith(": 2 of 161 points are NaN")
        with pytest.raises(evaluation.ConfigError) as folded:
            self._poisoned_scan(monkeypatch, ["eq2", "eq6a"], {"eq6a": (158, 160)})
        assert str(folded.value) == str(whole.value)

    def test_first_nan_scheme_in_input_order_is_reported(self, monkeypatch):
        bad = {"eq6a": (158,), "eq2a2-pade": (3, 158, 160)}
        for order, count in ((["eq2", "eq6a", "eq2a2-pade"], 1),
                             (["eq2", "eq2a2-pade", "eq6a"], 3)):
            with pytest.raises(evaluation.ConfigError, match=f": {count} of 161 points are NaN$"):
                self._poisoned_scan(monkeypatch, order, bad)

    def test_inf_inside_a_block_gives_the_whole_map_stats(self, monkeypatch):
        # for eq6a one inf in each of two blocks, neither the last: the
        # max, its tie-break and the inf flag cross blocks; rough-major
        # point 150 has the lower Re of the two. For eq2a2-pade one block
        # alone sees an inf.
        bad = {"eq6a": (40, 150), "eq2a2-pade": (40,)}
        res = self._poisoned_scan(monkeypatch, ["eq6a", "eq2a2-pade"], bad, math.inf)
        for sid, (em, st) in res.items():
            assert np.flatnonzero(np.isinf(em.rel_err_pct)).tolist() == list(bad[sid])
            whole = evaluation.stats_of(em)
            assert st == whole
            assert st.max_pct == st.mean_pct == math.inf
            j = bad[sid][-1]
            assert (st.argmax_re, st.argmax_rough) == (em.re[j], em.rel_rough[j])

    def test_workers_fill_the_returned_arrays_in_place(self, monkeypatch):
        # per-worker results joined into the outputs would hold the
        # outputs' bytes twice at the peak
        g = evaluation.GridSpec(n_re=200, n_rough=150)
        # 8 blocks, so that both workers run
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", 4096)
        tracemalloc.start()
        try:
            res = evaluation.scan_many(schemes.TABLE1_ROW_IDS, grid=g, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the error maps are left underived: they are computed on read
        arrays = {
            id(a): a
            for em, _ in res.values()
            for a in (em.re, em.rel_rough, em.lambda_ref, em.lambda_approx)
        }
        returned = sum(a.nbytes for a in arrays.values())
        assert peak < 2 * returned, peak / returned

    def test_a_scan_holds_one_lambda_map_per_scheme(self):
        g = evaluation.GridSpec(n_re=200, n_rough=200)
        evaluation.scan_many(SWEEP_SPECS, grid=SMALL)  # first-call imports
        tracemalloc.start()
        try:
            res = evaluation.scan_many(SWEEP_SPECS, grid=g, workers=2)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # lambda_ref and the two mesh arrays beside one lambda map per
        # scheme; 64 KiB covers the result's objects and the stats
        assert held <= (len(SWEEP_SPECS) + 3) * g.size * 8 + 65536, held
        for em, st in res.values():
            assert "rel_err_pct" not in vars(em)  # not computed by the scan
            err = em.rel_err_pct
            assert err.tobytes() == core.relative_error_pct_raw(
                em.lambda_ref, em.lambda_approx).tobytes()
            assert em.rel_err_pct is err  # computed once
            assert evaluation.stats_of(em) == st
        em = res["eq6a"][0]
        kept = replace(em, sine_fallbacks=7)
        assert kept.sine_fallbacks == 7
        assert kept.rel_err_pct.tobytes() == em.rel_err_pct.tobytes()
        lam = em.lambda_approx * 1.5
        moved = replace(em, lambda_approx=lam, rel_err_pct=None)
        assert moved.rel_err_pct.tobytes() == core.relative_error_pct_raw(
            em.lambda_ref, lam).tobytes()

    def test_replace_derives_the_errors_of_the_new_lambdas(self):
        em, _ = evaluation.scan_errors("eq6a", grid=SMALL)
        assert em.rel_err_pct.size == SMALL.size  # read: the map holds its errors
        lam = em.lambda_approx * 1.5
        for moved in (replace(em, lambda_approx=lam), replace(em, lambda_ref=lam)):
            assert moved.rel_err_pct.tobytes() == core.relative_error_pct_raw(
                moved.lambda_ref, moved.lambda_approx).tobytes()
        # a map given its errors keeps them, and replace keeps what it is given
        err = np.full(SMALL.size, 2.0)
        given = evaluation.ErrorMap(None, em.re, em.rel_rough, em.lambda_ref, lam, err, 3)
        assert given.rel_err_pct is err and given.sine_fallbacks == 3
        assert replace(em, lambda_approx=lam, rel_err_pct=err).rel_err_pct is err

    def test_workers_never_outnumber_blocks(self, monkeypatch):
        pools = []

        class InlinePool:
            """Records its size and runs the blocks' tasks in the caller:
            no thread starts."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        base = evaluation.scan_errors("eq6a", grid=SMALL)
        # SMALL's 432 points are one default block: one thread
        whole = evaluation.scan_errors("eq6a", grid=SMALL, workers=100_000)
        assert pools == [1, 1]
        pools.clear()
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", 64)
        blocked = evaluation.scan_errors("eq6a", grid=SMALL, workers=100_000)
        assert pools == [7]  # ceil(432 / 64) blocks
        for em, st in (whole, blocked):
            assert em.lambda_approx.tobytes() == base[0].lambda_approx.tobytes()
            assert em.rel_err_pct.tobytes() == base[0].rel_err_pct.tobytes()
            assert st == base[1]

    def test_blocks_are_even_and_independent_of_workers(self, monkeypatch):
        # whole 64-point blocks would leave a last block of 48 points
        taken = []

        class RecordingPool:
            """Records the blocks' point ranges and runs the tasks in the
            caller."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                taken.append(list(zip(*iterables)))
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", 64)
        for workers in (1, 2, 3):
            evaluation.scan_errors("eq2", grid=SMALL, workers=workers)
        bounds = [0, 61, 123, 185, 246, 308, 370, 432]
        assert taken == [list(zip(bounds[:-1], bounds[1:]))] * 3

    # the sweep's shared prefixes beside specs that must not share them:
    # another constants mode, a kernel sine on a bare starter
    PREFIX_SPECS = SWEEP_SPECS + [
        schemes.variant("eq2a2-t", constants="exact"), schemes.variant("eq6", "pade"),
    ]

    def test_each_shared_prefix_is_computed_once_per_block(self, monkeypatch):
        """One block of the sweep's specs computes each starter with its
        sine strategy once, and each acceleration step once per prefix."""
        specs = SWEEP_SPECS
        calls = Counter()

        def counted(name, fn):
            def count(*args, **kwargs):
                sin = kwargs.get("sin")
                # True for the exact sine, which the block wraps to share it
                calls[name, None if sin is None else sin not in kernels.SIN_KERNELS.values()] += 1
                return fn(*args, **kwargs)
            return count

        for name in ("colebrook_rhs_raw", "theta_raw"):
            monkeypatch.setattr(schemes, name, counted(name, getattr(schemes, name)))
        for name, row in list(schemes._STARTERS.items()):
            monkeypatch.setitem(schemes._STARTERS, name, row._replace(fn=counted(name, row.fn)))
        res = evaluation.scan_many(specs, grid=SMALL)
        assert SMALL.size <= evaluation._SCAN_BLOCK
        # per sine starter the exact sine once and each kernel once
        assert calls == {
            ("eq2", None): 1, ("eq3", None): 1,
            ("eq4", True): 1, ("eq4", False): 2, ("eq5", True): 1, ("eq5", False): 2,
            ("eq6", True): 1, ("eq6", False): 2,
            # eq2a1 and eq2a2's first step are one; then eq3a to eq6a, and
            # eq4a to eq6a with each of the 2 kernel sines
            ("colebrook_rhs_raw", None): 2 + 4 + 6,
            # eq2a1-t and eq2a2-t's first step are one; then eq3a-t to eq6a-t
            ("theta_raw", None): 2 + 4,
        }
        assert list(res) == [s.id for s in specs]

    def test_one_exact_sine_per_sine_starter_per_block(self, monkeypatch):
        # every sine strategy of a starter takes its exact sine from the
        # one call of the exact prefix
        calls, sin = [], np.sin

        def counted(arg, *args, **kwargs):
            calls.append(np.size(arg))
            return sin(arg, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counted)
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", 64)
        evaluation.scan_many(SWEEP_SPECS, grid=SMALL)
        # SMALL's 432 points in 7 blocks, each with the eq4, eq5 and eq6 sines
        assert len(calls) == 3 * 7
        assert sum(calls) == 3 * SMALL.size

    # kernel specs with no exact twin among them, on meshes where the sine
    # arguments of eq4 to eq6 lie partly, wholly and nowhere in the window
    KERNEL_ONLY = [
        schemes.variant(sid, kernel) for sid, kernel in (
            ("eq6a", "pade"), ("eq6a", "quintic"), ("eq4a-t", "quintic"), ("eq5", "pade"),
            ("eq5a", "quintic"), ("eq5a", "pade"),
        )
    ]
    WINDOW_GRIDS = {
        "some": evaluation.GridSpec(n_re=23, n_rough=7),
        "all": evaluation.GridSpec(re_min=1e5, re_max=2e5, rough_min=1e-4, rough_max=1.5e-4,
                                   n_re=9, n_rough=5),
        "none": evaluation.GridSpec(re_min=1e7, re_max=1e8, rough_min=1e-3, rough_max=1e-2,
                                    n_re=9, n_rough=5),
    }

    @staticmethod
    def _kernel_everywhere(spec, re, rel_rough):
        """The spec's recipe with its kernel sine on every point, then
        with the exact sine where the argument leaves the window, and the
        count of those points."""
        args = []

        def kernel(arg):
            args.append(arg)
            return kernels.SIN_KERNELS[spec.sin_strategy](arg)

        x_kernel = schemes._recipe(spec, re, rel_rough, kernel)
        x_exact = schemes._recipe(spec, re, rel_rough, np.sin)
        inside = kernels.in_sin_window(args[0])
        return np.where(inside, x_kernel, x_exact), inside.size - np.count_nonzero(inside)

    @pytest.mark.parametrize("spec", KERNEL_ONLY, ids=lambda spec: spec.id)
    def test_kernel_spec_alone_takes_each_sine_on_its_own_points(self, spec, monkeypatch):
        # with no exact twin the recipe runs once over the block: the kernel
        # on the window points only, np.sin on the fallbacks only
        re, rel_rough = (v.ravel() for v in np.meshgrid(*evaluation.grid_axes(
            self.WINDOW_GRIDS["some"])))
        x_ref, outside = self._kernel_everywhere(spec, re, rel_rough)
        recipes, kernel_points, sin_points = [], [], []
        recipe, kernel, sin = schemes._recipe, kernels.SIN_KERNELS[spec.sin_strategy], np.sin

        def counted_recipe(*args, **kwargs):
            recipes.append(args[0].id)
            return recipe(*args, **kwargs)

        def counted_kernel(arg):
            kernel_points.append(np.size(arg))
            return kernel(arg)

        def counted_sin(arg, *args, where=True, **kwargs):
            sin_points.append(int(np.count_nonzero(np.broadcast_to(where, np.shape(arg)))))
            return sin(arg, *args, where=where, **kwargs)

        monkeypatch.setattr(schemes, "_recipe", counted_recipe)
        monkeypatch.setitem(kernels.SIN_KERNELS, spec.sin_strategy, counted_kernel)
        monkeypatch.setattr(np, "sin", counted_sin)
        x, fallbacks = schemes.evaluate_scheme_raw(spec, re, rel_rough)
        assert recipes == [spec.id]
        assert kernel_points == [re.size - outside] and sin_points == [outside]
        assert fallbacks == outside
        assert x.tobytes() == x_ref.tobytes()

    def test_two_kernels_of_a_starter_share_its_base_prefix(self, monkeypatch):
        # with no exact twin but two kernel strategies, the first kernel's
        # prefix and its one np.sin are computed once for both
        re, rel_rough = (v.ravel() for v in np.meshgrid(*evaluation.grid_axes(
            self.WINDOW_GRIDS["some"])))
        specs = [schemes.variant("eq6a", kernel) for kernel in ("pade", "quintic")]
        alone = [schemes.evaluate_scheme_raw(spec, re, rel_rough) for spec in specs]
        sin_sizes, sin = [], np.sin

        def counted(arg, *args, **kwargs):
            sin_sizes.append(np.size(arg))
            return sin(arg, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counted)
        together = list(schemes._evaluate_block(specs, re, rel_rough))
        assert sin_sizes == [re.size]
        for (k, x, fallbacks), (x_alone, fallbacks_alone) in zip(together, alone):
            assert x.tobytes() == x_alone.tobytes() and fallbacks == fallbacks_alone, k

    @pytest.mark.parametrize("window", list(WINDOW_GRIDS))
    @pytest.mark.parametrize("block", [7, evaluation._SCAN_BLOCK])
    def test_kernel_specs_alone_equal_evaluation(self, window, block, monkeypatch):
        g = self.WINDOW_GRIDS[window]
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", block)
        res = evaluation.scan_many(self.KERNEL_ONLY, grid=g, workers=2)
        for spec in self.KERNEL_ONLY:
            em, st = res[spec.id]
            x, fallbacks = schemes.evaluate_scheme_raw(spec, em.re, em.rel_rough)
            x_ref, outside = self._kernel_everywhere(spec, em.re, em.rel_rough)
            assert x.tobytes() == x_ref.tobytes(), spec.id
            assert em.lambda_approx.tobytes() == np.power(x, -2.0).tobytes(), spec.id
            assert em.sine_fallbacks == fallbacks == outside, spec.id
            assert st == evaluation.stats_of(em)
            if window == "all":
                assert outside == 0
            elif window == "none":
                assert outside == g.size
            else:
                assert 0 < outside < g.size

    def test_sweep_maps_take_neither_fallback(self, monkeypatch):
        # on the default mesh each block's one-level enclosure decides the
        # rounding of every sweep map's sum, and the p99 is partitioned
        # from each block and from each map's candidates alone
        sums, partitions = [], []
        fsum, partition = math.fsum, np.partition

        def counted_sum(*args):
            sums.append(args)
            return fsum(*args)

        def counted_partition(a, *args, **kwargs):
            partitions.append(np.size(a))
            return partition(a, *args, **kwargs)

        monkeypatch.setattr(math, "fsum", counted_sum)
        monkeypatch.setattr(np, "partition", counted_partition)
        res = evaluation.scan_many(SWEEP_SPECS, grid=evaluation.DEFAULT_GRID)
        assert sums == []
        # two blocks of 45,000 points per spec, then each map's 2m candidates
        m = evaluation._tail(evaluation.DEFAULT_GRID.size)
        assert sorted(partitions) == [2 * m] * len(SWEEP_SPECS) + [45_000] * 2 * len(SWEEP_SPECS)
        # the enclosure of each whole map decides its rounding as well
        for sid, (em, st) in res.items():
            assert st == evaluation.stats_of(em), sid
        assert sums == []

    # kernel-sine specs whose starters no exact spec shares: eq6's and
    # eq5's groups of two kernel strategies, and eq4a's lone kernel
    KERNEL_GROUPS = [
        schemes.variant(sid, kernel) for sid, kernel in (
            ("eq6a", "pade"), ("eq6", "quintic"), ("eq4a", "quintic"), ("eq5a-t", "quintic"),
            ("eq6a-t", "pade"), ("eq5a", "pade"),
        )
    ]

    @pytest.mark.parametrize("block", [3, 7, evaluation._SCAN_BLOCK])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_prefixes_equal_evaluation_per_spec(self, block, workers, monkeypatch):
        g = evaluation.GridSpec(n_re=23, n_rough=7)
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", block)
        sin, sin_args = np.sin, []

        def recorded(arg, *args, where=True, **kwargs):
            # the arguments np.sin computes: those its mask leaves
            sin_args.append(np.asarray(arg)[np.broadcast_to(where, np.shape(arg))])
            return sin(arg, *args, where=where, **kwargs)

        for specs in (self.PREFIX_SPECS, self.KERNEL_GROUPS):
            if specs is self.KERNEL_GROUPS:
                monkeypatch.setattr(np, "sin", recorded)
            res = evaluation.scan_many(specs, grid=g, workers=workers)
            assert list(res) == [s.id for s in specs]
            for spec in specs:
                em, st = res[spec.id]
                x, fallbacks = schemes.evaluate_scheme_raw(spec, em.re, em.rel_rough)
                lam = np.power(x, -2.0)
                err = core.relative_error_pct_raw(em.lambda_ref, lam)
                assert em.lambda_approx.tobytes() == lam.tobytes(), spec
                assert em.rel_err_pct.tobytes() == err.tobytes(), spec
                assert em.sine_fallbacks == fallbacks, spec
                assert st == evaluation.stats_of(replace(em, lambda_approx=lam, rel_err_pct=err))
                # the kernel sine falls back at some points and not at others
                if spec.sin_strategy != "exact":
                    assert 0 < fallbacks < g.size, spec
        # with no exact spec in its group a starter's base sine is a kernel:
        # np.sin takes the points outside the window only
        sin_args = np.concatenate(sin_args)
        assert sin_args.size and not kernels.in_sin_window(sin_args).any()

    @pytest.mark.parametrize("block", [evaluation._SCAN_BLOCK, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_spec_in_input_order_is_reported(self, workers, block, monkeypatch):
        # every spec is checked before the block is evaluated, so grouping
        # the specs by starter does not change which failure is reported
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", block)
        smooth = evaluation.GridSpec(re_min=0.5, rough_min=1e-12, n_re=5, n_rough=5)
        low_re = evaluation.GridSpec(re_min=0.5, n_re=5, n_rough=5)
        for grid, order, message in (
            (smooth, ["eq2", "eq6a", "eq3a"], "eq6a: normalized starters require rel_rough"),
            (smooth, ["eq2", "eq3a", "eq6a"], "eq3a: normalized starters require rel_rough"),
            (low_re, ["eq6a", "eq3a", "eq3"], "eq3a: starter eq3 requires a = log10(Re) > 0"),
            (low_re, ["eq6a", "eq3", "eq3a"], "eq3: starter eq3 requires a = log10(Re) > 0"),
        ):
            with pytest.raises(core.DomainError) as exc:
                evaluation.scan_many(order, grid=grid, workers=workers)
            assert str(exc.value).startswith(message), (order, str(exc.value))

    def test_scan_many_shares_one_oracle(self):
        res = evaluation.scan_many(["eq2", "eq2a1"], grid=SMALL)
        em2, _ = res["eq2"]
        em21, _ = res["eq2a1"]
        assert np.array_equal(em2.lambda_ref, em21.lambda_ref)

    @pytest.mark.parametrize("block", [evaluation._SCAN_BLOCK, 2])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_negative_oracle_root_is_a_domain_error(self, workers, block, monkeypatch):
        # once eps/D/3.71 exceeds 1 the oracle converges to a negative x
        g = evaluation.GridSpec(n_re=5, n_rough=5, rough_max=10)
        # 2-point blocks cut 25 points into 13 even blocks: the first bad
        # point, index 20, is last in its block [19, 21), and the later
        # blocks fail too, so the first failing block must be reported
        monkeypatch.setattr(evaluation, "_SCAN_BLOCK", block)
        with pytest.raises(core.DomainError, match=r"not positive at \(re=4000.0, rel_rough=10.0\)"):
            evaluation.scan_errors("eq2a2", grid=g, workers=workers)

    def test_constants_variants_are_keyed_apart(self):
        pub = schemes.get_scheme("eq2a1-t")
        exact = schemes.variant(pub, constants="exact")
        res = evaluation.scan_many([pub, exact], grid=SMALL)
        assert list(res) == ["eq2a1-t", "eq2a1-t-exact"]
        assert res["eq2a1-t"][1] != res["eq2a1-t-exact"][1]
        assert np.array_equal(res["eq2a1-t-exact"][0].lambda_approx,
                              evaluation.scan_errors(exact, grid=SMALL)[0].lambda_approx)

    def test_repeated_ids_rejected_before_any_work(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(core, "solve_colebrook_raw", no_oracle)
        with pytest.raises(evaluation.ConfigError, match="repeated: eq2$"):
            evaluation.scan_many(["eq2", "eq2a1", "eq2"], grid=SMALL)
        # two different specs under one id would overwrite each other
        other = replace(schemes.get_scheme("eq2a1"), id="eq2")
        with pytest.raises(evaluation.ConfigError, match="repeated: eq2$"):
            evaluation.scan_many(["eq2", other], grid=SMALL)

    def test_no_schemes_return_before_any_work(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(core, "solve_colebrook_raw", no_oracle)
        assert evaluation.scan_many([], grid=SMALL) == {}
        assert evaluation.scan_many([], grid=SMALL, workers=4) == {}

    @pytest.mark.parametrize("workers", [2.0, "2", None])
    def test_non_integer_workers_rejected(self, workers):
        with pytest.raises(evaluation.ConfigError, match="workers must be an integer"):
            evaluation.scan_many(["eq2"], grid=SMALL, workers=workers)

    def test_oracle_failure_carries_the_solver_fields(self):
        # far below the domain the Newton step leaves the log's domain,
        # and the nan iterate counts to the iteration cap
        g = evaluation.GridSpec(re_min=0.001, re_max=0.01, n_re=2, n_rough=2)
        with pytest.raises(core.ConvergenceError) as scan:
            evaluation.scan_errors("eq2", grid=g)
        point = core.FlowPoint(0.001, 1e-6, out_of_domain_ok=True)
        with pytest.raises(core.ConvergenceError) as scalar:
            core.solve_colebrook_exact(point)
        assert str(scan.value).endswith("at (re=0.001, rel_rough=1e-06)")
        fields = [(e.last_x, e.iterations, e.residual) for e in (scan.value, scalar.value)]
        assert fields[0][1] == core.DEFAULT_MAX_ITER
        np.testing.assert_equal(fields[0], fields[1])

    def test_non_positive_root_has_the_scan_message(self):
        g = evaluation.GridSpec(re_min=1e5, re_max=2e5, rough_min=5.0, rough_max=6.0,
                                n_re=2, n_rough=2)
        with pytest.raises(core.DomainError) as scan:
            evaluation.scan_errors("eq2", grid=g)
        with pytest.raises(core.DomainError) as scalar:
            core.solve_colebrook_exact(core.FlowPoint(1e5, 5.0, out_of_domain_ok=True))
        assert str(scalar.value) == str(scan.value)
        assert str(scan.value).startswith("oracle root x=-0.")

    def test_scan_rejects_unknown_scheme(self):
        with pytest.raises(schemes.RegistryError):
            evaluation.scan_errors("eq99", grid=SMALL)

    def test_acceleration_shrinks_errors_on_mesh(self):
        res = evaluation.scan_many(["eq2", "eq2a1", "eq2a2"], grid=SMALL)
        m0 = res["eq2"][1].max_pct
        m1 = res["eq2a1"][1].max_pct
        m2 = res["eq2a2"][1].max_pct
        assert m0 > m1 > m2

    def test_sine_fallbacks_counted(self):
        spec = schemes.SchemeSpec(id="w", starter="eq6", accel_steps=1,
                                  sin_strategy="quintic")
        em, _ = evaluation.scan_errors(spec, grid=SMALL)
        # the eq6 sine argument 0.939*a - b outside the open window
        arg = 0.939 * np.log10(em.re) + np.log10(em.rel_rough)
        outside = np.count_nonzero((arg <= -0.08821) | (arg >= 1.18456))
        assert em.sine_fallbacks == outside > 0


def _row_by_row_csv(errmap, path):
    """The reference writer: one ``repr`` per value, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(evaluation.CSV_HEADER + "\n")
        for row in zip(
            errmap.re.tolist(),
            errmap.rel_rough.tolist(),
            errmap.lambda_ref.tolist(),
            errmap.lambda_approx.tolist(),
            errmap.rel_err_pct.tolist(),
        ):
            f.write(",".join(repr(v) for v in row) + "\n")


# signed zeros, nan, infinities, the smallest subnormal and repr's
# switch points between positional and exponent notation
_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16,
            9999999999999998.0, 1e-5, 1e-4, 0.00010000000000000002]


def _special_map():
    vals = np.array(_SPECIAL)
    rng = np.random.default_rng(7)
    cols = [rng.permutation(np.repeat(vals, 3)) for _ in range(5)]
    return evaluation.ErrorMap(None, *cols)


def _formatted(x):
    """(got, want): the texts ``repr_bytes`` and ``repr`` give for each
    value of x, as NUL-padded S25 arrays."""
    x = np.asarray(x, dtype=np.float64)
    m = _floatrepr.repr_bytes(x)
    assert m.shape[0] == x.size and not m[:, -1].any()  # the separator column
    got = np.zeros((x.size, 25), np.uint8)
    got[:, :m.shape[1]] = m
    want = np.array([repr(v).encode() for v in x.tolist()], dtype="S25")
    return got.view("S25").ravel(), want


def _assert_repr_equal(x):
    got, want = _formatted(x)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [(want[i], got[i]) for i in bad[:5]]


class TestShortestRepr:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(2020)
        u64 = np.uint64
        sign = rng.integers(0, 2, 150_000, dtype=u64) << u64(63)
        frac = rng.integers(0, 1 << 52, 150_000, dtype=u64)
        # every biased exponent, 0 (zeros, subnormals) and 2047 (inf, nan) included
        biased = rng.integers(0, 2048, 150_000, dtype=u64)
        # subnormals with few significant bits, and nans with sign and payload bits
        frac[:2000] %= u64(4096)
        biased[:2000] = 0
        frac[2000:4000] |= u64(1)
        biased[2000:4000] = 2047
        bits = np.concatenate([
            sign | (biased << u64(52)) | frac,
            rng.integers(0, 1 << 64, 50_000, dtype=u64, endpoint=False),
        ])
        _assert_repr_equal(bits.view(np.float64))

    def test_around_powers_of_two(self):
        # a power of two's rounding interval is asymmetric
        powers = np.ldexp(1.0, np.arange(-1074, 1024)).view(np.uint64)
        near = [powers + np.uint64(d) for d in range(4)]
        near += [powers[1:] - np.uint64(d) for d in range(1, 4)]
        bits = np.concatenate(near)
        _assert_repr_equal(np.concatenate([bits, bits | np.uint64(1 << 63)]).view(np.float64))

    def test_integers_thousandths_and_powers_of_ten(self):
        _assert_repr_equal(np.arange(100_001, dtype=np.float64))
        _assert_repr_equal(np.arange(100_001) / 1000)
        _assert_repr_equal(10.0 ** np.arange(-323, 309))

    def test_values_written_by_repr_widen_the_field(self):
        # zeros, subnormals, inf and nan take repr one value at a time
        x = np.array([1.0, -2.225073858507201e-308, 5e-324, 5e-323, -0.0, math.inf,
                      math.nan, 0.5])
        _assert_repr_equal(x)
        assert _floatrepr.repr_bytes(x).shape == (8, 24)

    def test_import_builds_no_table(self):
        # a fresh interpreter, so that no earlier test has built the tables
        src = str(Path(evaluation.__file__).resolve().parents[1])
        code = ("import sys, colebrook; print('colebrook._floatrepr' in sys.modules); "
                "from colebrook import _floatrepr; print(_floatrepr._TABLES.pow10 is None)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.split() == ["False", "True"]


def test_import_loads_no_pool_logging_export_or_cli():
    # scan_many imports its thread pool, export_csv its formatter, on use
    src = str(Path(evaluation.__file__).resolve().parents[1])
    names = ["concurrent.futures", "logging", "colebrook._floatrepr", "colebrook.cli"]
    code = f"import sys, colebrook; print([m for m in {names!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestExports:
    def test_csv_bytes_equal_row_by_row_writer_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "_CSV_BLOCK", 7)
        em, _ = evaluation.scan_errors("eq6a", grid=evaluation.GridSpec(n_re=8, n_rough=5))
        assert em.re.size % 7 != 0
        evaluation.export_csv(em, tmp_path / "new.csv")
        _row_by_row_csv(em, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_csv_bytes_equal_row_by_row_writer_on_special_values(self, tmp_path):
        em = _special_map()
        evaluation.export_csv(em, tmp_path / "new.csv")
        _row_by_row_csv(em, tmp_path / "old.csv")
        text = (tmp_path / "new.csv").read_bytes()
        assert text == (tmp_path / "old.csv").read_bytes()
        for token in (b"-0.0", b"nan", b"-inf", b"5e-324", b"1e+16", b"9999999999999998.0",
                      b"1e-05", b"0.0001"):
            assert token in text

    def test_csv_bytes_equal_row_by_row_writer_on_default_grid(self, tmp_path):
        em, _ = evaluation.scan_errors("eq2a2", grid=evaluation.DEFAULT_GRID)
        evaluation.export_csv(em, tmp_path / "new.csv")
        _row_by_row_csv(em, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_csv_of_an_empty_map_is_the_header(self, tmp_path):
        em = evaluation.ErrorMap(None, *(np.empty(0) for _ in range(5)))
        evaluation.export_csv(em, tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == evaluation.CSV_HEADER + "\n"

    def test_csv_writes_every_column_as_float64(self, tmp_path):
        rng = np.random.default_rng(3)
        wide = rng.random(24).astype(np.float32)
        em = evaluation.ErrorMap(
            None,
            re=np.arange(4000, 4012),  # int
            rel_rough=np.full(12, 1e-6),
            lambda_ref=np.arange(12) // 3,  # int
            lambda_approx=wide[::2],  # float32, not contiguous
            rel_err_pct=np.linspace(0.0, 1.0, 12),
        )
        evaluation.export_csv(em, tmp_path / "map.csv")
        rows = (tmp_path / "map.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        cols = (em.re, em.rel_rough, em.lambda_ref, em.lambda_approx, em.rel_err_pct)
        want = [[repr(float(col[i])) for col in cols] for i in range(12)]
        assert cells == want
        assert cells[0][:3] == ["4000.0", "1e-06", "0.0"]

    def test_csv_round_trip_keeps_special_values_bit_for_bit(self, tmp_path):
        em = _special_map()
        evaluation.export_csv(em, tmp_path / "map.csv")
        loaded = evaluation.load_csv(tmp_path / "map.csv")
        for col in ("re", "rel_rough", "lambda_ref", "lambda_approx", "rel_err_pct"):
            got, want = getattr(loaded, col), getattr(em, col)
            assert got.flags.c_contiguous and got.dtype == np.float64
            # bit patterns: nan positions and the sign of -0.0 included
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), col

    @pytest.mark.parametrize("text,match", [
        ("re,rel_rough,lambda_ref,lambda_approx\n1,2,3,4\n", "header"),
        ("{h}\n1,2,3,4,5\n1,2,3,4\n", "malformed"),
        ("{h}\n1,2,3,4\n1,2,3,4\n", "expected 5"),
        ("{h}\n1,2,3,4,5,6\n", "expected 5"),
        ("{h}\nabc,2,3,4,5\n", "malformed"),
        ("{h}\n1,2,3,4,5#comment\n", "malformed"),
        ("{h}\n#1,2,3,4,5\n", "malformed"),
        ("{h}\n\n", "malformed"),
    ])
    def test_load_csv_rejects_malformed_files(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text.format(h=evaluation.CSV_HEADER))
        with pytest.raises(evaluation.ConfigError, match=match):
            evaluation.load_csv(path)

    def test_load_csv_empty_body_gives_empty_columns(self, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text(evaluation.CSV_HEADER + "\n")
        loaded = evaluation.load_csv(path)
        for col in ("re", "rel_rough", "lambda_ref", "lambda_approx", "rel_err_pct"):
            got = getattr(loaded, col)
            assert got.shape == (0,) and got.dtype == np.float64
        assert len(recwarn) == 0

    def test_csv_round_trip(self, tmp_path):
        em, _ = evaluation.scan_errors("eq2a1", grid=evaluation.GridSpec(n_re=6, n_rough=5))
        path = tmp_path / "map.csv"
        evaluation.export_csv(em, path)
        loaded = evaluation.load_csv(path)
        assert np.array_equal(loaded.re, em.re)
        assert np.array_equal(loaded.rel_rough, em.rel_rough)
        assert np.array_equal(loaded.lambda_ref, em.lambda_ref)
        assert np.array_equal(loaded.lambda_approx, em.lambda_approx)
        assert np.array_equal(loaded.rel_err_pct, em.rel_err_pct)

    def test_csv_layout(self, tmp_path):
        em, _ = evaluation.scan_errors("eq2", grid=evaluation.GridSpec(n_re=3, n_rough=2))
        path = tmp_path / "map.csv"
        evaluation.export_csv(em, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "re,rel_rough,lambda_ref,lambda_approx,rel_err_pct"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "4000.0" and first[1] == "1e-06"
        # full repr precision survives the trip
        assert float(first[2]) == em.lambda_ref[0]

    def test_csv_stats_work_without_grid(self, tmp_path):
        em, st = evaluation.scan_errors("eq2", grid=evaluation.GridSpec(n_re=4, n_rough=3))
        path = tmp_path / "map.csv"
        evaluation.export_csv(em, path)
        loaded = evaluation.load_csv(path)
        assert loaded.grid is None
        assert evaluation.stats_of(loaded) == st

    def test_heatmap_golden_bytes(self, tmp_path):
        g = evaluation.GridSpec(n_re=2, n_rough=2)
        em = evaluation.ErrorMap(
            grid=g,
            re=np.array([4000.0, 1e8, 4000.0, 1e8]),
            rel_rough=np.array([1e-6, 1e-6, 0.05, 0.05]),
            lambda_ref=np.ones(4),
            lambda_approx=np.ones(4),
            rel_err_pct=np.array([0.0, 1.0, 0.5, 0.25]),
        )
        path = tmp_path / "map.pgm"
        evaluation.export_heatmap(em, path)
        # row order follows the mesh: lowest roughness first
        assert path.read_bytes() == b"P2\n2 2\n255\n0\n255\n128\n64\n"

    def test_heatmap_all_zero_map_is_black(self, tmp_path):
        g = evaluation.GridSpec(n_re=2, n_rough=2)
        em = evaluation.ErrorMap(
            grid=g,
            re=np.array([4000.0, 1e8, 4000.0, 1e8]),
            rel_rough=np.array([1e-6, 1e-6, 0.05, 0.05]),
            lambda_ref=np.ones(4),
            lambda_approx=np.ones(4),
            rel_err_pct=np.zeros(4),
        )
        path = tmp_path / "zero.pgm"
        evaluation.export_heatmap(em, path)
        assert path.read_bytes() == b"P2\n2 2\n255\n0\n0\n0\n0\n"

    @pytest.mark.parametrize("bad,count", [(math.nan, 1), (math.inf, 2)])
    def test_heatmap_rejects_non_finite_errors(self, bad, count, tmp_path):
        # a nan maximum drew every pixel black; an inf one divided inf by inf
        err = np.array([0.0, 1.0, 0.5, 0.25])
        err[-count:] = bad
        em = evaluation.ErrorMap(
            grid=evaluation.GridSpec(n_re=2, n_rough=2),
            re=np.array([4000.0, 1e8, 4000.0, 1e8]),
            rel_rough=np.array([1e-6, 1e-6, 0.05, 0.05]),
            lambda_ref=np.ones(4),
            lambda_approx=np.ones(4),
            rel_err_pct=err,
        )
        path = tmp_path / "bad.pgm"
        with pytest.raises(evaluation.ConfigError, match=f"{count} of 4 points are inf or NaN"):
            evaluation.export_heatmap(em, path)
        assert not path.exists()

    def test_heatmap_needs_grid_geometry(self, tmp_path):
        em, _ = evaluation.scan_errors("eq2", grid=evaluation.GridSpec(n_re=3, n_rough=2))
        loaded_free = evaluation.ErrorMap(
            grid=None, re=em.re, rel_rough=em.rel_rough,
            lambda_ref=em.lambda_ref, lambda_approx=em.lambda_approx,
            rel_err_pct=em.rel_err_pct,
        )
        with pytest.raises(evaluation.ConfigError):
            evaluation.export_heatmap(loaded_free, tmp_path / "no.pgm")

    def test_exports_are_reproducible(self, tmp_path):
        g = evaluation.GridSpec(n_re=8, n_rough=6)
        for name in ("a", "b"):
            em, _ = evaluation.scan_errors("eq2a2", grid=g, workers=3 if name == "b" else 1)
            evaluation.export_csv(em, tmp_path / f"{name}.csv")
            evaluation.export_heatmap(em, tmp_path / f"{name}.pgm")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


class TestCostModel:
    @pytest.mark.parametrize("sid,n_log,n_sin,n_div", [
        ("eq2", 0, 0, 2),
        ("eq2a1", 1, 0, 4),
        ("eq2a2", 2, 0, 6),
        ("eq2a2-pade", 1, 0, 9),
        ("eq3", 2, 0, 1),
        ("eq3a", 3, 0, 3),
        ("eq4a", 3, 1, 2),
        ("eq5a", 3, 1, 2),
        ("eq6a", 3, 1, 2),
        ("eq2a1-t", 2, 0, 3),
        ("eq2a2-t", 3, 0, 4),
        ("eq6a-t", 3, 1, 1),
    ])
    def test_operation_counts(self, sid, n_log, n_sin, n_div):
        c = evaluation.cost_profile(sid)
        assert (c.n_log, c.n_sin, c.n_div) == (n_log, n_sin, n_div)

    @pytest.mark.parametrize("sid", ["eq4a", "eq5a", "eq6a"])
    @pytest.mark.parametrize("strategy,n_div", [("pade", 3), ("quintic", 5)])
    def test_kernel_sine_counts_its_divisions(self, sid, strategy, n_div):
        # the kernel replaces the one sine and brings its own divisions
        # (one Pade, three quintic)
        spec = schemes.variant(sid, sin_strategy=strategy)
        c = evaluation.cost_profile(spec)
        assert (c.scheme_id, c.n_log, c.n_sin, c.n_div) == (spec.id, 3, 0, n_div)

    def test_repeated_calls_count_afresh(self):
        assert evaluation.cost_profile("eq2a2") == evaluation.cost_profile("eq2a2")

    def test_one_log_trick_saves_a_log(self):
        assert evaluation.cost_profile("eq2a2-pade").n_log == \
            evaluation.cost_profile("eq2a2").n_log - 1

    def test_published_error_table_keys(self):
        assert set(evaluation.PUBLISHED_MAX_PCT) == {
            "eq2", "eq2a1", "eq2a2", "eq3", "eq3a", "eq4", "eq4a",
            "eq5", "eq5a", "eq6", "eq6a",
        }

    def test_table_rows_are_consistent(self):
        rows = evaluation.table1_rows(grid=SMALL)
        assert [r["scheme"] for r in rows] == list(schemes.TABLE1_ROW_IDS)
        assert [r["n_log"] for r in rows] == [2, 3, 3, 1, 2, 2, 3, 3]
        for r in rows:
            assert r["published_max_pct"] == evaluation.PUBLISHED_MAX_PCT[r["scheme"]]
            _, st = evaluation.scan_errors(r["scheme"], grid=SMALL)
            assert r["measured_max_pct"] == st.max_pct

    def test_report_renders(self):
        text = evaluation.table1_text(evaluation.table1_rows(grid=SMALL))
        lines = text.splitlines()
        assert len(lines) == 9
        assert lines[0].split() == ["scheme", "logs", "measured", "max", "%", "published", "%"]
        assert lines[1].startswith("eq2a2")


class TestBenchmark:
    def test_smoke(self):
        batch = evaluation.sobol_2d(64, bounds=(4000.0, 1e8, 1e-6, 0.05))
        profiles = evaluation.benchmark(["eq2a2", "eq2a2-pade"], batch=batch, reps=3)
        assert [p.scheme_id for p in profiles] == ["eq2a2", "eq2a2-pade"]
        for p in profiles:
            assert p.timing.median_ns > 0
            assert p.timing.mad_ns >= 0
            assert p.timing.reps == 3
            assert p.timing.batch_size == 64
            assert math.isfinite(p.timing.checksum)

    def test_rejects_too_few_reps(self):
        with pytest.raises(evaluation.ConfigError):
            evaluation.benchmark(["eq2"], reps=2)

    def test_rejects_non_integer_reps(self):
        with pytest.raises(evaluation.ConfigError, match="reps must be an integer, got 5.0"):
            evaluation.benchmark(["eq2"], reps=5.0)

    def test_rejects_bad_batch(self):
        with pytest.raises(evaluation.ConfigError):
            evaluation.benchmark(["eq2"], batch=np.zeros(7), reps=3)
