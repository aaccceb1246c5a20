"""Mesh scans, quasi-random sampling, exports, and the cost model."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from colebrook import core, evaluation, schemes

scipy_qmc = pytest.importorskip("scipy.stats", reason="scipy is the Sobol cross-check")

SMALL = evaluation.GridSpec(n_re=24, n_rough=18)

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

    def test_matches_scipy_unscrambled(self):
        from scipy.stats import qmc
        ref = qmc.Sobol(d=2, scramble=False).random(512)
        assert np.array_equal(evaluation.sobol_2d(512), ref)

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
        # the 18 registry schemes plus eq4a/eq5a/eq6a with each rational sine
        specs = [schemes.get_scheme(sid) for sid in schemes.scheme_ids()]
        for sid in ("eq4a", "eq5a", "eq6a"):
            for kernel in ("pade", "quintic"):
                specs.append(schemes.variant(sid, sin_strategy=kernel))
        res = evaluation.scan_many(specs, grid=evaluation.GridSpec(n_re=120, n_rough=120))
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

    def test_worker_count_does_not_change_anything(self):
        # odd point count so chunks are ragged
        g = evaluation.GridSpec(n_re=23, n_rough=7)
        specs = ["eq6a", schemes.variant("eq6a", "pade"), "eq2a2-pade"]
        base = evaluation.scan_many(specs, grid=g, workers=1)
        assert base["eq6a-sinpade"][0].sine_fallbacks > 0
        # frequent thread switches interleave the workers' writes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = {w: evaluation.scan_many(specs, grid=g, workers=w) for w in (2, 5, 8)}
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

    def test_workers_fill_the_returned_arrays_in_place(self):
        # per-worker results joined into the outputs would hold the
        # outputs' bytes twice at the peak
        g = evaluation.GridSpec(n_re=200, n_rough=150)
        tracemalloc.start()
        try:
            res = evaluation.scan_many(schemes.TABLE1_ROW_IDS, grid=g, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = {
            id(a): a
            for em, _ in res.values()
            for a in (em.re, em.rel_rough, em.lambda_ref, em.lambda_approx, em.rel_err_pct)
        }
        returned = sum(a.nbytes for a in arrays.values())
        assert peak < 2 * returned, peak / returned

    def test_scan_many_shares_one_oracle(self):
        res = evaluation.scan_many(["eq2", "eq2a1"], grid=SMALL)
        em2, _ = res["eq2"]
        em21, _ = res["eq2a1"]
        assert np.array_equal(em2.lambda_ref, em21.lambda_ref)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_negative_oracle_root_is_a_domain_error(self, workers):
        # once eps/D/3.71 exceeds 1 the oracle converges to a negative x
        g = evaluation.GridSpec(n_re=5, n_rough=5, rough_max=10)
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
        text = evaluation.table1_report(grid=SMALL)
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

    def test_rejects_bad_batch(self):
        with pytest.raises(evaluation.ConfigError):
            evaluation.benchmark(["eq2"], batch=np.zeros(7), reps=3)
