"""Domain objects, the implicit map, and the reference solver."""

import dataclasses
import math

import numpy as np
import pytest

import colebrook
from colebrook import core, evaluation, schemes

# Frozen reference values, recomputed independently with 50-digit
# arithmetic and rounded to double precision.
RHS_1E5 = 7.386488876919739
RHS_SMOOTH = 5.0068325310218109
X_STAR_1E5 = 7.3496637486421387
LAM_STAR_1E5 = 0.01851249948164709
X_STAR_SMOOTH = 5.0058217736749656
LAM_STAR_SMOOTH = 0.039907014055634898
LAM_STAR_ROUGH = 0.07148413344620058   # Re=1e6, eps/D=0.05
LAM_STAR_MID = 0.011868958666459352    # Re=1e6, eps/D=1e-5
EQ2_SMOOTH = 5.1740067952116232
EQ2_CORNER = 3.9399026467603759
EQ2_1E5 = 7.588952121943826


def test_public_names_resolve_once():
    names = colebrook.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(colebrook, name), name


class TestFlowPoint:
    def test_accepts_interior_point(self):
        p = core.FlowPoint(1e5, 1e-4)
        assert p.in_domain
        assert p.re == 1e5 and p.rel_rough == 1e-4

    def test_accepts_domain_boundary(self):
        for re, rough in [(4000.0, 0.0), (1e8, 0.05), (4000.0, 0.05), (1e8, 0.0)]:
            assert core.FlowPoint(re, rough).in_domain

    def test_smooth_limit_is_legal(self):
        assert core.FlowPoint(5e4, 0.0).rel_rough == 0.0

    def test_rejects_nonpositive_re(self):
        with pytest.raises(core.DomainError):
            core.FlowPoint(0.0, 1e-4)
        with pytest.raises(core.DomainError):
            core.FlowPoint(-100.0, 1e-4)

    def test_rejects_negative_roughness_even_with_flag(self):
        with pytest.raises(core.DomainError):
            core.FlowPoint(1e5, -1e-4)
        with pytest.raises(core.DomainError):
            core.FlowPoint(1e5, -1e-4, out_of_domain_ok=True)

    def test_rejects_non_finite(self):
        with pytest.raises(core.DomainError):
            core.FlowPoint(math.nan, 1e-4)
        with pytest.raises(core.DomainError):
            core.FlowPoint(1e5, math.inf, out_of_domain_ok=True)

    def test_out_of_range_needs_flag(self):
        with pytest.raises(core.DomainError):
            core.FlowPoint(2000.0, 1e-4)
        p = core.FlowPoint(2000.0, 1e-4, out_of_domain_ok=True)
        assert not p.in_domain
        q = core.FlowPoint(1e5, 0.2, out_of_domain_ok=True)
        assert not q.in_domain

    def test_frozen(self):
        p = core.FlowPoint(1e5, 1e-4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.re = 2e5


class TestNormalization:
    """The normalized starters run at a = log10(Re), b = -log10(eps/D)."""

    def _eq3(self, re, rough):
        x, _ = schemes.evaluate_scheme_raw("eq3", np.array([re]), np.array([rough]))
        return x[0]

    def test_round_numbers(self):
        assert self._eq3(1e5, 1e-4) == schemes.starter_eq3_raw(5.0, 4.0)

    def test_a_of_domain_edge(self):
        a = 3.6020599913279624
        assert self._eq3(4000.0, 1e-4) == pytest.approx(schemes.starter_eq3_raw(a, 4.0), rel=1e-15)

    def test_smooth_limit_rejected(self):
        # below the practical floor counts as smooth too
        for rough in (0.0, 1e-12):
            with pytest.raises(core.DomainError, match="rel_rough >="):
                schemes.evaluate_scheme_raw("eq3", np.array([1e5, 1e5]), np.array([1e-4, rough]))

    def test_floor_value_is_accepted(self):
        assert self._eq3(1e5, core.MIN_NORMALIZED_ROUGH) == schemes.starter_eq3_raw(5.0, 9.0)


class TestFrictionIterate:
    def test_lambda_is_inverse_square(self):
        it = core.FrictionIterate(5.0)
        assert it.lam == 0.04
        assert it.step == 0

    def test_rejects_nonpositive_x(self):
        with pytest.raises(core.DomainError):
            core.FrictionIterate(0.0)
        with pytest.raises(core.DomainError):
            core.FrictionIterate(-1.0)

    def test_rejects_negative_step(self):
        with pytest.raises(core.DomainError):
            core.FrictionIterate(5.0, step=-1)


class TestColebrookRhs:
    def test_reference_point(self):
        x = core.colebrook_rhs_raw(1e5, 1e-4, 7.0)
        assert x == pytest.approx(RHS_1E5, rel=1e-14)

    def test_smooth_branch(self):
        x = core.colebrook_rhs_raw(4000.0, 0.0, 5.0)
        assert x == pytest.approx(RHS_SMOOTH, rel=1e-14)


class TestStarterEq2:
    def test_pinned_values(self):
        assert core.starter_eq2_raw(4000.0, 0.0) == pytest.approx(EQ2_SMOOTH, rel=1e-14)
        assert core.starter_eq2_raw(1e8, 0.05) == pytest.approx(EQ2_CORNER, rel=1e-14)
        assert core.starter_eq2_raw(1e5, 1e-4) == pytest.approx(EQ2_1E5, rel=1e-14)

    def test_vectorized(self):
        res = np.asarray(core.starter_eq2_raw(np.array([4000.0, 1e8]), np.array([0.0, 0.05])))
        assert res[0] == core.starter_eq2_raw(4000.0, 0.0)
        assert res[1] == core.starter_eq2_raw(1e8, 0.05)


class TestSolver:
    def test_reference_point(self):
        rep = core.solve_colebrook_exact(core.FlowPoint(1e5, 1e-4))
        assert rep.iterate.x == pytest.approx(X_STAR_1E5, abs=1e-10)
        assert rep.iterate.lam == pytest.approx(LAM_STAR_1E5, rel=1e-10)
        assert rep.residual <= 1e-12
        assert rep.iterations <= 5

    def test_smooth_point(self):
        rep = core.solve_colebrook_exact(core.FlowPoint(4000.0, 0.0))
        assert rep.iterate.x == pytest.approx(X_STAR_SMOOTH, abs=1e-10)
        assert rep.iterate.lam == pytest.approx(LAM_STAR_SMOOTH, rel=1e-10)

    def test_more_pinned_lambdas(self):
        lam = core.solve_colebrook_exact(core.FlowPoint(1e6, 0.05)).iterate.lam
        assert lam == pytest.approx(LAM_STAR_ROUGH, rel=1e-10)
        lam = core.solve_colebrook_exact(core.FlowPoint(1e6, 1e-5)).iterate.lam
        assert lam == pytest.approx(LAM_STAR_MID, rel=1e-10)

    def test_start_independence(self):
        # f is increasing and concave, so Newton from any sane start lands
        # on the same root
        for x0 in (3.0, 12.0):
            x, _, _, conv = core.solve_colebrook_raw(1e5, 1e-4, x0)
            assert conv
            assert float(x) == pytest.approx(X_STAR_1E5, abs=1e-10)

    def test_fixed_point_property(self):
        rep = core.solve_colebrook_exact(core.FlowPoint(3e6, 1e-3))
        x = rep.iterate.x
        assert core.colebrook_rhs_raw(3e6, 1e-3, x) == pytest.approx(x, abs=1e-11)

    def test_nonconvergence_raises_with_context(self):
        p = core.FlowPoint(0.001, 1e-4, out_of_domain_ok=True)
        with pytest.raises(core.ConvergenceError) as exc:
            core.solve_colebrook_exact(p)
        assert exc.value.iterations == core.DEFAULT_MAX_ITER

    def test_raw_vector_matches_scalar(self):
        res = np.array([5e3, 1e5, 1e7])
        rough = np.array([1e-3, 1e-4, 0.0])
        x, its, ress, conv = core.solve_colebrook_raw(res, rough, core.oracle_start_raw(res, rough))
        assert conv.all()
        for i in range(3):
            rep = core.solve_colebrook_exact(core.FlowPoint(res[i], rough[i]))
            assert x[i] == rep.iterate.x
            assert its[i] == rep.iterations

    @staticmethod
    def _scalar_and_vector(re, rough):
        """(x, iterations, residual, converged) of both oracles at one point;
        a ConvergenceError supplies the scalar side's fields."""
        try:
            rep = core.solve_colebrook_exact(core.FlowPoint(re, rough, out_of_domain_ok=True))
            scalar = (rep.iterate.x, rep.iterations, rep.residual, True)
        except core.ConvergenceError as exc:
            scalar = (exc.last_x, exc.iterations, exc.residual, False)
        x, its, res, conv = core.solve_colebrook_raw(re, rough, core.oracle_start_raw(re, rough))
        return scalar, (float(x), int(its), float(res), bool(conv))

    def test_scalar_oracle_is_bit_identical_to_vector(self):
        pts = evaluation.sobol_2d(2048, bounds=evaluation.DEFAULT_GRID, mapping="log")
        points = [tuple(p) for p in pts.tolist()]
        points += [(re, 0.0) for re in (4000.0, 2.3e4, 1e5, 7.7e6, 1e8)]
        points += [(4000.0, 0.0), (4000.0, 0.05), (1e8, 0.0), (1e8, 0.05)]
        points += [(100.0, 1e-4), (2000.0, 0.0), (1e9, 0.1), (1e10, 0.0)]
        for re, rough in points:
            scalar, vector = self._scalar_and_vector(re, rough)
            assert vector[3], (re, rough)
            assert scalar == vector, (re, rough)

    def test_scalar_nonconvergence_matches_vector(self):
        scalar, vector = self._scalar_and_vector(0.001, 1e-4)
        assert math.isnan(scalar[0]) and math.isnan(vector[0])
        assert math.isnan(scalar[2]) and math.isnan(vector[2])
        assert scalar[1] == vector[1] == 100
        assert scalar[3] is vector[3] is False

    @pytest.mark.parametrize("tol,max_iter", [(1e-8, 100), (1e-12, 3), (1e-8, 3)])
    def test_scalar_loop_control_matches_vector(self, tol, max_iter, monkeypatch):
        # both solvers read the settings when called
        monkeypatch.setattr(core, "DEFAULT_TOL", tol)
        monkeypatch.setattr(core, "DEFAULT_MAX_ITER", max_iter)
        scalar, vector = self._scalar_and_vector(3e5, 2e-3)
        assert scalar == vector

    def test_scalar_stops_when_difference_equals_tol(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_TOL", 1e-8)
        _, (_, _, res, _) = self._scalar_and_vector(3e5, 2e-3)
        monkeypatch.setattr(core, "DEFAULT_TOL", res)
        scalar, vector = self._scalar_and_vector(3e5, 2e-3)
        assert vector[2] == res and vector[3]
        assert scalar == vector

    def test_oracle_error_bar_against_mpmath(self):
        """The oracle's lambda sits within 2e-15 relative of 40-digit roots.

        Measured: 3.75e-16 at most over 256 log-mapped Sobol points.
        """
        mpmath = pytest.importorskip("mpmath")
        pts = evaluation.sobol_2d(256, bounds=evaluation.DEFAULT_GRID, mapping="log")
        res, rough = pts[:, 0], pts[:, 1]
        x, _, _, conv = core.solve_colebrook_raw(res, rough, core.oracle_start_raw(res, rough))
        assert conv.all()
        worst = 0.0
        with mpmath.workdps(40):
            c1, c2 = mpmath.mpf("2.51"), mpmath.mpf("3.71")
            for re_i, rough_i, x_i in zip(res.tolist(), rough.tolist(), x.tolist()):
                root = mpmath.findroot(
                    lambda v: v + 2 * mpmath.log10(c1 * v / re_i + rough_i / c2),
                    mpmath.mpf(x_i),
                )
                lam = root ** -2
                worst = max(worst, float(abs(mpmath.mpf(x_i ** -2.0) - lam) / lam))
        assert worst <= 2e-15

    def test_oracle_agrees_with_wright_omega(self):
        # u = a*x + c solves u + a*k*ln(u) = c, so with u = a*k*w the root is
        # x = -2 log10(a*k*w), w = omega(c/(a*k) - ln(a*k)), k = 2/ln 10
        # (Brkic & Praks, Mathematics 2019); this form has no cancellation
        special = pytest.importorskip("scipy.special")
        pts = evaluation.sobol_2d(4096, bounds=evaluation.DEFAULT_GRID, mapping="log")
        res, rough = pts[:, 0], pts[:, 1]
        x, _, _, conv = core.solve_colebrook_raw(res, rough, core.oracle_start_raw(res, rough))
        assert conv.all()
        ak = 2.51 / res * (2.0 / math.log(10.0))
        omega = special.wrightomega(rough / 3.71 / ak - np.log(ak)).real
        x_w = -2.0 * np.log10(ak * omega)
        assert np.max(np.abs(x_w - x) / x) <= 1e-15

    def test_oracle_takes_at_most_five_steps_on_the_default_mesh(self):
        re, rough = np.meshgrid(*evaluation.grid_axes(evaluation.DEFAULT_GRID))
        _, iters, resid, conv = core.solve_colebrook_raw(re, rough, core.oracle_start_raw(re, rough))
        assert conv.all()
        assert int(iters.max()) <= 5
        assert float(resid.max()) <= core.DEFAULT_TOL

    def test_trajectory_is_chunk_independent(self):
        rng = np.random.default_rng(7)
        res = 10.0 ** rng.uniform(math.log10(4000.0), 8.0, 64)
        rough = 10.0 ** rng.uniform(-6.0, math.log10(0.05), 64)
        x0 = core.oracle_start_raw(res, rough)
        full, _, _, _ = core.solve_colebrook_raw(res, rough, x0)
        lo, _, _, _ = core.solve_colebrook_raw(res[:13], rough[:13], x0[:13])
        hi, _, _, _ = core.solve_colebrook_raw(res[13:], rough[13:], x0[13:])
        assert np.array_equal(full, np.concatenate([lo, hi]))

    def test_oracle_start_uses_starter_in_domain(self):
        assert core.oracle_start_raw(1e5, 1e-4) == core.starter_eq2_raw(1e5, 1e-4)
        assert core.oracle_start_raw(100.0, 1e-4) == 8.0


class TestRelativeError:
    def test_formula(self):
        assert core.relative_error_pct(0.02, 0.019) == pytest.approx(5.0, rel=1e-12)

    def test_zero_when_equal(self):
        assert core.relative_error_pct(0.02, 0.02) == 0.0

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(core.DomainError):
            core.relative_error_pct(0.0, 0.019)

    def test_raw_is_vectorized(self):
        err = core.relative_error_pct_raw(np.array([0.02, 0.04]), np.array([0.019, 0.04]))
        assert err[0] == pytest.approx(5.0, rel=1e-12)
        assert err[1] == 0.0
