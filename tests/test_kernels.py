"""Rational kernel substitutes for ln and sine, and the one-log step."""

import math

import numpy as np
import pytest

from colebrook import core, evaluation, kernels, schemes

# [3/3] rational values at simple arguments reduce to exact fractions
PADE_LN_2 = 131.0 / 189.0
PADE_SIN_1 = 53.0 / 63.0
QUINTIC_SIN_1 = 0.84146520964399369
QUINTIC_SIN_NEG1 = -0.8418389942809106
PADE_LN_15 = 0.40546448087431694

ONE_LOG_Z_1E5 = 1.0313861270076308
TWO_LOG_X2_1E5 = 7.3521761708391499


class TestPadeLn:
    def test_exact_zero_at_one(self):
        assert kernels.pade_ln(1.0) == 0.0

    def test_rational_pins(self):
        assert kernels.pade_ln(2.0) == pytest.approx(PADE_LN_2, rel=1e-15)
        assert kernels.pade_ln(1.5) == pytest.approx(PADE_LN_15, rel=1e-15)

    def test_scalar_input_gives_scalar_float(self):
        out = kernels.pade_ln(2)
        assert isinstance(out, float)

    def test_rejects_nonpositive(self):
        with pytest.raises(core.DomainError):
            kernels.pade_ln(0.0)
        with pytest.raises(core.DomainError):
            kernels.pade_ln(-1.0)
        with pytest.raises(core.DomainError):
            kernels.pade_ln(np.array([0.5, -1.0]))

    @pytest.mark.parametrize("z", [math.nan, np.array([math.nan, 1.0])])
    def test_rejects_nan(self, z):
        # nan <= 0 is false: the check must not let a NaN through
        with pytest.raises(core.DomainError, match="pade_ln requires z > 0"):
            kernels.pade_ln(z)

    def test_accuracy_near_one(self):
        # the substitution only ever sees z close to 1
        z = np.linspace(0.9, 1.1, 10001)
        z = z[z != 1.0]
        err = np.abs((kernels.pade_ln(z) - np.log(z)) / np.log(z))
        assert float(err.max()) <= 1e-9

    def test_vectorized_matches_scalar(self):
        z = np.array([0.95, 1.0, 1.05])
        out = kernels.pade_ln(z)
        assert out[0] == kernels.pade_ln(0.95)
        assert out[1] == 0.0
        assert out[2] == kernels.pade_ln(1.05)


class TestSineKernels:
    def test_pade_sin_pin(self):
        assert kernels.pade_sin(1.0) == pytest.approx(PADE_SIN_1, rel=1e-15)

    def test_pade_sin_odd(self):
        x = np.linspace(-1.0, 1.0, 101)
        assert np.allclose(kernels.pade_sin(-x), -kernels.pade_sin(x), rtol=0, atol=0)

    def test_quintic_sin_pins(self):
        assert kernels.quintic_sin(1.0) == pytest.approx(QUINTIC_SIN_1, rel=1e-15)
        assert kernels.quintic_sin(-1.0) == pytest.approx(QUINTIC_SIN_NEG1, rel=1e-15)

    def test_quintic_sin_float_equals_array_element(self):
        # written with products, not powers, it rounds a float as it
        # rounds an array element
        x = np.linspace(-3.0, 7.0, 4001)
        assert kernels.quintic_sin(x).tolist() == [kernels.quintic_sin(v) for v in x.tolist()]

    def test_quintic_sin_is_not_odd(self):
        # the quadratic term breaks symmetry; keep that on record
        asym = abs(kernels.quintic_sin(1.0) + kernels.quintic_sin(-1.0))
        assert 1e-4 < asym < 1e-3

    def test_window_is_open(self):
        lo, hi = kernels.SIN_WINDOW
        assert not kernels.in_sin_window(lo)
        assert not kernels.in_sin_window(hi)
        assert kernels.in_sin_window(0.0)
        assert kernels.in_sin_window(math.nextafter(lo, hi))

    def test_sin_kernel_dispatch(self):
        val, ok = kernels.sin_kernel(0.5, "pade")
        assert ok and val == kernels.pade_sin(0.5)
        val, ok = kernels.sin_kernel(0.5, "quintic")
        assert ok and val == kernels.quintic_sin(0.5)
        _, ok = kernels.sin_kernel(2.0, "pade")
        assert not ok

    def test_quintic_tighter_than_pade_in_window(self):
        lo, hi = kernels.SIN_WINDOW
        x = np.linspace(lo, hi, 2002)[1:-1]
        ref = np.sin(x)
        keep = ref != 0.0
        x, ref = x[keep], ref[keep]
        pade = np.abs((kernels.pade_sin(x) - ref) / ref).max()
        quintic = np.abs((kernels.quintic_sin(x) - ref) / ref).max()
        assert quintic < pade


class TestOneLogSecondIteration:
    def test_matches_two_log_chain(self):
        x0 = core.starter_eq2_raw(1e5, 1e-4)
        x2, z = kernels.one_log_second_iteration_raw(1e5, 1e-4, x0)
        assert z == pytest.approx(ONE_LOG_Z_1E5, rel=1e-14)
        assert float(x2) == pytest.approx(TWO_LOG_X2_1E5, rel=1e-10)

    def test_typed_wrapper_reports_two_steps(self):
        # the one-log step at a point runs through its scheme, eq2a2-pade
        p = core.FlowPoint(1e5, 1e-4)
        it = schemes.evaluate_scheme("eq2a2-pade", p)
        x2, _ = kernels.one_log_second_iteration_raw(1e5, 1e-4, core.starter_eq2_raw(1e5, 1e-4))
        assert it.step == 2
        assert it.x == x2
        assert it.x == pytest.approx(TWO_LOG_X2_1E5, rel=1e-10)

    def test_smooth_limit_works(self):
        # no roughness term; the log ratio argument stays positive
        x0 = core.starter_eq2_raw(1e6, 0.0)
        x2, z = kernels.one_log_second_iteration_raw(1e6, 0.0, x0)
        assert z > 0
        lam_ref = core.solve_colebrook_exact(core.FlowPoint(1e6, 0.0)).iterate.lam
        assert float(x2) ** -2 == pytest.approx(lam_ref, rel=1e-3)

    def test_vectorized(self):
        res = np.array([1e5, 1e6])
        rough = np.array([1e-4, 1e-3])
        x0 = core.starter_eq2_raw(res, rough)
        x2, _ = kernels.one_log_second_iteration_raw(res, rough, x0)
        s0, _ = kernels.one_log_second_iteration_raw(1e5, 1e-4, float(x0[0]))
        assert float(x2[0]) == float(s0)

    def test_given_first_step_gives_the_same_bits(self):
        # the first direct step from x0 rounds as the kernel's own, and
        # -x1/2 is its log10(y1) exactly
        re, rough = evaluation.sobol_2d(4096, bounds=evaluation.DEFAULT_GRID, mapping="log").T
        x0 = core.starter_eq2_raw(re, rough)
        x1 = core.colebrook_rhs_raw(re, rough, x0)
        own = kernels.one_log_second_iteration_raw(re, rough, x0)
        given = kernels.one_log_second_iteration_raw(re, rough, x0, x1)
        for a, b in zip(own, given):
            assert a.tobytes() == b.tobytes()
