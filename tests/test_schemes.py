"""Starter formulas, acceleration steps, and the scheme registry."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from colebrook import core, evaluation, schemes

EQ3_PIN = 3.7421514831245        # a=8, b=1.30103
EQ4_PIN = 6.5878809877028383
EQ5_PIN = 6.6462336111690357     # a=5, b=3
EQ6_PIN = 5.09129209915634       # a=6, b=2
EQ3_DISPLAY = 4.70               # a=4, b=2 lands on a round value

CHAIN_X1 = 7.3253335998557053    # Re=1e5, eps/D=1e-4, eq2 start
CHAIN_X2 = 7.3521761708391499
EQ3_CHAIN_X0 = 7.528
EQ3_CHAIN_X1 = 7.3314666429513583
TRANSFORMED_PUB_X1 = 7.3253105395888885

REQUIRED_IDS = {
    "eq2", "eq2a1", "eq2a2", "eq2a2-pade", "eq3", "eq3a",
    "eq4", "eq4a", "eq5", "eq5a", "eq6", "eq6a",
}


TRANSFORMED_IDS = ("eq2a1-t", "eq2a2-t", "eq3a-t", "eq4a-t", "eq5a-t", "eq6a-t")


def _sweep_variants():
    # the 18 registry schemes, eq4a/eq5a/eq6a with each rational sine, and
    # the transformed schemes with exact constants
    specs = [schemes.get_scheme(sid) for sid in schemes.scheme_ids()]
    for sid in ("eq4a", "eq5a", "eq6a"):
        for kernel in ("pade", "quintic"):
            specs.append(schemes.variant(sid, sin_strategy=kernel))
    specs += [schemes.variant(sid, constants="exact") for sid in TRANSFORMED_IDS]
    return specs


SWEEP_VARIANTS = _sweep_variants()


@pytest.fixture(scope="module")
def sweep_scan():
    """One scan of every sweep variant on a 60x50 mesh."""
    return evaluation.scan_many(SWEEP_VARIANTS, grid=evaluation.GridSpec(n_re=60, n_rough=50))


class TestStarters:
    def test_eq3_pin(self):
        assert schemes.starter_eq3_raw(8.0, 1.30103) == pytest.approx(EQ3_PIN, rel=1e-14)

    def test_eq3_round_value(self):
        assert schemes.starter_eq3_raw(4.0, 2.0) == pytest.approx(EQ3_DISPLAY, rel=1e-14)

    def test_eq4_pin(self):
        assert schemes.starter_eq4_raw(8.0, 1.30103) == pytest.approx(EQ4_PIN, rel=1e-14)

    def test_eq5_pin(self):
        assert schemes.starter_eq5_raw(5.0, 3.0) == pytest.approx(EQ5_PIN, rel=1e-14)

    def test_eq6_pin(self):
        assert schemes.starter_eq6_raw(6.0, 2.0) == pytest.approx(EQ6_PIN, rel=1e-14)

    def test_typed_starters_match_raw(self):
        # the bare ids at a point are the raw starters at a = log10(Re),
        # b = -log10(eps/D)
        p = core.FlowPoint(3.7e6, 2.4e-3)
        a, b = np.log10(3.7e6), -np.log10(2.4e-3)
        assert schemes.evaluate_scheme("eq3", p).x == schemes.starter_eq3_raw(a, b)
        assert schemes.evaluate_scheme("eq4", p).x == schemes.starter_eq4_raw(a, b)
        assert schemes.evaluate_scheme("eq5", p).x == schemes.starter_eq5_raw(a, b)
        assert schemes.evaluate_scheme("eq6", p).x == schemes.starter_eq6_raw(a, b)
        assert schemes.evaluate_scheme("eq2", p).x == core.starter_eq2_raw(3.7e6, 2.4e-3)

    def test_starters_are_step_zero(self):
        p = core.FlowPoint(1e5, 1e-4)
        for sid in ("eq2", "eq3", "eq4", "eq5", "eq6"):
            assert schemes.evaluate_scheme(sid, p).step == 0

    def test_eq3_rejects_nonpositive_a(self):
        # Re = 1 gives a = log10(Re) = 0
        with pytest.raises(core.DomainError, match="a = log10"):
            schemes.evaluate_scheme("eq3", core.FlowPoint(1.0, 1e-4, out_of_domain_ok=True))

    def test_sine_argument_coefficients(self):
        # each sine-bearing starter takes one sine, of coef*a - b
        for fn, coef in (
            (schemes.starter_eq4_raw, 0.937),
            (schemes.starter_eq5_raw, 0.935),
            (schemes.starter_eq6_raw, 0.939),
        ):
            args = []
            fn(5.0, 4.0, sin=lambda t: args.append(t) or 0.0)
            assert args == [coef * 5.0 - 4.0]
        assert schemes.SINE_STARTERS == ("eq4", "eq5", "eq6")

    @pytest.mark.parametrize("name", list(schemes._STARTERS))
    def test_each_row_decides_its_starter_rules(self, name):
        # the sine rule and the input checks follow the table's row
        row = schemes._STARTERS[name]
        bare = schemes.SchemeSpec(name, name)
        if row.sine:
            assert schemes.SchemeSpec(name, name, sin_strategy="pade").sin_strategy == "pade"
            assert schemes.variant(bare, "pade").id == f"{name}-sinpade"
        else:
            with pytest.raises(schemes.SchemeError, match="contains no sine"):
                schemes.SchemeSpec(name, name, sin_strategy="pade")
            assert schemes.variant(bare, "pade") is bare
        below_floor = [1e5], [core.MIN_NORMALIZED_ROUGH / 2]
        if row.normalized:
            with pytest.raises(core.DomainError, match=f"{name}: normalized starters require"):
                schemes.evaluate_scheme_raw(bare, *below_floor)
        else:
            schemes.evaluate_scheme_raw(bare, *below_floor)
        re_one = [1.0], [1e-4]
        if name == "eq3":
            with pytest.raises(core.DomainError, match=r"eq3: starter eq3 requires a = log10"):
                schemes.evaluate_scheme_raw(bare, *re_one)
        else:
            schemes.evaluate_scheme_raw(bare, *re_one)
        assert schemes.SINE_STARTERS == tuple(n for n, r in schemes._STARTERS.items() if r.sine)
        assert schemes.SINE_STARTERS == ("eq4", "eq5", "eq6")


class TestAcceleration:
    def test_two_step_chain(self):
        p = core.FlowPoint(1e5, 1e-4)
        it1 = schemes.evaluate_scheme("eq2a1", p)
        it2 = schemes.evaluate_scheme("eq2a2", p)
        assert (it1.step, it2.step) == (1, 2)
        assert it1.x == pytest.approx(CHAIN_X1, rel=1e-14)
        assert it2.x == pytest.approx(CHAIN_X2, rel=1e-14)
        # each step is one application of the implicit map
        assert it1.x == core.colebrook_rhs_raw(1e5, 1e-4, core.starter_eq2_raw(1e5, 1e-4))
        assert it2.x == core.colebrook_rhs_raw(1e5, 1e-4, it1.x)

    def test_eq3_chain(self):
        p = core.FlowPoint(1e5, 1e-4)
        it0 = schemes.evaluate_scheme("eq3", p)
        assert it0.x == pytest.approx(EQ3_CHAIN_X0, rel=1e-14)
        it1 = schemes.evaluate_scheme("eq3a", p)
        assert it1.x == pytest.approx(EQ3_CHAIN_X1, rel=1e-14)
        assert it1.x == core.colebrook_rhs_raw(1e5, 1e-4, it0.x)

    def test_each_step_improves_reference_point(self):
        p = core.FlowPoint(1e5, 1e-4)
        lam = core.solve_colebrook_exact(p).iterate.lam
        errs = [
            core.relative_error_pct(lam, schemes.evaluate_scheme(sid, p).lam)
            for sid in ("eq2", "eq2a1", "eq2a2")
        ]
        assert errs[0] > errs[1] > errs[2]


class TestTheta:
    def test_is_negative(self):
        th = schemes.theta_raw(1e5, 1e-4, core.starter_eq2_raw(1e5, 1e-4))
        assert th == pytest.approx(-7.066908105475309, rel=1e-12)
        assert th < 0

    def test_rejects_smooth_limit(self):
        # theta divides by eps/D; the vector path refuses eps/D = 0
        with pytest.raises(core.DomainError):
            schemes.evaluate_scheme_raw("eq2a1-t", np.array([1e5, 1e6]), np.array([1e-4, 0.0]))


class TestTransformedForm:
    def test_published_constants_are_the_printed_truncations(self):
        assert schemes._TRANSFORMED_CONSTANTS["published"] == (1.1387478, 0.8686)

    def test_exact_constants(self):
        c1, c2 = schemes._TRANSFORMED_CONSTANTS["exact"]
        assert c1 == pytest.approx(1.1387478192300917, rel=1e-15)
        assert c2 == pytest.approx(0.8685889638065035, rel=1e-15)

    def test_unknown_mode_rejected(self):
        with pytest.raises(schemes.SchemeError, match="constants mode"):
            schemes.SchemeSpec(
                id="w", starter="eq2", accel_steps=1, accel_form="transformed", constants="fast"
            )

    def test_published_step_pin(self):
        it1 = schemes.evaluate_scheme("eq2a1-t", core.FlowPoint(1e5, 1e-4))
        assert it1.step == 1
        assert it1.x == pytest.approx(TRANSFORMED_PUB_X1, rel=1e-14)

    def test_exact_constants_recover_direct_step(self):
        p = core.FlowPoint(1e5, 1e-4)
        direct = schemes.evaluate_scheme("eq2a1", p)
        transformed = schemes.evaluate_scheme(schemes.variant("eq2a1-t", constants="exact"), p)
        assert transformed.x == pytest.approx(direct.x, rel=1e-13)

    def test_needs_roughness(self):
        with pytest.raises(core.DomainError, match="rel_rough = 0"):
            schemes.evaluate_scheme("eq2a1-t", core.FlowPoint(1e5, 0.0))


class TestRegistry:
    def test_required_ids_present(self):
        assert REQUIRED_IDS <= set(schemes.scheme_ids())

    def test_transformed_variants_present(self):
        assert set(TRANSFORMED_IDS) <= set(schemes.scheme_ids())

    def test_ids_and_specs_agree(self):
        for sid in schemes.scheme_ids():
            assert schemes.get_scheme(sid).id == sid

    def test_unknown_id(self):
        with pytest.raises(schemes.RegistryError):
            schemes.get_scheme("eq99")

    def test_registry_is_read_only(self):
        with pytest.raises(TypeError):
            schemes.REGISTRY["eq2"] = None

    def test_invalid_spec_combinations(self):
        with pytest.raises(schemes.SchemeError):
            schemes.SchemeSpec(id="x", starter="eq2", accel_steps=1,
                               log_strategy="pade-one-log")
        with pytest.raises(schemes.SchemeError):
            schemes.SchemeSpec(id="x", starter="eq2", sin_strategy="pade")
        with pytest.raises(schemes.SchemeError):
            schemes.SchemeSpec(id="x", starter="eq6", accel_steps=2,
                               accel_form="transformed", log_strategy="pade-one-log")

    @pytest.mark.parametrize("steps", [1.0, "1", None])
    def test_non_integer_accel_steps_rejected(self, steps):
        with pytest.raises(schemes.SchemeError, match="accel_steps must be an integer"):
            schemes.SchemeSpec("x", "eq2", steps)

    def test_constants_mode_checked(self):
        with pytest.raises(schemes.SchemeError, match="constants mode"):
            schemes.SchemeSpec(id="x", starter="eq2", accel_steps=1,
                               accel_form="transformed", constants="fast")
        # only a transformed step reads the constants
        with pytest.raises(schemes.SchemeError, match="no transformed step"):
            schemes.SchemeSpec(id="x", starter="eq2", accel_steps=1, constants="exact")
        spec = schemes.SchemeSpec(id="x", starter="eq2", accel_steps=1,
                                  accel_form="transformed", constants="exact")
        assert spec.transformed and spec.constants == "exact"

    def test_table_row_ids(self):
        assert schemes.TABLE1_ROW_IDS == (
            "eq2a2", "eq6a", "eq5a", "eq2a1", "eq6", "eq5", "eq4a", "eq3a"
        )


class TestEvaluateScheme:
    def test_accepts_id_or_spec(self):
        p = core.FlowPoint(1e5, 1e-4)
        by_id = schemes.evaluate_scheme("eq2a2", p)
        by_spec = schemes.evaluate_scheme(schemes.get_scheme("eq2a2"), p)
        assert by_id.x == by_spec.x == pytest.approx(CHAIN_X2, rel=1e-14)

    def test_pade_one_log_route(self):
        p = core.FlowPoint(1e5, 1e-4)
        it = schemes.evaluate_scheme("eq2a2-pade", p)
        assert it.step == 2
        assert it.x == pytest.approx(CHAIN_X2, rel=1e-10)

    def test_normalized_starter_rejects_smooth(self):
        with pytest.raises(core.DomainError):
            schemes.evaluate_scheme("eq3", core.FlowPoint(1e5, 0.0))
        # below the smooth floor counts as smooth too
        with pytest.raises(core.DomainError, match="rel_rough >="):
            schemes.evaluate_scheme("eq3", core.FlowPoint(1e5, 1e-12))
        # the floor itself is accepted
        it = schemes.evaluate_scheme("eq3", core.FlowPoint(1e5, core.MIN_NORMALIZED_ROUGH))
        assert it.x == schemes.starter_eq3_raw(5.0, 9.0)

    def test_eq2_family_accepts_smooth(self):
        it = schemes.evaluate_scheme("eq2a2", core.FlowPoint(1e5, 0.0))
        lam_ref = core.solve_colebrook_exact(core.FlowPoint(1e5, 0.0)).iterate.lam
        assert core.relative_error_pct(lam_ref, it.lam) < 0.5

    def test_transformed_variant_tracks_direct(self):
        p = core.FlowPoint(2e6, 3e-3)
        direct = schemes.evaluate_scheme("eq6a", p)
        trans = schemes.evaluate_scheme(schemes.variant("eq6a-t", constants="exact"), p)
        assert trans.x == pytest.approx(direct.x, rel=1e-12)

    @pytest.mark.parametrize("sid", ["eq3", "eq3a", "eq3a-t"])
    def test_eq3_family_rejects_re_at_most_one_on_both_paths(self, sid):
        # a = log10(Re) is 0 at Re = 1 and the starter divides by it
        with pytest.raises(core.DomainError, match="a = log10"):
            schemes.evaluate_scheme_raw(sid, [1.0, 0.5], [1e-4, 1e-4])
        for re in (1.0, 0.5):
            with pytest.raises(core.DomainError, match="a = log10"):
                schemes.evaluate_scheme(sid, core.FlowPoint(re, 1e-4, out_of_domain_ok=True))

    @pytest.mark.parametrize("sid", ["eq2a2", "eq6a", "eq3a-t"])
    @pytest.mark.parametrize("re, rough, message", [
        (np.nan, 1e-4, r"re must be positive and finite, got values in \[nan, nan\]"),
        (np.inf, 1e-4, r"re must be positive and finite, got values in \[100000.0, inf\]"),
        (1e5, np.nan, r"rel_rough must be non-negative and finite, got values in \[nan"),
        (1e5, -np.inf, r"rel_rough must be non-negative and finite, got values in \[-inf"),
        (0.0, 1e-4, r"re must be positive and finite, got values in \[0.0,"),
        (-1e5, 1e-4, r"re must be positive and finite, got values in \[-100000.0,"),
        (1e5, -1e-4, r"rel_rough must be non-negative and finite, got values in \[-0.0001,"),
    ])
    def test_raw_path_rejects_what_flowpoint_rejects(self, sid, re, rough, message):
        # the bad value sits beside a good one; the check reads the extremes
        with pytest.raises(core.DomainError, match=message):
            schemes.evaluate_scheme_raw(sid, [1e5, re], [1e-4, rough])
        with pytest.raises(core.DomainError):
            core.FlowPoint(re, rough, out_of_domain_ok=True)

    @pytest.mark.parametrize("sid, re, rough", [
        ("eq2a2-t", 1e-300, 1e-30),  # (eps/D)*Re underflows to 0 under theta
        ("eq4a-t", 1e-316, 1e-9),
        ("eq2a2-pade", 12.176180180675074, 0.0),  # y1 = 1 exactly, so y2 = 0
    ])
    def test_point_division_by_zero_is_a_non_finite_result(self, sid, re, rough):
        # a float divides by zero where an array element divides to +-inf
        # and the recipe ends non-finite
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x, _ = schemes.evaluate_scheme_raw(sid, [re], [rough])
        assert not np.isfinite(x[0])
        with pytest.raises(core.DomainError, match="iterate x must be positive and finite"):
            schemes.evaluate_scheme(sid, core.FlowPoint(re, rough, out_of_domain_ok=True))

    def test_raw_path_takes_empty_arrays(self):
        x, fallbacks = schemes.evaluate_scheme_raw("eq3a-t", [], [])
        assert x.size == 0 and fallbacks == 0

    # which array each log10 call takes: "step" is a direct step's argument
    @pytest.mark.parametrize("sid, logged", [
        ("eq2", []),
        ("eq2a1-t", ["rel_rough"]),
        ("eq2a2", ["step", "step"]),
        ("eq3a", ["re", "rel_rough", "step"]),
        ("eq6a-t", ["re", "rel_rough"]),
    ])
    def test_one_scheme_takes_only_the_logs_it_needs(self, sid, logged, monkeypatch):
        re, rel_rough = np.array([1e4, 1e6]), np.array([1e-5, 1e-3])
        x_plain, _ = schemes.evaluate_scheme_raw(sid, re, rel_rough)
        taken, log10 = [], np.log10

        def counted(arg, *args, **kwargs):
            taken.append("re" if arg is re else "rel_rough" if arg is rel_rough else "step")
            return log10(arg, *args, **kwargs)

        monkeypatch.setattr(np, "log10", counted)
        x, _ = schemes.evaluate_scheme_raw(sid, re, rel_rough)
        assert taken == logged
        assert x.tobytes() == x_plain.tobytes()

    def test_one_log_scheme_takes_the_first_step_from_the_memo(self, monkeypatch):
        # beside eq2a1, whose step eq2a2-pade's first step is, the one-log
        # scheme takes no log of its own
        re, rel_rough = np.array([1e4, 1e6, 1e8]), np.array([1e-5, 1e-3, 0.05])
        specs = [schemes.get_scheme(sid) for sid in ("eq2a1", "eq2a2-pade")]
        alone = [schemes.evaluate_scheme_raw(spec, re, rel_rough)[0] for spec in specs]
        taken, log10 = [], np.log10

        def counted(arg, *args, **kwargs):
            taken.append(arg)
            return log10(arg, *args, **kwargs)

        monkeypatch.setattr(np, "log10", counted)
        together = {k: x for k, x, _ in schemes._evaluate_block(specs, re, rel_rough)}
        assert len(taken) == 1
        for k, x in enumerate(alone):
            assert together[k].tobytes() == x.tobytes()

    @pytest.mark.parametrize("spec", SWEEP_VARIANTS, ids=lambda spec: spec.id)
    def test_point_takes_the_profiled_transcendentals(self, spec, monkeypatch):
        # the op-count guard of evaluate_scheme: at a point whose sine
        # argument lies inside the kernel window it takes exactly the logs
        # and sines that cost_profile counts
        prof = evaluation.cost_profile(spec)
        calls = Counter()

        def counted(name, fn):
            def op(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return op

        for name in ("log10", "log", "sin"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        schemes.evaluate_scheme(spec, core.FlowPoint(1e5, 1e-4))
        assert calls["log10"] + calls["log"] == prof.n_log
        assert calls["sin"] == prof.n_sin

    @pytest.mark.parametrize("spec", SWEEP_VARIANTS, ids=lambda spec: spec.id)
    def test_scalar_equals_raw_bit_for_bit(self, spec):
        # log-mapped Sobol points over the default box plus its corners;
        # the eq2 family also on the smooth limit eps/D = 0
        g = evaluation.DEFAULT_GRID
        pts = evaluation.sobol_2d(2048, bounds=g, mapping="log")
        res, rough = pts[:, 0].tolist(), pts[:, 1].tolist()
        for re in (g.re_min, g.re_max):
            for rr in (g.rough_min, g.rough_max):
                res.append(re)
                rough.append(rr)
        if spec.starter == "eq2" and spec.accel_form == "direct":
            res += [g.re_min, 1e5, g.re_max]
            rough += [0.0, 0.0, 0.0]
        xs, _ = schemes.evaluate_scheme_raw(spec, res, rough)
        for x, re, rr in zip(xs.tolist(), res, rough):
            it = schemes.evaluate_scheme(spec, core.FlowPoint(re, rr))
            assert it.x == x, (spec.id, re, rr)
            assert it.step == spec.accel_steps

    @pytest.mark.parametrize("spec", SWEEP_VARIANTS, ids=lambda spec: spec.id)
    def test_scan_equals_evaluation_alone(self, spec, sweep_scan):
        # the scan shares one block's (a, b), and each starter group's
        # prefixes and sine, among the schemes; evaluate_scheme_raw
        # computes them for one scheme
        em, _ = sweep_scan[spec.id]
        x, fallbacks = schemes.evaluate_scheme_raw(spec, em.re, em.rel_rough)
        lam = np.power(x, -2.0)
        err = core.relative_error_pct_raw(em.lambda_ref, lam)
        assert em.lambda_approx.tobytes() == lam.tobytes()
        assert em.rel_err_pct.tobytes() == err.tobytes()
        assert em.sine_fallbacks == fallbacks


class TestVariant:
    def test_ids_name_the_settings(self):
        assert schemes.variant("eq6a", "pade") == replace(
            schemes.get_scheme("eq6a"), id="eq6a-sinpade", sin_strategy="pade")
        assert schemes.variant("eq2a1-t", constants="exact") == replace(
            schemes.get_scheme("eq2a1-t"), id="eq2a1-t-exact", constants="exact")
        both = schemes.variant(schemes.get_scheme("eq6a-t"), "quintic", "exact")
        assert (both.id, both.sin_strategy, both.constants) == (
            "eq6a-t-sinquintic-exact", "quintic", "exact")

    def test_settings_without_effect_keep_the_spec(self):
        for sid in schemes.scheme_ids():
            assert schemes.variant(sid) is schemes.get_scheme(sid)
        # eq2a2 has no sine and no transformed step; eq6a no transformed step
        assert schemes.variant("eq2a2", "pade", "exact") is schemes.get_scheme("eq2a2")
        assert schemes.variant("eq6a", "exact", "exact") is schemes.get_scheme("eq6a")

    def test_setting_again_keeps_the_variant(self):
        pade = schemes.variant("eq6a", "pade")
        assert schemes.variant(pade, "pade") is pade
        exact = schemes.variant("eq2a1-t", constants="exact")
        assert schemes.variant(exact, constants="exact") is exact
        # the setting a variant lacks is still applied
        both = schemes.variant(schemes.variant("eq6a-t", "quintic"), "quintic", "exact")
        assert both == schemes.variant("eq6a-t", "quintic", "exact")

    def test_id_does_not_depend_on_the_order_of_settings(self):
        sine_first = schemes.variant(schemes.variant("eq6a-t", "pade"), constants="exact")
        constants_first = schemes.variant(schemes.variant("eq6a-t", constants="exact"), "pade")
        assert sine_first == constants_first == schemes.variant("eq6a-t", "pade", "exact")
        assert constants_first.id == "eq6a-t-sinpade-exact"
        # one scheme under one id: scan_many would not compute it twice
        with pytest.raises(evaluation.ConfigError, match="repeated: eq6a-t-sinpade-exact$"):
            evaluation.scan_many([sine_first, constants_first], grid=evaluation.GridSpec(
                n_re=3, n_rough=3))

    def test_conflicting_setting_rejected(self):
        with pytest.raises(schemes.SchemeError, match="eq6a-sinpade already has sin_strategy"):
            schemes.variant(schemes.variant("eq6a", "pade"), "quintic")
        spec = schemes.SchemeSpec(id="w", starter="eq5", sin_strategy="quintic")
        with pytest.raises(schemes.SchemeError, match="w already has sin_strategy 'quintic'"):
            schemes.variant(spec, "pade", "exact")

    def test_unknown_settings_rejected(self):
        with pytest.raises(schemes.SchemeError, match="sin_strategy"):
            schemes.variant("eq2", "cordic")
        with pytest.raises(schemes.SchemeError, match="constants mode"):
            schemes.variant("eq2", constants="fast")
        with pytest.raises(schemes.RegistryError):
            schemes.variant("eq99")


class TestSineStrategies:
    def test_in_window_point_uses_kernel(self):
        # (Re, eps/D) = (1e5, 1e-4) is a=5, b=4 and puts the eq6 sine
        # argument at 0.695, inside the window
        p = core.FlowPoint(1e5, 1e-4)
        spec = schemes.SchemeSpec(id="w", starter="eq6", sin_strategy="pade")
        exact = schemes.evaluate_scheme("eq6", p).x
        pade = schemes.evaluate_scheme(spec, p).x
        assert pade != exact
        assert pade == pytest.approx(exact, rel=1e-3)

    def test_out_of_window_falls_back_to_exact(self):
        spec = schemes.SchemeSpec(id="w", starter="eq6", accel_steps=1,
                                  sin_strategy="pade")
        res = np.array([1e5, 4000.0])
        rough = np.array([1e-4, 1e-6])
        x_pade, fallbacks = schemes.evaluate_scheme_raw(spec, res, rough)
        x_exact, zero = schemes.evaluate_scheme_raw(schemes.get_scheme("eq6a"), res, rough)
        assert zero == 0
        assert fallbacks == 1
        assert x_pade[1] == x_exact[1]   # fell back, bitwise identical
        assert x_pade[0] != x_exact[0]
