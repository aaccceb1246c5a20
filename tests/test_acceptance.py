"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each test prints a single PASS/FAIL line with the measured numbers.

C1 and C2 stay pinned to the stated domain (the default 300x300 mesh
over Re in [4000, 1e8], eps/D in [1e-6, 0.05]) with the published
figures, bands and caps, even where the mesh cannot reproduce them;
each scheme's line names the (Re, eps/D) of its maximum so a failure
shows the domain edge it fails on. See the README for the analysis.

C4 compares each sine kernel's window maximum with its published
figure. The Pade figure, 0.068%, is checked at its printed precision
(the maximum truncates to it) and against the exact maximum, which the
kernel attains at the open upper window end; the quintic figure,
0.003%, is a plain upper bound.
"""

import math

import numpy as np
import pytest

from colebrook import core, evaluation, kernels, schemes

GRID = evaluation.DEFAULT_GRID
MESH_IDS = (
    "eq2", "eq2a1", "eq2a2", "eq2a2-pade", "eq3", "eq3a",
    "eq4", "eq4a", "eq5", "eq5a", "eq6", "eq6a",
)
DOMAIN_BOX = (4000.0, 1e8, 1e-6, 0.05)
PUBLISHED_SIN_WINDOW = (-0.08821, 1.18456)


@pytest.fixture(scope="module")
def mesh():
    return evaluation.scan_many(MESH_IDS, grid=GRID, workers=4)


def check(cid, title, failures, detail):
    status = "FAIL" if failures else "PASS"
    print(f"{cid} {title}: {status} ({detail})")
    assert not failures, f"{cid} {title}: " + "; ".join(failures)


def band(published, rel=0.10):
    return published * (1.0 - rel), published * (1.0 + rel)


def at_argmax(stats):
    return f"at (Re={stats.argmax_re:.6g}, eps/D={stats.argmax_rough:.6g})"


def test_c1_error_chain(mesh):
    published = {"eq2": 16.56, "eq2a1": 0.98, "eq2a2": 0.13}
    stats = {sid: mesh[sid][1] for sid in published}
    measured = {sid: st.max_pct for sid, st in stats.items()}
    failures = []
    for sid, pub in published.items():
        lo, hi = band(pub)
        if not lo <= measured[sid] <= hi:
            failures.append(
                f"{sid} max {measured[sid]:.4f}% {at_argmax(stats[sid])} "
                f"outside [{lo:.4f}, {hi:.4f}]"
            )
    if not measured["eq2"] > measured["eq2a1"] > measured["eq2a2"]:
        failures.append("chain not strictly decreasing")
    detail = ", ".join(
        f"{s}={measured[s]:.4f}% {at_argmax(stats[s])}" for s in ("eq2", "eq2a1", "eq2a2")
    )
    check("C1", "starter-acceleration error chain", failures, detail)


def test_c2_max_error_table(mesh):
    approx = {"eq6a": 0.17, "eq5a": 0.28, "eq3a": 5.35, "eq4a": 6.29}
    caps = {"eq6": 2.4, "eq5": 7.2, "eq3": 24.0, "eq4": 72.0}
    failures = []
    parts = []
    for sid, pub in approx.items():
        st = mesh[sid][1]
        got = st.max_pct
        lo, hi = band(pub)
        parts.append(f"{sid}={got:.4f}% {at_argmax(st)}")
        if not lo <= got <= hi:
            failures.append(
                f"{sid} max {got:.4f}% {at_argmax(st)} outside [{lo:.4f}, {hi:.4f}]"
            )
    for sid, cap in caps.items():
        st = mesh[sid][1]
        got = st.max_pct
        parts.append(f"{sid}={got:.4f}% {at_argmax(st)}")
        if got > cap:
            failures.append(f"{sid} max {got:.4f}% {at_argmax(st)} exceeds cap {cap}%")
    want_logs = [2, 3, 3, 1, 2, 2, 3, 3]
    got_logs = [evaluation.cost_profile(sid).n_log for sid in schemes.TABLE1_ROW_IDS]
    if got_logs != want_logs:
        failures.append(f"log counts {got_logs} != {want_logs}")
    check("C2", "max-error table with log counts", failures, ", ".join(parts))


def test_c3_one_log_fidelity(mesh):
    em_two, _ = mesh["eq2a2"]
    em_one, _ = mesh["eq2a2-pade"]
    dev = float(np.max(
        np.abs(em_one.lambda_approx - em_two.lambda_approx) / em_two.lambda_approx
    )) * 100.0
    failures = [] if dev <= 1e-8 else [f"lambda deviation {dev:.3e}% > 1e-8%"]
    check("C3", "one-log second step fidelity", failures,
          f"max lambda deviation {dev:.3e}% vs 1e-8% allowed")


def test_c4_sine_kernel_windows():
    lo, hi = kernels.SIN_WINDOW
    xs = np.linspace(lo, hi, 100002)[1:-1]
    ref = np.sin(xs)
    keep = ref != 0.0
    xs, ref = xs[keep], ref[keep]
    pade = float(np.max(np.abs((kernels.pade_sin(xs) - ref) / ref))) * 100.0
    quintic = float(np.max(np.abs((kernels.quintic_sin(xs) - ref) / ref))) * 100.0
    # the [3/2] Pade form written out; its error grows towards the open
    # upper end of the published window, so the value there is the
    # supremum over the window
    end = PUBLISHED_SIN_WINDOW[1]
    edge_pade = end * (60.0 - 7.0 * end * end) / (60.0 + 3.0 * end * end)
    edge = abs((edge_pade - math.sin(end)) / math.sin(end)) * 100.0
    failures = []
    if kernels.SIN_WINDOW != PUBLISHED_SIN_WINDOW:
        failures.append(f"window {kernels.SIN_WINDOW} != published {PUBLISHED_SIN_WINDOW}")
    if not 0.068 <= pade < 0.069:
        failures.append(f"pade_sin max {pade:.6f}% does not print as the published 0.068%")
    if not edge - 1e-5 <= pade < edge:
        failures.append(
            f"pade_sin max {pade:.7f}% not within 1e-5 below the window-end {edge:.7f}%"
        )
    if quintic > 0.003:
        failures.append(f"quintic_sin max {quintic:.6f}% > 0.003%")
    check("C4", "sine kernel window figures", failures,
          f"pade={pade:.7f}% (published 0.068, window end {edge:.7f}), "
          f"quintic={quintic:.6f}% (bound 0.003)")


def test_c5_transformed_equivalence():
    pts = evaluation.sobol_2d(10000, bounds=DOMAIN_BOX)
    re, rough = pts[:, 0], pts[:, 1]
    x0, _ = schemes.evaluate_scheme_raw(schemes.get_scheme("eq2"), re, rough)
    direct = core.colebrook_rhs_raw(re, rough, x0)
    exact_t, _ = schemes.evaluate_scheme_raw(
        schemes.variant("eq2a1-t", constants="exact"), re, rough)
    pub_t, _ = schemes.evaluate_scheme_raw(schemes.get_scheme("eq2a1-t"), re, rough)
    dev_exact = float(np.max(np.abs(exact_t - direct) / direct))
    dev_pub = float(np.max(np.abs(pub_t - direct) / direct))
    failures = []
    if dev_exact > 1e-12:
        failures.append(f"exact-constant deviation {dev_exact:.3e} > 1e-12")
    if dev_pub > 1e-4:
        failures.append(f"printed-constant deviation {dev_pub:.3e} > 1e-4")
    check("C5", "transformed-form equivalence", failures,
          f"exact {dev_exact:.3e} (<=1e-12), printed {dev_pub:.3e} (<=1e-4)")


def test_c6_theta_sign_and_range(mesh):
    em, _ = mesh["eq2"]
    x0, _ = schemes.evaluate_scheme_raw(schemes.get_scheme("eq2"), em.re, em.rel_rough)
    th = schemes.theta_raw(em.re, em.rel_rough, x0)
    t_min, t_max = float(th.min()), float(th.max())
    failures = []
    if not (th < 0).all():
        failures.append("theta not negative everywhere")
    if not -1e5 <= t_min <= -1e3:
        failures.append(f"min theta {t_min:.6g} outside [-1e5, -1e3]")
    if not -1e-4 <= t_max <= -1e-6:
        failures.append(f"max theta {t_max:.6g} outside [-1e-4, -1e-6]")
    check("C6", "theta sign and range", failures,
          f"theta in [{t_min:.6g}, {t_max:.6g}]")


def test_c7_oracle_properties(mesh):
    pts = evaluation.sobol_2d(1000, bounds=DOMAIN_BOX)
    re, rough = pts[:, 0], pts[:, 1]
    failures = []
    worst_iters = 0
    worst_resid = 0.0
    for x0 in (3.0, 12.0):
        x, iters, resid, conv = core.solve_colebrook_raw(re, rough, np.full(re.shape, x0))
        if not conv.all():
            failures.append(f"non-convergence from x0={x0}")
        worst_iters = max(worst_iters, int(iters.max()))
        worst_resid = max(worst_resid, float(resid.max()))
    if worst_iters > 30:
        failures.append(f"{worst_iters} iterations > 30")
    if worst_resid > 1e-11:
        failures.append(f"residual {worst_resid:.3e} > 1e-11")
    lam = mesh["eq2"][0].lambda_ref.reshape(GRID.n_rough, GRID.n_re)
    if not (np.diff(lam, axis=1) < 0).all():
        failures.append("lambda not decreasing in Re")
    if not (np.diff(lam, axis=0) > 0).all():
        failures.append("lambda not increasing in roughness")
    check("C7", "reference solver properties", failures,
          f"<= {worst_iters} iterations, residual <= {worst_resid:.3e}, "
          "monotone on mesh")


def test_c8_determinism(mesh, tmp_path):
    base_map, base_stats = mesh["eq2a2"]
    failures = []
    for workers in (1, 4, 8):
        em, st = evaluation.scan_errors("eq2a2", grid=GRID, workers=workers)
        if (st.max_pct, st.argmax_re, st.argmax_rough) != (
            base_stats.max_pct, base_stats.argmax_re, base_stats.argmax_rough
        ):
            failures.append(f"max/argmax changed with workers={workers}")
        if not math.isclose(st.mean_pct, base_stats.mean_pct, rel_tol=1e-12):
            failures.append(f"mean drifted with workers={workers}")
        if not np.array_equal(em.rel_err_pct, base_map.rel_err_pct):
            failures.append(f"error map changed with workers={workers}")
    small = evaluation.GridSpec(n_re=40, n_rough=30)
    blobs = {"csv": [], "pgm": []}
    for run in ("a", "b"):
        em, _ = evaluation.scan_errors("eq2a2", grid=small, workers=4 if run == "b" else 1)
        csv_path = tmp_path / f"{run}.csv"
        pgm_path = tmp_path / f"{run}.pgm"
        evaluation.export_csv(em, csv_path)
        evaluation.export_heatmap(em, pgm_path)
        blobs["csv"].append(csv_path.read_bytes())
        blobs["pgm"].append(pgm_path.read_bytes())
    for kind, (first, second) in blobs.items():
        if first != second:
            failures.append(f"{kind} output not byte-identical across runs")
    check("C8", "scan determinism", failures,
          "workers 1/4/8 identical, exports byte-identical")


def test_c9_kernel_pins():
    failures = []
    if kernels.pade_ln(1.0) != 0.0:
        failures.append("pade_ln(1) != 0")
    got_ln2 = kernels.pade_ln(2.0)
    if f"{got_ln2:.15g}" != f"{131.0 / 189.0:.15g}":
        failures.append(f"pade_ln(2) = {got_ln2!r} != 131/189 at 15 digits")
    got_sin1 = kernels.pade_sin(1.0)
    if f"{got_sin1:.15g}" != f"{53.0 / 63.0:.15g}":
        failures.append(f"pade_sin(1) = {got_sin1!r} != 53/63 at 15 digits")
    check("C9", "kernel rational pins", failures,
          f"pade_ln(2)={got_ln2:.15g}, pade_sin(1)={got_sin1:.15g}")
