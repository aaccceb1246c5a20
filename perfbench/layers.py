"""Per-layer probes of a traced run.

Every traced run measures all per-layer metrics of BENCHMARK.json the same
way, whichever workload it traces, so traced runs compare layer by layer. The layers are
the package's modules (core, kernels, schemes, evaluation, cli) plus
interpreter import; numpy primitives are calibration only. Times come
from spans around calls into each module's public functions; counts
(oracle iterations, sine fallbacks, output bytes) are exact.

Which end-to-end metric each layer should move, on which workload:
- core.oracle_*, schemes.*.ns_*, kernels.*, evaluation.stats_s and
  evaluation.scan_many_self_s: op_p50_ms and serial_evals_per_s on
  sweep-all-schemes; about nothing on cli-scan-export.
- core.solve_exact_us, core.flowpoint_us, schemes.eval_scalar_us:
  op_p50_ms on point-queries and nowhere else.
- evaluation.export_*, evaluation.load_csv_*, cli.main_self_s and
  import.*: op_p50_ms on cli-scan-export; import.* also setup_s.
"""

import statistics
import time
from collections import defaultdict

import numpy as np

import workloads
from colebrook import core, evaluation, kernels, schemes
from tracer import durations_s, self_s

CALIBRATION_N = 1_000_000
IMPORTED = (
    "numpy", "colebrook", "colebrook.core", "colebrook.kernels",
    "colebrook.schemes", "colebrook.evaluation", "colebrook.cli",
)
SINE_VARIANTS = tuple(
    f"{sid}-sin{kernel}" for sid in ("eq4a", "eq5a", "eq6a") for kernel in ("pade", "quintic")
)
CLI_CYCLES = 3
QUERY_BATCHES = 8


def ns_per_element(fn, n, reps=5):
    """Median wall time of fn() over reps calls, per element, in ns."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(samples)


def calibration():
    """numpy primitives per element at the 1M batch; moves with the host only."""
    n = CALIBRATION_N
    u = np.linspace(0.5, 2.0, n)
    v = u[::-1].copy()
    return {
        "numpy.log10_ns": ns_per_element(lambda: np.log10(u), n),
        "numpy.sin_ns": ns_per_element(lambda: np.sin(u), n),
        "numpy.div_ns": ns_per_element(lambda: u / v, n),
    }


def import_times(env, reps=3):
    """Cumulative import time per module from ``python -X importtime``."""
    found = defaultdict(list)
    for _ in range(reps):
        proc = env.python("-X", "importtime", "-c", "import colebrook.cli", check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTED:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    # a module that no longer exists costs nothing to import
    return {
        f"import.{mod}_s": statistics.median(found[mod]) if found[mod] else 0.0
        for mod in IMPORTED
    }


def cli_stage(env, sizes, seed, tracer, checker):
    wl = workloads.CliScanExport(env, sizes, seed, checker)
    wl.setup()
    mark = len(tracer.spans)
    workloads.run(wl, 0, tracer, min_steps=CLI_CYCLES)
    spans = tracer.spans[mark:]
    med = statistics.median
    csv_bytes, pgm_bytes = wl.csv.stat().st_size, wl.pgm.stat().st_size
    export_s = med(durations_s(spans, "evaluation.export_csv"))
    load_s = med(durations_s(spans, "evaluation.load_csv"))
    return {
        "evaluation.export_csv_s": export_s,
        "evaluation.export_heatmap_s": med(durations_s(spans, "evaluation.export_heatmap")),
        "evaluation.load_csv_s": load_s,
        "evaluation.csv_bytes": csv_bytes,
        "evaluation.pgm_bytes": pgm_bytes,
        "evaluation.export_csv_mb_per_s": csv_bytes / 1e6 / export_s,
        "evaluation.load_csv_mb_per_s": csv_bytes / 1e6 / load_s,
        "cli.main_self_s": med(self_s(spans, "cli.main")),
    }


def query_stage(env, sizes, seed, tracer, checker):
    wl = workloads.PointQueries(env, sizes, seed, checker)
    wl.setup()
    mark = len(tracer.spans)
    workloads.run(wl, 0, tracer, min_steps=QUERY_BATCHES)
    spans = tracer.spans[mark:]

    def p50_us(name):
        return statistics.median(durations_s(spans, name)) * 1e6

    return {
        "core.flowpoint_us": p50_us("core.FlowPoint"),
        "core.solve_exact_us": p50_us("core.solve_colebrook_exact"),
        "schemes.eval_scalar_us": p50_us("schemes.evaluate_scheme"),
    }


def sweep_stage(sizes, tracer, checker):
    """Replay scan_many's stages through public functions at one worker,
    check the replay against scan_many bit for bit, and time scan_many at
    one and two workers."""
    specs = workloads.sweep_specs()
    n_re, n_rough = sizes.sweep_grid
    grid = evaluation.GridSpec(n_re=n_re, n_rough=n_rough)
    re, rr = workloads.flat_mesh(grid)
    replay, fallbacks = {}, {}
    m = {}
    with tracer.patched(workloads.PACKAGE_MODULES):
        mark = len(tracer.spans)
        with tracer.span("bench.replay"):
            x0 = core.oracle_start_raw(re, rr)
            x, iters, _, converged = core.solve_colebrook_raw(re, rr, x0)
            checker.check(bool(converged.all()), "replayed oracle did not converge")
            lam_ref = x ** -2.0
            for spec in specs:
                x_a, fallbacks[spec.id] = schemes.evaluate_scheme_raw(spec, re, rr)
                lam_a = x_a ** -2.0
                err = core.relative_error_pct_raw(lam_ref, lam_a)
                errmap = evaluation.ErrorMap(grid, re, rr, lam_ref, lam_a, err, fallbacks[spec.id])
                replay[spec.id] = evaluation.stats_of(errmap)
        del x0, x, lam_ref, x_a, lam_a, err, errmap
        spans = tracer.spans[mark:]
        m["core.oracle_s"] = sum(
            durations_s(spans, "core.oracle_start_raw") + durations_s(spans, "core.solve_colebrook_raw")
        )
        m["core.oracle_iters_mean"] = float(iters.mean())
        m["core.oracle_iters_max"] = int(iters.max())
        m["core.oracle_useful_ratio"] = m["core.oracle_iters_mean"] / m["core.oracle_iters_max"]
        m["evaluation.stats_s"] = sum(durations_s(spans, "evaluation.stats_of"))
        for sid in SINE_VARIANTS:
            m[f"kernels.sine_fallback_frac.{sid}"] = fallbacks[sid] / grid.size

        wall = {}
        for workers in (1, workloads.SWEEP_WORKERS):
            mark = len(tracer.spans)
            result = evaluation.scan_many(specs, grid=grid, workers=workers)
            spans = tracer.spans[mark:]
            wall[workers] = durations_s(spans, "evaluation.scan_many")[0]
            if workers == 1:
                m["evaluation.scan_many_self_s"] = self_s(spans, "evaluation.scan_many")[0]
            for spec in specs:
                checker.check(
                    result[spec.id][1] == replay[spec.id],
                    f"{spec.id}: replayed stats differ from scan_many at {workers} workers",
                )
            del result
    m["evaluation.worker_efficiency"] = wall[1] / (workloads.SWEEP_WORKERS * wall[workloads.SWEEP_WORKERS])
    m.update(scheme_costs(specs, re, rr))
    m.update(kernel_costs(re, rr))
    return m


def scheme_costs(specs, re, rr):
    """ns/eval of every spec at the mesh batch (past L2) and at the
    cache-resident 4096 Sobol batch of evaluation.benchmark, beside the
    static op counts: the paper's "fewer logs, faster" claim, measured."""
    m = {}
    profiles = evaluation.benchmark(specs, reps=9)
    for spec, prof in zip(specs, profiles):
        m[f"schemes.{spec.id}.ns_1m"] = ns_per_element(
            lambda: schemes.evaluate_scheme_raw(spec, re, rr), re.size, reps=3
        )
        m[f"schemes.{spec.id}.ns_4k"] = prof.timing.median_ns
    for size in ("1m", "4k"):
        m[f"schemes.pade_vs_direct_ratio_{size}"] = (
            m[f"schemes.eq2a2-pade.ns_{size}"] / m[f"schemes.eq2a2.ns_{size}"]
        )
    return m


def cost_table(specs, metrics):
    """Rows of (id, n_log, n_sin, n_div, ns_1m, ns_4k) for the report."""
    rows = []
    for spec in specs:
        prof = evaluation.cost_profile(spec)
        rows.append((
            spec.id, prof.n_log, prof.n_sin, prof.n_div,
            metrics[f"schemes.{spec.id}.ns_1m"], metrics[f"schemes.{spec.id}.ns_4k"],
        ))
    return rows


def kernel_costs(re, rr):
    """Kernel ns/element on mesh-sized inputs they see in the sweep."""
    n = re.size
    sin_arg = 0.939 * np.log10(re) + np.log10(rr)  # eq6's argument 0.939a - b
    x0 = core.oracle_start_raw(re, rr)
    _, z = kernels.one_log_second_iteration_raw(re, rr, x0)
    return {
        "kernels.pade_ln_ns": ns_per_element(lambda: kernels.pade_ln(z), n),
        "kernels.pade_sin_ns": ns_per_element(lambda: kernels.pade_sin(sin_arg), n),
        "kernels.quintic_sin_ns": ns_per_element(lambda: kernels.quintic_sin(sin_arg), n),
        "kernels.one_log_second_ns": ns_per_element(
            lambda: kernels.one_log_second_iteration_raw(re, rr, x0), n
        ),
    }


def measure(env, sizes, seed, tracer, checker):
    """The per-layer metrics but calibration and tracing overhead, name -> value."""
    m = import_times(env)
    m.update(cli_stage(env, sizes, seed, tracer, checker))
    m.update(query_stage(env, sizes, seed, tracer, checker))
    m.update(sweep_stage(sizes, tracer, checker))
    return m
