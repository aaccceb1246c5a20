"""Command-line front end: solve, scan, table1, bench, kernels, grid.

Exit codes: 0 ok, 1 usage or configuration error, 2 domain error,
3 non-convergence, 4 I/O error. Settings resolve once per run: built-in
defaults, then a flat ``key = value`` config file, then the flags, each
stored under its settings key.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import core, evaluation, kernels, schemes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4

DEFAULT_SETTINGS = {
    **{f.name: f.default for f in fields(evaluation.GridSpec)},
    "sin_strategy": "exact",
    "constants": "published",
    "out_dir": ".",
}

# config keys whose value must be one of a fixed set
_SETTING_CHOICES = {
    "sin_strategy": schemes.SIN_STRATEGIES,
    "constants": schemes.CONSTANTS_MODES,
}


class _Parser(argparse.ArgumentParser):
    # usage failures must exit 1; argparse's default of 2 is reserved
    # for domain errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_config(path) -> dict:
    """Parse a flat ``key = value`` UTF-8 config file with # comments."""
    settings = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw_line in enumerate(f, start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise evaluation.ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {raw_line.rstrip()!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in DEFAULT_SETTINGS:
                raise evaluation.ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                settings[key] = type(DEFAULT_SETTINGS[key])(value)
                if key in _SETTING_CHOICES and value not in _SETTING_CHOICES[key]:
                    raise ValueError(value)
            except ValueError:
                raise evaluation.ConfigError(
                    f"{path}:{lineno}: bad value {value!r} for {key}"
                ) from None
    return settings


def _resolve_settings(args) -> dict:
    """Defaults <- config file <- flags. A flag's dest is its settings
    key; ``--grid NxM`` sets n_re and n_rough."""
    settings = dict(DEFAULT_SETTINGS)
    if args.config:
        settings.update(load_config(args.config))
    if getattr(args, "grid", None):
        try:
            settings["n_re"], settings["n_rough"] = map(int, args.grid.lower().split("x"))
        except ValueError:
            raise evaluation.ConfigError(f"--grid expects NxM, got {args.grid!r}") from None
    settings.update(
        (k, v) for k, v in vars(args).items() if k in DEFAULT_SETTINGS and v is not None
    )
    return settings


def _grid_from(settings) -> evaluation.GridSpec:
    return evaluation.GridSpec(**{f.name: settings[f.name] for f in fields(evaluation.GridSpec)})


def _spec(scheme_id, settings) -> schemes.SchemeSpec:
    return schemes.variant(scheme_id, settings["sin_strategy"], settings["constants"])


def _out_path(settings, path):
    # relative outputs land in the configured output directory
    return path if os.path.isabs(path) else os.path.join(settings["out_dir"], path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args, settings):
    point = core.FlowPoint(args.re, args.rough, out_of_domain_ok=True)
    oracle = core.solve_colebrook_exact(point)
    lam_oracle = oracle.iterate.lam
    results = []
    for sid in args.scheme or ["colebrook"]:
        if sid == "colebrook":
            it, steps = oracle.iterate, oracle.iterations
        else:
            spec = _spec(sid, settings)
            sid, it = spec.id, schemes.evaluate_scheme(spec, point)
            steps = it.step
        results.append(
            {
                "scheme": sid,
                "x": it.x,
                "lambda": it.lam,
                "lambda_oracle": lam_oracle,
                "rel_err_pct": core.relative_error_pct(lam_oracle, it.lam),
                "steps": steps,
            }
        )
    if args.json:
        print(json.dumps(
            {
                "re": point.re,
                "rough": point.rel_rough,
                "in_domain": point.in_domain,
                "results": results,
            }
        ))
        return EXIT_OK
    if not point.in_domain:
        print(
            f"warning: (re={point.re:g}, rough={point.rel_rough:g}) is outside "
            "the validated domain; results are extrapolations"
        )
    for r in results:
        print(f"scheme       {r['scheme']}")
        print(f"x            {r['x']:.12g}")
        print(f"lambda       {r['lambda']:.12g}")
        print(f"oracle       {r['lambda_oracle']:.12g}")
        print(f"rel_err_pct  {r['rel_err_pct']:.6g}")
        print(f"steps        {r['steps']}")
    return EXIT_OK


def _cmd_scan(args, settings):
    grid = _grid_from(settings)
    spec = _spec(args.scheme, settings)
    errmap, stats = evaluation.scan_errors(spec, grid=grid, workers=args.workers)
    csv_path = heatmap_path = None
    if args.out:
        csv_path = _out_path(settings, args.out)
        evaluation.export_csv(errmap, csv_path)
    if args.heatmap:
        heatmap_path = _out_path(settings, args.heatmap)
        evaluation.export_heatmap(errmap, heatmap_path)
    if args.json:
        print(json.dumps(
            {
                "scheme": spec.id,
                "max_pct": stats.max_pct,
                "argmax_re": stats.argmax_re,
                "argmax_rough": stats.argmax_rough,
                "mean_pct": stats.mean_pct,
                "p99_pct": stats.p99_pct,
                "points": grid.size,
                "sine_fallbacks": errmap.sine_fallbacks,
                "csv": csv_path,
                "heatmap": heatmap_path,
            }
        ))
        return EXIT_OK
    if spec.sin_strategy != "exact":
        print(f"sine fallbacks: {errmap.sine_fallbacks} of {grid.size}", file=sys.stderr)
    # stable machine-parseable summary line
    print(
        f"{spec.id} {stats.max_pct!r} {stats.argmax_re!r} "
        f"{stats.argmax_rough!r} {stats.mean_pct!r} {stats.p99_pct!r}"
    )
    return EXIT_OK


def _cmd_table1(args, settings):
    if settings["sin_strategy"] != "exact":
        raise evaluation.ConfigError(
            f"table1 prints the published rows; sin_strategy must be exact, "
            f"got {settings['sin_strategy']!r}"
        )
    grid = _grid_from(settings)
    rows = evaluation.table1_rows(grid=grid, workers=args.workers)
    if args.csv:
        path = _out_path(settings, args.csv)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("scheme,n_log,measured_max_pct,published_max_pct\n")
            for r in rows:
                f.write(
                    f"{r['scheme']},{r['n_log']},"
                    f"{r['measured_max_pct']!r},{r['published_max_pct']!r}\n"
                )
    if args.json:
        print(json.dumps({"rows": rows}))
        return EXIT_OK
    print(evaluation.table1_text(rows))
    return EXIT_OK


def _cmd_bench(args, settings):
    ids = schemes.scheme_ids() if "all" in (args.scheme or ["all"]) else args.scheme
    batch = evaluation.sobol_2d(args.batch, bounds=_grid_from(settings))
    profiles = evaluation.benchmark(
        [_spec(sid, settings) for sid in ids], batch=batch, reps=args.reps
    )
    timing = {p.scheme_id: p.timing for p in profiles}
    pade_faster = None
    if "eq2a2-pade" in timing and "eq2a2" in timing:
        pade_faster = timing["eq2a2-pade"].median_ns < timing["eq2a2"].median_ns
    if args.json:
        print(json.dumps(
            {
                "results": [
                    {
                        "scheme": p.scheme_id,
                        "median_ns": p.timing.median_ns,
                        "mad_ns": p.timing.mad_ns,
                        "reps": p.timing.reps,
                        "batch": p.timing.batch_size,
                        "n_log": p.n_log,
                        "n_sin": p.n_sin,
                        "n_div": p.n_div,
                    }
                    for p in profiles
                ],
                "pade_one_log_faster": pade_faster,
            }
        ))
        return EXIT_OK
    print(f"{'scheme':<12}{'median ns/eval':>15}{'mad':>10}{'logs':>6}{'sin':>5}{'div':>5}")
    for p in profiles:
        print(
            f"{p.scheme_id:<12}{p.timing.median_ns:>15.2f}"
            f"{p.timing.mad_ns:>10.2f}{p.n_log:>6}{p.n_sin:>5}{p.n_div:>5}"
        )
    if pade_faster is not None:
        relation = "faster" if pade_faster else "not faster"
        print(f"one-log path is {relation} than the two-log path on this host")
    return EXIT_OK


_KERNEL_CHECKS = {
    # check id -> (window, published bound in percent, pass limit): a
    # limit of None makes the bound strict (max <= bound); otherwise the
    # check passes below the limit. The Pade sine figure is its exact
    # window maximum, 0.068805%, cut to three decimals, so it is read at
    # that printed precision, as the acceptance gate's C4 reads it.
    "ln-pade": ((0.9, 1.1), 0.01, None),
    "sin-pade": (kernels.SIN_WINDOW, 0.068, 0.069),
    "sin-quintic": (kernels.SIN_WINDOW, 0.003, None),
}


def _cmd_kernels(args, settings):
    (lo, hi), bound_pct, limit_pct = _KERNEL_CHECKS[args.check]
    n = args.sweep
    if n < 2:
        raise evaluation.ConfigError(f"--sweep must be >= 2, got {n}")
    if args.check == "ln-pade":
        zs = np.linspace(lo, hi, n)
        zs = zs[zs != 1.0]  # ln(1) = 0 has no relative error
        err_pct = np.abs((kernels.pade_ln(zs) - np.log(zs)) / np.log(zs)) * 100.0
    else:
        xs = np.linspace(lo, hi, n + 2)[1:-1]  # open interval
        ref = np.sin(xs)
        xs = xs[ref != 0.0]
        ref = ref[ref != 0.0]
        fn = kernels.pade_sin if args.check == "sin-pade" else kernels.quintic_sin
        err_pct = np.abs((fn(xs) - ref) / ref) * 100.0
    max_err = float(err_pct.max())
    passed = max_err <= bound_pct if limit_pct is None else max_err < limit_pct
    verdict = "PASS" if passed else "FAIL"
    if args.json:
        print(json.dumps(
            {
                "check": args.check,
                "sweep": n,
                "window": [lo, hi],
                "max_rel_err_pct": max_err,
                "bound_pct": bound_pct,
                "verdict": verdict,
            }
        ))
        return EXIT_OK
    print(
        f"{args.check} sweep={n} window=({lo}, {hi}) "
        f"max_rel_err_pct={max_err!r} bound={bound_pct} {verdict}"
    )
    return EXIT_OK


def _cmd_grid(args, settings):
    grid = _grid_from(settings)
    re_axis, rough_axis = evaluation.grid_axes(grid)
    if args.json:
        print(json.dumps(
            {
                "points": grid.size,
                **asdict(grid),
                "re_first": float(re_axis[0]),
                "re_last": float(re_axis[-1]),
                "rough_first": float(rough_axis[0]),
                "rough_last": float(rough_axis[-1]),
            }
        ))
        return EXIT_OK
    print(f"points  {grid.size}")
    print(f"re      {grid.re_min:g} .. {grid.re_max:g}  n={grid.n_re}  {grid.re_spacing}")
    print(f"rough   {grid.rough_min:g} .. {grid.rough_max:g}  n={grid.n_rough}  {grid.rough_spacing}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--json", action="store_true", help="emit one JSON object")

    parser = _Parser(prog="colebrook", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is its settings key
    def add_variant_flags(q):
        q.add_argument("--sin", dest="sin_strategy", choices=schemes.SIN_STRATEGIES,
                       help="sine strategy for sine-bearing starters; id suffix -sinNAME")
        q.add_argument("--constants", choices=schemes.CONSTANTS_MODES,
                       help="constants mode for transformed steps; id suffix -exact")

    def add_grid_flags(q):
        q.add_argument("--grid", metavar="NxM", help="mesh size, e.g. 300x300")
        q.add_argument("--re-min", dest="re_min", type=float)
        q.add_argument("--re-max", dest="re_max", type=float)
        q.add_argument("--rough-min", dest="rough_min", type=float)
        q.add_argument("--rough-max", dest="rough_max", type=float)

    solve_ids = ("colebrook",) + schemes.scheme_ids()
    p = sub.add_parser("solve", parents=[common], help="evaluate schemes at one point")
    p.add_argument("--re", type=float, required=True, help="Reynolds number")
    p.add_argument("--rough", type=float, required=True, help="relative roughness eps/D")
    p.add_argument("--scheme", action="append", choices=solve_ids, metavar="ID",
                   help="scheme id, repeatable; 'colebrook' is the reference solver")
    add_variant_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("scan", parents=[common], help="error map of a scheme over a mesh")
    p.add_argument("--scheme", required=True, choices=schemes.scheme_ids(), metavar="ID")
    add_grid_flags(p)
    p.add_argument("--workers", type=int, default=1, help="scan partitions")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--heatmap", help="PGM heatmap output path")
    add_variant_flags(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("table1", parents=[common],
                       help="accuracy-vs-complexity table, measured vs published")
    add_grid_flags(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("bench", parents=[common], help="ns/eval micro-benchmark")
    p.add_argument("--scheme", action="append", choices=schemes.scheme_ids() + ("all",),
                   metavar="ID", help="scheme id or 'all', repeatable")
    p.add_argument("--reps", type=int, default=9)
    p.add_argument("--batch", type=int, default=4096)
    add_variant_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("kernels", parents=[common], help="kernel accuracy sweeps")
    p.add_argument("--check", required=True, choices=tuple(_KERNEL_CHECKS))
    p.add_argument("--sweep", type=int, default=100000)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("grid", parents=[common], help="inspect a mesh definition")
    add_grid_flags(p)
    p.set_defaults(func=_cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = _resolve_settings(args)
        return args.func(args, settings)
    except (evaluation.ConfigError, schemes.SchemeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except core.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except core.ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
