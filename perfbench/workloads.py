"""The benchmark's three workloads.

Each workload makes its inputs from the seed, runs one caller in a closed
loop (the next operation starts when the previous one has finished),
checks every output, and keeps the samples its end-to-end metrics need.

- cli-scan-export: ``colebrook scan --scheme eq2a2 --out --heatmap --json``
  in a fresh interpreter on the default 300x300 mesh, then
  ``evaluation.load_csv`` of the CSV it wrote. Import, CLI and export
  dominate; oracle and scheme are a few percent.
- sweep-all-schemes: in-process ``evaluation.scan_many`` of the 18
  registry schemes and six sine-kernel variants on a 1000x1000 log mesh,
  alternately at 2 workers and at 1 (the serial baseline). Oracle, scheme
  kernels and error statistics do the work; each array is 8 MB, past L2.
- point-queries: seeded log-uniform points through the scalar API
  (FlowPoint, solve_colebrook_exact, evaluate_scheme with a rotating id,
  relative_error_pct). Per-call overhead dominates; the vector layers
  sit idle. An operation is a batch of 256 queries: a query's cost steps
  with the oracle's iteration count at its point, so the median single
  query moves by 7 % between seeds, while a batch median does not.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

import checks
from colebrook import cli, core, evaluation, kernels, schemes
from tracer import read_spans

HERE = Path(__file__).resolve().parent
PACKAGE_MODULES = (core, kernels, schemes, evaluation, cli)
SWEEP_WORKERS = 2
EXPECTED_MAX_PCT = HERE / "seed_max_pct.json"
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    cli_grid: tuple = (300, 300)
    sweep_grid: tuple = (1000, 1000)
    queries: int = 20000
    reference_points: int = 4000
    imports: int = 11


@dataclass(frozen=True)
class Env:
    """Where the package source lives and where run outputs go."""

    root: Path

    @property
    def out(self) -> Path:
        path = self.root / ".perfbench"
        path.mkdir(exist_ok=True)
        return path

    @property
    def child_env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def python(self, *args, **kwargs):
        """Run a fresh interpreter with the package importable; waits for it."""
        return subprocess.run(
            [sys.executable, *args], env=self.child_env, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S, **kwargs,
        )


def cold_import_s(env, reps):
    """Median time of ``import colebrook`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import colebrook; print(time.perf_counter() - t)"
    return statistics.median(float(env.python("-c", code, check=True).stdout) for _ in range(reps))


def sweep_specs():
    """The 18 registry schemes plus eq4a/eq5a/eq6a with each sine kernel.

    scan_many keys its results by id, so each variant gets its own.
    """
    specs = [schemes.get_scheme(sid) for sid in schemes.scheme_ids()]
    for sid in ("eq4a", "eq5a", "eq6a"):
        for kernel in ("pade", "quintic"):
            specs.append(
                replace(schemes.get_scheme(sid), id=f"{sid}-sin{kernel}", sin_strategy=kernel)
            )
    return specs


def flat_mesh(grid):
    """The mesh in scan order, rough-major, from the public grid axes."""
    re_axis, rough_axis = evaluation.grid_axes(grid)
    rough_m, re_m = np.meshgrid(rough_axis, re_axis, indexing="ij")
    return re_m.ravel(), rough_m.ravel()


def op_span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def run(workload, seconds, tracer=None, min_steps=1):
    """Repeat workload.step until ``seconds`` have passed and at least
    ``min_steps`` steps ran. With a tracer, the package's public functions
    record spans for the whole loop."""
    t_end = time.perf_counter() + seconds
    steps = 0
    with nullcontext() if tracer is None else tracer.patched(PACKAGE_MODULES):
        while steps < min_steps or time.perf_counter() < t_end:
            if tracer is not None:
                tracer.run += 1
            workload.step(tracer)
            steps += 1
            if workload.first_op_rss_mb is None:
                workload.first_op_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    name = ""

    def __init__(self, env, sizes, seed, checker):
        self.env = env
        self.sizes = sizes
        self.rng = np.random.default_rng(seed)
        self.checker = checker
        self.op_s = []  # wall time of each operation
        self.serial_s = []  # wall time of each operation done by one worker
        self.evals_per_op = 0  # scheme evaluations in one operation
        self.first_op_rss_mb = None

    def end_to_end(self, setup_s, oracle_max_relerr):
        """The END_TO_END metrics as name -> (value, unit)."""
        return {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (statistics.median(self.op_s) * 1e3, "ms"),
            "serial_evals_per_s": (self.evals_per_op / statistics.median(self.serial_s), "1/s"),
            "peak_rss_mb": (self.peak_rss_mb(), "MB"),
            "oracle_max_relerr": (oracle_max_relerr, "ratio"),
        }

    def peak_rss_mb(self):
        """Peak RSS once the first operation is done. What repeated
        in-process operations add on top is allocator retention, which
        varies with thread timing by 10 % from one run to the next."""
        return self.first_op_rss_mb


class CliScanExport(Workload):
    name = "cli-scan-export"
    scheme = "eq2a2"

    def setup(self):
        n_re, n_rough = self.sizes.cli_grid
        self.grid = evaluation.GridSpec(n_re=n_re, n_rough=n_rough)
        self.ref_map, self.ref_stats = evaluation.scan_errors(self.scheme, grid=self.grid)
        self.lam_newton = checks.newton_lambda(self.ref_map.re, self.ref_map.rel_rough)
        out = self.env.out
        self.csv, self.pgm, self.spans_path = out / "scan.csv", out / "scan.pgm", out / "cli-spans.jsonl"
        self.argv = [
            "scan", "--scheme", self.scheme, "--grid", f"{n_re}x{n_rough}",
            "--out", str(self.csv), "--heatmap", str(self.pgm), "--json",
        ]
        self.evals_per_op = self.grid.size
        self.readback_s = []

    def step(self, tracer=None):
        for path in (self.csv, self.pgm, self.spans_path):
            path.unlink(missing_ok=True)  # a stale file must not pass a check
        if tracer is None:
            cmd = ["-m", "colebrook.cli", *self.argv]
        else:
            cmd = [str(HERE / "cli_child.py"), str(self.spans_path), *self.argv]
        with op_span(tracer, "bench.cli_cycle"):
            t0 = time.perf_counter()
            with op_span(tracer, "bench.cli_process") as sid:
                proc = self.env.python(*cmd)
            t1 = time.perf_counter()
            try:
                loaded = evaluation.load_csv(self.csv)
            except (OSError, ValueError):
                loaded = None
            t2 = time.perf_counter()
        if tracer is not None and self.spans_path.exists():
            tracer.adopt(read_spans(self.spans_path), sid)
        self.serial_s.append(t1 - t0)  # the CLI scans with one worker
        self.readback_s.append(t2 - t1)
        self.op_s.append(t2 - t0)
        self._check(proc, loaded)

    def _check(self, proc, loaded):
        c = self.checker
        c.check(proc.returncode == 0, f"cli exit {proc.returncode}: {proc.stderr[-300:]}")
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            out = {}
        want = asdict(self.ref_stats) | {"points": self.grid.size, "sine_fallbacks": 0}
        c.check(
            all(out.get(k) == v for k, v in want.items()),
            f"cli JSON {out} differs from in-process scan_errors {want}",
        )
        c.check(
            loaded is not None and checks.maps_equal(loaded, self.ref_map),
            "CSV does not round-trip the in-process map",
        )
        c.check(
            checks.pgm_ok(self.pgm, self.grid.n_re, self.grid.n_rough),
            "PGM header or sample count wrong",
        )
        checks.oracle_agrees(
            c, loaded.lambda_ref if loaded is not None else [], self.lam_newton, "cli"
        )

    def reference(self):
        idx = np.sort(self.rng.choice(self.grid.size, self.sizes.reference_points, replace=False))
        m = self.ref_map
        return m.re[idx], m.rel_rough[idx], m.lambda_ref[idx]

    def peak_rss_mb(self):
        # each operation runs in a fresh CLI process: the largest of them
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def readouts(self):
        return {
            "scan_export_s": (statistics.median(self.serial_s), "s"),
            "readback_s": (statistics.median(self.readback_s), "s"),
            "cycles": (len(self.op_s), "count"),
        }


class SweepAllSchemes(Workload):
    name = "sweep-all-schemes"

    def setup(self):
        self.specs = sweep_specs()
        n_re, n_rough = self.sizes.sweep_grid
        self.grid = evaluation.GridSpec(n_re=n_re, n_rough=n_rough)
        self.re, self.rr = flat_mesh(self.grid)
        self.lam_newton = checks.newton_lambda(self.re, self.rr)
        with open(EXPECTED_MAX_PCT, encoding="utf-8") as f:
            self.expected = json.load(f)["max_pct"][f"{n_re}x{n_rough}"]
        self.ref_idx = np.sort(
            self.rng.choice(self.grid.size, self.sizes.reference_points, replace=False)
        )
        self.ref_lam = None
        self.evals_per_op = self.grid.size * len(self.specs)

    def step(self, tracer=None):
        workers = SWEEP_WORKERS if len(self.op_s) <= len(self.serial_s) else 1
        with op_span(tracer, f"bench.sweep_w{workers}"):
            t0 = time.perf_counter()
            result = evaluation.scan_many(self.specs, grid=self.grid, workers=workers)
            dt = time.perf_counter() - t0
        (self.serial_s if workers == 1 else self.op_s).append(dt)
        self._check(result)

    def _check(self, result):
        c = self.checker
        lam_ref = next(iter(result.values()))[0].lambda_ref
        checks.oracle_agrees(c, lam_ref, self.lam_newton, "sweep")
        if self.ref_lam is None:
            self.ref_lam = lam_ref[self.ref_idx]
        for spec in self.specs:
            if not c.check(spec.id in result, f"{spec.id}: missing from scan_many"):
                continue
            errmap, stats = result[spec.id]
            lam = errmap.lambda_approx
            c.check(bool(np.all(np.isfinite(lam) & (lam > 0.0))), f"{spec.id}: bad lambda")
            want = self.expected[spec.id]
            c.check(
                abs(stats.max_pct - want) <= 1e-9 * want,
                f"{spec.id}: max_pct {stats.max_pct!r}, recorded {want!r}",
            )

    def reference(self):
        return self.re[self.ref_idx], self.rr[self.ref_idx], self.ref_lam

    def readouts(self):
        evals = self.evals_per_op
        return {
            "sweep_mevals_per_s": (evals / statistics.median(self.op_s) / 1e6, "M/s"),
            "sweep_w1_mevals_per_s": (evals / statistics.median(self.serial_s) / 1e6, "M/s"),
            "sweeps": (len(self.op_s) + len(self.serial_s), "count"),
        }


class PointQueries(Workload):
    name = "point-queries"
    ids = ("eq2a2", "eq6a", "eq2a2-pade", "eq3a-t")
    batch = 256

    def setup(self):
        n = self.sizes.queries
        g = evaluation.DEFAULT_GRID
        self.re = g.re_min * (g.re_max / g.re_min) ** self.rng.random(n)
        self.rr = g.rough_min * (g.rough_max / g.rough_min) ** self.rng.random(n)
        self.re_list, self.rr_list = self.re.tolist(), self.rr.tolist()
        scheme_of = np.arange(n) % len(self.ids)
        self.x_raw = np.empty(n)
        for k, sid in enumerate(self.ids):
            sel = scheme_of == k
            self.x_raw[sel], _ = schemes.evaluate_scheme_raw(sid, self.re[sel], self.rr[sel])
        self.lam_newton = checks.newton_lambda(self.re, self.rr)
        self.next = 0
        self.evals_per_op = self.batch
        self.serial_s = self.op_s  # one caller, one worker
        self.lat_s = []  # latency of each query

    def query(self, i):
        point = core.FlowPoint(self.re_list[i], self.rr_list[i])
        lam_ref = core.solve_colebrook_exact(point).iterate.lam
        it = schemes.evaluate_scheme(self.ids[i % len(self.ids)], point)
        core.relative_error_pct(lam_ref, it.lam)
        return it.x, lam_ref

    def step(self, tracer=None):
        n = len(self.re_list)
        idx = [(self.next + k) % n for k in range(self.batch)]
        self.next = (idx[-1] + 1) % n
        xs, lams, lat = [], [], []
        clock = time.perf_counter_ns
        t_batch = clock()
        for i in idx:
            t0 = clock()
            if tracer is None:
                x, lam = self.query(i)
            else:
                with tracer.span("bench.query"):
                    x, lam = self.query(i)
            lat.append(clock() - t0)
            xs.append(x)
            lams.append(lam)
        self.op_s.append((clock() - t_batch) * 1e-9)
        self.lat_s.extend(t * 1e-9 for t in lat)
        x_raw = self.x_raw[idx]
        self.checker.check_many(
            np.abs(np.array(xs) - x_raw) <= checks.SCALAR_ULPS * np.spacing(x_raw),
            "scalar scheme result off evaluate_scheme_raw",
        )
        lam_n = self.lam_newton[idx]
        self.checker.check_many(
            np.abs(np.array(lams) - lam_n) <= checks.ORACLE_RTOL * lam_n,
            "scalar oracle lambda off the Newton solve",
        )

    def reference(self):
        k = self.sizes.reference_points
        lam = [core.solve_colebrook_exact(core.FlowPoint(r, e)).iterate.lam
               for r, e in zip(self.re_list[:k], self.rr_list[:k])]
        return self.re[:k], self.rr[:k], np.array(lam)

    def readouts(self):
        lat = sorted(self.lat_s)
        out = {
            "queries": (len(lat), "count"),
            "query_p50_us": (statistics.median(lat) * 1e6, "us"),
        }
        # tail percentiles that have at least ten samples beyond them
        for q, name in ((0.99, "query_p99_us"), (0.999, "query_p99.9_us")):
            if len(lat) * (1.0 - q) >= 10:
                out[name] = (lat[int(q * len(lat))] * 1e6, "us")
        return out


WORKLOADS = {w.name: w for w in (CliScanExport, SweepAllSchemes, PointQueries)}
