"""Evaluation harness: domain sampling (mesh and Sobol), error-map
scanning against the reference solver, the accuracy-vs-complexity table,
operation counts read off the recipes, and wall-time micro-benchmarks.

Schemes are given as registered ids or as ``SchemeSpec``s; a spec
carries everything it computes, its sine strategy and constants mode
included, so a variant (``schemes.variant``) is scanned, counted and
timed under its own id with no further settings.

Grid scans may be partitioned across workers; every point's computation
is independent and the reduction is associativity-safe, so results are
identical for any worker count. The mean error is the correctly rounded
sum of the map divided by its size, the value ``math.fsum`` gives,
computed with whole-array numpy operations (``exact_sum``).
"""

import math
import statistics
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import core, kernels, schemes


class ConfigError(ValueError):
    """Invalid grid, sampling, or harness configuration."""


_SPACINGS = ("log", "linear")


@dataclass(frozen=True, slots=True)
class GridSpec:
    """A rectangular evaluation mesh with endpoints included per axis.

    The default is the 300x300 log-log mesh over Re in [4000, 1e8] and
    eps/D in [1e-6, 0.05]: 90,000 intersection points.
    """

    re_min: float = 4000.0
    re_max: float = 1.0e8
    rough_min: float = 1e-6
    rough_max: float = 0.05
    n_re: int = 300
    n_rough: int = 300
    re_spacing: str = "log"
    rough_spacing: str = "log"

    def __post_init__(self):
        for name, value in (
            ("re_min", self.re_min), ("re_max", self.re_max),
            ("rough_min", self.rough_min), ("rough_max", self.rough_max),
        ):
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not self.re_min < self.re_max:
            raise ConfigError(f"re bounds not ordered: [{self.re_min}, {self.re_max}]")
        if not self.rough_min < self.rough_max:
            raise ConfigError(
                f"rough bounds not ordered: [{self.rough_min}, {self.rough_max}]"
            )
        if self.n_re < 2 or self.n_rough < 2:
            raise ConfigError("need at least 2 points per axis to include both endpoints")
        if self.re_spacing not in _SPACINGS or self.rough_spacing not in _SPACINGS:
            raise ConfigError(f"spacing must be one of {_SPACINGS}")

    @property
    def size(self) -> int:
        return self.n_re * self.n_rough


DEFAULT_GRID = GridSpec()


def _axis(lo, hi, n, spacing):
    # geomspace/linspace both pin the endpoints exactly
    if spacing == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def grid_axes(spec: GridSpec):
    """(re_values, rough_values) axis arrays, endpoints included."""
    return (
        _axis(spec.re_min, spec.re_max, spec.n_re, spec.re_spacing),
        _axis(spec.rough_min, spec.rough_max, spec.n_rough, spec.rough_spacing),
    )


def _flat_mesh(spec: GridSpec):
    """Flattened rough-major mesh: roughness varies slowest."""
    re_axis, rough_axis = grid_axes(spec)
    rough_m, re_m = np.meshgrid(rough_axis, re_axis, indexing="ij")
    return re_m.ravel(), rough_m.ravel()


# ---------------------------------------------------------------------------
# Sobol sampling
# ---------------------------------------------------------------------------

_SOBOL_BITS = 32


def _sobol_directions():
    # dimension 1: van der Corput in base 2
    v1 = [1 << (_SOBOL_BITS - 1 - j) for j in range(_SOBOL_BITS)]
    # dimension 2: degree-1 primitive polynomial, m_j = 2*m_{j-1} XOR m_{j-1}
    m = 1
    ms = [m]
    for _ in range(1, _SOBOL_BITS):
        m = (m << 1) ^ m
        ms.append(m)
    v2 = [ms[j] << (_SOBOL_BITS - 1 - j) for j in range(_SOBOL_BITS)]
    return v1, v2


_V1, _V2 = _sobol_directions()


def sobol_2d(n: int, bounds=None, mapping: str = "uniform"):
    """First n points of the 2-D Sobol sequence, optionally domain-mapped.

    Gray-code ordering with the standard direction numbers, matching
    common reference implementations point for point. The raw sequence
    lives in [0, 1)^2 and starts at the origin.

    Args:
        n: number of points, >= 1.
        bounds: None for the unit square, or a GridSpec or a
            (re_min, re_max, rough_min, rough_max) tuple to map onto.
        mapping: "uniform" in the raw coordinates (default) or "log"
            for log-uniform.

    Returns:
        (n, 2) array; mapped columns are (re, rel_rough).
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    pts = np.empty((n, 2))
    pts[0] = 0.0
    xi = yi = 0
    for i in range(1, n):
        c = (i & -i).bit_length() - 1
        xi ^= _V1[c]
        yi ^= _V2[c]
        pts[i, 0] = xi
        pts[i, 1] = yi
    pts *= 2.0 ** -_SOBOL_BITS
    if bounds is None:
        return pts
    if isinstance(bounds, GridSpec):
        lo_re, hi_re = bounds.re_min, bounds.re_max
        lo_r, hi_r = bounds.rough_min, bounds.rough_max
    else:
        lo_re, hi_re, lo_r, hi_r = bounds
    u, v = pts[:, 0], pts[:, 1]
    if mapping == "uniform":
        re = lo_re + u * (hi_re - lo_re)
        rough = lo_r + v * (hi_r - lo_r)
    elif mapping == "log":
        re = lo_re * (hi_re / lo_re) ** u
        rough = lo_r * (hi_r / lo_r) ** v
    else:
        raise ConfigError(f"mapping must be 'uniform' or 'log', got {mapping!r}")
    return np.column_stack([re, rough])


# ---------------------------------------------------------------------------
# error maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorMap:
    """Per-point relative errors over a mesh, rough-major flattened."""

    grid: GridSpec | None
    re: np.ndarray
    rel_rough: np.ndarray
    lambda_ref: np.ndarray
    lambda_approx: np.ndarray
    rel_err_pct: np.ndarray
    sine_fallbacks: int = 0


@dataclass(frozen=True, slots=True)
class ErrorStats:
    """Map summary; argmax is a grid member attaining max_pct."""

    max_pct: float
    argmax_re: float
    argmax_rough: float
    mean_pct: float
    p99_pct: float


# exact_sum keys each float64 by its sign and exponent field (4096
# buckets) and rewrites that field to 0x3FF, which rescales the value to
# +-[1, 2) exactly; zeros and subnormals (field 0) gain a spurious
# leading 1, which is taken off afterwards by counting that bucket. The
# rescaled value splits into a high part (low 26 mantissa bits cleared,
# a multiple of 2**-26 below 2 in magnitude) and the remainder (a
# multiple of 2**-52 below 2**-26), so every running bincount sum over
# at most 2**26 terms stays on its grid below 2**53 steps: exact, and
# far from overflow. The buckets are then pooled as Python integers in
# units of 2**-1074 and rounded once.
_SUM_SLICE = 1 << 26
_EXP_FIELD = np.uint64(0x7FF << 52)
_UNIT_FIELD = np.uint64(0x3FF << 52)
_LOW_BITS = np.uint64((1 << 26) - 1)


def _bucket_units(bits):
    """Exact sum of the finite values in one slice of float64 bit
    patterns, as an integer count of 2**-1074, and whether the slice
    holds inf or nan."""
    bucket = (bits >> 52).view(np.int64)
    norm = bits & ~_EXP_FIELD
    norm |= _UNIT_FIELD
    hi = (norm & ~_LOW_BITS).view(np.float64)
    lo = norm.view(np.float64)
    lo -= hi
    hi_sums = np.bincount(bucket, weights=hi, minlength=4096)
    lo_sums = np.bincount(bucket, weights=lo, minlength=4096)
    units = 0
    nonfinite = False
    # every high part is at least 1 in magnitude, so a bucket is
    # non-empty exactly when its high sum is nonzero
    for k in np.flatnonzero(hi_sums).tolist():
        field = k & 0x7FF
        if field == 0x7FF:  # inf or nan
            nonfinite = True
            continue
        # the bucket's sum in units of 2**-52 on its [1, 2) scale
        u = (int(hi_sums[k] * 2.0**26) << 26) + int(lo_sums[k] * 2.0**52)
        if field == 0:
            spurious = int(np.count_nonzero(bucket == k)) << 52
            u += -spurious if k < 2048 else spurious
        units += u << (max(field, 1) - 1)
    return units, nonfinite


def exact_sum(values) -> float:
    """Correctly rounded sum of a float64 array with whole-array numpy
    operations; equal to ``math.fsum(values.tolist())`` bit for bit.

    inf and nan entries go through ``math.fsum`` with the finite total,
    so an inf sum, a nan sum and the ``ValueError`` for inf + -inf are as
    there. A finite sum that overflows raises ``OverflowError``. fsum
    also raises when a running partial sum overflows; this checks only
    the total, so a mixed-sign input whose total is finite returns it.
    Arrays of 2**26 elements or more are summed in slices of that size.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = flat.view(np.uint64)
    units = 0
    nonfinite = False
    for start in range(0, bits.size, _SUM_SLICE):
        part, part_nonfinite = _bucket_units(bits[start:start + _SUM_SLICE])
        units += part
        nonfinite |= part_nonfinite
    # integer true division is correctly rounded, and raises
    # OverflowError past the float range
    total = units / (1 << 1074)
    if nonfinite:
        total = math.fsum(flat[~np.isfinite(flat)].tolist() + [total])
    return total


def stats_of(errmap: ErrorMap) -> ErrorStats:
    """Summarize a map: max with lexicographic (re, rough) tie-break,
    mean, nearest-rank 99th percentile.

    The mean is the correctly rounded sum of the errors divided by the
    point count, the same value as ``math.fsum`` over the errors divided
    by the count. An inf error gives inf max and mean.

    Raises:
        ConfigError: the map is empty or holds NaN errors.
    """
    err = errmap.rel_err_pct
    n = err.size
    if n == 0:
        raise ConfigError("cannot summarize an empty map")
    max_pct = float(err.max())
    if math.isnan(max_pct):
        raise ConfigError(
            f"cannot summarize a map with NaN errors: "
            f"{np.count_nonzero(np.isnan(err))} of {n} points are NaN"
        )
    ties = np.flatnonzero(err == max_pct)
    i = int(ties[np.lexsort((errmap.rel_rough[ties], errmap.re[ties]))[0]])
    mean_pct = exact_sum(err) / n
    rank = max(1, math.ceil(0.99 * n))  # nearest-rank definition
    p99_pct = float(np.partition(err, rank - 1)[rank - 1])
    return ErrorStats(
        max_pct=max_pct,
        argmax_re=float(errmap.re[i]),
        argmax_rough=float(errmap.rel_rough[i]),
        mean_pct=mean_pct,
        p99_pct=p99_pct,
    )


def scan_many(scheme_ids, grid=None, workers=1):
    """Scan several schemes (ids or specs) over one mesh, solving the
    oracle once.

    The outputs are allocated once: the oracle lambda and, per scheme,
    a block whose two rows are its lambda and error maps. Each worker,
    the caller itself for one slice or a pool thread, fills its
    contiguous slice of them in place and returns only its
    sine-fallback counts.

    Returns:
        dict spec id -> (ErrorMap, ErrorStats); variants of one scheme
        (``schemes.variant``) have ids of their own.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    grid = DEFAULT_GRID if grid is None else grid
    spec_list = [schemes.get_scheme(s) for s in scheme_ids]
    re_flat, rough_flat = _flat_mesh(grid)
    lam_ref = np.empty(grid.size)
    # blocks[k] holds spec k's (lambda_approx, rel_err_pct) rows; one block
    # for all schemes measured slower, as it is paged in afresh every scan
    blocks = [np.empty((2, grid.size)) for _ in spec_list]

    def fill(lo, hi):
        re_c, rough_c = re_flat[lo:hi], rough_flat[lo:hi]
        x0 = core.oracle_start_raw(re_c, rough_c)
        x_ref, _, _, converged = core.solve_colebrook_raw(re_c, rough_c, x0)
        if not converged.all():
            j = int(np.flatnonzero(~converged)[0])
            raise core.ConvergenceError(
                f"oracle did not converge at (re={re_c[j]}, rel_rough={rough_c[j]})",
                last_x=float(x_ref[j]),
            )
        # from eps/D = 3.71 up the fixed point is not positive; lambda =
        # x**-2 of it is not a friction factor
        nonphysical = np.flatnonzero(x_ref <= 0.0)
        if nonphysical.size:
            j = int(nonphysical[0])
            raise core.DomainError(
                f"oracle root x={x_ref[j]} is not positive at "
                f"(re={re_c[j]}, rel_rough={rough_c[j]})"
            )
        lam_ref_c = np.power(x_ref, -2.0, out=lam_ref[lo:hi])
        fallbacks = []
        for spec, block in zip(spec_list, blocks):
            lam_a, err = block[:, lo:hi]
            x_a, nfb = schemes.evaluate_scheme_raw(spec, re_c, rough_c)
            np.power(x_a, -2.0, out=lam_a)
            core.relative_error_pct_raw(lam_ref_c, lam_a, out=err)
            fallbacks.append(nfb)
        return fallbacks

    parts = min(workers, grid.size)
    bounds = [grid.size * k // parts for k in range(parts + 1)]
    if parts == 1:
        counts = [fill(0, grid.size)]
    else:
        with ThreadPoolExecutor(max_workers=parts) as pool:
            counts = list(pool.map(fill, bounds[:-1], bounds[1:]))

    out = {}
    for k, spec in enumerate(spec_list):
        nfb = sum(c[k] for c in counts)
        errmap = ErrorMap(grid, re_flat, rough_flat, lam_ref, *blocks[k], sine_fallbacks=nfb)
        out[spec.id] = (errmap, stats_of(errmap))
    return out


def scan_errors(scheme_id, grid=None, workers=1):
    """Scan one scheme against the oracle over a mesh.

    Returns:
        (ErrorMap, ErrorStats); deterministic for any worker count.
    """
    spec = schemes.get_scheme(scheme_id)
    return scan_many([spec], grid=grid, workers=workers)[spec.id]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "re,rel_rough,lambda_ref,lambda_approx,rel_err_pct"

# rows formatted and written per block; bounds the text held at once
_CSV_BLOCK = 4096


def _distinct_text(col):
    """(texts, index): the repr of each distinct float64 bit pattern in
    col, and for each element the position of its text. Keyed on bits,
    so -0.0 and 0.0 and different NaNs stay apart."""
    col = np.ascontiguousarray(col, dtype=np.float64)
    bits, index = np.unique(col.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts, index


def export_csv(errmap: ErrorMap, path):
    """Write the map as CSV: fixed header, shortest round-trip decimal
    floats (``repr``), rough-major row order. Byte-identical across runs.

    The two axis columns repeat few values, so each distinct value is
    formatted once; rows are written in blocks of ``_CSV_BLOCK``.
    """
    re_text, re_idx = _distinct_text(errmap.re)
    rough_text, rough_idx = _distinct_text(errmap.rel_rough)
    # "{}" formats a float as repr does
    row = "{},{},{},{},{}\n".format
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for lo in range(0, re_idx.size, _CSV_BLOCK):
            hi = lo + _CSV_BLOCK
            f.write("".join(map(
                row,
                re_text[re_idx[lo:hi]].tolist(),
                rough_text[rough_idx[lo:hi]].tolist(),
                errmap.lambda_ref[lo:hi].tolist(),
                errmap.lambda_approx[lo:hi].tolist(),
                errmap.rel_err_pct[lo:hi].tolist(),
            )))


def load_csv(path) -> ErrorMap:
    """Read back an exported CSV; restores values exactly.

    numpy's reader parses the body with correct rounding, so every value
    written by ``export_csv`` comes back bit for bit (a NaN comes back
    as the default NaN). Blank lines after the first row are skipped,
    as numpy's reader skips them.

    Raises:
        ConfigError: wrong header, a field that is not a number, or a
            row without exactly five fields.
    """
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {header!r}")
        start = f.tell()
        first = f.readline()
        # loadtxt warns on a body without data and returns no columns
        if not first:
            return ErrorMap(None, *(np.empty(0) for _ in range(5)))
        if not first.strip():
            raise ConfigError(f"malformed CSV row {first!r}")
        f.seek(start)
        try:
            rows = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"malformed CSV body: {exc}") from None
    if rows.shape[1] != 5:
        raise ConfigError(f"CSV rows have {rows.shape[1]} fields, expected 5")
    # one copy makes each column contiguous
    return ErrorMap(None, *np.ascontiguousarray(rows.T))


def export_heatmap(errmap: ErrorMap, path):
    """Write the map as a plain portable graymap (P2).

    One pixel per grid point: log10(Re) on x, -log10(eps/D) on y (first
    raster row is the smallest roughness). Intensity is linear in
    rel_err_pct, clipped at the map maximum; an all-zero map is all
    black. One sample per line keeps the format's line-length limit.
    """
    if errmap.grid is None:
        raise ConfigError("heatmap export needs a map with grid geometry")
    w, h = errmap.grid.n_re, errmap.grid.n_rough
    err = errmap.rel_err_pct
    top = float(err.max())
    if top > 0.0:
        pix = np.floor(err / top * 255.0 + 0.5).astype(np.int64)
        pix = np.clip(pix, 0, 255)
    else:
        pix = np.zeros(err.size, dtype=np.int64)
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(f"P2\n{w} {h}\n255\n")
        f.write("\n".join(map(str, pix.tolist())))
        f.write("\n")


# ---------------------------------------------------------------------------
# accuracy-vs-complexity table
# ---------------------------------------------------------------------------

# reference maxima as published; the "up to 20 %" style figures are
# one-significant-figure roundings
PUBLISHED_MAX_PCT = {
    "eq2": 16.56,
    "eq2a1": 0.98,
    "eq2a2": 0.13,
    "eq3": 20.0,
    "eq3a": 5.35,
    "eq4": 60.0,
    "eq4a": 6.29,
    "eq5": 6.0,
    "eq5a": 0.28,
    "eq6": 2.0,
    "eq6a": 0.17,
}


def table1_rows(grid=None, workers=1):
    """Accuracy-vs-complexity rows: measured and published maxima plus
    the recipe's log count, in the fixed row order."""
    scans = scan_many(schemes.TABLE1_ROW_IDS, grid=grid, workers=workers)
    rows = []
    for sid in schemes.TABLE1_ROW_IDS:
        _, stats = scans[sid]
        prof = cost_profile(sid)
        rows.append(
            {
                "scheme": sid,
                "n_log": prof.n_log,
                "measured_max_pct": stats.max_pct,
                "published_max_pct": PUBLISHED_MAX_PCT[sid],
            }
        )
    return rows


def table1_text(rows) -> str:
    """Rows of ``table1_rows`` as aligned text under a header line."""
    lines = [f"{'scheme':<12}{'logs':>5}{'measured max %':>16}{'published %':>13}"]
    for r in rows:
        lines.append(
            f"{r['scheme']:<12}{r['n_log']:>5}"
            f"{r['measured_max_pct']:>16.4f}{r['published_max_pct']:>13g}"
        )
    return "\n".join(lines)


def table1_report(grid=None, workers=1) -> str:
    """The eight-row accuracy-vs-complexity table as aligned text."""
    return table1_text(table1_rows(grid=grid, workers=workers))


# ---------------------------------------------------------------------------
# cost profiles and timing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TimingResult:
    median_ns: float
    mad_ns: float
    reps: int
    batch_size: int
    checksum: float


@dataclass(frozen=True, slots=True)
class CostProfile:
    """Operation counts of one evaluation; timing filled by benchmark."""

    scheme_id: str
    n_log: int
    n_sin: int
    n_div: int
    timing: TimingResult | None = None


class _CountingArray(np.ndarray):
    """A float64 array that tallies each ufunc applied to it in its
    ``ops`` Counter; array results carry the same Counter on."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.ops[ufunc] += 1
        plain = (x.view(np.ndarray) if isinstance(x, _CountingArray) else x for x in inputs)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if isinstance(result, np.ndarray):  # reductions may return scalars
            result = result.view(_CountingArray)
            result.ops = self.ops
        return result


def cost_profile(scheme_id) -> CostProfile:
    """Operation counts of one evaluation, taken by running the scheme's
    recipe once on one-element counting arrays.

    Every real log10/ln evaluation counts, including normalization; a
    kernel sine counts its own divisions and no sine. The counts are
    those of the in-window path: arguments outside the sine window that
    fall back to the exact sine are counted by the scans instead
    (``ErrorMap.sine_fallbacks``).
    """
    spec = schemes.get_scheme(scheme_id)
    ops = Counter()
    re, rel_rough = (np.array([v]).view(_CountingArray) for v in (1e5, 1e-4))
    re.ops = rel_rough.ops = ops
    sine = np.sin if spec.sin_strategy == "exact" else kernels.SIN_KERNELS[spec.sin_strategy]
    schemes._recipe(spec, re, rel_rough, sine)
    return CostProfile(spec.id, ops[np.log10] + ops[np.log], ops[np.sin], ops[np.divide])


def benchmark(scheme_ids, batch=None, reps=9):
    """Wall-time micro-benchmark, single-threaded, fixed batch order.

    Whole-batch loops around a monotonic clock, reps repetitions; the
    median and median absolute deviation of ns per evaluation are
    reported. A checksum sink defeats dead-code elimination.

    Returns:
        list of CostProfile with timing filled, one per requested scheme.
    """
    if reps < 3:
        raise ConfigError(f"reps must be >= 3, got {reps}")
    if batch is None:
        batch = sobol_2d(4096, bounds=DEFAULT_GRID)
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[0] == 0 or batch.shape[1] != 2:
        raise ConfigError("batch must be a non-empty (n, 2) array of (re, rel_rough)")
    re_b = np.ascontiguousarray(batch[:, 0])
    rough_b = np.ascontiguousarray(batch[:, 1])
    out = []
    for sid in scheme_ids:
        spec = schemes.get_scheme(sid)
        schemes.evaluate_scheme_raw(spec, re_b, rough_b)  # warmup
        sink = 0.0
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            x, _ = schemes.evaluate_scheme_raw(spec, re_b, rough_b)
            sink += float(x[0]) + float(x[-1])
            t1 = time.perf_counter_ns()
            samples.append((t1 - t0) / re_b.size)
        med = statistics.median(samples)
        mad = statistics.median(abs(s - med) for s in samples)
        timing = TimingResult(med, mad, reps, int(re_b.size), sink)
        out.append(replace(cost_profile(spec), timing=timing))
    return out
