"""Evaluation harness: domain sampling (mesh and Sobol), error-map
scanning against the reference solver, the accuracy-vs-complexity table,
operation counts read off the recipes, and wall-time micro-benchmarks.

Schemes are given as registered ids or as ``SchemeSpec``s; a spec
carries everything it computes, its sine strategy and constants mode
included, so a variant (``schemes.variant``) is scanned, counted and
timed under its own id with no further settings.

Grid scans cut the mesh into even cache-sized blocks, one task each on
a thread pool. Per block the oracle is solved once and the schemes run
together through ``schemes._evaluate_block``. Every point's computation
is independent and the reduction is associativity-safe, so results are
identical for any block size and worker count. The mean error is the
correctly rounded sum of the map divided by its size, the value
``math.fsum`` gives. The sum is enclosed from one level of error-free
extraction and a float sum of its remainders with an any-order error
bound (``_one_level_sum``): a scan encloses each block's sum while its
errors are in cache and adds the enclosures as integer counts of
2**-1074, ``stats_of`` encloses the whole map at once. Both finish
through ``_finish_stats``, in a scan on the same pool, one task per
scheme: the sum is rounded from its enclosure when both ends round
alike, else, or without a certificate (an inf error, or errors near
the top of the float range), taken from ``math.fsum``; the p99
partitions only the errors at or above a threshold preselected from a
sample, when enough lie there, else the whole map.

CSV export writes each float as ``repr`` does, the shortest decimal
that reads back to it, but computes the digits for a block of values at
once (``_floatrepr``: Schubfach, R. Giulietti, "The Schubfach way to
render doubles", 2020, in uint64 arithmetic over the bit patterns).
Zeros, subnormals, inf and nan go through ``repr`` one at a time.
"""

import math
import operator
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import core, schemes


class ConfigError(ValueError):
    """Invalid grid, sampling, or harness configuration."""


_SPACINGS = ("log", "linear")


def _count(name, value):
    """value as an int, or ConfigError if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


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
        if _count("n_re", self.n_re) < 2 or _count("n_rough", self.n_rough) < 2:
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

    Raises:
        ConfigError: n not an integer >= 1, an unknown mapping, or
            bounds that are not four finite numbers with min < max per
            axis and, under "log", min > 0.
    """
    n = _count("n", n)
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if mapping not in ("uniform", "log"):
        raise ConfigError(f"mapping must be 'uniform' or 'log', got {mapping!r}")
    # point i is the XOR of the direction numbers at its Gray code's set bits
    i = np.arange(n, dtype=np.uint32)
    gray = i ^ (i >> 1)
    xi, yi = np.zeros((2, n), dtype=np.uint32)
    for j in range((n - 1).bit_length()):
        has = (gray & (1 << j)) != 0
        np.bitwise_xor(xi, _V1[j], out=xi, where=has)
        np.bitwise_xor(yi, _V2[j], out=yi, where=has)
    u, v = xi * 2.0 ** -_SOBOL_BITS, yi * 2.0 ** -_SOBOL_BITS
    if bounds is None:
        return np.column_stack([u, v])
    if isinstance(bounds, GridSpec):
        bounds = (bounds.re_min, bounds.re_max, bounds.rough_min, bounds.rough_max)
    # a zero roughness floor maps uniformly but has no logarithm
    floor = 0.0 if mapping == "log" else -math.inf
    try:
        lo_re, hi_re, lo_r, hi_r = bounds
        ok = floor < lo_re < hi_re < math.inf and floor < lo_r < hi_r < math.inf
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(
            "bounds must be finite (re_min, re_max, rough_min, rough_max) with min < max"
            f"{' and min > 0 under the log mapping' if mapping == 'log' else ''}, got {bounds!r}"
        )
    if mapping == "uniform":
        re = lo_re + u * (hi_re - lo_re)
        rough = lo_r + v * (hi_r - lo_r)
    else:
        re = lo_re * (hi_re / lo_re) ** u
        rough = lo_r * (hi_r / lo_r) ** v
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


def _one_level_sum(r, top):
    """A certified enclosure of the exact sum of a flat float64 array,
    from one level of error-free extraction: (units, radius), where the
    sum lies within ``radius`` of ``units``, both integer counts of
    2**-1074. ``top`` is max|r| (nan if an entry is nan). The radius is
    None, no certificate, when ``r`` holds inf or nan or when the
    splitting constant would pass the float range.

    With sigma = 2**k at least 2**bit_length(n + 1) times every |r|,
    q = (r + sigma) - sigma is r rounded to a multiple of 2**(k-53),
    exactly, and r - q is exact (Rump, Ogita and Oishi 2008,
    ExtractVector). The n terms q add exactly to U in any order, as
    every partial sum is on that grid below sigma; the n remainders, each
    at most 2**(k-53) in magnitude, are summed in floating point to T, in
    whatever order numpy takes. Any order errs by at most
    gamma(n-1) * sum|rest| <= gamma(n-1) * n * 2**(k-53) = B, with
    gamma(m) = m*u / (1 - m*u) and u = 2**-53 (N. J. Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., 2002, section 4.2), so
    the sum lies within B, rounded up, of U + T.
    """
    n = r.size
    k = math.frexp(top)[1] + (n + 1).bit_length()
    if not math.isfinite(top) or k > 1023:
        return 0, None
    if not top:
        return 0, 0
    sigma = 2.0 ** k
    q = r + sigma
    q -= sigma
    head = float(q.sum())
    np.subtract(r, q, out=q)
    units = _float_units(head) + _float_units(float(q.sum()))
    # B in units of 2**-1074, as (n - 1) * n * 2**(k + 1021) / (2**53 - (n - 1))
    e = k + 1021
    num = (n - 1) * n << max(e, 0)
    den = ((1 << 53) - (n - 1)) << max(-e, 0)
    return units, -(-num // den)


def _float_units(x):
    """A finite float as an integer count of 2**-1074, exactly."""
    num, den = x.as_integer_ratio()
    return (num << 1074) // den


def _rounded(units, radius):
    """The double to which every sum within ``radius`` of ``units`` rounds,
    both integer counts of 2**-1074, or None if they round apart, pass
    the float range or have no certificate (radius None)."""
    if radius is None:
        return None
    try:
        # integer true division is correctly rounded
        lo, hi = ((units + d) / (1 << 1074) for d in (-radius, radius))
    except OverflowError:
        return None
    return lo if lo == hi else None


# strided sample of each map from which the 99th-percentile preselection
# threshold is taken
_P99_SAMPLE = 4096


def _nearest_rank(err, rank):
    """The rank-th smallest of a flat float64 array without NaN (rank
    counted from 1), the value ``np.partition(err, rank - 1)`` puts at
    rank - 1.

    A threshold is taken from a strided sample, low enough that about
    twice the m = n - rank + 1 values needed lie at or above it. If at
    least m errors do, the m-th largest of them is the m-th largest of
    all, which only those few are partitioned for; otherwise the whole
    array is.
    """
    n = err.size
    m = n - rank + 1
    sample = err[::max(1, n // _P99_SAMPLE)]
    c = min(sample.size, 2 * m * sample.size // n + 8)
    threshold = np.partition(sample, sample.size - c)[sample.size - c]
    high = err[err >= threshold]
    if high.size >= m:
        return np.partition(high, high.size - m)[high.size - m]
    return np.partition(err, rank - 1)[rank - 1]


def _finish_stats(errmap, units, radius, max_pct):
    """``stats_of`` of a non-empty map, given an enclosure of the exact
    sum of its errors as ``_one_level_sum`` gives it, within ``radius``
    of ``units`` (both in units of 2**-1074) or without a certificate
    (radius None), and its largest error (nan if any error is nan).

    When the enclosure's ends round to one double, that double is the
    correctly rounded sum; otherwise, or without a certificate, the sum
    is ``math.fsum``'s over the map.
    """
    err = errmap.rel_err_pct
    n = err.size
    if math.isnan(max_pct):
        raise ConfigError(
            f"cannot summarize a map with NaN errors: "
            f"{np.count_nonzero(np.isnan(err))} of {n} points are NaN"
        )
    flat = np.ascontiguousarray(err, dtype=np.float64).reshape(-1)
    ties = np.flatnonzero(flat == max_pct)
    i = int(ties[np.lexsort((errmap.rel_rough[ties], errmap.re[ties]))[0]])
    total = _rounded(units, radius)
    if total is None:
        total = math.fsum(flat.tolist())
    mean_pct = total / n
    rank = max(1, math.ceil(0.99 * n))  # nearest-rank definition
    return ErrorStats(
        max_pct=max_pct,
        argmax_re=float(errmap.re[i]),
        argmax_rough=float(errmap.rel_rough[i]),
        mean_pct=mean_pct,
        p99_pct=float(_nearest_rank(flat, rank)),
    )


def stats_of(errmap: ErrorMap) -> ErrorStats:
    """Summarize a map: max with lexicographic (re, rough) tie-break,
    mean, nearest-rank 99th percentile.

    The mean is the correctly rounded sum of the errors divided by the
    point count, the same value as ``math.fsum`` over the errors divided
    by the count. The map's sum is enclosed at once by
    ``_one_level_sum`` and finished by ``_finish_stats``, as a scan's
    block enclosures are. An inf error gives inf max and mean.

    Raises:
        ConfigError: the map is empty or holds NaN errors.
    """
    err = errmap.rel_err_pct
    if err.size == 0:
        raise ConfigError("cannot summarize an empty map")
    flat = np.ascontiguousarray(err, dtype=np.float64).reshape(-1)
    return _finish_stats(errmap, *_one_level_sum(flat, np.abs(flat).max()), float(flat.max()))


# points per block of scan_many's pass over the mesh: 512 KiB per float64
# temporary, so a block's intermediates stay in a core's L2 cache
_SCAN_BLOCK = 65536


def _scan_block(spec_list, re_c, rough_c, lam_ref_c, outs_c):
    """Fill one block of ``scan_many``'s outputs in place: ``lam_ref_c``
    with the oracle lambda at (re_c, rough_c), and ``outs_c[k]`` with
    spec k's (lambda_approx, rel_err_pct) rows from
    ``schemes._evaluate_block``, which checks every spec before the
    oracle runs.

    Returns:
        one (sine_fallbacks, units, radius, max) tuple per spec: the
        errors' sum enclosed by ``_one_level_sum``, radius None if the
        enclosure has no certificate, and the largest error (nan if one
        is nan).
    """
    results = schemes._evaluate_block(spec_list, re_c, rough_c)
    x0 = core.oracle_start_raw(re_c, rough_c)
    x_ref, iterations, residual, converged = core.solve_colebrook_raw(re_c, rough_c, x0)
    if not converged.all():
        j = int(np.flatnonzero(~converged)[0])
        raise core.ConvergenceError(
            f"oracle did not converge at (re={re_c[j]}, rel_rough={rough_c[j]})",
            last_x=float(x_ref[j]), iterations=int(iterations[j]), residual=float(residual[j]),
        )
    # from eps/D = 3.71 up the root is not positive; lambda = x**-2 of it
    # is not a friction factor
    nonphysical = np.flatnonzero(x_ref <= 0.0)
    if nonphysical.size:
        j = int(nonphysical[0])
        raise core.DomainError(
            f"oracle root x={x_ref[j]} is not positive at "
            f"(re={re_c[j]}, rel_rough={rough_c[j]})"
        )
    np.power(x_ref, -2.0, out=lam_ref_c)
    record = [None] * len(spec_list)
    for k, x_a, sine_fallbacks in results:
        lam_a, err = outs_c[k]
        np.power(x_a, -2.0, out=lam_a)
        core.relative_error_pct_raw(lam_ref_c, lam_a, out=err)
        # errors are not negative, so their maximum is max|err|
        top = err.max()
        record[k] = (sine_fallbacks, *_one_level_sum(err, top), float(top))
    return record


def scan_many(scheme_ids, grid=None, workers=1):
    """Scan several schemes (ids or specs) over one mesh, solving the
    oracle once.

    The outputs are allocated once: the oracle lambda and, per scheme,
    an array whose two rows are its lambda and error maps. The mesh is
    cut into the fewest even contiguous blocks of at most ``_SCAN_BLOCK``
    points, whatever the worker count, and a pool of ``min(workers,
    blocks)`` threads fills them, one ``_scan_block`` task per block; a
    failure is reported from the first failing block in mesh order. The
    blocks' sum enclosures and maxima reduce per scheme, and the
    same pool finishes the stats, one task per scheme, as ``stats_of``
    does.
    Every point is computed alone, so maps, stats and sine-fallback
    counts are the same bit for bit at any block size and worker count,
    and the stats equal ``stats_of`` of the maps.

    Returns:
        dict spec id -> (ErrorMap, ErrorStats); variants of one scheme
        (``schemes.variant``) have ids of their own. No schemes give {}
        without any work.

    Raises:
        ConfigError: workers not an integer >= 1, two schemes with one
            id, or NaN errors in a map (the first such scheme in input
            order is named).
        DomainError: a scheme's inputs fail its input check (the first
            such scheme in input order is named), or the oracle root is
            not positive.
        ConvergenceError: the oracle did not converge; carries its last
            iterate, iteration count and residual at the point.
    """
    workers = _count("workers", workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    grid = DEFAULT_GRID if grid is None else grid
    spec_list = [schemes.get_scheme(s) for s in scheme_ids]
    repeated = [sid for sid, k in Counter(s.id for s in spec_list).items() if k > 1]
    if repeated:
        raise ConfigError(f"scheme ids must be distinct; repeated: {', '.join(repeated)}")
    if not spec_list:
        return {}
    re_flat, rough_flat = _flat_mesh(grid)
    lam_ref = np.empty(grid.size)
    # outs[k] holds spec k's (lambda_approx, rel_err_pct) rows; one array
    # for all schemes measured slower, as it is paged in afresh every scan
    outs = [np.empty((2, grid.size)) for _ in spec_list]
    n_blocks = -(-grid.size // _SCAN_BLOCK)
    bounds = [grid.size * k // n_blocks for k in range(n_blocks + 1)]

    def block(lo, hi):
        return _scan_block(spec_list, re_flat[lo:hi], rough_flat[lo:hi], lam_ref[lo:hi],
                           [out[:, lo:hi] for out in outs])

    with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
        per_spec = zip(*pool.map(block, bounds[:-1], bounds[1:]))
        # each a tuple over the specs of a tuple over the blocks
        counts, units, radii, tops = zip(*(zip(*recs) for recs in per_spec))
        errmaps = [
            ErrorMap(grid, re_flat, rough_flat, lam_ref, *rows, sine_fallbacks=sum(nfb))
            for rows, nfb in zip(outs, counts)
        ]
        # a block without a certificate leaves its map without one; max
        # propagates nan, which the finishing check reports
        map_radii = [None if None in r else sum(r) for r in radii]
        stats = pool.map(
            _finish_stats, errmaps, map(sum, units), map_radii, np.max(tops, axis=1).tolist()
        )
        return {spec.id: (em, st) for spec, em, st in zip(spec_list, errmaps, stats)}


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

# rows formatted and written per block; bounds the memory held at once
_CSV_BLOCK = 4096

def export_csv(errmap: ErrorMap, path):
    """Write the map as CSV: fixed header, shortest round-trip decimal
    floats (``repr``), rough-major row order. Byte-identical across runs.
    Every column is written as float64, whatever its dtype.

    The decimals are computed a block of values at a time by
    ``_floatrepr.repr_bytes``: Schubfach (R. Giulietti, "The Schubfach
    way to render doubles", 2020; the method of ``Double.toString`` since
    JDK 19, after U. Adams, "Ryu", PLDI 2018) finds the shortest decimal
    in each value's rounding interval, the nearest if there are several,
    which is the digit string ``repr`` gives, in uint64 arithmetic over
    the bit patterns. Zeros, subnormals, inf and nan are written by
    ``repr`` itself, one value at a time.

    The two axis columns repeat few values, so each distinct value is
    formatted once. Rows are built ``_CSV_BLOCK`` at a time as one byte
    matrix, each field NUL-padded, and written without the NULs.
    """
    # imported on first use, so that importing the package does not compile it
    from ._floatrepr import repr_bytes

    # each distinct bit pattern of an axis column, so -0.0 and 0.0 and
    # different NaNs stay apart, and the row of its text for each element
    axes = []
    for col in (errmap.re, errmap.rel_rough):
        col = np.ascontiguousarray(col, dtype=np.float64)
        bits, index = np.unique(col.view(np.uint64), return_inverse=True)
        text = repr_bytes(bits.view(np.float64))
        text[:, -1] = ord(",")
        axes.append((text, index))
    # repr_bytes takes any dtype as float64
    values = (errmap.lambda_ref, errmap.lambda_approx, errmap.rel_err_pct)
    n = axes[0][1].size
    with open(path, "wb") as f:
        f.write(CSV_HEADER.encode() + b"\n")
        for lo in range(0, n, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, n)
            m = hi - lo
            text = repr_bytes(np.concatenate([v[lo:hi] for v in values]))
            text[:2 * m, -1] = ord(",")
            text[2 * m:, -1] = ord("\n")
            fields = [axis_text[index[lo:hi]] for axis_text, index in axes]
            rows = np.concatenate(fields + [text[:m], text[m:2 * m], text[2 * m:]], axis=1)
            f.write(rows[rows != 0])


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

    Raises:
        ConfigError: the map has no grid geometry or holds inf or NaN
            errors, which have no intensity; nothing is written.
    """
    if errmap.grid is None:
        raise ConfigError("heatmap export needs a map with grid geometry")
    w, h = errmap.grid.n_re, errmap.grid.n_rough
    err = errmap.rel_err_pct
    nonfinite = np.count_nonzero(~np.isfinite(err))
    if nonfinite:
        raise ConfigError(
            f"cannot draw a heatmap of a map with non-finite errors: "
            f"{nonfinite} of {err.size} points are inf or NaN"
        )
    top = float(err.max())
    if top > 0.0:
        pix = np.floor(err / top * 255.0 + 0.5).astype(np.int64)
        pix = np.clip(pix, 0, 255)
    else:
        pix = np.zeros(err.size, dtype=np.int64)
    # row v holds b"%d\n" % v, NUL-padded
    lines = np.array([b"%d\n" % v for v in range(256)], dtype="S4")
    text = np.take(lines.view(np.uint8).reshape(256, 4), pix, axis=0)
    with open(path, "wb") as f:
        f.write(f"P2\n{w} {h}\n255\n".encode("ascii"))
        f.write(text[text != 0])


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
    schemes._recipe(spec, re, rel_rough, schemes._plain_sine(spec.sin_strategy))
    return CostProfile(spec.id, ops[np.log10] + ops[np.log], ops[np.sin], ops[np.divide])


def benchmark(scheme_ids, batch=None, reps=9):
    """Wall-time micro-benchmark, single-threaded, fixed batch order.

    Whole-batch loops around a monotonic clock, reps repetitions; the
    median and median absolute deviation of ns per evaluation are
    reported. A checksum sink defeats dead-code elimination.

    Returns:
        list of CostProfile with timing filled, one per requested scheme.
    """
    # imported on first use: with decimal and fractions it is a tenth of
    # the package's own import time
    import statistics

    if _count("reps", reps) < 3:
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
