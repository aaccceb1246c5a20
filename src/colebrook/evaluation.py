"""Evaluation harness: domain sampling (mesh and Sobol), error-map
scanning against the reference solver, the accuracy-vs-complexity table,
operation counts read off the recipes, and wall-time micro-benchmarks.

Schemes are given as registered ids or as ``SchemeSpec``s; a spec
carries everything it computes, its sine strategy and constants mode
included, so a variant (``schemes.variant``) is scanned, counted and
timed under its own id with no further settings.

Grid scans cut the mesh into even cache-sized blocks, one task each on
a thread pool; per block the oracle is solved once and the schemes run
together through ``schemes._evaluate_block``; a block builds its points
from the grid axes and frees the oracle's outputs but its lambda before
the schemes run. A scan holds 8 bytes per point per scheme, its lambda
map, plus the oracle lambda; a map's errors are computed from the lambda
maps on first read, and its coordinates from the grid, one pair per
scan. The stats are an exact fold over blocks:
each block's errors, while in cache, give a record of their sum's
enclosure (``_one_level_sum``, in integer counts of 2**-1074), their
largest error at its lexicographically first (re, rough), and their m
largest, m = n - rank + 1 for the nearest-rank p99. Records reduce as
the pool yields them, the candidates cut back to m once they pass 2m;
``stats_of`` folds a map's blocks alike. The mean is rounded once, from
the enclosure when both its ends round alike, else from ``math.fsum``.
Every point is computed alone, so results are identical for any block
size and worker count.

CSV export writes each float as ``repr`` does, the shortest decimal
that reads back to it, but computes the digits for a block of values at
once (``_floatrepr``: Schubfach, R. Giulietti, "The Schubfach way to
render doubles", 2020, in uint64 arithmetic over the bit patterns).
Zeros, subnormals, inf and nan go through ``repr`` one at a time.
"""

import math
import operator
import time
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from . import core, kernels, schemes


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

    re_min: float = core.RE_MIN
    re_max: float = core.RE_MAX
    rough_min: float = 1e-6
    rough_max: float = core.ROUGH_MAX
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
            raise ConfigError(f"rough bounds not ordered: [{self.rough_min}, {self.rough_max}]")
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
    return (np.geomspace if spacing == "log" else np.linspace)(lo, hi, n)


def grid_axes(spec: GridSpec):
    """(re_values, rough_values) axis arrays, endpoints included."""
    return (_axis(spec.re_min, spec.re_max, spec.n_re, spec.re_spacing),
            _axis(spec.rough_min, spec.rough_max, spec.n_rough, spec.rough_spacing))


def _flat_mesh(spec: GridSpec, lo=0, hi=None):
    """Points lo to hi (by default all) of the flattened rough-major mesh,
    roughness varying slowest, built from the rows of the axes they span."""
    re_axis, rough_axis = grid_axes(spec)
    hi, n = spec.size if hi is None else hi, spec.n_re
    rows = slice(lo // n, -(-hi // n))
    rough_m, re_m = np.meshgrid(rough_axis[rows], re_axis, indexing="ij")
    cut = slice(lo - rows.start * n, hi - rows.start * n)
    return re_m.ravel()[cut], rough_m.ravel()[cut]


# ---------------------------------------------------------------------------
# Sobol sampling
# ---------------------------------------------------------------------------

_SOBOL_BITS = 32


def _sobol_directions():
    # dimension 1: van der Corput in base 2
    v1 = [1 << (_SOBOL_BITS - 1 - j) for j in range(_SOBOL_BITS)]
    # dimension 2: degree-1 primitive polynomial, m_j = 2*m_{j-1} XOR m_{j-1}
    ms = [1]
    for _ in range(1, _SOBOL_BITS):
        ms.append((ms[-1] << 1) ^ ms[-1])
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

@dataclass(frozen=True, init=False)
class ErrorMap:
    """Per-point relative errors over a mesh, rough-major flattened. A
    scan's map holds its lambda map, 8 bytes per point, and the oracle
    lambda its scan shares. ``rel_err_pct`` is the array given, or,
    without one (as a scan builds a map, and as ``replace`` does unless
    it is passed), derived from the lambda maps on first read. ``re``
    and ``rel_rough`` are the arrays given, or, for a map given a grid
    and neither (as a scan builds it), its flat mesh, derived on first
    read, one pair for all maps of a scan; without a grid they are None.
    Every array given must have ``lambda_ref``'s size, as must a grid,
    else ``ConfigError``."""

    grid: GridSpec | None
    re: np.ndarray
    rel_rough: np.ndarray
    lambda_ref: np.ndarray
    lambda_approx: np.ndarray
    sine_fallbacks: int = 0

    def __init__(self, grid, re, rel_rough, lambda_ref, lambda_approx, rel_err_pct=None,
                 sine_fallbacks=0):
        given = dict(re=re, rel_rough=rel_rough, rel_err_pct=rel_err_pct)
        n = np.size(lambda_ref)
        sizes = {k: np.size(v) for k, v in dict(given, lambda_approx=lambda_approx).items()
                 if v is not None}
        if grid is not None:
            sizes["grid"] = grid.size
        wrong = ", ".join(f"{k} {size}" for k, size in sizes.items() if size != n)
        if wrong:
            raise ConfigError(f"a map's arrays and grid must have lambda_ref's {n} points, got {wrong}")
        self.__dict__.update({k: v for k, v in given.items() if v is not None}, grid=grid,
                             lambda_ref=lambda_ref, lambda_approx=lambda_approx,
                             sine_fallbacks=sine_fallbacks, _mesh={})

    def __getattr__(self, name):
        # a coordinate not given: from the mesh holder, which a scan's maps share
        if name not in ("re", "rel_rough"):
            raise AttributeError(name)
        mesh = self.__dict__["_mesh"]
        if not mesh and self.grid is not None:
            mesh.update(zip(("re", "rel_rough"), _flat_mesh(self.grid)))
        return mesh.get(name)

    @cached_property
    def rel_err_pct(self):
        return core.relative_error_pct_raw(self.lambda_ref, self.lambda_approx)

    def _coordinates(self, use):
        """(re, rel_rough), or ConfigError, naming ``use``, without them."""
        if self.re is None or self.rel_rough is None:
            raise ConfigError(f"{use} needs a map with coordinates: a grid, or re and rel_rough")
        return self.re, self.rel_rough


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


def _tail(n):
    """m = n - rank + 1: the nearest-rank 99th percentile of n is the m-th largest."""
    return n - max(1, math.ceil(0.99 * n)) + 1


def _largest(err, m):
    """A copy of the m largest of a flat float64 array, or of all of it."""
    k = max(err.size - m, 0)
    return np.partition(err, k)[k:].copy()


# the stats of some blocks of a map: their sum's ``_one_level_sum``
# enclosure; their largest error (nan if one is nan) at its first (re,
# rough); as p99 candidates, at least the m = ``_tail(n)`` largest
# errors; their count of nan errors
_Fold = namedtuple("_Fold", "units radius top at cand nan")


def _fold_block(err, re, rough, m, mag=None):
    """The fold of one block of a map: errors ``err`` at (re, rough),
    flat, and ``mag`` at least max|err| (nan if an error is nan), by
    default the largest error, for errors that are not negative."""
    top = float(err.max())
    ties = np.flatnonzero(err == top)  # none when top is nan
    i = ties[np.lexsort((rough[ties], re[ties]))][:1]
    at = (float(re[i[0]]), float(rough[i[0]])) if i.size else None
    nan = np.count_nonzero(np.isnan(err)) if math.isnan(top) else 0
    return _Fold(*_one_level_sum(err, top if mag is None else mag), top, at, _largest(err, m), nan)


def _merge(a, b, m):
    """The fold of two disjoint parts of a map from theirs. The candidates
    are cut back to the m largest once they pass 2m."""
    # nan wins, then the larger error, then the first coordinates
    best = b if math.isnan(b.top) or b.top > a.top or b.top == a.top and b.at < a.at else a
    cand = np.concatenate((a.cand, b.cand))
    return _Fold(a.units + b.units, None if None in (a.radius, b.radius) else a.radius + b.radius,
                 best.top, best.at, _largest(cand, m) if cand.size > 2 * m else cand, a.nan + b.nan)


def _finish_stats(errmap, n, fold):
    """The stats of a map of n points from the fold of all its blocks. The
    sum is the one double both ends of its enclosure round to, else, or
    without a certificate, ``math.fsum``'s over the map's errors."""
    if fold.nan:
        raise ConfigError(
            f"cannot summarize a map with NaN errors: {fold.nan} of {n} points are NaN")
    total = _rounded(fold.units, fold.radius)
    if total is None:
        total = math.fsum(np.asarray(errmap.rel_err_pct, dtype=np.float64).ravel().tolist())
    k = fold.cand.size - _tail(n)
    return ErrorStats(fold.top, *fold.at, total / n, float(np.partition(fold.cand, k)[k]))


# points per block of a scan's pass over the mesh and of stats_of's fold:
# 512 KiB per float64 temporary, so a block's intermediates stay in a
# core's L2 cache
_SCAN_BLOCK = 65536


def stats_of(errmap: ErrorMap) -> ErrorStats:
    """Summarize a map: max with lexicographic (re, rough) tie-break,
    mean, nearest-rank 99th percentile.

    The mean is the correctly rounded sum of the errors divided by the
    point count, the same value as ``math.fsum`` over the errors divided
    by the count. The map is folded ``_SCAN_BLOCK`` points at a time, as
    a scan folds its blocks. An inf error gives inf max and mean.

    Raises:
        ConfigError: the map is empty, has no coordinates or holds NaN
            errors.
    """
    flat = np.ascontiguousarray(errmap.rel_err_pct, dtype=np.float64).reshape(-1)
    n = flat.size
    if n == 0:
        raise ConfigError("cannot summarize an empty map")
    re, rough = errmap._coordinates("summarizing")
    m, mag = _tail(n), float(np.abs(flat).max())
    blocks = (slice(lo, lo + _SCAN_BLOCK) for lo in range(0, n, _SCAN_BLOCK))
    folds = (_fold_block(flat[b], re[b], rough[b], m, mag) for b in blocks)
    return _finish_stats(errmap, n, reduce(lambda a, b: _merge(a, b, m), folds))


def _scan_block(spec_list, grid, lo, hi, lam_ref_c, lams_c, m):
    """Fill points lo to hi of ``scan_many``'s outputs in place, built
    from the grid axes: ``lam_ref_c`` with the oracle lambda, the only
    oracle output kept while the specs run, and ``lams_c[k]`` with spec
    k's lambda from ``schemes._evaluate_block``, which checks every spec
    before the oracle runs; each spec's errors pass through one
    block-sized buffer. Returns one (sine_fallbacks, ``_Fold``) per spec.
    """
    re_c, rough_c = _flat_mesh(grid, lo, hi)
    results = schemes._evaluate_block(spec_list, re_c, rough_c)
    x_ref, iterations, residual, converged = core.solve_colebrook_raw(
        re_c, rough_c, core.oracle_start_raw(re_c, rough_c))
    del iterations, residual
    # from eps/D = 3.71 up the root is not positive; lambda = x**-2 of it
    # is not a friction factor
    failed = np.flatnonzero(~(converged & (x_ref > 0.0)))
    if failed.size:
        # the scalar solve, bit-equal to the vector one, raises the point's error
        j = int(failed[0])
        core.solve_colebrook_exact(core.FlowPoint(re_c[j], rough_c[j], out_of_domain_ok=True))
        raise RuntimeError(f"internal error: the scalar oracle solved (re={re_c[j]}, "
                           f"rel_rough={rough_c[j]}), where the vector oracle failed")
    np.power(x_ref, -2.0, out=lam_ref_c)
    del x_ref, converged
    record = [None] * len(spec_list)
    err = np.empty(re_c.size)
    for k, x_a, sine_fallbacks in results:
        np.power(x_a, -2.0, out=lams_c[k])
        core.relative_error_pct_raw(lam_ref_c, lams_c[k], out=err)
        record[k] = (sine_fallbacks, _fold_block(err, re_c, rough_c, m))
    return record


def scan_many(scheme_ids, grid=None, workers=1):
    """Scan several schemes (ids or specs) over one mesh, solving the
    oracle once.

    A scan holds 8 bytes per point per scheme, its lambda map, plus the
    oracle lambda, each allocated once. A map's errors are computed on
    first read, and its coordinates likewise, one pair for the scan. The
    mesh is cut into the fewest even contiguous blocks of at most
    ``_SCAN_BLOCK`` points, whatever the worker count, and a pool of
    ``min(workers, blocks)`` threads fills them, one ``_scan_block`` task
    per block; a failure is reported from the first failing block in mesh
    order. The blocks' folds reduce per scheme as the pool yields them.
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
        ConvergenceError: the oracle did not converge. Either oracle
            error is ``core.solve_colebrook_exact``'s, message and fields,
            at the first point of the block that fails either way.
    """
    # imported here, so that importing the package loads no thread pool
    from concurrent.futures import ThreadPoolExecutor

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
    lam_ref = np.empty(grid.size)
    # one array per scheme; one for all measured slower, paged in afresh
    lams = [np.empty(grid.size) for _ in spec_list]
    n_blocks = -(-grid.size // _SCAN_BLOCK)
    bounds = [grid.size * k // n_blocks for k in range(n_blocks + 1)]
    m = _tail(grid.size)

    def block(lo, hi):
        return _scan_block(spec_list, grid, lo, hi, lam_ref[lo:hi], [lam[lo:hi] for lam in lams], m)

    def merge(acc, record):
        return [(na + nb, _merge(a, b, m)) for (na, a), (nb, b) in zip(acc, record)]

    with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
        folds = reduce(merge, pool.map(block, bounds[:-1], bounds[1:]))
    out, mesh = {}, {}
    for spec, lam, (fallbacks, fold) in zip(spec_list, lams, folds):
        em = ErrorMap(grid, None, None, lam_ref, lam, None, fallbacks)
        em.__dict__["_mesh"] = mesh  # one derived pair for the scan
        out[spec.id] = (em, _finish_stats(em, grid.size, fold))
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

# rows formatted and written per block; bounds the memory held at once
_CSV_BLOCK = 4096

def export_csv(errmap: ErrorMap, path):
    """Write the map as CSV: fixed header, shortest round-trip decimal
    floats (``repr``), rough-major row order. Byte-identical across runs.
    Every column is written as float64, whatever its dtype.

    The decimals are computed a block of values at a time by
    ``_floatrepr.repr_bytes`` (Schubfach, the method of
    ``Double.toString`` since JDK 19): the shortest decimal in each
    value's rounding interval, the nearest of several, as ``repr`` gives
    it. Zeros, subnormals, inf and nan are written by ``repr`` itself.

    The two axis columns repeat few values, so each distinct value is
    formatted once. Rows are built ``_CSV_BLOCK`` at a time as one byte
    matrix, each field NUL-padded, and written without the NULs.

    Raises:
        ConfigError: the map has no coordinates; nothing is written.
    """
    # imported on first use, so that importing the package does not compile it
    from ._floatrepr import repr_bytes

    # each distinct bit pattern of an axis column, so -0.0 and 0.0 and
    # different NaNs stay apart, and the row of its text for each element
    axes = []
    for col in errmap._coordinates("CSV export"):
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
        rows.append({"scheme": sid, "n_log": cost_profile(sid).n_log,
                     "measured_max_pct": scans[sid][1].max_pct,
                     "published_max_pct": PUBLISHED_MAX_PCT[sid]})
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
    schemes._recipe(spec, re, rel_rough, kernels.SIN_KERNELS.get(spec.sin_strategy, np.sin))
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
    re_b, rough_b = np.ascontiguousarray(batch.T)
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
            samples.append((time.perf_counter_ns() - t0) / re_b.size)
        med = statistics.median(samples)
        mad = statistics.median(abs(s - med) for s in samples)
        timing = TimingResult(med, mad, reps, int(re_b.size), sink)
        out.append(replace(cost_profile(spec), timing=timing))
    return out
