"""Implicit Colebrook flow-friction equation: domain types, the
machine-precision reference solver, input normalization, and the
relative-error metric.

The quantity of interest is x = 1/sqrt(lambda), where lambda is the Darcy
friction factor. The implicit equation is

    x = -2 * log10(2.51 * x / Re + (eps/D) / 3.71)

valid for turbulent flow with Re in [4000, 1e8] and relative roughness
eps/D in [0, 0.05]. The right-hand side is a contraction on that domain,
so plain fixed-point iteration converges quickly; the converged iterate is
the accuracy oracle every explicit approximation is judged against.

The oracle has a vector form (``solve_colebrook_raw``) and a scalar form
(``solve_colebrook_exact``). The scalar form runs the same recurrence on
Python floats, with ``np.log10``, and equals the vector form bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

RE_MIN = 4000.0
RE_MAX = 1.0e8
ROUGH_MAX = 0.05

# practical smooth floor for log-based paths: b = -log10(eps/D) must stay
# finite, and real pipes are never smoother than this
MIN_NORMALIZED_ROUGH = 1e-9

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100


class DomainError(ValueError):
    """Raised for inputs outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """Raised when an iteration fails to reach tolerance.

    Carries the last iterate so callers can inspect how far it got.
    """

    def __init__(self, message, last_x=None, iterations=0, residual=math.nan):
        super().__init__(message)
        self.last_x = last_x
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True, slots=True)
class FlowPoint:
    """One (Re, eps/D) input pair, the domain coordinates of everything.

    Out-of-range but physically meaningful values are accepted only with
    ``out_of_domain_ok=True`` and stay flagged through ``in_domain``;
    they are computed, never silently rejected. Non-positive Re and
    negative roughness are meaningless on every code path and always
    raise ``DomainError``.
    """

    re: float
    rel_rough: float = 0.0
    out_of_domain_ok: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.rel_rough)):
            raise DomainError("flow point requires finite re and rel_rough")
        if self.re <= 0.0:
            raise DomainError(f"re must be positive, got {self.re}")
        if self.rel_rough < 0.0:
            raise DomainError(f"rel_rough must be non-negative, got {self.rel_rough}")
        if not self.in_domain and not self.out_of_domain_ok:
            raise DomainError(
                f"(re={self.re}, rel_rough={self.rel_rough}) outside the "
                f"validated domain re in [{RE_MIN:g}, {RE_MAX:g}], "
                f"rel_rough in [0, {ROUGH_MAX}]; pass out_of_domain_ok=True "
                "to compute anyway"
            )

    @property
    def in_domain(self) -> bool:
        """True when inside the validated turbulent box."""
        return RE_MIN <= self.re <= RE_MAX and self.rel_rough <= ROUGH_MAX


@dataclass(frozen=True, slots=True)
class NormalizedPoint:
    """Log-normalized coordinates a = log10(Re), b = -log10(eps/D)."""

    a: float
    b: float

    def denormalize(self) -> FlowPoint:
        """Invert the normalization; round-trips to <= 1e-12 relative."""
        return FlowPoint(10.0 ** self.a, 10.0 ** -self.b, out_of_domain_ok=True)


@dataclass(frozen=True, slots=True)
class FrictionIterate:
    """An approximant state x = 1/sqrt(lambda) with its step index.

    ``step`` counts applications of the acceleration map; it increments by
    exactly one per application.
    """

    x: float
    step: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.x) and self.x > 0.0):
            raise DomainError(f"iterate x must be positive and finite, got {self.x}")
        if self.step < 0:
            raise DomainError(f"step index must be >= 0, got {self.step}")

    @property
    def lam(self) -> float:
        """Darcy friction factor, lambda = x**-2 exactly by construction."""
        return self.x ** -2.0


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Outcome of an iterative reference solve."""

    iterate: FrictionIterate
    iterations: int
    residual: float
    converged: bool


def starter_eq2_raw(re, rel_rough):
    """Raw-input rational-polynomial first estimate of x = 1/sqrt(lambda).

    Polymorphic over floats and numpy arrays. No logarithms, two divisions.
    This is also the reference solver's default starting point. The large
    constants are kept exactly as published (7850000, 8960000).
    """
    return (
        4.34 * re / (re + 129000.0 * re * rel_rough + 7850000.0)
        + 781.0 * re / (187.0 * re + 133000.0 * re * rel_rough + 8960000.0)
        - 20.5 * rel_rough
        + 4.85
    )


def colebrook_rhs_raw(re, rel_rough, x):
    """Right-hand side of the implicit equation; polymorphic over arrays."""
    return -2.0 * np.log10(2.51 * x / re + rel_rough / 3.71)


def oracle_start_raw(re, rel_rough):
    """Reference-solver starting point, vectorized: the rational-polynomial
    estimate inside the validated domain, x0 = 8 outside it."""
    re = np.asarray(re, dtype=float)
    rel_rough = np.asarray(rel_rough, dtype=float)
    in_dom = (re >= RE_MIN) & (re <= RE_MAX) & (rel_rough >= 0.0) & (rel_rough <= ROUGH_MAX)
    return np.where(in_dom, starter_eq2_raw(re, rel_rough), 8.0)


def colebrook_rhs(point: FlowPoint, x: float) -> float:
    """Evaluate -2*log10(2.51*x/Re + (eps/D)/3.71) at a trial x.

    Args:
        point: flow conditions; rel_rough = 0 (hydraulically smooth) is legal.
        x: trial value of 1/sqrt(lambda), must be positive.

    Returns:
        The mapped value; positive for all in-domain inputs.

    Raises:
        DomainError: non-finite or non-positive x, or a non-positive
            logarithm argument (cannot occur in-domain).
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be positive and finite, got {x}")
    arg = 2.51 * x / point.re + point.rel_rough / 3.71
    if not (arg > 0.0):
        raise DomainError(f"logarithm argument {arg} is not positive")
    return float(colebrook_rhs_raw(point.re, point.rel_rough, x))


def solve_colebrook_raw(re, rel_rough, x0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Vectorized fixed-point solve of the implicit equation.

    Each point carries its own active mask, so a point's iteration
    trajectory is identical no matter how the arrays are chunked across
    workers. Stops a point once its successive-iterate difference is
    within tol.

    Returns:
        (x, iterations, residual, converged) arrays broadcast over inputs.
    """
    re_b, rr_b, x = np.broadcast_arrays(
        np.asarray(re, dtype=float),
        np.asarray(rel_rough, dtype=float),
        np.asarray(x0, dtype=float),
    )
    x = x.copy()
    active = np.ones(x.shape, dtype=bool)
    iterations = np.zeros(x.shape, dtype=np.int64)
    residual = np.full(x.shape, np.inf)
    # log of a non-positive argument far outside the domain yields nan;
    # nan must stay active so the point is reported as non-converged
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            if not active.any():
                break
            x_next = np.where(active, colebrook_rhs_raw(re_b, rr_b, x), x)
            diff = np.abs(x_next - x)
            residual = np.where(active, diff, residual)
            iterations += active
            x = x_next
            active &= (diff > tol) | np.isnan(diff)
    return x, iterations, residual, ~active


def solve_colebrook_exact(
    point: FlowPoint, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SolveReport:
    """Solve the implicit equation to machine precision by fixed-point iteration.

    The converged iterate is lambda_accurate for every error computation.
    Starts from the rational-polynomial estimate when the point is inside
    the validated domain, else from x0 = 8.

    Runs the recurrence and stopping rule of ``solve_colebrook_raw`` on
    Python floats instead of 0-d arrays. The map keeps ``np.log10``,
    which rounds a float exactly as it rounds an array element, where
    ``math.log10`` differs by an ulp on some arguments; the other
    operations are the same IEEE ones in the same order. So x,
    iterations and residual equal the vector solve's bit for bit.

    Args:
        point: flow conditions.
        tol: successive-iterate tolerance on x (default 1e-12).
        max_iter: iteration cap (default 100; the in-domain map converges
            in well under 30).

    Raises:
        DomainError: tol or max_iter invalid.
        ConvergenceError: tolerance not reached within max_iter; carries
            the last iterate. Cannot occur in-domain, where the map is a
            contraction.
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    re, rel_rough = float(point.re), float(point.rel_rough)
    x = float(starter_eq2_raw(re, rel_rough)) if point.in_domain else 8.0
    iters = 0
    res = math.inf
    # a nan difference fails `res <= tol` and keeps iterating, as nan stays
    # active in the vector mask
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            x_next = float(colebrook_rhs_raw(re, rel_rough, x))
            res = abs(x_next - x)
            iters += 1
            x = x_next
            if res <= tol:
                break
    if not (res <= tol):
        raise ConvergenceError(
            f"no convergence at (re={point.re}, rel_rough={point.rel_rough}) "
            f"after {iters} iterations, residual {res:.3e}",
            last_x=x,
            iterations=iters,
            residual=res,
        )
    return SolveReport(
        iterate=FrictionIterate(x, step=iters),
        iterations=iters,
        residual=res,
        converged=True,
    )


def normalize(point: FlowPoint) -> NormalizedPoint:
    """Map a flow point to (a, b) = (log10(Re), -log10(eps/D)).

    Uses ``np.log10``, so a and b are the values the scheme recipes
    compute from the same point.

    Raises:
        DomainError: rel_rough below the practical smooth floor; the
            normalization is undefined for the smooth limit.
    """
    if point.rel_rough < MIN_NORMALIZED_ROUGH:
        raise DomainError(
            f"normalization undefined for smooth limit: rel_rough={point.rel_rough} "
            f"is below the floor {MIN_NORMALIZED_ROUGH}"
        )
    return NormalizedPoint(float(np.log10(point.re)), float(-np.log10(point.rel_rough)))


def relative_error_pct_raw(lambda_accurate, lambda_approx, out=None):
    """(|lambda_accurate - lambda_approx| / lambda_accurate) * 100 over
    arrays, computed in place in one buffer: ``out``, or a new array."""
    out = np.subtract(lambda_accurate, lambda_approx, out=out)
    np.abs(out, out=out)
    np.divide(out, lambda_accurate, out=out)
    return np.multiply(out, 100.0, out=out)


def relative_error_pct(lambda_accurate: float, lambda_approx: float) -> float:
    """Relative error in percent, computed on lambda (not on 1/sqrt(lambda)).

    Raises:
        DomainError: lambda_accurate not positive and finite.
    """
    if not (math.isfinite(lambda_accurate) and lambda_accurate > 0.0):
        raise DomainError(f"lambda_accurate must be positive, got {lambda_accurate}")
    return abs(lambda_accurate - lambda_approx) / lambda_accurate * 100.0
