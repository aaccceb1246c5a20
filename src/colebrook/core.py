"""Implicit Colebrook flow-friction equation: domain types, the
machine-precision reference solver, and the relative-error metric.

The quantity of interest is x = 1/sqrt(lambda), where lambda is the Darcy
friction factor. The implicit equation is

    x = -2 * log10(2.51 * x / Re + (eps/D) / 3.71)

valid for turbulent flow with Re in [4000, 1e8] and relative roughness
eps/D in [0, 0.05]. The reference solver ("oracle") finds the root of

    f(x) = x + 2 * log10(a * x + c),   a = 2.51 / Re,   c = (eps/D) / 3.71

by Newton's method (Clamond, Ind. Eng. Chem. Res. 2009). Where the log
argument u = a*x + c is positive, f is increasing and concave, so the
tangent at any iterate meets zero at or below the root: after the first
step the iterates rise monotonically to it, quadratically near it. The
step from x lands at (K*a*x - 2*u*log10(u)) / (u + K*a), K = 2/ln 10,
which is positive while u < 1; on the domain that holds for any start
below 1500. The converged iterate is the accuracy oracle every explicit
approximation is judged against.

The oracle has a vector form (``solve_colebrook_raw``) and a scalar form
(``solve_colebrook_exact``). Both apply the one Newton step
``_newton_step``; the scalar form runs it on Python floats and equals
the vector form bit for bit in x. Lambda may differ by an ulp: a
``FrictionIterate`` takes Python's ``x ** -2.0``, a scan ``np.power``.

The transcendentals of every path that runs on floats and on arrays go
through ``log10``, ``ln`` and ``sin``: the numpy ufunc, looked up at
call time, whose result on a Python float is returned as a Python float.
The ufunc rounds a float exactly as it rounds an array element; the math
module does not. With numpy 2.4.6 on an AVX-512 x86-64 host, over 1M
log-uniform arguments per range, ``math.log10`` differs from
``np.log10`` on 14.5% of the arguments in (0.1, 10), and on 5.2%, 3.3%
and 4.4% of those in [1e-10, 1e-6], [1e-6, 0.1] and [1e3, 1e9];
``math.log`` on 3e-5 to 1.8e-3 of them; ``math.sin`` on none of 1M in
[-2.7, 6.3], the sine arguments' range. The float result keeps the
arithmetic after it off numpy scalars.
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

# f'(x) = 1 + _K * a / (a*x + c) for f(x) = x + 2 log10(a*x + c)
_K = 2.0 / math.log(10.0)


def log10(v):
    """np.log10(v); a Python float for a Python float."""
    return float(np.log10(v)) if type(v) is float else np.log10(v)


def ln(v):
    """np.log(v); a Python float for a Python float."""
    return float(np.log(v)) if type(v) is float else np.log(v)


def sin(v):
    """np.sin(v); a Python float for a Python float."""
    return float(np.sin(v)) if type(v) is float else np.sin(v)


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


# The three result types are frozen, slotted dataclasses with an explicit
# __init__: each checks as the generated one with __post_init__ did, then
# sets its slots through their member descriptors, which the frozen
# __setattr__ does not guard, instead of one object.__setattr__ per field.
# The setters are taken once, below each class, under private names: the
# public class names can be rebound (the benchmark's traced runs swap
# FlowPoint for a wrapper function).


@dataclass(frozen=True, slots=True, init=False)
class FlowPoint:
    """One (Re, eps/D) input pair, the domain coordinates of everything.

    Out-of-range but physically meaningful values are accepted only with
    ``out_of_domain_ok=True`` and stay flagged through ``in_domain``;
    they are computed, never silently rejected. Non-positive Re and
    negative roughness are meaningless on every code path and always
    raise ``DomainError``. ``re`` and ``rel_rough`` are stored as Python
    floats, whatever real numbers they were given as.
    """

    re: float
    rel_rough: float = 0.0
    out_of_domain_ok: bool = field(default=False, compare=False)

    def __init__(self, re, rel_rough=0.0, out_of_domain_ok=False):
        # a point inside the validated box passes every check at once
        if not (RE_MIN <= re <= RE_MAX and 0.0 <= rel_rough <= ROUGH_MAX):
            _check_flow_point(re, rel_rough, out_of_domain_ok)
        _set_re(self, float(re))
        _set_rel_rough(self, float(rel_rough))
        _set_out_of_domain_ok(self, out_of_domain_ok)

    @property
    def in_domain(self) -> bool:
        """True when inside the validated turbulent box."""
        return RE_MIN <= self.re <= RE_MAX and self.rel_rough <= ROUGH_MAX


_set_re = FlowPoint.re.__set__
_set_rel_rough = FlowPoint.rel_rough.__set__
_set_out_of_domain_ok = FlowPoint.out_of_domain_ok.__set__


def _check_flow_point(re, rel_rough, out_of_domain_ok):
    """The checks of ``FlowPoint`` on the values as given."""
    if not (math.isfinite(re) and math.isfinite(rel_rough)):
        raise DomainError("flow point requires finite re and rel_rough")
    if re <= 0.0:
        raise DomainError(f"re must be positive, got {re}")
    if rel_rough < 0.0:
        raise DomainError(f"rel_rough must be non-negative, got {rel_rough}")
    if not (RE_MIN <= re <= RE_MAX and rel_rough <= ROUGH_MAX) and not out_of_domain_ok:
        raise DomainError(
            f"(re={re}, rel_rough={rel_rough}) outside the "
            f"validated domain re in [{RE_MIN:g}, {RE_MAX:g}], "
            f"rel_rough in [0, {ROUGH_MAX}]; pass out_of_domain_ok=True "
            "to compute anyway"
        )


@dataclass(frozen=True, slots=True, init=False)
class FrictionIterate:
    """An approximant state x = 1/sqrt(lambda) with its step index.

    ``step`` counts applications of the acceleration map; it increments by
    exactly one per application.
    """

    x: float
    step: int = 0

    def __init__(self, x, step=0):
        if not (math.isfinite(x) and x > 0.0):
            raise DomainError(f"iterate x must be positive and finite, got {x}")
        if step < 0:
            raise DomainError(f"step index must be >= 0, got {step}")
        _set_x(self, x)
        _set_step(self, step)

    @property
    def lam(self) -> float:
        """Darcy friction factor, lambda = x**-2 exactly by construction."""
        return self.x ** -2.0


_set_x = FrictionIterate.x.__set__
_set_step = FrictionIterate.step.__set__


@dataclass(frozen=True, slots=True, init=False)
class SolveReport:
    """Outcome of an iterative reference solve."""

    iterate: FrictionIterate
    iterations: int
    residual: float

    def __init__(self, iterate, iterations, residual):
        _set_iterate(self, iterate)
        _set_iterations(self, iterations)
        _set_residual(self, residual)


_set_iterate = SolveReport.iterate.__set__
_set_iterations = SolveReport.iterations.__set__
_set_residual = SolveReport.residual.__set__


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
    return -2.0 * log10(2.51 * x / re + rel_rough / 3.71)


def oracle_start_raw(re, rel_rough):
    """Reference-solver starting point, vectorized: the rational-polynomial
    estimate inside the validated domain, x0 = 8 outside it."""
    re = np.asarray(re, dtype=float)
    rel_rough = np.asarray(rel_rough, dtype=float)
    in_dom = (re >= RE_MIN) & (re <= RE_MAX) & (rel_rough >= 0.0) & (rel_rough <= ROUGH_MAX)
    return np.where(in_dom, starter_eq2_raw(re, rel_rough), 8.0)


def _newton_step(a, ka, c, x):
    """One Newton step on f(x) = x + 2 log10(a*x + c); polymorphic over
    floats and numpy arrays. ``ka`` is _K * a, which the callers take
    once per solve.

    A log argument of 0 gives -inf / inf = nan, a negative one nan.
    """
    u = a * x + c
    return x - (x + 2.0 * log10(u)) / (1.0 + ka / u)


def solve_colebrook_raw(re, rel_rough, x0):
    """Vectorized Newton solve of the implicit equation.

    Each point carries its own active mask, so a point's iteration
    trajectory is identical no matter how the arrays are chunked across
    workers. Stops a point once its Newton step is within
    ``DEFAULT_TOL``, or after ``DEFAULT_MAX_ITER`` steps; the residual is
    that last step, |x_k - x_(k-1)|. From ``oracle_start_raw`` the points
    of the default and 1000x1000 meshes take at most 4 steps.

    Returns:
        (x, iterations, residual, converged) arrays broadcast over inputs.
    """
    re_b, rr_b, x = np.broadcast_arrays(
        np.asarray(re, dtype=float),
        np.asarray(rel_rough, dtype=float),
        np.asarray(x0, dtype=float),
    )
    a = 2.51 / re_b
    ka = _K * a
    c = rr_b / 3.71
    x = x.copy()
    active = np.ones(x.shape, dtype=bool)
    iterations = np.zeros(x.shape, dtype=np.int64)
    residual = np.full(x.shape, np.inf)
    # a step whose log argument is not positive yields nan (far outside the
    # domain); nan stays active so the point is reported as non-converged
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(DEFAULT_MAX_ITER):
            if not active.any():
                break
            x_next = _newton_step(a, ka, c, x)
            diff = np.abs(x_next - x)
            np.copyto(x, x_next, where=active)
            np.copyto(residual, diff, where=active)
            iterations += active
            active &= ~(diff <= DEFAULT_TOL)
    return x, iterations, residual, ~active


def solve_colebrook_exact(point: FlowPoint) -> SolveReport:
    """Solve the implicit equation to machine precision by Newton's method.

    The converged iterate is lambda_accurate for every error computation.
    Starts from the rational-polynomial estimate when the point is inside
    the validated domain, else from x0 = 8.

    Runs the Newton step and stopping rule of ``solve_colebrook_raw`` on
    Python floats instead of 0-d arrays. The step's ``log10`` rounds a
    float exactly as an array element, and the other operations are the
    same IEEE ones in the same order. A log argument that is not positive
    gives x = nan without calling the log, as the vector step computes
    nan there. So x, iterations and residual equal the vector solve's bit
    for bit.

    Raises:
        ConvergenceError: the step is not within ``DEFAULT_TOL`` after
            ``DEFAULT_MAX_ITER`` steps; carries the last iterate. Cannot
            occur in-domain, where the iterates rise monotonically to the
            root after the first step, at most 4 steps on the default
            mesh; far outside it a step can leave the log's domain, and
            the nan iterate then counts to the cap.
        DomainError: the root is not positive, as from eps/D = 3.71 up.
        A scan re-solves its first failing point here, so it raises these.
    """
    tol = DEFAULT_TOL
    re, rel_rough = point.re, point.rel_rough
    a, c = 2.51 / re, rel_rough / 3.71
    ka = _K * a
    x = starter_eq2_raw(re, rel_rough) if point.in_domain else 8.0
    iters = 0
    res = math.inf
    # a nan difference fails `res <= tol` and keeps iterating, as nan stays
    # active in the vector mask
    for _ in range(DEFAULT_MAX_ITER):
        x_next = _newton_step(a, ka, c, x) if a * x + c > 0.0 else math.nan
        res = abs(x_next - x)
        iters += 1
        x = x_next
        if res <= tol:
            break
    if not (res <= tol):
        raise ConvergenceError(
            f"no convergence at (re={re}, rel_rough={rel_rough}) "
            f"after {iters} iterations, residual {res:.3e}",
            last_x=x,
            iterations=iters,
            residual=res,
        )
    if not x > 0.0:
        raise DomainError(f"oracle root x={x} is not positive at (re={re}, rel_rough={rel_rough})")
    # positive, and finite as it converged: the iterate needs no check
    iterate = object.__new__(FrictionIterate)
    _set_x(iterate, x)
    _set_step(iterate, iters)
    return SolveReport(iterate, iters, res)


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
