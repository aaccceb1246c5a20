"""Explicit starters for the friction equation, the fixed-point
acceleration in direct and transformed form, and a registry that
composes them into named schemes.

Scheme naming: ``eqN`` is a bare starter, ``eqNa``/``eqNa1`` one
acceleration step, ``eqNa2`` two steps, suffix ``-pade`` the one-log
second iteration, suffix ``-t`` the transformed accelerator. All
coefficients are kept exactly as published.

A ``SchemeSpec`` decides all a scheme computes, its sine strategy and
constants mode included; ``variant`` sets those two under an id of its
own (``eq6a-sinpade``, ``eq2a1-t-exact``). Each scheme has one
implementation, ``_recipe``: plain arithmetic that runs unchanged on
Python floats and on numpy arrays. ``evaluate_scheme`` (one point) and
``evaluate_scheme_raw`` (arrays) run one input check, ``_check_inputs``,
and then the recipe, so the two agree bit for bit.
"""

import math
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from . import kernels
from .core import (
    MIN_NORMALIZED_ROUGH,
    DomainError,
    FlowPoint,
    FrictionIterate,
    colebrook_rhs_raw,
    starter_eq2_raw,
)


class SchemeError(ValueError):
    """Invalid scheme composition or unknown scheme id."""


class RegistryError(SchemeError):
    """Scheme id not present in the registry."""


def _check_choice(name, value, allowed):
    if value not in allowed:
        raise SchemeError(f"unknown {name} {value!r}; one of {', '.join(allowed)}")


# the transformed step's (2*log10(3.71), 2/ln 10) per constants mode: the
# published truncations or full precision
_TRANSFORMED_CONSTANTS = {
    "published": (1.1387478, 0.8686),
    "exact": (2.0 * math.log10(3.71), 2.0 / math.log(10.0)),
}
CONSTANTS_MODES = tuple(_TRANSFORMED_CONSTANTS)


def transformed_constants(mode: str) -> tuple:
    """(2*log10(3.71), 2/ln 10) as published truncations or full precision."""
    _check_choice("constants mode", mode, CONSTANTS_MODES)
    return _TRANSFORMED_CONSTANTS[mode]


def _make_sine(strategy):
    """Build an array sine callable for a strategy plus a fallback counter.

    Kernel strategies evaluate the rational/polynomial approximant inside
    the accuracy window and fall back to the exact sine outside it; the
    counter reports how many arguments fell back.
    """
    if strategy == "exact":
        return np.sin, lambda: 0
    fallbacks = []

    def sine(arg):
        value, ok = kernels.sin_kernel(arg, strategy)
        n_out = int(np.size(arg) - np.count_nonzero(ok))
        fallbacks.append(n_out)
        if n_out:
            return np.where(ok, value, np.sin(arg))
        return value

    return sine, lambda: sum(fallbacks)


def _point_sine(strategy):
    """The sine of one float: the kernel value inside the window, the
    exact sine outside it, as ``_make_sine`` picks per element. The
    window test compares Python floats, which cost far less than numpy
    scalars; the kernel rounds a float as it rounds an array element."""
    kernel = kernels.SIN_KERNELS[strategy]
    lo, hi = kernels.SIN_WINDOW

    def sine(arg):
        x = float(arg)
        return kernel(x) if lo < x < hi else np.sin(arg)

    return sine


_POINT_SINES = {"exact": np.sin, "pade": _point_sine("pade"), "quintic": _point_sine("quintic")}


# ---------------------------------------------------------------------------
# raw starters, polymorphic over floats and arrays
# ---------------------------------------------------------------------------

def starter_eq3_raw(a, b):
    # x0 = 3.13*b - 1.56*b^2/a
    return 3.13 * b - 1.56 * b * b / a


def starter_eq4_raw(a, b, sin=np.sin):
    # x0 = b + 0.904*a + 1.08*sin(0.937*a - b) - 1.85
    return b + 0.904 * a + 1.08 * sin(0.937 * a - b) - 1.85


def starter_eq5_raw(a, b, sin=np.sin):
    return (
        a + 0.61 * b + 0.28 * a * b + 0.51 * sin(0.935 * a - b)
        - 0.894 - 0.103 * a * a - 0.158 * b * b
    )


def starter_eq6_raw(a, b, sin=np.sin):
    s = sin(0.939 * a - b)  # one sine evaluation; the square reuses it
    return (
        1.15 * a + 0.569 * b + 0.292 * a * b + 0.478 * s + 0.122 * s * s
        - 1.284 - 0.12 * a * a - 0.162 * b * b
    )


_SINE_STARTER_FNS = {"eq4": starter_eq4_raw, "eq5": starter_eq5_raw, "eq6": starter_eq6_raw}
# the starters with a sine term; only these take a kernel sine strategy
SINE_STARTERS = tuple(_SINE_STARTER_FNS)


def theta_raw(re, rel_rough, x):
    """theta = -2.51*3.71*x / ((eps/D)*Re) of the transformed step;
    negative for every in-domain point with positive roughness. No
    validation."""
    return -2.51 * 3.71 * x / (rel_rough * re)


# ---------------------------------------------------------------------------
# scheme registry
# ---------------------------------------------------------------------------

_STARTERS = ("eq2", "eq3", "eq4", "eq5", "eq6")
_ACCEL_FORMS = ("direct", "transformed")
_LOG_STRATEGIES = ("exact", "pade-one-log")
SIN_STRATEGIES = ("exact", "pade", "quintic")


@dataclass(frozen=True, slots=True)
class SchemeSpec:
    """A named, composable recipe: starter, acceleration steps and form,
    log strategy, sine strategy, and the constants mode of transformed
    steps. The spec decides everything the scheme computes; a registered
    id determines the rest via the registry, a ``variant`` id names its
    settings in suffixes."""

    id: str
    starter: str
    accel_steps: int = 0
    accel_form: str = "direct"
    log_strategy: str = "exact"
    sin_strategy: str = "exact"
    constants: str = "published"

    def __post_init__(self):
        _check_choice("starter", self.starter, _STARTERS)
        if self.accel_steps < 0:
            raise SchemeError(f"accel_steps must be >= 0, got {self.accel_steps}")
        _check_choice("accel_form", self.accel_form, _ACCEL_FORMS)
        _check_choice("log_strategy", self.log_strategy, _LOG_STRATEGIES)
        _check_choice("sin_strategy", self.sin_strategy, SIN_STRATEGIES)
        _check_choice("constants mode", self.constants, CONSTANTS_MODES)
        one_log = self.log_strategy == "pade-one-log"
        if one_log and (self.accel_steps, self.accel_form) != (2, "direct"):
            # the trick replaces the second of exactly two direct logs
            raise SchemeError("pade-one-log requires accel_steps = 2 and the direct form")
        if self.starter not in SINE_STARTERS and self.sin_strategy != "exact":
            raise SchemeError(
                f"starter {self.starter} contains no sine; sin_strategy must be exact"
            )
        if not self.transformed and self.constants != "published":
            raise SchemeError(f"{self.id} has no transformed step; constants must be published")

    @property
    def transformed(self) -> bool:
        """Whether the scheme takes transformed acceleration steps."""
        return self.accel_steps > 0 and self.accel_form == "transformed"


def _build_registry():
    specs = [
        SchemeSpec("eq2", "eq2", 0),
        SchemeSpec("eq2a1", "eq2", 1),
        SchemeSpec("eq2a2", "eq2", 2),
        SchemeSpec("eq2a2-pade", "eq2", 2, log_strategy="pade-one-log"),
        SchemeSpec("eq3", "eq3", 0),
        SchemeSpec("eq3a", "eq3", 1),
        SchemeSpec("eq4", "eq4", 0),
        SchemeSpec("eq4a", "eq4", 1),
        SchemeSpec("eq5", "eq5", 0),
        SchemeSpec("eq5a", "eq5", 1),
        SchemeSpec("eq6", "eq6", 0),
        SchemeSpec("eq6a", "eq6", 1),
        SchemeSpec("eq2a1-t", "eq2", 1, accel_form="transformed"),
        SchemeSpec("eq2a2-t", "eq2", 2, accel_form="transformed"),
        SchemeSpec("eq3a-t", "eq3", 1, accel_form="transformed"),
        SchemeSpec("eq4a-t", "eq4", 1, accel_form="transformed"),
        SchemeSpec("eq5a-t", "eq5", 1, accel_form="transformed"),
        SchemeSpec("eq6a-t", "eq6", 1, accel_form="transformed"),
    ]
    return MappingProxyType({s.id: s for s in specs})


REGISTRY = _build_registry()

# the accuracy-vs-complexity table enumerates exactly these rows
TABLE1_ROW_IDS = ("eq2a2", "eq6a", "eq5a", "eq2a1", "eq6", "eq5", "eq4a", "eq3a")


def scheme_ids() -> tuple:
    """All registered scheme ids, a stable public contract."""
    return tuple(REGISTRY)


def get_scheme(scheme_id) -> SchemeSpec:
    """Resolve a scheme id; a SchemeSpec is returned as it is.

    Raises:
        RegistryError: id not registered.
    """
    if isinstance(scheme_id, SchemeSpec):
        return scheme_id
    try:
        return REGISTRY[scheme_id]
    except KeyError:
        raise RegistryError(
            f"unknown scheme id {scheme_id!r}; registered: {', '.join(REGISTRY)}"
        ) from None


def variant(spec, sin_strategy: str = "exact", constants: str = "published") -> SchemeSpec:
    """A scheme (spec or registered id) with a sine strategy and a
    constants mode applied, under an id that names them: ``eq6a-sinpade``
    for a kernel sine in a sine-bearing starter, ``eq2a1-t-exact`` for
    full-precision constants in a transformed step. A setting with no
    effect on the scheme leaves it as it is. Raises SchemeError for an
    unknown strategy or mode."""
    spec = get_scheme(spec)
    _check_choice("sin_strategy", sin_strategy, SIN_STRATEGIES)
    _check_choice("constants mode", constants, CONSTANTS_MODES)
    sid, changes = spec.id, {}
    if sin_strategy != "exact" and spec.starter in SINE_STARTERS:
        sid += f"-sin{sin_strategy}"
        changes["sin_strategy"] = sin_strategy
    if constants != "published" and spec.transformed:
        sid += f"-{constants}"
        changes["constants"] = constants
    return replace(spec, id=sid, **changes) if changes else spec


def _check_inputs(spec, re_min, re_max, rough_min, rough_max):
    """Raise DomainError unless the extremes of a scheme's Re and eps/D
    (one point's values, twice) are finite with Re > 0 and eps/D >= 0, as
    in ``FlowPoint``, and meet the scheme's preconditions: eps/D at least
    the smooth floor for a normalized starter, Re > 1 for eq3 (a = log10
    Re must be positive), eps/D > 0 for a transformed step. A NaN makes
    both extremes NaN."""
    if not 0.0 < re_min <= re_max < math.inf:
        raise DomainError(f"re must be positive and finite, got values in [{re_min}, {re_max}]")
    if not 0.0 <= rough_min <= rough_max < math.inf:
        raise DomainError(
            f"rel_rough must be non-negative and finite, got values in [{rough_min}, {rough_max}]"
        )
    if spec.starter != "eq2" and rough_min < MIN_NORMALIZED_ROUGH:
        raise DomainError(
            f"normalized starters require rel_rough >= {MIN_NORMALIZED_ROUGH}, "
            f"got {rough_min}"
        )
    if spec.starter == "eq3" and not re_min > 1.0:
        raise DomainError(f"starter eq3 requires a = log10(Re) > 0, got re={re_min}")
    if spec.transformed and not rough_min > 0.0:
        raise DomainError("transformed acceleration undefined for rel_rough = 0")


def _recipe(spec, re, rel_rough, sine):
    """The scheme's arithmetic: normalization, starter, then the
    acceleration steps or the one-log step.

    Runs unchanged on Python floats and on numpy arrays, and does no
    validation; the callers check the inputs and pass the sine.
    b = -log10(eps/D) is computed once and reused by transformed steps.
    """
    b = None
    if spec.starter == "eq2":
        x = starter_eq2_raw(re, rel_rough)
    else:
        a = np.log10(re)
        b = -np.log10(rel_rough)
        if spec.starter == "eq3":
            x = starter_eq3_raw(a, b)
        else:
            x = _SINE_STARTER_FNS[spec.starter](a, b, sin=sine)
    if spec.log_strategy == "pade-one-log":
        return kernels.one_log_second_iteration_raw(re, rel_rough, x)[0]
    if spec.transformed:
        c1, c2 = _TRANSFORMED_CONSTANTS[spec.constants]
        if b is None:
            b = -np.log10(rel_rough)
        for _ in range(spec.accel_steps):
            x = c1 + 2.0 * b - c2 * np.log(1.0 - theta_raw(re, rel_rough, x))
    else:
        for _ in range(spec.accel_steps):
            x = colebrook_rhs_raw(re, rel_rough, x)
    return x


def evaluate_scheme(spec, point: FlowPoint) -> FrictionIterate:
    """Run a scheme at one point: starter, then acceleration steps.

    Runs the check and the recipe of ``evaluate_scheme_raw`` on Python
    floats, so the result equals the vector path's bit for bit.

    Args:
        spec: a SchemeSpec or a registered scheme id.
        point: flow conditions satisfying the starter's preconditions.

    Returns:
        The final iterate; its step equals the scheme's accel_steps.

    Raises:
        DomainError: the point fails ``_check_inputs``, or the result is
            not positive and finite.
    """
    spec = get_scheme(spec)
    re, rel_rough = float(point.re), float(point.rel_rough)
    _check_inputs(spec, re, re, rel_rough, rel_rough)
    x = _recipe(spec, re, rel_rough, _POINT_SINES[spec.sin_strategy])
    return FrictionIterate(float(x), step=spec.accel_steps)


def evaluate_scheme_raw(spec, re, rel_rough):
    """Vectorized scheme evaluation over arrays of (Re, eps/D).

    Returns:
        (x, sine_fallbacks): final x array and the count of sine-kernel
        arguments that fell outside the accuracy window and used the
        exact sine instead.

    Raises:
        DomainError: the extremes of Re or eps/D fail ``_check_inputs``.
    """
    spec = get_scheme(spec)
    re = np.asarray(re, dtype=float)
    rel_rough = np.asarray(rel_rough, dtype=float)
    if re.size and rel_rough.size:
        _check_inputs(spec, re.min(), re.max(), rel_rough.min(), rel_rough.max())
    sine, count = _make_sine(spec.sin_strategy)
    return _recipe(spec, re, rel_rough, sine), count()
