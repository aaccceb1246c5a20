"""Explicit starters for the friction equation, the fixed-point
acceleration in direct and transformed form, and a registry that
composes them into named schemes.

Scheme naming: ``eqN`` is a bare starter, ``eqNa``/``eqNa1`` one
acceleration step, ``eqNa2`` two steps, suffix ``-pade`` the one-log
second iteration, suffix ``-t`` the transformed accelerator. All
coefficients are kept exactly as published.

Each starter is declared once, as a row of ``_STARTERS``: its raw
function; whether it takes the normalized (a, b) = (log10 Re, -log10
eps/D) rather than (Re, eps/D); whether it has a sine, taken as ``sin``,
and so a kernel sine strategy; whether it requires a = log10(Re) > 0.
Every reader of a starter fact takes it from the row, not from a name.

A ``SchemeSpec`` decides all a scheme computes, its sine strategy and
constants mode included; ``variant`` sets those two under an id of its
own (``eq6a-sinpade``, ``eq2a1-t-exact``). Each scheme has one
implementation, ``_recipe``: plain arithmetic that runs unchanged on
Python floats and on numpy arrays, after one input check,
``_check_inputs``. One point (``evaluate_scheme``) and arrays
(``evaluate_scheme_raw``, the scan's blocks) agree bit for bit.

Arrays go through ``_evaluate_block``, which checks every spec on the
extremes in input order before it computes anything, then runs the
specs grouped by starter. Schemes of one starter form prefix chains
(``eqNa`` is one step on ``eqN``, ``eq2a2`` on ``eq2a1``): a group
computes each shared starter and step once through one memo, and its
exact prefixes call ``np.sin`` once, in the starter. ``eq2a2-pade``
takes its first step from the memo when ``eq2a1`` put it there. A kernel
sine equals the exact sine outside its window, so there a kernel-sine
scheme is its exact prefix, bit for bit. When the starter's schemes take
two or more sine strategies, the group computes that prefix once (if no
exact scheme asked for it, then for the kernel schemes alone), and runs
each kernel strategy's recipe, through a memo of its own, on the points
whose sine argument lies inside the window only; the others are its
sine fallbacks. When a kernel is the starter's only strategy, its recipe
runs once over the block, with a sine that takes the kernel inside the
window and ``np.sin`` at the fallbacks, as ``_point_sine`` does per
element. (a, b) are computed once per block when two or more recipes
take them (a kernel-sine scheme of the first kind runs two), else by the
one recipe, which takes only the logs it uses. Each starter's memos are
released before the next starter's group runs.
"""

import math
import operator
from collections import namedtuple
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
    ln,
    log10,
    sin,
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


def _plain_sine(strategy):
    """The array sine of a strategy with no fallback: ``np.sin``, or the
    kernel alone, which ``_evaluate_block`` runs on window points only."""
    return np.sin if strategy == "exact" else kernels.SIN_KERNELS[strategy]


def _point_sine(kernel):
    """The sine of one float: the kernel value inside the window, the
    exact sine outside it, as ``_evaluate_block`` picks per element. The
    kernel rounds a float as it rounds an array element."""
    lo, hi = kernels.SIN_WINDOW
    return lambda x: kernel(x) if lo < x < hi else sin(x)


_POINT_SINES = {"exact": sin, **{k: _point_sine(fn) for k, fn in kernels.SIN_KERNELS.items()}}


def _block_sine(kernel, fallbacks):
    """The array sine of ``_point_sine``: the kernel at the arguments
    inside the window, ``np.sin`` at the others, whose count it appends to
    ``fallbacks``. Each is taken on its own points only."""

    def sine(arg):
        arg = np.asarray(arg)
        inside = kernels.in_sin_window(arg)
        s = np.sin(arg, out=np.empty_like(arg), where=~inside)
        s[inside] = kernel(arg[inside])
        fallbacks.append(s.size - int(np.count_nonzero(inside)))
        return s

    return sine


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


# the one declaration of each starter, as the module docstring sets out
_Starter = namedtuple("_Starter", "fn normalized sine positive_a", defaults=(False, False))
_STARTERS = {
    "eq2": _Starter(starter_eq2_raw, normalized=False),
    "eq3": _Starter(starter_eq3_raw, normalized=True, positive_a=True),
    "eq4": _Starter(starter_eq4_raw, normalized=True, sine=True),
    "eq5": _Starter(starter_eq5_raw, normalized=True, sine=True),
    "eq6": _Starter(starter_eq6_raw, normalized=True, sine=True),
}


def theta_raw(re, rel_rough, x):
    """theta = -2.51*3.71*x / ((eps/D)*Re) of the transformed step;
    negative for every in-domain point with positive roughness. No
    validation."""
    return -2.51 * 3.71 * x / (rel_rough * re)


# ---------------------------------------------------------------------------
# scheme registry
# ---------------------------------------------------------------------------

_ACCEL_FORMS = ("direct", "transformed")
_LOG_STRATEGIES = ("exact", "pade-one-log")
SIN_STRATEGIES = ("exact", *kernels.SIN_KERNELS)


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
        try:
            steps = operator.index(self.accel_steps)
        except TypeError:
            raise SchemeError(
                f"accel_steps must be an integer, got {self.accel_steps!r}"
            ) from None
        if steps < 0:
            raise SchemeError(f"accel_steps must be >= 0, got {steps}")
        _check_choice("accel_form", self.accel_form, _ACCEL_FORMS)
        _check_choice("log_strategy", self.log_strategy, _LOG_STRATEGIES)
        _check_choice("sin_strategy", self.sin_strategy, SIN_STRATEGIES)
        _check_choice("constants mode", self.constants, CONSTANTS_MODES)
        one_log = self.log_strategy == "pade-one-log"
        if one_log and (self.accel_steps, self.accel_form) != (2, "direct"):
            # the trick replaces the second of exactly two direct logs
            raise SchemeError("pade-one-log requires accel_steps = 2 and the direct form")
        if not _STARTERS[self.starter].sine and self.sin_strategy != "exact":
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


def _applies(spec, name, value, default):
    """Whether ``variant`` sets ``name`` to value: not to the default or the
    spec's own value; SchemeError over another non-default value."""
    current = getattr(spec, name)
    if value in (default, current):
        return False
    if current != default:
        raise SchemeError(f"{spec.id} already has {name} {current!r}; cannot apply {value!r}")
    return True


def variant(spec, sin_strategy: str = "exact", constants: str = "published") -> SchemeSpec:
    """A scheme (spec or registered id) with a sine strategy and a
    constants mode applied, under an id that names them: ``eq6a-sinpade``
    for a kernel sine in a sine-bearing starter, ``eq2a1-t-exact`` for
    full-precision constants in a transformed step; with both, the sine
    comes first (``eq6a-t-sinpade-exact``) in whichever order they were
    applied. A setting with no effect on the scheme, or one it already
    has, leaves it as it is. Raises SchemeError for an unknown or a
    conflicting setting."""
    spec = get_scheme(spec)
    _check_choice("sin_strategy", sin_strategy, SIN_STRATEGIES)
    _check_choice("constants mode", constants, CONSTANTS_MODES)
    # the constants suffix stays last, whichever setting was applied first
    sid, last, changes = spec.id, "", {}
    if spec.constants != "published" and sid.endswith(f"-{spec.constants}"):
        sid, last = sid[:-len(spec.constants) - 1], f"-{spec.constants}"
    if _STARTERS[spec.starter].sine and _applies(spec, "sin_strategy", sin_strategy, "exact"):
        sid += f"-sin{sin_strategy}"
        changes["sin_strategy"] = sin_strategy
    if spec.transformed and _applies(spec, "constants", constants, "published"):
        last = f"-{constants}"
        changes["constants"] = constants
    return replace(spec, id=sid + last, **changes) if changes else spec


def _check_inputs(spec, re_min, re_max, rough_min, rough_max):
    """Raise DomainError unless the extremes of a scheme's Re and eps/D
    (one point's values, twice) are finite with Re > 0 and eps/D >= 0, as
    in ``FlowPoint``, and meet the scheme's preconditions: eps/D at least
    the smooth floor for a normalized starter, Re > 1 for one that needs
    a = log10 Re > 0, eps/D > 0 for a transformed step; the message
    of a failed precondition names the scheme. A NaN makes both extremes
    NaN."""
    if not 0.0 < re_min <= re_max < math.inf:
        raise DomainError(f"re must be positive and finite, got values in [{re_min}, {re_max}]")
    if not 0.0 <= rough_min <= rough_max < math.inf:
        raise DomainError(
            f"rel_rough must be non-negative and finite, got values in [{rough_min}, {rough_max}]"
        )
    row = _STARTERS[spec.starter]
    if row.normalized and rough_min < MIN_NORMALIZED_ROUGH:
        raise DomainError(
            f"{spec.id}: normalized starters require rel_rough >= {MIN_NORMALIZED_ROUGH}, "
            f"got {rough_min}"
        )
    if row.positive_a and not re_min > 1.0:
        raise DomainError(
            f"{spec.id}: starter {spec.starter} requires a = log10(Re) > 0, got re={re_min}"
        )
    if not rough_min > 0.0 and spec.transformed:
        raise DomainError(f"{spec.id}: transformed acceleration undefined for rel_rough = 0")


def _recipe(spec, re, rel_rough, sine, ab=None, memo=None):
    """The scheme's arithmetic: normalization, starter, then the
    acceleration steps or the one-log step.

    Runs unchanged on Python floats and on numpy arrays, and does no
    validation; the callers check the inputs and pass the sine.
    The normalized inputs (a, b) = (log10 Re, -log10 eps/D) are taken
    from ``ab`` when given, else computed here, each at most once, and
    b is reused by transformed steps.

    ``memo``, a dict shared by the schemes of one starter and sine
    strategy over one block of arrays, holds their prefixes: the
    starter, then the result of each acceleration step under its form,
    constants mode and count. A prefix found there is taken as it is,
    and one computed here is stored, so a scheme that extends another's
    prefix computes only its own steps. Without a memo every step is
    computed.
    """
    a, b = (None, None) if ab is None else ab
    x = None if memo is None else memo.get("starter")
    if x is None:
        row = _STARTERS[spec.starter]
        if row.normalized and ab is None:
            a, b = log10(re), -log10(rel_rough)
        args = (a, b) if row.normalized else (re, rel_rough)
        x = row.fn(*args, sin=sine) if row.sine else row.fn(*args)
        if memo is not None:
            memo["starter"] = x
    if spec.log_strategy == "pade-one-log":
        # the first direct step, when another scheme of the memo took it
        x1 = None if memo is None else memo.get(("direct", "published", 1))
        return kernels.one_log_second_iteration_raw(re, rel_rough, x, x1)[0]
    transformed = spec.transformed
    if transformed:
        c1, c2 = _TRANSFORMED_CONSTANTS[spec.constants]
        if b is None:
            b = -log10(rel_rough)
    for k in range(1, spec.accel_steps + 1):
        if memo is not None:
            key = (spec.accel_form, spec.constants, k)
            if key in memo:
                x = memo[key]
                continue
        if transformed:
            x = c1 + 2.0 * b - c2 * ln(1.0 - theta_raw(re, rel_rough, x))
        else:
            x = colebrook_rhs_raw(re, rel_rough, x)
        if memo is not None:
            memo[key] = x
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
    if type(spec) is not SchemeSpec:  # a spec would be hashed by the lookup
        spec = REGISTRY.get(spec) or get_scheme(spec)
    re, rel_rough = point.re, point.rel_rough
    _check_inputs(spec, re, re, rel_rough, rel_rough)
    try:
        x = _recipe(spec, re, rel_rough, _POINT_SINES[spec.sin_strategy])
    except ZeroDivisionError:  # an array element gets +-inf, and then a non-finite x
        x = math.nan
    return FrictionIterate(x, spec.accel_steps)


def _window_points(arg, arrays):
    """The flat indices where a sine argument lies inside the kernel
    window, and each array, broadcast to the argument's shape, at them."""
    idx = np.flatnonzero(kernels.in_sin_window(arg))
    shape = np.shape(arg)
    return idx, [np.broadcast_to(v, shape).reshape(-1).take(idx) for v in arrays]


def _evaluate_block(spec_list, re, rel_rough):
    """Check every spec on the extremes of the (Re, eps/D) arrays, unless
    one is empty, and return an iterator of (k, x, sine_fallbacks) per
    spec k, starter by starter, as the module docstring sets out."""
    if re.size and rel_rough.size:
        extremes = (re.min(), re.max(), rel_rough.min(), rel_rough.max())
        for spec in spec_list:
            _check_inputs(spec, *extremes)
    starters = {}
    for k, spec in enumerate(spec_list):
        starters.setdefault(spec.starter, {}).setdefault(spec.sin_strategy, []).append(k)

    def run():
        # a kernel spec beside another sine strategy takes (a, b) twice: on
        # the block and on its window
        takers = sum(
            (_STARTERS[s.starter].normalized or s.transformed)
            * (1 + (s.sin_strategy != "exact" and len(starters[s.starter]) > 1))
            for s in spec_list
        )
        ab = (np.log10(re), -np.log10(rel_rough)) if takers > 1 else None
        for strategies in starters.values():
            # the exact prefixes and the one exact sine, whose argument
            # the starter hands to the sine
            memo, args, idx = {}, [], None

            def exact_sine(arg):
                args.append(arg)
                return np.sin(arg)

            for strategy, group in strategies.items():
                kernel_memo = {}
                if strategy != "exact" and len(strategies) == 1:
                    # no exact prefix to share: one pass over the block; the
                    # memo's starter holds the one sine of the group
                    fallbacks = []
                    sine = _block_sine(kernels.SIN_KERNELS[strategy], fallbacks)
                    for k in group:
                        x = _recipe(spec_list[k], re, rel_rough, sine, ab, kernel_memo)
                        yield k, x, fallbacks[0]
                    continue
                for k in group:
                    spec = spec_list[k]
                    # outside the window a kernel spec is its exact prefix
                    x = _recipe(spec, re, rel_rough, exact_sine, ab, memo)
                    if strategy == "exact":
                        yield k, x, 0
                        continue
                    if idx is None:
                        idx, (re_w, rough_w, *ab_w) = _window_points(
                            args[0], (re, rel_rough, *(ab or ())))
                    x = np.array(x)  # a copy; the memo keeps the exact prefix
                    x.reshape(-1)[idx] = _recipe(
                        spec, re_w, rough_w, _plain_sine(strategy), ab_w or None, kernel_memo)
                    yield k, x, x.size - idx.size

    return run()


def evaluate_scheme_raw(spec, re, rel_rough):
    """Vectorized scheme evaluation over arrays of (Re, eps/D): the check
    and the recipe of ``evaluate_scheme``, run once on whole arrays.

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
    [(_, x, sine_fallbacks)] = _evaluate_block([spec], re, rel_rough)
    return x, sine_fallbacks
