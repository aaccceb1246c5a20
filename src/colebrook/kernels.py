"""Rational replacements for transcendental calls: a Pade logarithm, the
one-log second acceleration built on it, and two sine approximants.

All kernels are polymorphic over floats and numpy arrays, and each has
that one form: the schemes run the same kernel on a point and on a mesh.
The sine approximants carry an accuracy contract only on the window
(-0.08821, 1.18456); outside it they still return a value, and callers
get the window flag to decide on fallback.
"""

import numpy as np

from .core import DomainError, log10

# full machine precision, not a truncated print
LN10 = 2.302585092994046

SIN_WINDOW = (-0.08821, 1.18456)


def pade_ln(z):
    """Rational [3/3] approximation of ln(z), accurate for z near 1.

    pade_ln(1) = 0 exactly. Callers outside roughly [0.5, 2] must treat
    the result as untrusted. Horner nesting is fixed for bit
    reproducibility.

    Raises:
        DomainError: z <= 0 or NaN anywhere in the input.
    """
    if isinstance(z, (int, float)):
        z = float(z)
        if not z > 0.0:
            raise DomainError(f"pade_ln requires z > 0, got {z}")
    else:
        z = np.asanyarray(z, dtype=float)
        if not np.all(z > 0.0):
            raise DomainError("pade_ln requires z > 0")
    num = z * (z * (11.0 * z + 27.0) - 27.0) - 11.0
    den = z * (z * (3.0 * z + 27.0) + 27.0) + 3.0
    return num / den


def pade_sin(x):
    """Rational approximation sin(x) ~= x*(60 - 7*x^2)/(60 + 3*x^2).

    The [3/2] Pade approximant of sin at 0. Odd by construction:
    pade_sin(-x) = -pade_sin(x) exactly.

    Published window figure: 0.068% relative error on SIN_WINDOW. That
    is the exact window maximum, 0.068805% at the open upper end, cut to
    three decimals; it is not a strict bound.
    """
    x2 = x * x
    return x * (60.0 - 7.0 * x2) / (60.0 + 3.0 * x2)


def quintic_sin(x):
    """Quintic polynomial sine approximant.

    sin(x) ~= x - x^2/5350.6747 - x^3/6.0171 + x^5/127.4678 with the
    published coefficients; the powers are written as products, which
    round the same on a float as inside an array (``**`` does not). The
    x^2 term makes it slightly non-odd; that is preserved, not repaired.

    Published window figure: 0.003% relative error on SIN_WINDOW, a
    strict bound; the exact window maximum is 0.0025056%, at the open
    upper end.
    """
    x2 = x * x
    x3 = x2 * x
    return x - x2 / 5350.6747 - x3 / 6.0171 + x3 * x2 / 127.4678


# sine strategy -> kernel
SIN_KERNELS = {"pade": pade_sin, "quintic": quintic_sin}


def in_sin_window(x):
    """True where x lies strictly inside the sine accuracy window."""
    lo, hi = SIN_WINDOW
    return (lo < x) & (x < hi)


def sin_kernel(x, strategy):
    """Evaluate a sine replacement plus its in-window flag.

    Args:
        x: argument, scalar or array.
        strategy: "pade" or "quintic".

    Returns:
        (value, ok) where ok marks arguments inside the accuracy window.
    """
    try:
        kernel = SIN_KERNELS[strategy]
    except KeyError:
        raise DomainError(f"unknown sine kernel strategy {strategy!r}") from None
    return kernel(x), in_sin_window(x)


def one_log_second_iteration_raw(re, rel_rough, x0, x1=None):
    """Two acceleration steps with a single real logarithm, on floats or
    arrays.

    First step: y1 = 2.51*x0/Re + (eps/D)/3.71, x1 = -2*log10(y1), the one
    real logarithm. Second step: y2 from x1, z = y1/y2 (very close to 1),
    and log10(y2) = log10(y1) - pade_ln(z)/ln(10), where log10(y1) is
    -x1/2, exactly.

    ``x1``, the first step from x0, is taken as given when the caller has
    it (a scheme memo holds it from the first direct step, which rounds
    as this one does); then no logarithm is taken.

    Returns:
        (x2, z), shaped like the inputs.
    """
    y1 = 2.51 * x0 / re + rel_rough / 3.71
    if x1 is None:
        x1 = -2.0 * log10(y1)
    y2 = 2.51 * x1 / re + rel_rough / 3.71
    z = y1 / y2
    log10_y2 = -0.5 * x1 - pade_ln(z) / LN10
    return -2.0 * log10_y2, z
