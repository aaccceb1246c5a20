"""Independent correctness checks for the benchmark's outputs.

Each check is one attempted operation; a failed check counts one failed
operation and never aborts the run. The references here share no code
with the package: a float64 Newton solve and a 40-digit mpmath root.
"""

import math

import numpy as np

NEWTON_STEPS = 8
ORACLE_RTOL = 1e-12
# math.log10 and np.log10 differ by 1 ulp on a few percent of inputs; the
# transformed step sums terms up to ~13 into an x as small as ~3.6, so such
# differences can surface as up to ~8 ulp of x (6 seen on 300k points)
SCALAR_ULPS = 16
MP_DIGITS = 40
CSV_COLUMNS = ("re", "rel_rough", "lambda_ref", "lambda_approx", "rel_err_pct")


class Checker:
    """Counts attempted and failed checks and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return bool(ok)

    def check_many(self, ok, what):
        """One check per element of the boolean array ``ok``."""
        ok = np.asarray(ok, dtype=bool)
        bad = int(ok.size - np.count_nonzero(ok))
        self.attempted += ok.size
        self.failed += bad
        if bad and len(self.notes) < 20:
            self.notes.append(f"{what} ({bad} of {ok.size})")


def newton_lambda(re, rel_rough):
    """Darcy lambda from a float64 Newton solve of
    F(x) = x + 2 log10(2.51 x / Re + (eps/D) / 3.71) = 0, x = 1/sqrt(lambda).

    Starts from the Swamee-Jain estimate (a few percent off); F is
    increasing and concave in x, so eight steps reach the float64 root
    from there.
    """
    re = np.asarray(re, dtype=float)
    rr = np.asarray(rel_rough, dtype=float)
    c = 2.0 / math.log(10.0)
    x = -2.0 * np.log10(rr / 3.7 + 5.74 / re ** 0.9)
    for _ in range(NEWTON_STEPS):
        y = 2.51 * x / re + rr / 3.71
        x = x - (x + 2.0 * np.log10(y)) / (1.0 + c * (2.51 / re) / y)
    return x ** -2.0


def oracle_agrees(checker, lam_oracle, lam_newton, what):
    """One check: every oracle lambda within ORACLE_RTOL of the Newton one."""
    lam_oracle = np.asarray(lam_oracle)
    rel = np.abs(lam_oracle - lam_newton) / lam_newton
    return checker.check(
        lam_oracle.shape == lam_newton.shape and bool(np.all(rel <= ORACLE_RTOL)),
        f"{what}: oracle lambda off the Newton solve by {float(np.nanmax(rel)):.3g}",
    )


def mp_max_relerr(re, rel_rough, lam):
    """Largest relative error of float64 lambdas against mpmath.findroot
    roots of the same equation at MP_DIGITS significant digits.

    The equation's constants are the float64 values the package uses, so
    this measures the solver alone. The error is taken against the
    unrounded root, so it is never exactly zero.
    """
    import mpmath

    worst = mpmath.mpf(0)
    with mpmath.workdps(MP_DIGITS):
        c1, c2 = mpmath.mpf(2.51), mpmath.mpf(3.71)
        for r, e, lam_f in zip(np.asarray(re).tolist(), np.asarray(rel_rough).tolist(),
                               np.asarray(lam).tolist()):
            r, e = mpmath.mpf(r), mpmath.mpf(e)
            x = mpmath.findroot(
                lambda x: x + 2 * mpmath.log10(c1 * x / r + e / c2), mpmath.mpf(lam_f) ** -0.5
            )
            lam_ref = x ** -2
            worst = max(worst, abs((mpmath.mpf(lam_f) - lam_ref) / lam_ref))
    return float(worst)


def maps_equal(a, b):
    """True when two ErrorMaps hold identical values in every CSV column."""
    return all(
        np.array_equal(getattr(a, col), getattr(b, col)) for col in CSV_COLUMNS
    )


def pgm_ok(path, width, height):
    """True when the file is a P2 graymap of width x height samples in 0..255."""
    try:
        with open(path, "r", encoding="ascii") as f:
            tokens = f.read().split()
    except (OSError, UnicodeDecodeError):
        return False
    if tokens[:4] != ["P2", str(width), str(height), "255"]:
        return False
    samples = tokens[4:]
    return len(samples) == width * height and all(
        s.isdigit() and int(s) <= 255 for s in samples
    )
