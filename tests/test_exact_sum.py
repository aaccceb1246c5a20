"""The exact sum behind the mean error: ``stats_of``'s mean equals the
``math.fsum`` mean bit for bit."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from colebrook import evaluation

pytest.importorskip("hypothesis", reason="hypothesis drives the property tests")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

MAX = 1.7976931348623157e308
TINY = 5e-324
SMALLEST_NORMAL = 2.2250738585072014e-308


def _from_fields(sign, field, mantissa):
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | field << 52 | mantissa))[0]


# finite float64 values with the exponent field drawn evenly over its whole
# range, the subnormals, and the usual boundary values
_ANY_EXPONENT = st.builds(
    _from_fields, st.integers(0, 1), st.integers(0, 0x7FE), st.integers(0, 2**52 - 1)
)
_SUBNORMAL = st.builds(_from_fields, st.integers(0, 1), st.just(0), st.integers(0, 2**52 - 1))
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _ANY_EXPONENT,
    _SUBNORMAL,
    st.sampled_from([0.0, -0.0, TINY, SMALLEST_NORMAL, MAX, 1.0, 1e16]),
)


@st.composite
def _cancelling(draw):
    """A list where some terms also appear negated, in shuffled order."""
    xs = draw(st.lists(FINITE, min_size=1, max_size=40))
    mirrored = draw(st.lists(st.sampled_from(xs), max_size=len(xs)))
    return draw(st.permutations(xs + [-x for x in mirrored]))


def _outcome(fn, arg):
    """The result's exact bits, or the overflow."""
    try:
        return fn(arg).hex()
    except OverflowError:
        return "OverflowError"


def _map_of(values):
    """An error map of the values, at distinct coordinates."""
    x = np.asarray(values, dtype=float)
    n = x.size
    lam = np.full(n, 0.02)
    return evaluation.ErrorMap(None, np.arange(1.0, n + 1), np.full(n, 1e-4), lam, lam, x)


def _mean(xs):
    return evaluation.stats_of(_map_of(xs)).mean_pct


def _fsum_mean(xs):
    return math.fsum(xs) / len(xs)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.lists(FINITE, min_size=1, max_size=80), _cancelling()))
@example([1e16, 1.0, -1e16])
@example([TINY])
@example([-TINY, SMALLEST_NORMAL])
@example([-0.0])
@example([0.0, -0.0, 0.0])
@example([MAX, MAX])
@example([MAX, 9.979201547673599e291])  # a tie at the top of the range rounds to inf
@example([-8e307, -8e307, 1.7e308, 1e308])
@example([MAX, MAX, -MAX])  # a running sum overflows, the total does not
@example([MAX, -MAX, TINY])  # sigma past the float range, with tiny remainders
@example([-MAX, 2.0**-1070, MAX, -3 * TINY])
def test_equals_fsum(xs):
    assert _outcome(_mean, xs) == _outcome(_fsum_mean, xs)


@settings(max_examples=300, deadline=None)
@given(st.lists(FINITE.map(abs), min_size=1, max_size=80))
@example([MAX, MAX])
@example([MAX / 2, MAX / 2, 2.0**970])
def test_nonnegative_sum_overflows_exactly_when_fsum_does(xs):
    # error maps are non-negative: there no running sum exceeds the total
    assert _outcome(_mean, xs) == _outcome(_fsum_mean, xs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_large_arrays_spanning_the_exponent_range(seed):
    rng = np.random.default_rng(seed)
    n = 20_000
    x = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-1074, 960, n))
    x[: n // 4] = np.abs(x[: n // 4])  # a long run of one sign
    x = np.concatenate([x, -x[::3], [1e16, 1.0, -1e16]])
    assert _mean(x).hex() == _fsum_mean(x.tolist()).hex()


@pytest.mark.parametrize("xs", [
    [math.inf, 1.0],
    [2.0, -math.inf],
    [math.inf, math.inf, -3.0],
])
def test_nonfinite_entries_sum_as_in_fsum(xs):
    assert _mean(xs) == _fsum_mean(xs)


@pytest.mark.parametrize("xs", [[math.nan, 1.0], [math.inf, math.nan]])
def test_nan_entries_are_refused(xs):
    # fsum gives nan; a map with a NaN error has no stats
    with pytest.raises(evaluation.ConfigError):
        _mean(xs)


@pytest.mark.parametrize("xs,error", [
    ([math.inf, -math.inf, 1.0], ValueError),
    ([math.inf, MAX, MAX], OverflowError),
])
def test_nonfinite_entries_raise_as_in_fsum(xs, error):
    with pytest.raises(error):
        _fsum_mean(xs)
    with pytest.raises(error):
        _mean(xs)


def test_mixed_exponents_cancellation_and_nonfinite_entries():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1000) * np.ldexp(1.0, rng.integers(-1074, 900, 1000))
    x = np.concatenate([x, -x[::2], [TINY, -0.0, 1e16, 1.0, -1e16, math.inf]])
    assert _mean(x) == _fsum_mean(x.tolist())
    assert _mean(x[:-1]).hex() == _fsum_mean(x[:-1].tolist()).hex()


def test_accepts_any_layout():
    x = np.arange(12.0).reshape(3, 4) * 0.1
    assert _mean(x.T) == _fsum_mean(x.ravel().tolist())
    assert _mean([0.1, 0.2, 0.3]) == _fsum_mean([0.1, 0.2, 0.3])


# below 2**1000 in magnitude no sum of 80 terms overflows, so the pieces'
# total is compared with fsum alone
_BOUNDED_OR_INF = st.one_of(
    FINITE.filter(lambda x: abs(x) < 2.0**1000), st.sampled_from([math.inf, -math.inf])
)


@st.composite
def _split(draw):
    """(values, cut points): an array and where to cut it into pieces,
    empty pieces included."""
    xs = draw(st.lists(_BOUNDED_OR_INF, min_size=1, max_size=80))
    cuts = sorted(draw(st.lists(st.integers(0, len(xs)), max_size=6)))
    return xs, cuts


def _sum_outcome(fn):
    try:
        return fn().hex()
    except ValueError:  # inf + -inf
        return "ValueError"


def _finish(x, units, radius):
    """The fold's finish on the map of x, one block, with its sum
    enclosure replaced by (units, radius)."""
    em = _map_of(x)
    fold = evaluation._fold_block(x, em.re, em.rel_rough, evaluation._tail(x.size),
                                  float(np.abs(x).max()))
    return evaluation._finish_stats(em, x.size, fold._replace(units=units, radius=radius))


def _units_of(values):
    """The exact sum of finite values, in units of 2**-1074."""
    total = sum(map(Fraction, values), Fraction(0)) * 2**1074
    assert total.denominator == 1
    return total.numerator


@settings(max_examples=400, deadline=None)
@given(_split())
@example(([TINY, -TINY, SMALLEST_NORMAL, -0.0], [1, 1, 3]))
@example(([1e16, 1.0, -1e16, math.inf], [1, 2]))
@example(([1.0, 2.0**-54, 2.0**-54], []))  # a rounding midpoint
@example(([2.0**1020, 1.0, -2.0**1020], [2]))  # sigma at the top of the float range
@example(([2.0**1020, 1.0, -2.0**1020], []))  # sigma past the float range
def test_enclosures_of_pieces_give_the_sum(case):
    # a scan encloses each block's sum with one extraction level, adds the
    # enclosures and rounds the map's sum from them, or takes fsum's when
    # their ends round apart or a piece has no certificate
    xs, cuts = case
    x = np.array(xs)
    units, radius = 0, 0
    for piece in np.split(x, cuts):
        top = np.max(np.abs(piece), initial=0.0)
        piece_units, piece_radius = evaluation._one_level_sum(piece, top)
        if not np.isfinite(piece).all():
            assert piece_radius is None
        if piece_radius is None:
            # withheld only for inf entries or sums near the float range
            assert not math.isfinite(top) or top >= 2.0**1000
            radius = None
            continue
        assert abs(_units_of(piece.tolist()) - piece_units) <= piece_radius
        units += piece_units
        if radius is not None:
            radius += piece_radius
    got = _sum_outcome(lambda: _finish(x, units, radius).mean_pct)
    assert got == _sum_outcome(lambda: _fsum_mean(xs))


@pytest.mark.parametrize("tail, want", [
    ([], 1.0),  # the midpoint 1 + 2**-53 rounds to even
    ([2.0**-100], 1.0 + 2.0**-52),  # just above it rounds up
])
def test_an_enclosure_holding_a_rounding_boundary_is_summed_exactly(tail, want, monkeypatch):
    x = np.zeros(1000)  # padded with zeros
    x[:3 + len(tail)] = [1.0, 2.0**-54, 2.0**-54, *tail]
    units, radius = evaluation._one_level_sum(x, 1.0)
    assert radius > 0
    calls, fsum = [], math.fsum

    def counted(*args):
        calls.append(args)
        return fsum(*args)

    monkeypatch.setattr(math, "fsum", counted)
    st = _finish(x, units, radius)
    assert len(calls) == 1
    assert math.fsum(x.tolist()) == want
    assert st.mean_pct == want / x.size
    monkeypatch.undo()
    assert st == evaluation.stats_of(_map_of(x))


@pytest.mark.parametrize("head", [
    [-3.0, -1.0],  # no error above zero
    # the terms' float sum, wrongly split, rounds a tie to even, away
    # from the exact sum
    [-(2.0**60 + 256), -128.0, 1.0],
])
def test_negative_entries_set_the_enclosure_by_magnitude(head):
    # the splitting constant must cover max|err|, not the largest error
    x = np.zeros(1000)  # padded with zeros
    x[:len(head)] = head
    assert _mean(x).hex() == _fsum_mean(x.tolist()).hex()
