"""``repr`` of float64 arrays, computed for many values at once.

``repr`` writes the shortest decimal that reads back to the same double,
the nearest to it if there are several. ``repr_bytes`` computes the same
digits with Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the method of ``Double.toString`` since JDK 19, in the
family of U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018):
the candidates are the multiples of 10**k and of 10**(k+1) in the value's
rounding interval, and the interval's ends are compared with them after
one multiplication by a 126-bit power of ten, done here on 28-bit limbs
in uint64 arithmetic over the bit patterns. The digits are then laid out
in ``repr``'s format with shifts of three little-endian words per value.

Zeros, inf and nan, and subnormals, whose candidates can have fewer than
the 16 or 17 digits the layout expects, go through ``repr`` one value at
a time. The first call builds the tables once (``_tables``): the
power-of-ten constants of all 617 decimal exponents, from Python ints,
and the 4-digit tables. Nothing is built at import, and
``evaluation`` imports this module only when it first writes a CSV.
"""

import functools

import numpy as np

_U = np.uint64
_LIMB_BITS = _U(28)
_LIMB_MASK = _U((1 << 28) - 1)
# the decimal exponent k of a normal double's candidates lies in [-324, 292]
_K_MIN, _K_MAX = -324, 292


def _pow10_column(k):
    """g's five 28-bit limbs, least significant first, then
    floor(log2(10**-k)) + 2, where g = floor(10**-k / 2**r) + 1 with r
    chosen so that 2**125 <= g < 2**126."""
    e = -k
    log2 = (10 ** e).bit_length() - 1 if e >= 0 else -(10 ** -e).bit_length()
    shift = 125 - log2
    if e < 0:
        g = (1 << shift) // 10 ** -e
    elif shift >= 0:
        g = 10 ** e << shift
    else:
        g = 10 ** e >> -shift
    g += 1
    return [(g >> (28 * i)) & ((1 << 28) - 1) for i in range(5)] + [log2 + 2]


@functools.cache
def _tables():
    """The formatter's constant tables, made by the first call, read-only:
    every decimal exponent's ``_pow10_column`` as one (6, 617) table
    (uint64, the last row mod 2**64), the 4 ASCII digits of each
    v < 10**4 as one little-endian word, and how many of those 4 chars
    run up to the last nonzero digit, -99 for 0."""
    pow10 = np.array([_pow10_column(k) for k in range(_K_MIN, _K_MAX + 1)], np.int64).T
    v = np.arange(10000)
    chars = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
    chars = (chars + ord("0")).astype(np.uint8)
    sig4 = np.where(v > 0, 4 - np.argmax(chars[:, ::-1] != ord("0"), axis=1), -99).astype(np.int8)
    tables = pow10.view(np.uint64), chars.view("<u4").ravel().astype(np.uint64), sig4
    for table in tables:
        table.flags.writeable = False
    return tables


def _round_to_odd(g, x, h):
    """floor(g * x * 2**h / 2**127), its last bit set when the dropped
    fraction is at least 2**-63: Schubfach's ``rop``. g is rounded up, so
    an exact product gains an excess under 2**-65 that must not count.
    g is five 28-bit limbs, x < 2**56 and 2 <= h <= 5; columns of limb
    products are summed in uint64 without overflow."""
    x0, x1 = x & _LIMB_MASK, x >> _LIMB_BITS
    g0, g1, g2, g3, g4 = g
    t = (g0 * x0) >> _LIMB_BITS
    t = ((g1 * x0 + g0 * x1 + t) >> _LIMB_BITS) + g2 * x0 + g1 * x1
    sticky = (t & _LIMB_MASK) >> (_U(8) - h)  # the bits at 2**(64 - h) and up
    t = (t >> _LIMB_BITS) + g3 * x0 + g2 * x1
    sticky |= t & _LIMB_MASK
    t = (t >> _LIMB_BITS) + g4 * x0 + g3 * x1
    cut = _U(15) - h  # the result starts at bit 112 + cut of the product
    sticky |= t & ((_U(1) << cut) - _U(1))
    v = (t >> cut) + ((g4 * x1) << (_U(13) + h))
    return v | (sticky != 0)


def _low_mask(nbits):
    """Masks of the low nbits bits, nbits a uint64 array in [0, 64]."""
    return (_U(1) << nbits) - _U(1)


def _prepend(words, nbits):
    """The 3-word strings with nbits / 8 NUL chars put in front; chars
    pushed past the third word are lost. Char i of a string is byte i of
    its little-endian words."""
    w0, w1, w2 = words
    back = _U(64) - nbits  # numpy shifts a uint64 by 64 or more to 0
    return [w0 << nbits, (w1 << nbits) | (w0 >> back), (w2 << nbits) | (w1 >> back)]


def _shortest(biased, frac):
    """(f, k): Schubfach's decimal f * 10**k for the normal doubles of
    the given biased exponents and fractions, the shortest in the value's
    rounding interval, the nearest if there are several, ties to even."""
    # v = c * 2**q; the candidates are multiples of 10**k and of 10**(k+1),
    # the interval's ends scaled like v by 4 * 10**-k
    c = frac | _U(1 << 52)
    q = biased - 1075
    # a power of two has a lower neighbour twice as close
    uneven = (frac == 0) & (biased > 1)
    k = (q * 661_971_961_083 - uneven * 274_743_187_321) >> 41
    pow10 = np.take(_tables()[0], k - _K_MIN, axis=1)
    # h = q + floor(log2(10**-k)) + 2 lies in [2, 5]; summed mod 2**64
    g, h = pow10[:5], q.view(np.uint64) + pow10[5]
    cb = c << _U(2)
    vb = _round_to_odd(g, cb, h)
    vbl = _round_to_odd(g, cb - _U(2) + uneven, h)
    vbr = _round_to_odd(g, cb + _U(2), h)
    # an even c's interval holds its ends
    odd = c & _U(1)
    s = vb >> _U(2)
    # the one multiple of 10**(k+1) that may lie in the interval
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + odd <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + odd <= vbr
    # else the multiple of 10**k nearest v, ties to even
    t = s + _U(1)
    uin = vbl + odd <= s << _U(2)
    win = (t << _U(2)) + odd <= vbr
    rest = vb & _U(3)
    pick_s = np.where(uin != win, uin, (rest < 2) | ((rest == 2) & ((s & _U(1)) == 0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(pick_s, s, t))
    return f, k


def _layout(f, k, negative):
    """(words, length): f * 10**k as ``repr`` writes it, a string of
    length chars in three little-endian uint64 words, NUL after its end.
    f has 16 or 17 digits; negative (0 or 1) prepends the sign."""
    # scale f to 18 digits, d0..d17 with d0 != 0
    longer = f >= _U(10 ** 16)
    f = (f * np.where(longer, _U(10), _U(100))).view(np.int64)
    decpt = k + 16 + longer  # the value is 0.d0d1... * 10**decpt
    d0_3 = f // 10 ** 14
    f -= d0_3 * 10 ** 14
    d4_7 = f // 10 ** 10
    f -= d4_7 * 10 ** 10
    d8_11 = f // 10 ** 6
    f -= d8_11 * 10 ** 6
    d12_15 = f // 100
    d16_17 = f - d12_15 * 100
    _, digits4, sig4 = _tables()
    words = [
        np.take(digits4, d0_3) | (np.take(digits4, d4_7) << _U(32)),
        np.take(digits4, d8_11) | (np.take(digits4, d12_15) << _U(32)),
        np.take(digits4, d16_17) >> _U(16),
    ]
    # significant digits: up to the last nonzero one
    nd = np.maximum(
        np.maximum(np.take(sig4, d0_3), np.take(sig4, d4_7) + np.int8(4)),
        np.maximum(np.take(sig4, d8_11) + np.int8(8), np.take(sig4, d12_15) + np.int8(12)),
    )
    nd = np.maximum(nd, np.take(sig4, d16_17) + np.int8(14)).astype(np.int64)

    # positional for -4 < decpt < 17: a value under 1 as "0." and zeros,
    # an integer with ".0"; else one digit, the point unless it is the
    # only digit, "e", the exponent's sign and 2 or 3 digits
    fixed = (decpt > -4) & (decpt < 17)
    zeros = np.where(fixed & (decpt <= 0), 1 - decpt, 0)
    if zeros.any():
        zbits = (zeros * 8).view(np.uint64)
        words = _prepend(words, zbits)
        words[0] |= _U(0x30303030) & _low_mask(zbits)
    point = np.where(fixed, decpt + zeros, 1)  # the point goes before char `point`
    length = np.where(fixed, np.maximum(nd + zeros, point + 1) + 1, nd + (nd > 1))
    pbits = (point * 8).view(np.uint64)
    keep0 = _low_mask(np.minimum(pbits, _U(64)))
    keep1 = _low_mask(np.maximum(pbits, _U(64)) - _U(64))
    move0, move1 = words[0] & ~keep0, words[1] & ~keep1
    dot = _U(ord("."))
    words = [
        (words[0] & keep0) | (move0 << _U(8)) | (dot << pbits),
        (words[1] & keep1) | (move1 << _U(8)) | (move0 >> _U(56)) | (dot << (pbits - _U(64))),
        (words[2] << _U(8)) | (move1 >> _U(56)) | (dot << (pbits - _U(128))),
    ]
    lbits = (length * 8).view(np.uint64)
    words[0] &= _low_mask(np.minimum(lbits, _U(64)))
    words[1] &= _low_mask(np.clip(lbits, _U(64), _U(128)) - _U(64))
    words[2] &= _low_mask(np.maximum(lbits, _U(128)) - _U(128))
    sci = ~fixed
    if sci.any():
        exponent = decpt - 1
        three = np.abs(exponent) >= 100
        tail = np.take(digits4, np.abs(exponent)) >> ((_U(2) - three) * _U(8))
        tail = (tail << _U(16)) | np.where(exponent < 0, _U(0x2D65), _U(0x2B65))  # "e-", "e+"
        tail *= sci
        words[0] |= tail << lbits
        words[1] |= (tail << (lbits - _U(64))) | (tail >> (_U(64) - lbits))
        words[2] |= (tail << (lbits - _U(128))) | (tail >> (_U(128) - lbits))
        length += sci * (4 + three)
    if negative.any():
        words = _prepend(words, negative * _U(8))
        words[0] |= negative * _U(ord("-"))
        length += negative.view(np.int64)
    return words, length


def repr_bytes(x):
    """``repr`` of each float64 of x, as the rows of an (n, w + 1) uint8
    matrix: each text NUL-padded to the longest, w, then one NUL column
    for the caller's separator."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    n = x.size
    if n == 0:
        return np.zeros((0, 1), np.uint8)
    bits = x.view(np.uint64)
    biased = (bits >> _U(52)).astype(np.int64) & 0x7FF
    # zeros, subnormals, inf and nan are written by repr below
    special = (biased == 0) | (biased == 0x7FF)
    if special.any():
        biased[special] = 1023
    f, k = _shortest(biased, bits & _U((1 << 52) - 1))
    words, length = _layout(f, k, bits >> _U(63))
    # little-endian words, so that char i is byte i on any host
    out = np.zeros((n, 4), "<u8")
    out[:, 0], out[:, 1], out[:, 2] = words
    out = out.view(np.uint8)
    width = int(length.max())
    for i in np.flatnonzero(special).tolist():
        text = repr(float(x[i])).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
        width = max(width, len(text))
    return out[:, :width + 1]
