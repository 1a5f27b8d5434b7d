"""Byte-exact ``"%.9g"`` formatting of CSV blocks with numpy.

Each field is laid out in 24 bytes, three little-endian uint64 words:

    word 0:  sign  "0.000"  d0 .
    word 1:  d1 .  d2 .  d3 .  d4 .
    word 2:  d5 .  d6 .  d7 .  d8 sep

where ``d0..d8`` are the nine significant digits and each ``.`` is a slot
for the decimal point.  A per-layout template, indexed by sign, decimal
exponent and significant-digit count, holds the sign, the ``0.000`` prefix
and the point, and masks the digits that ``%g`` drops; it is OR'd with
4-digit ASCII lookup words.  Unused bytes are NUL, removed by one
``bytes.translate`` per block.  Values that ``%.9g`` writes in exponent
form (nonzero below 1e-4 or at least 1e9 after rounding), infinities and
values whose 9-digit product lands exactly on .5 are formatted one at a
time with ``"%.9g"`` into their 24-byte slot.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 24                                   # bytes per field
_DIGIT_POS = (6, 8, 10, 12, 14, 16, 18, 20, 22)   # byte of d0 .. d8
_E_MIN, _E_MAX = -4, 8                        # fixed-notation decimal exponents
_N_E = _E_MAX - _E_MIN + 1
_N_LAYOUTS = 2 * _N_E * 9                     # sign x exponent x digit count
_NAN_LAYOUT, _EMPTY_LAYOUT = _N_LAYOUTS, _N_LAYOUTS + 1

# 10**k for k = 0..13, each exact in a double.
_POW10 = np.array([float(10 ** k) for k in range(14)])


def _tables():
    """The layouts' template and digit-mask words, the digit words (4-digit
    groups, then d0 at 10000 + d0) and the significant-digit offsets, built
    with numpy."""
    e = np.arange(_E_MIN, _E_MAX + 1)[None, :, None]
    s = np.arange(1, 10)[None, None, :]
    tmpl = np.zeros((2, _N_E, 9, _WIDTH), np.uint8)
    mask = np.zeros_like(tmpl)
    tmpl[1, ..., 0] = ord("-")
    tmpl[..., 1] = np.where(e < 0, ord("0"), 0)
    tmpl[..., 2] = np.where(e < 0, ord("."), 0)
    for j in range(3):   # the zeros between "0." and d0
        tmpl[..., 3 + j] = np.where(j < -e - 1, ord("0"), 0)
    for i, pos in enumerate(_DIGIT_POS):
        # %g keeps the integer digits and drops trailing fraction zeros
        mask[..., pos] = np.where((i <= e) | (i < s), 0xFF, 0)
        if i < 8:
            tmpl[..., pos + 1] = np.where((e == i) & (s - 1 > i), ord("."), 0)
    tmpl = tmpl.reshape(_N_LAYOUTS, _WIDTH)
    mask = mask.reshape(_N_LAYOUTS, _WIDTH)
    nan = np.zeros((2, _WIDTH), np.uint8)      # _NAN_LAYOUT, _EMPTY_LAYOUT
    nan[0, 1:4] = np.frombuffer(b"nan", np.uint8)
    tmpl = np.concatenate((tmpl, nan))
    mask = np.concatenate((mask, np.zeros_like(nan)))
    tmpl, mask = tmpl.view("<u8"), mask.view("<u8")

    g = np.arange(10000)
    digits = (g[:, None] // np.array([1000, 100, 10, 1])) % 10
    quad = ((digits + ord("0")).astype("<u8") << np.array([0, 16, 32, 48], "<u8")).sum(
        axis=1, dtype="<u8")
    lead = (np.arange(10) + ord("0")).astype("<u8") << np.uint64(48)   # d0 in word 0
    digits = np.concatenate((quad, lead))
    # layout offset for the significant digits of M = d0*10**8 + mid*10**4 + lo
    # once trailing zeros go, less one: entry lo is 8 - tz(lo) when lo != 0,
    # entry 10000 + mid is 4 - tz(mid), and entry 10000 (all zero) is 0
    tz = (g % 10 == 0).astype(np.intp) + (g % 100 == 0) + (g % 1000 == 0)
    sig = np.concatenate((8 - tz, 4 - tz))
    sig[10000] = 0
    return tmpl, mask, digits, sig


_TEMPLATES, _MASKS, _DIGITS, _SIG = _tables()


@np.errstate(divide="ignore", invalid="ignore")   # log10(0), signalling NaNs
def format_block(block: np.ndarray, empty: np.ndarray) -> bytes:
    """The rows of ``block`` (float64, rows x columns) as CSV lines, each
    value as ``"%.9g"`` writes it; the columns flagged in ``empty`` are
    written as empty fields, and must hold no infinities (zeros and NaN are
    fine: an infinity takes the one-at-a-time fallback, which fills the
    field)."""
    a = np.abs(block).ravel()
    # decimal exponent e, 10**e <= a < 10**(e+1): log10's guess, clipped to
    # the fixed-notation range and checked on the 9-digit product
    e = np.log10(a)
    np.floor(e, out=e)
    np.fmin(e, _E_MAX, out=e)
    np.fmax(e, _E_MIN, out=e)
    e = e.astype(np.intp)
    p = a * _POW10[_E_MAX - e]      # one rounding: the power is exact
    # Off the grid: 0, NaN, inf, values out of the fixed range, and the rare
    # value within rounding of a power of ten that log10 put in the wrong
    # decade.  They take the zero layout's digits; all but 0 and NaN are
    # then formatted one at a time.
    off = np.flatnonzero(~((p >= 1e8) & (p < 1e9)))
    e[off] = 0
    p[off] = 0.0
    fallback = off[a[off] > 0]
    m = np.rint(p)
    # p landed on .5: the exact product may lie on either side, so %.9g decides
    fallback = np.concatenate((fallback, np.flatnonzero(np.abs(p - m) == 0.5)))
    carry = np.flatnonzero(m == 1e9)
    if carry.size:   # rounded up to the next decade
        m[carry] = 1e8
        e[carry] += 1
        over = carry[e[carry] > _E_MAX]
        e[over] = 0
        m[over] = 0.0
        fallback = np.concatenate((fallback, over))
    # digit groups d0 | d1..d4 | d5..d8, as indices into _DIGITS
    mi = m.astype(np.intp)
    groups = np.empty((a.size, 3), np.intp)
    hi = mi // 10000
    groups[:, 2] = lo = mi - hi * 10000
    groups[:, 0] = d0 = hi // 10000
    groups[:, 1] = mid = hi - d0 * 10000
    groups[:, 0] += 10000
    # significant digits: from lo's trailing zeros, or mid's when lo is 0
    sig = _SIG[lo + (lo == 0) * (mid + 10000)]
    layout = np.signbit(block).ravel() * (_N_E * 9) + (e - _E_MIN) * 9 + sig
    layout[np.isnan(a)] = _NAN_LAYOUT
    layout = layout.reshape(block.shape)
    layout[:, empty] = _EMPTY_LAYOUT
    layout = layout.ravel()
    words = np.take(_DIGITS, groups)
    words &= np.take(_MASKS, layout, axis=0)
    words |= np.take(_TEMPLATES, layout, axis=0)
    n_cols = block.shape[1]
    seps = b"," * (n_cols - 1) + b"\n"
    words.reshape(block.shape + (3,))[:, :, 2] |= (
        np.frombuffer(seps, np.uint8).astype("<u8") << np.uint64(56))
    if fallback.size:
        fields = zip(block.ravel()[fallback].tolist(), (fallback % n_cols).tolist())
        text = b"".join([(b"%.9g%c" % (v, seps[c])).ljust(_WIDTH, b"\0") for v, c in fields])
        words[fallback] = np.frombuffer(text, "<u8").reshape(-1, 3)
    return words.tobytes().translate(None, b"\0")
