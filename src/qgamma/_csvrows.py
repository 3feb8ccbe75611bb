"""Bulk CSV rows: the ``'%.17g' % value`` text of whole float columns, built with array operations.

``csv_rows`` gives the bytes that formatting each value with ``fmt`` (the
CLI's ``_fmt``, ``f"{v:.17g}"``) would give.  For each value it forms
D = round-half-even(|v| * 10**(16 - E)), E = floor(log10 |v|), from a
double-double product: Dekker's error-free two-product ("A floating-point
technique for extending the available precision", 1971) with a hi + lo
table of 10**p built from exact integers.  The digits come from integer
arithmetic and a table of 4-digit groups, and each value is laid out on a
fixed template whose unused bytes are NUL, deleted at the end.  A value the
product cannot settle exactly (non-finite, outside [1e-280, 1e280], or
within rounding error of a 17th-digit tie or a decade edge) is formatted by
``fmt`` instead; zeros stay on the array path.

The CLI imports this module on first use, and its tables are built then.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_rows"]


_ROWS_PER_CHUNK = 4096  # keeps a chunk's buffers near a few MiB
# A value's text is laid out on four little-endian 8-byte words, NUL where
# unused; bytes.translate deletes the NULs.  Word 0: the sign, the "0.000" of
# 0.000ddd and the first digit; words 1 and 2: the other 16 digits, those after
# the point shifted up a byte to make room for it; word 3: the digit shifted out
# of word 2, then "e", the exponent's sign and its digits.
_WORDS = 4
_LE_U64 = np.dtype("<u8")
# Outside [1e-280, 1e280], 10**(16 - E) or Dekker's splits would leave the
# normal range; such values, and non-finite ones, go through ``fmt``.
_FAST_RANGE = (1e-280, 1e280)
_SPAN = 300  # the tables hold 10**p and exponents for |p| <= 300; the fast range needs 298
_SPLIT = 134217729.0  # 2**27 + 1
# |x| * 10**(16 - E) is known to within 2**-47 (a few units of 2**-106 relative
# in the table and the products); an inexact value within this of a rounding
# tie or a decade edge goes through ``fmt``.
_TIE_TOL = 2.0**-40


def _split(a):
    """Dekker's split a = hi + lo, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """10**p for |p| <= _SPAN, indexed p + _SPAN: (hi, hi's split halves, lo).

    hi is 10**p rounded to a double and lo the rounded remainder, both from
    exact integers (int-to-float and int / int round correctly), so lo is 0
    exactly where 10**p is a double.
    """
    hi, lo = [], []
    for p in range(-_SPAN, _SPAN + 1):
        if p >= 0:
            h = float(10**p)
            rest = float(10**p - int(h))
        else:
            d = 10**-p
            h = 1 / d
            num, den = h.as_integer_ratio()
            rest = (den - num * d) / (den * d)
        hi.append(h)
        lo.append(rest)
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _words(texts, width: int) -> np.ndarray:
    """Each ASCII text NUL-padded to ``width`` bytes, as little-endian words."""
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype=_LE_U64)


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of _fmt_words.

    quads[g]: g's four digits; zeros[g]: g's trailing zeros as a 4-digit
    group.  By the decimal exponent x, at x + _SPAN: heads, the "0." and zeros
    of 0.000ddd from byte 1, and exponents, the e+XX of the exponent form from
    byte 1.  By x and the count s of significant digits, at (x + _SPAN) * 18 + s:
    shown, the digits printed, and point, the digit the point precedes (0:
    none).  By shown: masks, the bytes of words 1 and 2 kept.  By point:
    keeps, the bytes of words 1 and 2 that stay below the point, and dots, the
    point itself.
    """
    text = [f"{g:04d}" for g in range(10_000)]
    quads = _words(text, 8)
    zeros = np.array([4 - len(q.rstrip("0")) for q in text])
    heads, exponents, shown, point = [], [], [], []
    for x in range(-_SPAN, _SPAN + 1):
        fixed = -4 <= x <= 16
        heads.append("\0" + "0." + "0" * (-x - 1) if fixed and x < 0 else "")
        exponents.append("" if fixed else f"\0e{x:+03d}")
        for s in range(18):
            if fixed and x >= 0:  # every integer digit, then the point
                n, i = max(s, x + 1), x + 1
            elif fixed:  # the point is in the head
                n, i = s, 0
            else:  # d.ddd
                n, i = s, 1
            shown.append(n)
            point.append(i if s > i else 0)

    def low(nbytes):
        return (1 << 8 * min(max(nbytes, 0), 8)) - 1

    # digit j >= 1 sits at byte j - 1 of words 1-2
    masks = np.array([[low(n - 1) for n in range(18)], [low(n - 9) for n in range(18)]], dtype=_LE_U64)
    keeps = np.array([[low(8)] + [low(i - 1) for i in range(1, 9)] + [low(8)] * 8,
                      [low(8)] + [0] * 8 + [low(i - 9) for i in range(9, 17)]], dtype=_LE_U64)
    dots = np.zeros((2, 17), dtype=_LE_U64)
    for i in range(1, 17):
        dots[(i - 1) // 8, i] = ord(".") << 8 * ((i - 1) % 8)
    return (quads, zeros, _words(heads, 8), _words(exponents, 8),
            np.array(shown), np.array(point), masks, keeps, dots)


def _scaled(ax: np.ndarray, e: np.ndarray):
    """(hi, lo, exact): ax * 10**(16 - e) = hi + lo as a double-double.

    hi's rounding error is exact by Dekker's two-product; lo is exact where
    10**(16 - e) is a double, and within 2**-47 of the true remainder elsewhere.
    Where instead 10**(e - 16) is a double and ax an integer multiple of it
    (as 1e17 ... 1e22 are), hi = ax / 10**(e - 16) exactly and lo = 0.
    """
    table = _pow10_table()
    t_hi, t_hh, t_hl, t_lo = (t[16 - e + _SPAN] for t in table)
    hi = ax * t_hi
    a_h, a_l = _split(ax)
    err = ((a_h * t_hh - hi) + a_h * t_hl + a_l * t_hh) + a_l * t_hl
    lo, exact = err + ax * t_lo, t_lo == 0.0
    up = np.flatnonzero(e > 16)
    step, rest = (table[j][e[up] - 16 + _SPAN] for j in (0, 3))  # 10**(e - 16) rounded, and what that left
    whole = (rest == 0.0) & (np.fmod(ax[up], step) == 0.0)  # fmod is exact
    up = up[whole]
    hi[up], lo[up], exact[up] = ax[up] / step[whole], 0.0, True
    return hi, lo, exact


def _edges(hi: np.ndarray, lo: np.ndarray):
    """Where hi + lo < 1e16 and where it is >= 1e17: the decade guess was one too high or too low."""
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return low, high


def _fmt_words(v: np.ndarray, fmt) -> np.ndarray:
    """The %.17g text of each float of the 1-D ``v``, as a (_WORDS, v.size) array of template words.

    With E = floor(log10 |v|), D = round-half-even(|v| * 10**(16 - E)) lies in
    [10**16, 10**17], and a carry to 10**17 raises E by one.  A value prints in
    fixed form when -4 <= E <= 16, else as d.ddde±XX, without trailing zeros
    or a bare point.  A value this cannot settle exactly takes ``fmt``'s text.
    """
    u = np.uint64
    ax = np.abs(v)
    fast = (ax >= _FAST_RANGE[0]) & (ax <= _FAST_RANGE[1])  # NaN compares false
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo, exact = _scaled(ax, e)
    low, high = _edges(hi, lo)
    off = np.flatnonzero(low | high)
    if off.size:  # log10 rounded across a decade edge
        e[off] += high[off].astype(np.int64) - low[off]
        hi[off], lo[off], exact[off] = _scaled(ax[off], e[off])
        low, high = _edges(hi, lo)
    frac = lo - np.floor(lo)
    unsure = (np.abs(frac - 0.5) < _TIE_TOL) | (((hi == 1e16) | (hi == 1e17)) & (np.abs(lo) < _TIE_TOL))
    fast &= ~(unsure & ~exact | low | high)
    # hi >= 1e16 > 2**53 is an even integer, so lo rounded half-even rounds hi + lo so
    d = np.where(fast, hi, 0.0).astype(np.int64) + np.where(fast, np.rint(lo), 0.0).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    x = np.where(fast, e + carry, 0)  # a zero prints as 0 in fixed form

    quads, zeros, heads, exponents, shown, point, masks, keeps, dots = _text_tables()
    first, rest = np.divmod(d, 10**16)
    top, bottom = np.divmod(rest, 10**8)
    groups = (*np.divmod(top, 10**4), *np.divmod(bottom, 10**4))
    trailing = zeros[groups[0]]  # zeros[0] = 4: a zero group adds 4 to the count of the ones before it
    for g in groups[1:]:
        trailing = zeros[g] + (g == 0) * trailing
    xi = x + _SPAN
    layout = xi * 18 + 17 - trailing
    shown, point = shown[layout], point[layout]

    out = np.empty((_WORDS, v.size), dtype=_LE_U64)
    out[0] = heads[xi] | np.signbit(v) * u(ord("-")) | (first.astype(_LE_U64) + u(48)) << u(48)
    moved = u(0)  # the byte the point pushes out of the word before
    for k in (0, 1):
        word = (quads[groups[2 * k]] | quads[groups[2 * k + 1]] << u(32)) & masks[k][shown]
        keep = keeps[k][point]
        out[1 + k] = word & keep | dots[k][point] | (word & ~keep) << u(8) | moved
        moved = (word & ~keep) >> u(56)
    out[3] = moved | exponents[xi]
    slow = np.flatnonzero(~fast & (v != 0.0))
    if slow.size:
        out[:, slow] = _words(map(fmt, v[slow].tolist()), 8 * _WORDS).reshape(-1, _WORDS).T
    return out


def csv_rows(pieces, fmt) -> list[str]:
    """Rows whose text joins ``pieces``: a str as it is, a float array by the %.17g text of its element.

    The arrays broadcast to one shape, and row i takes flat element i of each.
    ``fmt(x)`` gives the text of a float x that the array path leaves to it.
    The result is the rows in chunks, each chunk whole rows joined by
    newlines, so that the chunks join with newlines as lines of a report do.
    """
    columns = [np.asarray(p, dtype=float) for p in pieces if not isinstance(p, str)]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    columns = [np.broadcast_to(c, shape).ravel() for c in columns]
    # the row template: the literal text, and 8 * _WORDS NUL bytes where each value goes
    template, offsets = bytearray(), []
    for piece in pieces:
        if isinstance(piece, str):
            template += piece.encode()
        else:
            offsets.append(len(template))
            template += bytes(8 * _WORDS)
    template = np.frombuffer(bytes(template + b"\n"), dtype=np.uint8)
    chunks = []
    for start in range(0, columns[0].size, _ROWS_PER_CHUNK):
        values = np.concatenate([c[start:start + _ROWS_PER_CHUNK] for c in columns])
        rows = values.size // len(columns)
        text = _fmt_words(values, fmt).reshape(_WORDS, len(columns), rows)
        buf = np.empty((rows, template.size), dtype=np.uint8)
        buf[:] = template
        for j, off in enumerate(offsets):
            slot = buf[:, off:off + 8 * _WORDS].view(_LE_U64)
            for w in range(_WORDS):
                slot[:, w] = text[w, j]
        buf[-1, -1] = 0  # the chunk's last newline: chunks are joined with one
        chunks.append(buf.tobytes().translate(None, b"\0").decode("ascii"))
    return chunks
