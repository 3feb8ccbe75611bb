"""Bulk CSV rows: the ``'%.17g' % value`` text of whole float columns, built with array operations.

``csv_rows`` gives the bytes that formatting each value with ``fmt`` (the
CLI's ``_fmt``, ``f"{v:.17g}"``) would give.  For each value it forms
D = round-half-even(|v| * 10**(16 - E)), E = floor(log10 |v|), from a
double-double product: Dekker's error-free two-product ("A floating-point
technique for extending the available precision", 1971) with a hi + lo
table of 10**p built from exact integers.  One quick test settles almost
every value: the product lies strictly inside [10**16, 10**17) and further
from a 17th-digit tie than its error.  A chunk in which it leaves any value
in doubt is settled exactly as a whole (``_settled``: a decade edge where
log10 rounded across it, an exact tie, a carry to 10**17).  The digits come
from integer floor division and a table of 4-digit groups, the trailing
zeros from the last group (and from the groups before it only in a chunk
where some last group is 0).  Each value is laid out on four words of a row
template that is filled once per call; its unused bytes are NUL, deleted
chunk by chunk.  A value the product cannot settle exactly (non-finite,
outside [1e-280, 1e280], or within rounding error of a tie or a decade
edge) is formatted by ``fmt`` instead; zeros stay on the array path.

Every array a chunk allocates, but for the values left to ``fmt``, has the
chunk's length: a rarely needed pass runs over the whole chunk, under a
mask, and is skipped where the mask is empty, rather than over the few
values that need it.  Arrays sized by the data would be small and of ever
new sizes, and numpy and malloc keep such blocks for reuse once freed; one
kept high in the heap while a long report is built stops malloc from
returning the heap's top after it, so a process's peak RSS would hinge on
where those blocks happened to land.

The CLI imports this module on first use, and its tables are built then.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_rows"]


_ROWS_PER_CHUNK = 4096  # keeps a chunk's buffers near a few MiB
# A value's text is laid out on four little-endian 8-byte words, NUL where
# unused; bytes.translate deletes the NULs.  Word 0: the sign, the "0.000" of
# 0.000ddd, the first digit and a point after it; words 1 and 2: the other 16
# digits, those after a later point shifted up a byte to make room for it;
# word 3: the digit that point shifts out of word 2, or "e", the exponent's
# sign and its digits.  (Three words would hold the longest text, 24 bytes,
# but every value would then need its digits shifted into place.)
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
    group.  By the layout (x + _SPAN) * 18 + s of a value with decimal exponent
    x and s significant digits: leads, word 0 but for the sign and the first
    digit (its point included); masks, the bytes of words 1 and 2 kept;
    tails, word 3 (the e+XX of the exponent form); points, the digit a later
    point precedes, counting the first digit as 0 (else 0).  By that point:
    keeps, the bytes of words 1 and 2 that stay below the point, and dots, the
    point itself.
    """
    g = np.arange(10_000)[:, None]
    quad = np.zeros((10_000, 8), dtype=np.uint8)  # f"{g:04d}" NUL-padded to a word, as _words lays it out
    quad[:, :4] = g // (1000, 100, 10, 1) % 10 + ord("0")
    quads = quad.view(_LE_U64).reshape(-1)
    zeros = (g % (10, 100, 1000, 10_000) == 0).sum(axis=1)
    x = np.arange(-_SPAN, _SPAN + 1)
    heads = ["\0" + "0." + "0" * (-k - 1) if -4 <= k < 0 else "" for k in x.tolist()]
    exponents = ["" if -4 <= k <= 16 else f"e{k:+03d}" for k in x.tolist()]
    # by (exponent, digit count): the digits shown, and the digit the point precedes
    x, s = x[:, None], np.arange(18)
    fixed = (-4 <= x) & (x <= 16)
    integer = fixed & (x >= 0)  # every integer digit, then the point
    shown = np.where(integer, np.maximum(s, x + 1), s).reshape(-1)
    i = np.where(integer, x + 1, np.where(fixed, 0, 1))  # else the point is in the head, or d.ddd
    point = np.where(s > i, i, 0).reshape(-1)

    def low(nbytes):
        return (1 << 8 * min(max(nbytes, 0), 8)) - 1

    u = _LE_U64.type
    leads = np.repeat(_words(heads, 8), 18) | np.where(point == 1, u(ord(".") << 56), u(0))
    # digit j >= 1 sits at byte j - 1 of words 1-2
    masks = np.array([[low(n - 1) for n in range(18)], [low(n - 9) for n in range(18)]], dtype=_LE_U64)
    keeps = np.array([[low(8)] + [low(i - 1) for i in range(1, 9)] + [low(8)] * 8,
                      [low(8)] + [0] * 8 + [low(i - 9) for i in range(9, 17)]], dtype=_LE_U64)
    dots = np.zeros((2, 17), dtype=_LE_U64)
    for i in range(1, 17):
        dots[(i - 1) // 8, i] = ord(".") << 8 * ((i - 1) % 8)
    return (quads, zeros, leads, masks[:, shown], np.repeat(_words(exponents, 8), 18),
            np.where(point > 1, point, 0), keeps, dots)


def _scaled(ax: np.ndarray, e: np.ndarray):
    """(hi, lo): ax * 10**(16 - e) = hi + lo as a double-double.

    hi's rounding error is exact by Dekker's two-product; lo is exact where
    10**(16 - e) is a double, and within 2**-47 of the true remainder elsewhere.
    """
    i = 16 + _SPAN - e
    t_hi, t_hh, t_hl, t_lo = (t.take(i) for t in _pow10_table())
    hi = ax * t_hi
    a_h, a_l = _split(ax)
    lo = ((a_h * t_hh - hi) + a_h * t_hl + a_l * t_hh) + a_l * t_hl
    lo += ax * t_lo
    return hi, lo


def _exact_scaled(ax: np.ndarray, e: np.ndarray):
    """(hi, lo, exact): _scaled's double-double, and where it is exact.

    Where 10**(16 - e) is not a double but 10**(e - 16) is, and ax an integer
    multiple of it (as 1e17 ... 1e22 are), hi = ax / 10**(e - 16) exactly and
    lo = 0.
    """
    table = _pow10_table()
    hi, lo = _scaled(ax, e)
    exact = table[3].take(16 + _SPAN - e) == 0.0
    up = e > 16
    if up.any():
        step, rest = (table[j].take(e - 16 + _SPAN) for j in (0, 3))  # 10**(e - 16) rounded, and what that left
        whole = up & (rest == 0.0) & (np.fmod(ax, step) == 0.0)  # fmod is exact
        np.divide(ax, step, out=hi, where=whole)
        np.copyto(lo, 0.0, where=whole)
        exact |= whole
    return hi, lo, exact


def _edges(hi: np.ndarray, lo: np.ndarray):
    """Where hi + lo < 1e16 and where it is >= 1e17: the decade guess was one too high or too low."""
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return low, high


def _settled(ax: np.ndarray, e: np.ndarray):
    """(d, e, ok) for a chunk in which the quick test of _fmt_words leaves a value in doubt.

    d = round-half-even(ax * 10**(16 - e)) in [10**16, 10**17), with e moved
    by one where log10 rounded across a decade edge, or where d carried to
    10**17.  ok is False where the double-double cannot settle d: within its
    rounding error of a tie or a decade edge, and not exact.
    """
    hi, lo, exact = _exact_scaled(ax, e)
    low, high = _edges(hi, lo)
    if (low | high).any():  # log10 rounded across a decade edge
        e += high.astype(np.int64) - low
        hi, lo, exact = _exact_scaled(ax, e)
        low, high = _edges(hi, lo)
    frac = lo - np.floor(lo)
    unsure = (np.abs(frac - 0.5) < _TIE_TOL) | (((hi == 1e16) | (hi == 1e17)) & (np.abs(lo) < _TIE_TOL))
    ok = ~(unsure & ~exact | low | high)
    # hi >= 1e16 > 2**53 is an even integer, so lo rounded half-even rounds hi + lo so
    d = np.where(ok, hi, 0.0).astype(np.int64) + np.where(ok, np.rint(lo), 0.0).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    return d, e + carry, ok


def _divmod(n: np.ndarray, unit: int):
    """np.divmod(n, unit) for n >= 0: one floor division and a multiply-subtract."""
    q = n // unit
    return q, n - q * unit


def _fmt_words(v: np.ndarray, fmt) -> np.ndarray:
    """The %.17g text of each float of the 1-D ``v``, as a (_WORDS, v.size) array of template words.

    With E = floor(log10 |v|), D = round-half-even(|v| * 10**(16 - E)) lies in
    [10**16, 10**17], and a carry to 10**17 raises E by one.  A value prints in
    fixed form when -4 <= E <= 16, else as d.ddde±XX, without trailing zeros
    or a bare point.  A value this cannot settle exactly takes ``fmt``'s text.
    """
    u = np.uint64
    ax = np.abs(v)
    off = ~((ax >= _FAST_RANGE[0]) & (ax <= _FAST_RANGE[1]))  # NaN compares false
    odd = off.any()
    if odd:
        np.copyto(ax, 1.5, where=off)  # a stand-in the quick test settles, with E = 0; D = 0 below prints a zero as 0
    e = np.log10(ax)
    e = np.floor(e, out=e).astype(np.int64)
    hi, lo = _scaled(ax, e)
    r = np.rint(lo)
    # the quick test: D = hi + r where hi + lo lies strictly inside the decade
    # and further than its error from a tie; where it leaves any value in
    # doubt, _settled decides the whole chunk
    slow = off & (v != 0.0) if odd else None
    if ((hi <= 1e16) | (hi >= 1e17) | (np.abs(lo - r) > 0.5 - _TIE_TOL)).any():
        d, e, ok = _settled(ax, e)
        slow = ~ok if slow is None else slow | ~ok
    else:
        d = hi.astype(np.int64)
        d += r.astype(np.int64)  # rounds hi + lo half-even, as in _settled
    if odd:
        np.copyto(d, 0, where=off)

    quads, zeros, leads, masks, tails, points, keeps, dots = _text_tables()
    first, rest = _divmod(d, 10**16)
    top, bottom = _divmod(rest, 10**8)
    groups = (*_divmod(top, 10**4), *_divmod(bottom, 10**4))
    trailing = zeros.take(groups[3])
    zero = groups[3] == 0
    if zero.any():  # zeros[0] = 4: a zero group adds 4 to the count of the ones before it
        count = zeros.take(groups[0])
        for g in groups[1:3]:
            count = zeros.take(g) + (g == 0) * count
        trailing += zero * count
    layout = e * 18
    layout += _SPAN * 18 + 17
    layout -= trailing

    out = np.empty((_WORDS, v.size), dtype=_LE_U64)
    np.bitwise_or(leads.take(layout), (v.view(_LE_U64) >> u(63)) * u(ord("-")), out=out[0])
    out[0] |= ((first + 48) << 48).view(_LE_U64)
    for k in (0, 1):
        np.bitwise_or(quads.take(groups[2 * k]), quads.take(groups[2 * k + 1]) << u(32), out=out[1 + k])
        out[1 + k] &= masks[k].take(layout)
    tails.take(layout, out=out[3])
    point = points.take(layout)
    if point.any():  # a point after the second digit or later: the digits from it on move up a byte
        moved = u(0)  # the byte the point pushes out of the word before
        for k in (0, 1):
            word, keep = out[1 + k], keeps[k].take(point)
            spill = word & ~keep
            word &= keep
            word |= dots[k].take(point)
            word |= spill << u(8)
            word |= moved
            moved = spill >> u(56)
        out[3] |= moved
    if slow is not None and slow.any():
        slow = np.flatnonzero(slow)
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
    # filled once: each chunk writes over its values' slots and leaves the literal text
    buf = np.empty((min(columns[0].size, _ROWS_PER_CHUNK), template.size), dtype=np.uint8)
    buf[:] = template
    slots = [buf[:, off:off + 8 * _WORDS].view(_LE_U64) for off in offsets]
    chunks = []
    for start in range(0, columns[0].size, _ROWS_PER_CHUNK):
        values = np.concatenate([c[start:start + _ROWS_PER_CHUNK] for c in columns])
        rows = values.size // len(columns)
        text = _fmt_words(values, fmt).reshape(_WORDS, len(columns), rows)
        for j, slot in enumerate(slots):
            slot[:rows] = text[:, j].T
        # the chunk's last newline, as chunks are joined with one; no later chunk
        # is longer, so this row is its last row too or lies beyond it
        buf[rows - 1, -1] = 0
        chunks.append(buf[:rows].tobytes().translate(None, b"\0").decode("ascii"))
    return chunks
