"""Gamma, q-gamma, psi and q-psi evaluation with explicit truncation error bounds.

Every series evaluator returns a :class:`SeriesResult` carrying the value, a
bound on its error (the discarded tail plus rounding), the number of terms
used and a convergence flag.  Every series costs a fixed number of terms, at
every q in (0, 1) (q = 1 routes to the classical evaluators): direct terms
closed by an Euler-Maclaurin tail.  psi and its derivatives are one series
indexed by the order n >= 0, and so are psi_q and its derivatives.
Ratios of gamma values should always be formed from log-gamma differences,
never from quotients of direct values.

Every public evaluator takes a float or an ndarray x and runs one numpy path
for both.  A scalar argument gives Python numbers; an array gives ``value``
and ``abs_error_bound`` arrays of its shape, each element equal bit for bit
to the scalar call at that element, with ``converged`` true when every
element converged.  Where a formula branches on the argument, each element
takes the branch its scalar call takes.  The derivative order n >= 0 of
psi_n, psi_q_n and the moments is an int or an integer array that
broadcasts with x (order 0 is psi or psi_q); inside this module every order
is int64 and runs one path, a single order without being expanded.  One
pass of the series serves every order, and each element equals the
single-order call at that element bit for bit; an empty order array gives
an empty result.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "DomainError",
    "ConvergenceError",
    "QValue",
    "EvalConfig",
    "SeriesResult",
    "DEFAULT_CONFIG",
    "log_gamma",
    "gamma",
    "log_gamma_q",
    "gamma_q",
    "psi",
    "psi_n",
    "psi_q",
    "psi_q_n",
    "dilog_F",
    "measure_moment",
    "measure_moment_over_t",
]

#: Euler-Mascheroni constant, lim_{n} (sum_{k<=n} 1/k - log n).
EULER_GAMMA = 0.5772156649015329

_LOG_MAX_FLOAT = math.log(np.finfo(float).max)  # ~709.78
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_PI2_OVER_6 = math.pi ** 2 / 6.0
_U = 2.0 ** -53  # unit roundoff of binary64
_TINY = float(np.finfo(float).tiny)  # smallest normal binary64
# Relative rounding error, in units of u, allowed for each elementary piece an
# evaluator adds up (a logarithm, an exp-based q-power, a Stirling term).
# Errors measured against 40-digit mpmath stay below half of the bounds this
# gives (tests/test_special.py checks them on a grid).
_TERM_ULPS = 8.0


class DomainError(ValueError):
    """Argument outside the domain an evaluator supports."""


class ConvergenceError(RuntimeError):
    """The truncation bound cannot meet the requested tolerance."""


@dataclass(frozen=True)
class QValue:
    """Deformation parameter q in (0, 1], all of it open to every q-evaluator; q = 1 is the classical limit."""

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not (0.0 < q <= 1.0) or math.isnan(q):
            raise DomainError(f"q must lie in (0, 1], got {self.q!r}")
        object.__setattr__(self, "q", q)

    @property
    def is_classical(self) -> bool:
        return self.q == 1.0


@dataclass(frozen=True)
class EvalConfig:
    """Truncation tolerance shared by all series evaluators.

    Every series sums a fixed number of terms, so there is no term cap.
    """

    rel_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class SeriesResult:
    """A numeric value plus a bound on its error, truncation and rounding.

    ``converged`` is true exactly when the truncation bound meets the
    relative tolerance the evaluation was asked for, i.e.
    ``truncation <= rel_tol * max(1, |value|)``, at every element; the
    rounding part of ``abs_error_bound`` does not enter.  A truncation that
    misses raises ConvergenceError instead, so every result returned has
    converged.
    ``value`` and ``abs_error_bound`` are floats (``value`` complex for a
    complex log_gamma argument) or, for an ndarray argument, arrays of its
    shape; ``terms_used`` is the fixed term count of the evaluator.
    """

    value: float | complex | np.ndarray
    abs_error_bound: float | np.ndarray
    terms_used: int
    converged: bool


def _coerce_q(q) -> QValue:
    return q if isinstance(q, QValue) else QValue(float(q))


# Every public evaluator runs under this: numpy's overflow and invalid flags
# become typed errors through the checks below, never RuntimeWarnings.
_quiet = np.errstate(all="ignore")


def _first(arr, mask) -> str:
    """The first element of ``arr`` (row order) where ``mask`` holds, for messages."""
    flat = np.asarray(arr).reshape(-1)
    i = int(np.flatnonzero(np.broadcast_to(np.asarray(mask).reshape(-1), flat.shape))[0])
    text = repr(flat[i].item())
    return text if flat.size == 1 else f"{text} (element {i})"


def _flat(v) -> np.ndarray:
    return np.asarray(v).reshape(-1)


def _shaped(v, shape: tuple):
    """A result in the argument's shape; a Python number for a scalar argument."""
    return v.item(0) if shape == () else v.reshape(shape)


def _checked(fn: str, x, lo: float = 0.0, hi: float = math.inf, ends: str = "()",
             what: str = "x") -> np.ndarray:
    """x as a flat float array, every element finite and in the interval lo, hi with ``ends`` as brackets.

    Every public evaluator, kernel function and bound validates its arguments
    here, so NaN, infinities and complex values become a DomainError naming the
    first offending element instead of a NaN value or an arithmetic exception.
    """
    arr = np.asarray(x)
    if arr.dtype.kind == "c":
        raise DomainError(f"{fn} requires real {what}, got a complex argument")
    arr = arr.astype(float, copy=False).reshape(-1)
    left, right = ends
    # NaN fails every comparison
    ok = ((lo <= arr) if left == "[" else (lo < arr)) & ((arr <= hi) if right == "]" else (arr < hi))
    if not ok.all():
        raise DomainError(
            f"{fn} requires finite {what} in {left}{lo:g}, {hi:g}{right}, got {_first(arr, ~ok)}"
        )
    return arr


def _checked_complex(fn: str, z, lo: float = -math.inf, what: str = "z") -> np.ndarray:
    """z as a flat complex array, Re z finite in (lo, inf) and Im z finite, checked as _checked does."""
    zc = np.asarray(z).astype(complex).reshape(-1)
    _checked(fn, zc.real, lo, what=f"Re {what}")
    _checked(fn, zc.imag, -math.inf, what=f"Im {what}")
    return zc


def _checked_order(fn: str, n) -> np.ndarray:
    """n, an int or an integer array, as an int64 order array with every element >= 0."""
    arr = np.asarray(n)
    if arr.dtype.kind not in "iu":
        raise DomainError(f"{fn} requires integer orders, got dtype {arr.dtype}")
    if arr.min(initial=0) < 0:
        raise DomainError(f"{fn} requires order n >= 0, got {_first(arr, arr < 0)}")
    return arr.astype(np.int64, copy=False)


def _with_orders(fn: str, n: np.ndarray, xs: np.ndarray, shape: tuple) -> tuple:
    """(n, xs, shape) for an order array n and checked flat xs of ``shape``, in their broadcast shape.

    A single order becomes one int64, which broadcasts with xs.  An order
    column (m, 1) against a 1-d x keeps its axis: n stays (m, 1) and xs
    becomes (1, N), so a series core evaluates what depends on x alone once
    per abscissa, and each Horner step's coefficients once per order.
    Otherwise n and xs are broadcast together and flattened.  Elementwise,
    every layout runs the same operations.  Shapes that do not broadcast are
    a DomainError naming both.
    """
    if n.size == 1:
        return n.reshape(-1)[0], xs, (1,) * (n.ndim - len(shape)) + shape
    if n.ndim == 2 and n.shape[1] == 1 and len(shape) == 1:
        return n, xs.reshape(1, -1), (n.shape[0], xs.size)
    try:
        ns, xb = np.broadcast_arrays(n, xs.reshape(shape))
    except ValueError:
        raise DomainError(f"{fn} order array of shape {n.shape} does not broadcast with x of shape {shape}") from None
    return ns.reshape(-1), xb.reshape(-1), ns.shape


def _finite(fn: str, *values) -> None:
    """OverflowError at the first element (row order) where one of ``values`` is not finite."""
    ok = np.isfinite(np.abs(values[0]))
    for v in values[1:]:
        ok = ok & np.isfinite(np.abs(v))
    if not ok.all():
        where = "" if ok.size == 1 else f" at element {int(np.flatnonzero(~ok)[0])}"
        raise OverflowError(f"{fn} result exceeds the float64 range{where}")


def _result(fn: str, value, bound, terms, shape: tuple) -> SeriesResult:
    """Package flat value and bound arrays for an argument of ``shape``, once the truncation has met rel_tol."""
    _finite(fn, value)
    full = np.full(value.shape, bound, dtype=float)  # a scalar bound too
    return SeriesResult(_shaped(value, shape), _shaped(full, shape), int(terms), True)


def _check_truncation(fn, value, trunc, cfg: EvalConfig) -> None:
    """Raise ConvergenceError where the truncation bound exceeds rel_tol * max(1, |value|)."""
    miss = trunc > cfg.rel_tol * np.maximum(1.0, np.abs(value))  # a NaN value is _result's to report
    if miss.any():
        value, trunc = np.broadcast_arrays(value, trunc)
        i = int(np.flatnonzero(miss)[0])
        where = "" if value.size == 1 else f" (element {i})"
        raise ConvergenceError(
            f"{fn} truncation bound {trunc.item(i):.3g} misses rel_tol={cfg.rel_tol} "
            f"at value {value.item(i)!r}{where}"
        )


# The series cores hold a dozen (term, element) scratch arrays; blocks of this
# many elements keep that scratch near 1 MiB for an argument of any size.
_BLOCK = 1024


def _blocked(core, x: np.ndarray, n=None) -> tuple:
    """core(x) for a core returning a tuple of arrays shaped like x, run over blocks of x's last axis.

    Given n, core(x, n); an order array n, flat like x, is cut into the same
    blocks.  Against an order column (see _with_orders) a block holds
    _BLOCK elements over all its orders.
    """
    args = (x,) if n is None else (x, n)
    width = x.shape[-1]
    block = _BLOCK if x.ndim == 1 else max(1, _BLOCK // n.size)
    if width <= block:
        return core(*args)
    cut = lambda a, i: a[..., i:i + block] if np.shape(a)[-1:] == (width,) else a
    blocks = [core(*(cut(a, i) for a in args)) for i in range(0, width, block)]
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*blocks))


# Every series adds its terms in term order, row after row of a (term, element)
# array: row i of a running sum is row i - 1 plus term i, whatever the shape.
# ufunc.accumulate along axis 0 and a loop of one ufunc call per row both do
# exactly that, so they give the same bits.  The loop costs about 0.5 us a row,
# accumulate about 0.05 us an element: from this many elements a row on, the
# loop is the cheaper.
_ROW_LOOP = 128


def _running(ufunc, rows: np.ndarray) -> np.ndarray:
    """ufunc.accumulate(rows, axis=0): partial i is ufunc(partial i - 1, row i).  rows may be overwritten."""
    if rows.size < _ROW_LOOP * len(rows):
        return ufunc.accumulate(rows, axis=0)
    prev = rows[0]
    for row in rows[1:]:
        ufunc(prev, row, out=row)
        prev = row
    return rows


def _total(rows: np.ndarray) -> np.ndarray:
    """The last row of np.add.accumulate(rows, axis=0), in a new array: the rows added in order."""
    if len(rows) == 1 or rows.size < _ROW_LOOP * len(rows):
        return np.add.accumulate(rows, axis=0)[-1]
    s = rows[0] + rows[1]
    for r in rows[2:]:
        s += r
    return s


def _rows(column: np.ndarray, a) -> np.ndarray:
    """A column of one value a row (a series' terms), shaped to lead the axes of ``a``: (rows, 1) for a 0-d or 1-d a."""
    return column.reshape(-1, *(1,) * max(np.ndim(a), 1))


# An order n is int64: one for a single order, or an array with one per abscissa
# (see _with_orders).  The helpers below take a single order's cheapest form and
# give each element of an order array the bits of its single-order call.

# what numpy makes of base ** k for a scalar k in -1..2: pow gives other bits at 2 and -1
_SCALAR_POWERS = {-1: np.reciprocal, 0: np.ones_like, 1: np.positive, 2: np.square}


def _pow(base, n):
    """base ** n for an order n, or an int; each element as base ** int(n) at that element gives it.

    A single order k is base ** k itself.  numpy takes an array to a scalar
    power 2 as its square and to -1 as its reciprocal, and pow, which an
    array of exponents calls, can differ from both in the last bit; at every
    other integer exponent it gives the bits of a scalar exponent.  So an
    order array runs pow, and where its orders lie in -1..2 the scalar forms
    of those four orders replace pow's values (a pow masked to the other
    orders costs more than the whole).  Every base this module
    passes is positive.  A base that is not an ndarray (a Python float) keeps
    Python's ``**``, order by order.
    """
    n = np.asarray(n)
    if n.size == 1:
        return base ** n.item()
    if not isinstance(base, np.ndarray):
        return np.array([base ** k for k in n.ravel().tolist()]).reshape(n.shape)
    lo, hi = int(n.min(initial=0)), int(n.max(initial=0))  # an empty n has no element to set
    out = np.power(base, n)
    for k in range(max(lo, -1), min(hi, 2) + 1):
        np.copyto(out, _SCALAR_POWERS[k](base), where=n == k)
    return out


@functools.cache
def _order_columns(table, top: int) -> np.ndarray:
    """table(k) for the orders k = 0..top side by side on a last axis, indexed by k.

    Each table(k) is a sequence of coefficients in the order a pass reads
    them; shorter ones are padded with leading zeros.  Horner's partial value
    stays exactly 0.0 through the padding, so one pass over the columns an
    order array picks gives each element its own order's polynomial, bit for
    bit (see _eulerian_poly).
    """
    parts = [np.asarray(table(k), dtype=float) for k in range(top + 1)]
    length = max(len(p) for p in parts)
    out = np.stack([np.concatenate([np.zeros((length - len(p), *p.shape[1:])), p]) for p in parts], axis=-1)
    out.flags.writeable = False
    return out


def _factorial(n):
    """n! for an order n, or an int, per element as the float a float product makes of it."""
    n = np.asarray(n)
    if n.size == 1:
        return float(math.factorial(n.item()))
    return np.array([float(math.factorial(k)) for k in range(int(n.max(initial=0)) + 1)])[n]


# ---------------------------------------------------------------------------
# classical gamma / psi / polygamma
# ---------------------------------------------------------------------------

# The Bernoulli numbers B_2..B_20, exact, as (numerator, denominator) pairs
# (Abramowitz & Stegun 23.1); every coefficient below is the float of an exact
# quotient of these, one int/int true division, which Python rounds correctly.
_BERNOULLI_EXACT = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330),
)

# Stirling series coefficients B_2n / (2n (2n-1)) for B_2..B_18, and the
# first omitted term |B_20 / (20*19)|.
_STIRLING_COEF = tuple(
    num / (den * 2 * n * (2 * n - 1)) for n, (num, den) in enumerate(_BERNOULLI_EXACT[:9], start=1)
)
_STIRLING_NEXT = abs(_BERNOULLI_EXACT[9][0]) / (_BERNOULLI_EXACT[9][1] * 20 * 19)

# The rounded Bernoulli numbers B_2..B_18 for the Euler-Maclaurin polygamma
# tail.  _zeta_coefs, _EM_COEF and _LI2_COEF divide these floats: dividing the
# exact values instead would move some of their coefficients by one ulp.
_BERNOULLI = tuple(num / den for num, den in _BERNOULLI_EXACT[:9])

_SHIFT = 10  # arguments are recurred up by this much before the asymptotic series


def _stirling(w: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """The Stirling series for log Gamma(w), given log w, through the B_18 term."""
    s = (w - 0.5) * log_w - w + _HALF_LOG_2PI
    p = 1.0 / w
    rw2 = p * p  # not 1/(w*w), which overflows for |w| > 1.3e154
    for c in _STIRLING_COEF:
        s = s + c * p
        p = p * rw2
    return s


def _lgamma_core(z: np.ndarray) -> np.ndarray:
    """Stirling series with upward recurrence on a float or complex array.

    Valid for Re z > 0.  The uniform shift puts the series argument at
    Re w >= 10 where the first omitted term is below 2e-19.
    """
    w = z + _SHIFT
    s = _stirling(w, np.log(w))
    for j in range(_SHIFT):
        s = s - np.log(z + j)
    return s


def _lgamma_bound(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(truncation, rounding) bounds of the shifted Stirling series.

    The rounding term scales with what the sum adds up, not with the result:
    |(w - 1/2) log w|, |w| and log sqrt(2 pi) from the Stirling part, and the
    ten recurrence logarithms, each at most max(|log Re z|, log(|z| + 10)) in
    modulus plus pi/2 for its argument off the real axis.
    """
    wc = z + _SHIFT
    w = np.abs(wc)
    arg = np.arctan2(wc.imag, wc.real)
    off_axis = z.imag != 0.0
    # sec(arg(w)/2)^{20} stays below ~250 on the strip |Im z| <= 100
    slack = np.where(off_axis, (1.0 / np.cos(np.abs(arg) / 2.0)) ** 20, 1.0)
    arg_room = np.where(off_axis, 0.5 * math.pi, 0.0)
    trunc = _STIRLING_NEXT * w ** -19 * slack
    log_w = np.hypot(np.log(w), arg)
    recur = np.maximum(np.abs(np.log(z.real)), np.log(np.abs(z) + _SHIFT)) + arg_room
    mag = np.abs(wc - 0.5) * log_w + w + _HALF_LOG_2PI + _SHIFT * recur
    return trunc, _TERM_ULPS * _U * mag


@_quiet
def log_gamma(z, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """log Gamma(z) for Re z > 0, real or complex.

    Agrees with the real logarithm of Gamma on (0, inf) and continues it
    analytically over the right half-plane (imaginary parts are not reduced
    mod 2 pi).  Reflection to Re z <= 0 is deliberately unsupported.  A
    complex argument gives a complex value even on the real axis.
    """
    zs = np.asarray(z)
    zc = _checked_complex("log_gamma", zs, 0.0) if zs.dtype.kind == "c" else _checked("log_gamma", zs, what="Re z")
    value = _lgamma_core(zc)
    trunc, rounding = _lgamma_bound(zc)
    _check_truncation("log_gamma", value, trunc, cfg)
    return _result("log_gamma", value, trunc + rounding, _SHIFT + len(_STIRLING_COEF), zs.shape)


@_quiet
def gamma(z, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Gamma(z) = exp(log_gamma(z)); overflows past z ~ 171.6 on the real axis.

    The truncation check against ``cfg.rel_tol`` is log_gamma's.
    """
    return _exp_log("gamma", log_gamma(z, cfg), z, "Gamma({})")


def _exp_log(fn: str, lg: SeriesResult, x, name: str) -> SeriesResult:
    """exp of a log-gamma result at x, its bound scaled by the value: the body of gamma and gamma_q.

    ``name`` is the function as an overflow message writes it, with {} for x.
    """
    lv = _flat(lg.value)
    over = lv.real > _LOG_MAX_FLOAT
    if over.any():
        raise OverflowError(f"{name.format(_first(x, over))} exceeds the float64 range")
    value = np.exp(lv)
    bound = np.abs(value) * (np.expm1(np.minimum(_flat(lg.abs_error_bound), 1.0)) + 2.0 * _U)
    return _result(fn, value, bound, lg.terms_used, np.shape(x))


_ZETA_DIRECT = 14
_ZETA_OFFSETS = np.arange(_ZETA_DIRECT, dtype=float)[:, None]


@functools.cache
def _zeta_coefs(s: int) -> tuple[float, ...]:
    """The correction coefficients B_2j/(2j)! (s)_{2j-1}, j = 1..M+1, then their size scale, as one column.

    Each coefficient is rounded as its running product gives it.  Since
    w >= 14, the scale sum_{j<=M} |coef_j| / 14^{2j-2} times w^{-s-1} bounds
    the summed size of the M corrections.
    """
    coefs, rising, fact = [], float(s), 2.0  # (s)_{2j-1} rising factorial, (2j)!
    for j, b in enumerate(_BERNOULLI, start=1):
        coefs.append(b / fact * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    scale = sum(abs(c) / _ZETA_DIRECT ** (2.0 * j - 2.0) for j, c in enumerate(coefs[:-1], start=1))
    return (*coefs, scale)


def _hurwitz_zeta_int(s, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """zeta(s, a) for an order array s >= 1 by Euler-Maclaurin: value, error bound, rounding error bound.

    Past K direct terms the tail sum_{k>=K} (k+a)^{-s} is the integral
    w^{1-s}/(s-1), w = K + a, plus w^{-s}/2 and Bernoulli corrections; the
    remainder is below the first omitted correction.  At s = 1, where the sum
    diverges, -log w takes the integral's place and the result is -psi(a), the
    constant term of zeta(s, a) at its pole (w^{1-s}/(s-1) - 1/(s-1) -> -log w).
    Every term is a power of a rounded shift of a (at s = 1 the tail is the
    logarithm of such a shift), so it carries _TERM_ULPS + s ulps, a
    correction up to 4 more per factor 1/w^2 (32 in all).  Each piece of the
    rounding bound is scaled by u before it is added, so the bound stays finite
    wherever the value does.  The coefficients of each element's order are its
    column of _order_columns(_zeta_coefs, top), read by indexing.
    """
    w = _ZETA_DIRECT + a
    *coefs, last, scale = _order_columns(_zeta_coefs, int(s.max(initial=0)))[:, s]
    half = 0.5 * _pow(w, -s)
    wpow = _pow(w, -s - 1)
    corr_size = scale * wpow  # the j-th correction has 1/w^{2j-2} <= 1/14^{2j-2}
    # w^{-s-1-2j} for j = 0..M as running products, and the M corrections
    steps = np.empty((len(coefs) + 1, *np.shape(wpow)))
    steps[0], steps[1:] = wpow, 1.0 / (w * w)
    wpows = _running(np.multiply, steps)
    corr = np.array(coefs).reshape(len(coefs), *wpows.shape[1:-1], -1) * wpows[:-1]
    trunc = np.abs(last * wpows[-1])
    direct = _pow(a + _rows(_ZETA_OFFSETS, a), -s)  # (k + a)^{-s}, added in order of k

    def corrected(after_tail):  # the running sums go on through the corrections
        return _total(np.concatenate([after_tail[None], corr]))

    def regular():  # every term is positive: each partial sum lies within after_tail + corr_size of 0
        after_tail = _total(direct) + (_pow(w, 1 - s) / (s - 1) + half)
        ulps = _TERM_ULPS + s + 23
        return corrected(after_tail), trunc, ulps * _U * after_tail + (ulps + 32) * _U * corr_size

    def pole():
        # At s = 1 the tail is negative and, for small a, term 0 (1/a) dwarfs the
        # others.  It is added last, so only that addition rounds at |value|.
        tail = -np.log(w)
        head = _total(direct[1:])  # positive, like every partial sum before it
        after_tail = head + (tail + half)
        # 12 additions up to head, the rounding of tail + half, 9 sums within
        # corr_size of after_tail, and the last addition, of term 0
        value = corrected(after_tail) + direct[0]
        err = (_TERM_ULPS + 1) * _U * (direct[0] + head + np.abs(tail) + half)
        err = err + (_TERM_ULPS + 1 + 32) * _U * corr_size
        err = err + 12.0 * _U * head + np.abs(tail + half) * _U + 9.0 * _U * (np.abs(after_tail) + corr_size)
        return value, trunc, err + np.abs(value) * _U

    return _branch(s > 1, regular, pole)


# ---------------------------------------------------------------------------
# q-deformed family
# ---------------------------------------------------------------------------
#
# The q-series are closed by Euler-Maclaurin at a fixed cost: N direct terms,
# then for T = x + N
#
#   sum_{i>=0} f(T+i) = int_T^inf f + f(T)/2 - sum_{j=1..M} B_2j/(2j)! f^(2j-1)(T) + R.
#
# Every summand used below is completely monotonic (or minus one), so R lies
# between 0 and the first omitted correction; that term is the truncation
# bound.  The cost does not depend on q, x or rel_tol.

_EM_DIRECT = 10  # N
_EM_ORDER = 8  # M
_EM_TERMS = _EM_DIRECT + _EM_ORDER
# B_2j / (2j)! for j = 1..M+1; the last one bounds the remainder
_EM_COEF = tuple(b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, start=1))
_EM_COLUMN = np.array(_EM_COEF)[:, None]  # row j broadcasts over t
_EM_ODD = np.arange(1, 2 * len(_EM_COEF), 2)[:, None]  # 2j - 1, so k0 + _EM_ODD is each row's order

# Rounding budget of the q-series, in units of u.  A quantity built from
# q^t = exp(t log q) and 1 - q^t = -expm1(t log q) carries a relative error of
# about _TERM_ULPS + 3 |t log q| ulps: the exponent's own rounding is
# magnified by |t log q|.  Past |t log q| = _EXP_ARG_MAX, q^t is 0 in float64
# and nothing is magnified, which also keeps the budget finite when t log q
# overflows.  Each derivative order adds 3 ulps (r^(k+1) and the Eulerian
# polynomial), and each addition adds the size of its partial sum.
_EXP_ARG_MAX = 746.0


@functools.cache
def _eulerian(k: int) -> tuple[float, ...]:
    """Eulerian numbers A(k, 0..k-1), with A_0 = A_1 = (1,).

    Li_{-k}(z) = z A_k(z) / (1-z)^{k+1}.  The rows are palindromic, so the
    tuple is also the Horner order.  Built in integers, then rounded once;
    A(k, m) <= k!, so every order up to 170 fits in float64.
    """
    if k > 170:
        raise OverflowError(f"Eulerian numbers of order {k} exceed the float64 range")
    row = [1]
    for m in range(2, k + 1):
        row = [
            (j + 1) * (row[j] if j < m - 1 else 0) + (m - j) * (row[j - 1] if j else 0)
            for j in range(m)
        ]
    return tuple(float(c) for c in row)


@functools.cache
def _eulerian_plan(orders: tuple[int, ...]) -> tuple[tuple[int, np.ndarray], ...]:
    """The Horner steps of A_k for a column of orders, one a row, as _eulerian_poly runs them.

    The steps are the rows of _order_columns(_eulerian, top), top the highest
    order, so step 0 is A_top's first.  Step s is (lo, the column's
    coefficients from row lo on), lo the first row begun at step s or before.
    Every Eulerian number is positive, so an order has begun once its
    coefficient is nonzero (A_0 and A_1 both have one coefficient, 1).
    """
    column = _order_columns(_eulerian, max(orders))[:, list(orders)]
    starts = (int(b.argmax()) for b in np.logical_or.accumulate(column != 0, axis=0))
    return tuple((lo, col[lo:, None]) for lo, col in zip(starts, column))


def _eulerian_poly(k, z) -> np.ndarray:
    """A_k(z) for an order array k that broadcasts with z >= 0, by one in-place Horner pass.

    The pass runs over the padded table _order_columns(_eulerian, top) from
    the highest order's first step.  Through an order's leading zeros the
    partial value is 0.0 * z + 0.0 = 0.0, and then 0.0 * z + c = c, so each
    element gets its own order's Horner sum bit for bit.  Where k has a row
    axis that z lacks (the Euler-Maclaurin orders k0 + 2j - 1, one row per
    j), a step runs only on the rows from the first one begun (see
    _eulerian_plan): the rows above keep the 0.0 they would reach.  A single
    order, or one order a row, takes each step's coefficients as a cached
    plan holds them; any other order array gathers its own at each step.
    """
    k = np.asarray(k)
    if k.ndim == 2 and k.shape[1] == 1 and np.ndim(z) >= 2 and np.shape(z)[-2] == 1:
        # an order column against abscissae that do not depend on the order (see _with_orders): one order a row
        flat = _eulerian_poly(k, np.reshape(z, -1))
        return np.moveaxis(flat.reshape(len(k), *np.shape(z)[:-2], np.shape(z)[-1]), 0, -2)
    if k.size == 1:
        plan = zip(itertools.repeat(0), _eulerian(k.item()))
    elif k.ndim > np.ndim(z) and k.shape[1:] == (1,):
        plan = iter(_eulerian_plan(tuple(k.ravel().tolist())))
    else:  # a row has begun once its highest order has
        by_row = k.ndim > np.ndim(z)
        heads = k.max(axis=tuple(range(1, k.ndim)), initial=0).tolist() if by_row else [int(k.max(initial=0))]
        table = _order_columns(_eulerian, max(heads))
        plan = ((lo, row.take(k[lo:])) for (lo, _), row in zip(_eulerian_plan(tuple(heads)), table))
    lo, c = next(plan)  # the first step, 0.0 * z + c, leaves c
    poly = np.zeros(np.broadcast(k, z).shape)
    poly[lo:] = c
    for lo, c in plan:
        part = poly[lo:] if lo else poly
        part *= z
        part += c
    return poly


def _one_minus_q_pow(e):
    """1 - q^t = -expm1(e) for e = t log q, checked to be nonzero.

    Each q-series checks its smallest abscissa once, here; its other
    abscissae lie further out, where 1 - q^t is larger.
    """
    w = -np.expm1(e)
    if not w.all():  # some t log q underflowed: the q-series term is beyond float64
        raise OverflowError(f"q-series term at t log q = {_first(e, w == 0.0)} exceeds the float64 range")
    return w


def _q_pow(t, lq: float):
    """(e, z, w) = (t log q, q^t, 1 - q^t), with 1 - q^t = -expm1(e) free of cancellation."""
    e = t * lq
    return e, np.exp(e), -np.expm1(e)


def _log_one_minus_q(lq: float) -> tuple[float, float]:
    """log(1-q) for lq = log q, and its rounding budget (absolute, in units of u)."""
    if lq < -_LOG2:  # from q itself: accurate relative to a small q
        v = math.log1p(-math.exp(lq))
        return v, abs(v) * (_TERM_ULPS + 3.0 * -lq)
    v = math.log(-math.expm1(lq))  # from 1 - q = -expm1(log q): consistent with every other q-power
    return v, _TERM_ULPS + abs(v)


def _log_q_number(w, lq: float):
    """log((1-q^y)/(1-q)), the log of the q-number [y]_q, for w = 1 - q^y and lq = log q.

    One logarithm of the ratio, with 1 - q = -expm1(lq) formed as every
    1 - q^y is: the two large logarithms near q = 1 never cancel, and y = 1
    gives 0 exactly.
    """
    return np.log(w / -math.expm1(lq))


def _lambert(k, z, w, lq: float):
    """|log q g^(k)(t)| for g(t) = q^t/(1-q^t) = sum_{j>=1} q^{jt}, completely monotonic in t; k an order array.

    log q g^(k)(t) = (log q)^(k+1) Li_{-k}(z) = (-1)^(k+1) z A_k(z) r^(k+1) with z = q^t,
    w = 1 - z (see _q_pow) and r = -log q / w > 0, near 1/t as q -> 1.  Every factor is
    positive, and g, beyond float64 where t log q is subnormal, is never formed.  The
    relative rounding error is within _TERM_ULPS + 3k + 3|t log q| ulps.  A_k(z) comes
    from _eulerian_poly, the one Horner pass over Eulerian polynomials in this module.
    A single order 0 or 1 skips the pass: A_0 = A_1 = 1, and a factor 1.0 leaves the
    bits alone; order 0 is z r itself, since r ** 1 is r.
    """
    if np.size(k) == 1 and k <= 1:
        return z * (-lq / w) if k == 0 else z * _pow(-lq / w, k + 1)
    return z * _eulerian_poly(k, z) * _pow(-lq / w, k + 1)


@functools.cache
def _em_order_plan(k0: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct Euler-Maclaurin orders k0 + 2j - 1 of an order column k0, as a column, and each one's index.

    index[j, i] is the row of order k0[i] + 2j + 1 among them (see
    _em_corrections).  Cached by the column, which verify asks for once per case.
    """
    distinct, index = np.unique(np.add.outer(_EM_ODD.ravel(), k0), return_inverse=True)
    distinct, index = distinct[:, None], index.reshape(len(_EM_ODD), len(k0))
    distinct.flags.writeable = index.flags.writeable = False
    return distinct, index


def _em_corrections(k0, e, z, w, lq: float):
    """-sum_{j=1..M} B_2j/(2j)! f^(2j-1)(t) for f = |log q g^(k0)| (see _lambert), k0 an order array.

    f^(m) = (-1)^m |log q g^(k0+m)|: this is sum_j B_2j/(2j)! z A_k(z) r^(k+1), k = k0 + 2j - 1.
    (e, z, w) is _q_pow(t, lq).  All orders share z = q^t and r, so one
    _eulerian_poly pass over the order column k0 + 2j - 1 serves them, each
    row joining at its own order's first step; an order array k0 (one
    element per t) makes that an order array of M+1 rows.  Returns (correction,
    remainder bound B_2M+2/(2M+2)! |f^(2M+1)(t)|, rounding budget in ulps:
    each term within its order's budget, plus M additions).
    """
    r = -lq / w
    fac = z * _pow(r, k0 + 2)  # fac = z r^(k+1) at k = k0 + 1
    steps = np.empty((len(_EM_COEF), *(np.shape(fac) or (1,))))  # fac, then r^2 M times
    steps[0] = fac
    steps[1:] = r * r
    # row j: B_2j/(2j)! (fac r^2j) A_k(z); sums are added in order of j
    terms = _rows(_EM_COLUMN, steps[0]) * _running(np.multiply, steps)
    if np.ndim(k0) == 2:  # an order column (see _with_orders): z is one row, so each Eulerian order runs once
        distinct, index = _em_order_plan(tuple(k0.ravel().tolist()))
        terms *= _eulerian_poly(distinct, z.reshape(-1))[index]
    else:
        terms *= _eulerian_poly(k0 + _rows(_EM_ODD, k0), z)
    kept = terms[:-1]  # the last term is left out: it bounds the remainder
    corr = _total(kept)
    mag = _total(np.abs(kept))
    ulps = _TERM_ULPS + 3.0 * (np.minimum(-e, _EXP_ARG_MAX) + k0 + 2 * _EM_ORDER) + _EM_ORDER
    return corr, terms[-1], mag * ulps


# offsets 0..N-1 of the direct terms, then N of the tail's start T = x + N
_EM_ROWS = np.arange(_EM_DIRECT + 1, dtype=float)[:, None]


def _q_polygamma(n, x: np.ndarray, lq: float):
    """(-1)^(n+1) psi_q^(n)(x) = [n=0] log(1-q) + sum_{i>=0} f(x+i), f = |log q g^(n)| > 0 (see _lambert).

    n is an order array >= 0; _polygamma applies the sign.  Returns (value,
    truncation bound, rounding error bound); each piece of the last is
    scaled by u before it is added, so it stays finite wherever the value
    does.  The tail integral is int_T^inf f = |log q g^(n-1)(T)|, and for n = 0
    it is -log(1-q^T), merged with log(1-q) into log((1-q)/(1-q^T)) so the
    two large logarithms near q = 1 do not cancel.
    """
    t = x + _rows(_EM_ROWS, x)  # row i < N holds x + i, row N holds T
    e, z, w = _q_pow(t, lq)
    f = _lambert(n, z, w, lq)
    v = f[:-1]
    weighted = _total(v * t[:-1])
    # a subnormal x log q (row 0 only) is off by up to 2^-1074 / |x log q| relative, n + 1 times in r^(n+1)
    subnormal = np.where(e[0] > -_TINY, 2.0 ** -1074 / -e[0], 0.0) * (n + 1) * v[0]
    running = _running(np.add, v)  # may overwrite v, whose terms are read above
    direct = running[-1]
    partial = _total(running * _U)
    err = direct * ((_TERM_ULPS + 3.0 * n) * _U) - 3.0 * lq * weighted * _U + partial + subnormal
    e, z, w = e[-1], z[-1], w[-1]  # at T, shared by the head, the half term and the corrections
    ulps = _TERM_ULPS + 3.0 * (n + np.minimum(-e, _EXP_ARG_MAX))

    def q_number():  # n = 0
        head = -_log_q_number(w, lq)
        return head, (_TERM_ULPS + np.abs(head)) * _U  # the ratio's relative error, now absolute

    def lambert():  # n >= 1; |n - 1| keeps order-0 elements, which q_number serves, off order -1 (take would wrap it)
        head = _lambert(abs(n - 1), z, w, lq)
        return head, head * ulps * _U

    head, head_err = _branch(n > 0, lambert, q_number)
    half = 0.5 * f[-1]
    corr, rem, corr_err = _em_corrections(n, e, z, w, lq)
    inner = direct + half + corr
    value = head + inner
    err = err + half * ulps * _U + corr_err * _U + 2.0 * _U * np.abs(inner) + head_err + np.abs(value) * _U
    return value, rem, err


def _branch(cond, when_true, when_false):
    """Per element, the tuple of the branch ``cond`` picks; a branch no element takes is not run."""
    cond = np.asarray(cond)
    if cond.all():
        return when_true()
    if not cond.any():
        return when_false()
    return tuple(np.where(cond, a, b) for a, b in zip(when_true(), when_false()))


# B_2k / (2k+1)! for k = 1..9, the coefficients of the dilogarithm's Bernoulli
# series  Li2(z) = y - y^2/4 + sum_k c_k y^{2k+1},  y = -log(1-z).  For
# 0 <= y <= log 2 the terms from y^3 on alternate and shrink by a factor
# below 0.02, so the k = 9 term bounds the remainder.
_LI2_COEF = tuple(b / math.factorial(2 * k + 1) for k, b in enumerate(_BERNOULLI, start=1))
_LI2_TERMS = len(_LI2_COEF) + 1  # y, -y^2/4 and c_1..c_8
_LOG2 = math.log(2.0)


def _li2_series_diff(alpha, beta, d):
    """(B(alpha) - B(beta)) d / (alpha - beta) for B(y) = y - y^2/4 + sum_k c_k y^{2k+1}.

    The y^{n+1} term becomes f_n = (alpha^{n+1} - beta^{n+1}) d / (alpha - beta),
    built by f_0 = d, f_1 = (alpha + beta) d and
    f_{n+2} = alpha^2 f_n + (alpha + beta) beta^{n+1} d: every step adds terms
    of one sign, so the difference of two nearby dilogarithms keeps its digits.
    beta = 0, d = y gives B(y) itself.  Needs 0 <= alpha, beta <= log 2.
    Returns (value, remainder bound, rounding budget in ulps).
    """
    a2, ab, b2 = alpha * alpha, alpha + beta, beta * beta
    value = d - 0.25 * ab * d
    mag = np.abs(d) + np.abs(0.25 * ab * d)
    f, bpow, term = d, beta, 0.0
    for c in _LI2_COEF:
        value = value + term  # the last term is left out: it bounds the remainder
        mag = mag + np.abs(term)
        f = a2 * f + ab * bpow * d  # f_2k from f_2k-2
        bpow = bpow * b2
        term = c * f
    # each term within _TERM_ULPS plus 8 ulps per power pair, plus the additions
    return value, np.abs(term), mag * (_TERM_ULPS + 8.0 * len(_LI2_COEF) + _LI2_TERMS)


def _li2(z, log_z, one_minus_z):
    """Li2(z) on (0, 1) at bounded cost; returns (value, remainder bound, ulps).

    z <= 1/2 sums the Bernoulli series in y = -log(1-z) <= log 2.  z > 1/2 uses
    the reflection Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z) (DLMF 25.12.6),
    whose last term is the same series in y = -log z < log 2.  The caller
    passes log z and 1 - z so it can supply them without cancellation.
    """

    def series():
        y = -np.log1p(-z)
        return _li2_series_diff(y, 0.0, y)

    def reflected():
        y = -log_z
        s, rem, err = _li2_series_diff(y, 0.0, y)
        cross = y * np.log(one_minus_z)
        value = _PI2_OVER_6 + cross - s
        err = err + (1.0 + _TERM_ULPS * (np.abs(cross) + y) + np.abs(_PI2_OVER_6 + cross) + np.abs(value))
        return value, rem, err

    return _branch(z <= 0.5, series, reflected)


def _log_gamma_q_series(x: np.ndarray, lq: float):
    """log Gamma_q(x) = (1-x) log(1-q) + sum_{n>=0} phi(n), phi(n) = log((1-q^{n+1})/(1-q^{n+x})).

    phi is completely monotonic for x < 1 and minus one for x > 1.  Its tail
    integral is the q-Stirling term of the paper,
        int_N^inf phi = int_a^b -log(1-q^s) ds = [Li2(q^a) - Li2(q^b)] / |log q|
    with a = N + x and b = N + 1, formed without cancellation where it can be:
    - q^a, q^b >= 1/2: by the reflection formula it is
      a log(1-q^a) - b log(1-q^b) - [B(a|log q|) - B(b|log q|)]/|log q|; the
      pi^2/6 parts cancel exactly, the logarithms regroup with (1-x) log(1-q)
      into ratios, and the B difference is formed term by term, so no digits
      are lost as q -> 1;
    - q^a, q^b <= 1/2: it is [B(y_a) - B(y_b)]/|log q| with y = -log(1-q^s),
      and y_a - y_b = phi(N);
    - otherwise the two Li2 values are subtracted, |log q| > log 2 / max(a, b)
      bounds the loss, and the rounding budget counts it.
    Returns (value, truncation bound, rounding budget in ulps).
    """
    d = -np.expm1(np.abs(x - 1.0) * lq)  # 1 - q^{|x-1|}
    # row n: phi(n); r = phi's ratio minus 1 = (q^{n+x} - q^{n+1}) / (1 - q^{n+x}),
    # free of cancellation, goes through log1p unless r <= -1/2
    e = (_EM_ROWS + x) * lq  # phi(0..N-1), then phi(N)
    w = -np.expm1(e)
    r = np.where(x < 1.0, np.exp(e), -np.exp((_EM_ROWS + 1.0) * lq)) * d / w

    def near():
        v = np.log1p(r)
        return v, np.abs(v) * (2.0 * _TERM_ULPS + 3.0 * np.minimum(-e, _EXP_ARG_MAX))

    def ratio():
        v = np.log(-np.expm1((_EM_ROWS + 1.0) * lq) / w)
        return v, _TERM_ULPS + np.abs(v)

    v, v_err = _branch(r > -0.5, near, ratio)
    # a subnormal x log q (row 0 only) is off by up to a whole subnormal ulp, 2^-1074 / |x log q| relative
    v_err = v_err + np.where(e > -_TINY, 2.0 ** -1074 / _U / -e, 0.0)
    running = _running(np.add, v[:-1])  # the direct terms, in order; v's last row, phi(N), stays
    direct = running[-1]
    err = _total(v_err[:-1] + np.abs(running))
    phi_n, phi_err = v[-1], v_err[-1]  # phi(N), for the tail
    a, b = _EM_DIRECT + x, _EM_DIRECT + 1.0
    # phi^(m)(N) = f^(m-1)(b) - f^(m-1)(a), f = |log q g| (see _lambert): order -1 of psi_q's series
    corr_a, rem_a, err_a = _em_corrections(np.int64(-1), *_q_pow(a, lq), lq)
    corr_b, rem_b, err_b = _em_corrections(np.int64(-1), *_q_pow(b, lq), lq)
    alpha, beta = -a * lq, -b * lq

    def close(parts, brem, part_err):
        value, total = direct, err + part_err
        for p in (*parts, 0.5 * phi_n, corr_a, -corr_b):
            value = value + p
            total = total + np.abs(value)
        total = total + (0.5 * phi_err + err_a + err_b)
        return value, rem_a + rem_b + brem, total

    def reflected():  # q^a, q^b >= 1/2
        log_b1 = _log_q_number(-math.expm1(b * lq), lq)
        bdiff, brem, berr = _li2_series_diff(alpha, beta, x - 1.0)
        parts = (-a * phi_n, (x - 1.0) * log_b1, -bdiff)
        part_err = (a * (phi_err + np.abs(phi_n))
                    + np.abs(x - 1.0) * (_TERM_ULPS + 2.0 * abs(log_b1)) + berr)
        return close(parts, brem, part_err)

    def direct_li2():
        log_1, log_1_err = _log_one_minus_q(lq)
        za, zb = np.exp(a * lq), math.exp(b * lq)

        def series():  # q^a, q^b <= 1/2
            ya, yb = -np.log1p(-za), -math.log1p(-zb)
            tail, brem, terr = _li2_series_diff(ya, yb, phi_n)
            return tail, brem, terr + phi_err  # |B(y_a) - B(y_b)| <= |y_a - y_b| carries phi(N)'s error

        def difference():
            la, ra, la_err = _li2(za, a * lq, -np.expm1(a * lq))
            lb, rb, lb_err = _li2(zb, b * lq, -math.expm1(b * lq))
            return la - lb, ra + rb, la_err + lb_err + np.abs(la - lb)

        tail, brem, terr = _branch(np.maximum(za, zb) <= 0.5, series, difference)
        parts = ((1.0 - x) * log_1, tail / -lq)
        part_err = np.abs(1.0 - x) * (log_1_err + abs(log_1)) + (terr + np.abs(tail)) / -lq
        return close(parts, brem / -lq, part_err)

    return _branch(np.maximum(alpha, beta) <= _LOG2, reflected, direct_li2)


def _q_series_log_q(x: np.ndarray, q: QValue) -> float:
    """log q for q in (0, 1), once 1 - q^x is nonzero at every x.

    This is the series' one underflow check.  Every later abscissa t is >= x
    or >= 1, and for t >= 1, |t log q| >= |log nextafter(1, 0)| ~ 1.1e-16 is
    a normal float: only term 0, at t = x, can have a subnormal exponent.
    Both series' budgets count its rounding, psi_q's n + 1 times in r^(n+1).
    """
    lq = math.log(q.q)
    _one_minus_q_pow(x * lq)
    return lq


# absolute error left by gradual underflow: a few hundred operations, each off
# by at most half the smallest subnormal
_UNDERFLOW_ERR = 500 * 2.0 ** -1074


def _series_bound(fn, value, trunc, rounding, cfg: EvalConfig):
    """Truncation bound + rounding error bound; the truncation alone must meet rel_tol at every element."""
    _check_truncation(fn, value, trunc, cfg)
    return trunc + rounding + _UNDERFLOW_ERR


def _series_result(fn, value, trunc, rounding, terms, cfg: EvalConfig, shape: tuple) -> SeriesResult:
    return _result(fn, value, _series_bound(fn, value, trunc, rounding, cfg), terms, shape)


@_quiet
def log_gamma_q(x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """log Gamma_q(x) for x > 0 and q in (0, 1]; q = 1 routes to the classical log_gamma.

    Sums (1-x) log(1-q) + sum_{n>=0} log((1-q^{n+1})/(1-q^{n+x})) as N = 10
    direct terms, the tail integral [Li2(q^{N+x}) - Li2(q^{N+1})]/|log q| (the
    paper's q-Stirling factor) and M = 8 Euler-Maclaurin corrections.  The
    summand is completely monotonic up to sign, so the truncation bound is
    the first omitted correction.  The bound adds a rounding term of a few u
    per |term| (see _TERM_ULPS), so it covers the whole error.
    """
    q = _coerce_q(q)
    if q.is_classical:
        return log_gamma(x, cfg)
    xs = _checked("log_gamma_q", x)
    lq = _q_series_log_q(xs, q)
    value, trunc, ulps = _blocked(lambda b: _log_gamma_q_series(b, lq), xs)
    return _series_result("log_gamma_q", value, trunc, ulps * _U, _EM_TERMS, cfg, np.shape(x))


@_quiet
def gamma_q(x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Gamma_q(x) = exp(log_gamma_q(x)) with the error bound scaled by the value; q = 1 routes to gamma."""
    q = _coerce_q(q)
    if q.is_classical:
        return gamma(x, cfg)
    return _exp_log("gamma_q", log_gamma_q(x, q, cfg), x, f"Gamma_q({{}}, q={q.q!r})")


@_quiet
def _polygamma(fn: str, n: np.ndarray, x, q: QValue, cfg: EvalConfig) -> SeriesResult:
    """psi^(n)(x) at q = 1, psi_q^(n)(x) at q < 1, for a checked order array n >= 0 that broadcasts with x.

    The body of psi, psi_n, psi_q and psi_q_n; errors name ``fn``, the one
    called.  Classically psi^(n)(x) = (-1)^(n+1) n! zeta(n+1, x) (DLMF
    5.15.1), with -psi(x) for zeta(1, x).
    """
    xs = _checked(fn, x)
    lq = None if q.is_classical else _q_series_log_q(xs, q)
    n, xs, shape = _with_orders(fn, n, xs, np.shape(x))
    sign = 2.0 * (n % 2) - 1.0  # (-1)^(n+1), applied once to either series' sum
    if lq is not None:
        value, trunc, rounding = _blocked(lambda b, k: _q_polygamma(k, b, lq), xs, n)
        return _series_result(fn, sign * value, trunc, rounding, _EM_TERMS, cfg, shape)
    zeta, zbound, rounding = _blocked(lambda b, k: _hurwitz_zeta_int(k + 1, b), xs, n)
    nf = _factorial(n)
    value = sign * nf * zeta
    _check_truncation(fn, value, nf * zbound, cfg)
    # the scaling by n! adds one rounding; tiny powers may be subnormal
    bound = nf * (zbound + rounding + _UNDERFLOW_ERR) + np.abs(value) * _U
    return _result(fn, value, bound, _ZETA_DIRECT + len(_BERNOULLI), shape)


_CLASSICAL = QValue(1.0)


def psi(x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Digamma at real x > 0: order 0 of psi_n's series, with log(x + 14) for its tail integral.

    The bound adds _TERM_ULPS + 1 ulps per term and the rounding of the
    additions, summed as _hurwitz_zeta_int explains.
    """
    return _polygamma("psi", np.int64(0), x, _CLASSICAL, cfg)


def psi_n(n, x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """n-th derivative of psi for n >= 0 via the termwise-differentiated series; order 0 is psi, bit for bit.

    psi^(n)(x) = (-1)^(n+1) n! sum_k (k+x)^(-n-1): 14 direct terms, then the
    tail's integral with 8 Euler-Maclaurin corrections, which is what makes
    1e-12 reachable without ~1/tol direct terms.  n may be an integer array
    of orders >= 0 that broadcasts with x (an order column against a grid
    gives one row per order): one pass of the series serves every order, and
    each element equals the call with its own scalar order bit for bit.
    """
    return _polygamma("psi_n", _checked_order("psi_n", n), x, _CLASSICAL, cfg)


def psi_q(x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """q-digamma: -log(1-q) + log q * sum_{i>=0} g(x+i), g(t) = q^t/(1-q^t); q = 1 routes to psi.

    g is completely monotonic, so after N = 10 direct terms the tail
    sum_{i>=0} g(T+i), T = x + N, is its integral -log(1-q^T)/|log q| plus M = 8
    Euler-Maclaurin corrections, with a remainder between 0 and the first
    omitted one.  The bound is that term plus a rounding term of a few u per
    |term| (see _TERM_ULPS), the merged prefix log((1-q^T)/(1-q)) included.
    Order 0 of psi_q_n's series.
    """
    q = _coerce_q(q)
    if q.is_classical:
        return psi(x, cfg)
    return _polygamma("psi_q", np.int64(0), x, q, cfg)


def psi_q_n(n, x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """n-th derivative of psi_q for n >= 0: log q * sum_{i>=0} g^(n)(x+i); q = 1 routes to psi_n.

    g^(n)(t) = (log q)^n Li_{-n}(q^t) comes from the Eulerian polynomials.  The
    same scheme as psi_q applies to the completely monotonic |g^(n)|, with the
    tail integral -g^(n-1)(T); the bound is the first omitted Euler-Maclaurin
    correction plus a rounding term of a few u per |term|.  Order 0 is psi_q,
    bit for bit.  As for psi_n, n may be an integer array of orders >= 0 that
    broadcasts with x, evaluated in one pass and equal element by element to
    the scalar-order calls.
    """
    q = _coerce_q(q)
    if q.is_classical:
        return psi_n(n, x, cfg)
    return _polygamma("psi_q_n", _checked_order("psi_q_n", n), x, q, cfg)


@_quiet
def dilog_F(x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """F(x) = sum_{n>=1} x^n / n^2 = Li2(x) on [0, 1], at a cost independent of x.

    x <= 1/2 sums the Bernoulli series in -log(1-x); x > 1/2 goes through the
    reflection Li2(x) = pi^2/6 - log x log(1-x) - Li2(1-x).  Either series
    has 10 terms and alternates, so the first omitted one bounds the tail;
    the bound adds a rounding term of a few u per |term|.  F(0) = 0 exactly
    and F(1) = pi^2/6 within rounding, at no terms.
    """
    xs = _checked("dilog_F", x, 0.0, 1.0, "[]")
    zero = xs == 0.0
    inside = ~zero & (xs < 1.0)
    value = np.where(zero, 0.0, _PI2_OVER_6)
    trunc, ulps, terms = 0.0, 1.0, 0
    if inside.any():
        li2, li2_trunc, li2_ulps = _li2(xs, np.log(xs), 1.0 - xs)
        value = np.where(inside, li2, value)
        trunc = np.where(inside, li2_trunc, 0.0)
        ulps = np.where(inside, li2_ulps, 1.0)
        terms = _LI2_TERMS
    bound = np.where(zero, 0.0, _series_bound("dilog_F", value, trunc, ulps * _U, cfg))
    return _result("dilog_F", value, bound, terms, np.shape(x))


@_quiet
def _moment(k, x, lq: float):
    """k-th x-derivative of int e^{-xt} d gamma_q(t) = -log q * q^x/(1-q^x), for lq = log q.

    x is a float or an ndarray; an element outside (0, inf) is a DomainError
    naming it.  k is an order >= 0 or an integer order array that broadcasts
    with x, each element equal to its scalar-order call bit for bit.  The
    result is an array of the broadcast shape.
    """
    xs = _checked("measure_moment", x)
    k, xs, shape = _with_orders("measure_moment", _checked_order("measure_moment", k), xs, np.shape(x))
    e = xs * lq
    v = (1.0 - 2.0 * (k % 2)) * _lambert(k, np.exp(e), _one_minus_q_pow(e), lq)  # (-1)^k |log q g^(k)|
    bad = ~np.isfinite(v)
    if bad.any():
        order = np.broadcast_to(k, bad.shape)[bad][0]
        at = _first(np.broadcast_to(xs, bad.shape), bad)
        raise OverflowError(f"moment derivative of order {order} at x={at} exceeds the float64 range")
    return v.reshape(shape)


@_quiet
def _moment_over_t(x, lq: float):
    """int (e^{-xt}/t) d gamma_q(t) = sum_k q^{kx}/k = -log(1 - q^x), for lq = log q.

    Validates x and shapes its result as _moment does.
    """
    xs = _checked("measure_moment_over_t", x)
    e = xs * lq
    # where x log q is subnormal (or 0), 1 - q^x = x |log q| to the last bit
    v = np.where(e > -_TINY, -np.log(xs) - math.log(-lq), -np.log(-np.expm1(e)))
    return v.reshape(np.shape(x))


def _moment_log_q(fn: str, q) -> float:
    """log q for the closed-form moments, once q < 1 is checked."""
    q = _coerce_q(q)
    if q.is_classical:
        raise DomainError(f"{fn} requires q < 1 (at q=1 the measure is Lebesgue)")
    return math.log(q.q)


def measure_moment(x, q):
    """int e^{-xt} d gamma_q(t) = -q^x log q / (1 - q^x) in closed form (0 < q < 1)."""
    return _shaped(_moment(0, x, _moment_log_q("measure_moment", q)), np.shape(x))


def measure_moment_over_t(x, q):
    """int (e^{-xt}/t) d gamma_q(t) = sum_k q^{kx}/k = -log(1 - q^x) in closed form."""
    return _shaped(_moment_over_t(x, _moment_log_q("measure_moment_over_t", q)), np.shape(x))
