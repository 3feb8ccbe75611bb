"""Gamma, q-gamma, psi and q-psi evaluation with explicit truncation error bounds.

Every series evaluator returns a :class:`SeriesResult` carrying the value, a
bound on its error (the discarded tail plus rounding), the number of terms
used and a convergence flag.  Every series costs a fixed number of terms:
direct terms closed by an Euler-Maclaurin tail.  psi and its derivatives are
one series indexed by the order n >= 0, and so are psi_q and its derivatives.
Ratios of gamma values should always be formed from log-gamma differences,
never from quotients of direct values.

Every public evaluator takes a float or an ndarray x and runs one numpy path
for both.  A scalar argument gives Python numbers; an array gives ``value``
and ``abs_error_bound`` arrays of its shape, each element equal bit for bit
to the scalar call at that element, with ``converged`` true when every
element converged.  Where a formula branches on the argument, each element
takes the branch its scalar call takes.  The derivative orders of psi_n,
psi_q_n and the moments may likewise be an integer array that broadcasts
with x: one pass of the series serves every order, and each element equals
the scalar-order call at that element bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "DomainError",
    "ConvergenceError",
    "QValue",
    "EvalConfig",
    "Q_SERIES_MAX",
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
    """Deformation parameter q restricted to (0, 1]; q = 1 is the classical limit."""

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not (0.0 < q <= 1.0) or math.isnan(q):
            raise DomainError(f"q must lie in (0, 1], got {self.q!r}")
        object.__setattr__(self, "q", q)

    @property
    def is_classical(self) -> bool:
        return self.q == 1.0


#: The largest q the q-series accept; q = 1 routes to the classical evaluators.
Q_SERIES_MAX = 1.0 - 1e-6


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

    ``converged`` is true exactly when ``abs_error_bound`` meets the relative
    tolerance the evaluation was asked for, i.e.
    ``abs_error_bound <= rel_tol * max(1, |value|)``, at every element.
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


def _checked_order(fn: str, n, lowest: int = 1):
    """n as an int >= lowest, or, for an array n, as an int64 order array with every element >= lowest."""
    if isinstance(n, int) or np.ndim(n) == 0:
        n = int(n)
        if n < lowest:
            raise DomainError(f"{fn} requires order n >= {lowest}, got {n!r}")
        return n
    arr = np.asarray(n)
    if arr.dtype.kind not in "iu":
        raise DomainError(f"{fn} requires integer orders, got an array of dtype {arr.dtype}")
    if (arr < lowest).any():
        raise DomainError(f"{fn} requires order n >= {lowest}, got {_first(arr, arr < lowest)}")
    return arr.astype(np.int64, copy=False)


def _with_orders(n, xs: np.ndarray, shape: tuple) -> tuple:
    """(n, xs, shape) for checked flat xs of ``shape``; an order array n and xs are broadcast together and flattened."""
    if not isinstance(n, np.ndarray):
        return n, xs, shape
    x = xs.reshape(shape)
    full = np.broadcast(n, x).shape
    ns, xs = np.empty(full, dtype=n.dtype), np.empty(full)
    ns[...], xs[...] = n, x
    return ns.reshape(-1), xs.reshape(-1), full


def _finite(fn: str, *values) -> None:
    """OverflowError at the first element (row order) where one of ``values`` is not finite."""
    ok = np.isfinite(np.abs(values[0]))
    for v in values[1:]:
        ok = ok & np.isfinite(np.abs(v))
    if not ok.all():
        where = "" if ok.size == 1 else f" at element {int(np.flatnonzero(~ok)[0])}"
        raise OverflowError(f"{fn} result exceeds the float64 range{where}")


def _result(fn: str, value, bound, terms, cfg: EvalConfig, shape: tuple) -> SeriesResult:
    """Package flat value and bound arrays for an argument of ``shape``."""
    _finite(fn, value)
    bound = np.broadcast_to(bound, value.shape).astype(float)
    conv = bool((bound <= cfg.rel_tol * np.maximum(1.0, np.abs(value))).all())
    return SeriesResult(_shaped(value, shape), _shaped(bound, shape), int(terms), conv)


def _check_truncation(fn, value, trunc, cfg: EvalConfig) -> None:
    """Raise ConvergenceError where the truncation bound exceeds rel_tol * max(1, |value|)."""
    value, trunc = np.broadcast_arrays(value, trunc)
    miss = trunc > cfg.rel_tol * np.maximum(1.0, np.abs(value))  # a NaN value is _result's to report
    if miss.any():
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
    """core(x) for a core returning a tuple of arrays shaped like x, run over blocks of x.

    Given n, core(x, n); an order array n, flat like x, is cut into the same blocks.
    """
    args = (x,) if n is None else (x, n)
    if x.size <= _BLOCK:
        return core(*args)
    cut = lambda a, i: a[i:i + _BLOCK] if isinstance(a, np.ndarray) else a
    blocks = [core(*(cut(a, i) for a in args)) for i in range(0, x.size, _BLOCK)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


# An order n is an int or, once _checked_order has made it one, an int64
# ndarray that broadcasts with the abscissae.  Each element of an order array
# gets the bits of its scalar-order call.

# what numpy makes of base ** k for a scalar k in -1..2: pow gives other bits at 2 and -1
_SCALAR_POWERS = {-1: np.reciprocal, 0: np.ones_like, 1: np.positive, 2: np.square}


def _pow(base, n):
    """base ** n; for an order array n, each element as base ** int(n) at that element gives it.

    numpy takes an array to a scalar power 2 as its square and to -1 as its
    reciprocal, and pow, which an array of exponents calls, can differ from
    both in the last bit; at every other integer exponent it gives the bits
    of a scalar exponent.  So an order array runs pow only where its orders
    lie outside -1..2 (pow of a negative base is slow as well), and the
    scalar forms of those four orders elsewhere.  A base that is not an
    ndarray (a Python float) keeps Python's ``**``, order by order.
    """
    if not isinstance(n, np.ndarray):
        return base ** n
    if not isinstance(base, np.ndarray):
        return np.array([base ** k for k in n.ravel().tolist()]).reshape(n.shape)
    lo, hi = int(n.min()), int(n.max())
    if lo > 2 or hi < -1:
        return np.power(base, n)
    out = np.power(base, n, out=None, where=(n > 2) | (n < -1))  # the rest is set below
    for k in range(max(lo, -1), min(hi, 2) + 1):
        np.copyto(out, _SCALAR_POWERS[k](base), where=n == k)
    return out


@functools.cache
def _order_columns(table, top: int) -> np.ndarray:
    """table(k) for the orders k = 0..top side by side on a last axis, indexed by k.

    Each table(k) is an array whose first axis is a Horner pass; shorter ones
    are padded with leading zeros.  Horner's partial value stays exactly 0.0
    through the padding, so one pass over the columns an order array picks
    gives each element its own order's polynomial, bit for bit.
    """
    parts = [np.asarray(table(k), dtype=float) for k in range(top + 1)]
    length = max(len(p) for p in parts)
    out = np.stack([np.concatenate([np.zeros((length - len(p), *p.shape[1:])), p]) for p in parts], axis=-1)
    out.flags.writeable = False
    return out


def _per_order(table, n):
    """table(n) for an order n; for an order array, its Horner steps with each element's column.

    The steps are gathered as they are read, so a pass holds one step's
    coefficients at a time, not the whole table for every element.
    """
    if not isinstance(n, np.ndarray):
        return table(n)
    return (step.take(n, axis=-1) for step in _order_columns(table, int(n.max())))


def _factorial(n):
    """n! for an order n; per element, as the float a float product makes of it, for an order array."""
    if not isinstance(n, np.ndarray):
        return math.factorial(n)
    return np.array([float(math.factorial(k)) for k in range(int(n.max()) + 1)])[n]


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


def _lgamma_core(z: np.ndarray) -> np.ndarray:
    """Stirling series with upward recurrence on a float or complex array.

    Valid for Re z > 0.  The uniform shift puts the series argument at
    Re w >= 10 where the first omitted term is below 2e-19.
    """
    w = z + _SHIFT
    s = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI
    p = 1.0 / w
    rw2 = p * p  # not 1/(w*w), which overflows for |w| > 1.3e154
    for c in _STIRLING_COEF:
        s = s + c * p
        p = p * rw2
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
    return _result("log_gamma", value, trunc + rounding, _SHIFT + len(_STIRLING_COEF), cfg, zs.shape)


@_quiet
def gamma(z, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Gamma(z) = exp(log_gamma(z)); overflows past z ~ 171.6 on the real axis.

    The truncation check against ``cfg.rel_tol`` is log_gamma's.
    """
    return _exp_log("gamma", log_gamma(z, cfg), z, "Gamma({})", cfg)


def _exp_log(fn: str, lg: SeriesResult, x, name: str, cfg: EvalConfig) -> SeriesResult:
    """exp of a log-gamma result at x, its bound scaled by the value: the body of gamma and gamma_q.

    ``name`` is the function as an overflow message writes it, with {} for x.
    """
    lv = _flat(lg.value)
    over = lv.real > _LOG_MAX_FLOAT
    if over.any():
        raise OverflowError(f"{name.format(_first(x, over))} exceeds the float64 range")
    value = np.exp(lv)
    bound = np.abs(value) * (np.expm1(np.minimum(_flat(lg.abs_error_bound), 1.0)) + 2.0 * _U)
    return _result(fn, value, bound, lg.terms_used, cfg, np.shape(x))


_ZETA_DIRECT = 14
_ZETA_OFFSETS = np.arange(_ZETA_DIRECT, dtype=float)[:, None]


@functools.cache
def _zeta_coefs(s: int) -> tuple[tuple[float, ...], float]:
    """The correction coefficients B_2j/(2j)! (s)_{2j-1}, j = 1..M+1, and their size scale.

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
    return tuple(coefs), scale


@functools.cache
def _zeta_column(s: int) -> tuple[float, ...]:
    """_zeta_coefs(s) as one column: the M+1 coefficients, then the scale."""
    coefs, scale = _zeta_coefs(s)
    return (*coefs, scale)


def _hurwitz_zeta_int(s, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """zeta(s, a) for an integer s >= 1, or an order array of s >= 2, by Euler-Maclaurin: value, error bound, rounding error bound.

    Past K direct terms the tail sum_{k>=K} (k+a)^{-s} is the integral
    w^{1-s}/(s-1), w = K + a, plus w^{-s}/2 and Bernoulli corrections; the
    remainder is below the first omitted correction.  At s = 1, where the sum
    diverges, -log w takes the integral's place and the result is -psi(a), the
    constant term of zeta(s, a) at its pole (w^{1-s}/(s-1) - 1/(s-1) -> -log w).
    Every term is a power of a rounded shift of a (at s = 1 the tail is the
    logarithm of such a shift), so it carries _TERM_ULPS + s ulps, a
    correction up to 4 more per factor 1/w^2 (32 in all).  Each piece of the
    rounding bound is scaled by u before it is added, so the bound stays finite
    wherever the value does.
    """
    w = _ZETA_DIRECT + a
    *coefs, last, scale = _per_order(_zeta_column, s)
    pole = not isinstance(s, np.ndarray) and s == 1
    tail = -np.log(w) if pole else _pow(w, 1 - s) / (s - 1)
    half = 0.5 * _pow(w, -s)
    wpow = _pow(w, -s - 1)
    corr_size = scale * wpow  # the j-th correction has 1/w^{2j-2} <= 1/14^{2j-2}
    rw2 = 1.0 / (w * w)
    # At s = 1 the tail is negative and, for small a, term 0 (1/a) dwarfs the
    # others.  It is added last, so only that addition rounds at |value|.
    direct = _pow(a + _ZETA_OFFSETS, -s)  # (k + a)^{-s}, added in order of k
    total = 0.0
    for p in direct[1:] if pole else direct:
        total = total + p
    head = total  # positive, like every partial sum before it
    total = total + (tail + half)
    after_tail = total
    for c in coefs:
        total = total + c * wpow
        wpow = wpow * rw2
    trunc = np.abs(last * wpow)
    if not pole:  # every term is positive: each partial sum lies within after_tail + corr_size of 0
        err = (_TERM_ULPS + s + 23) * _U * after_tail
        return total, trunc, err + (_TERM_ULPS + s + 32 + 23) * _U * corr_size
    # 12 additions up to head, the rounding of tail + half, 9 sums within
    # corr_size of after_tail, and the last addition, of term 0
    value = total + direct[0]
    err = (_TERM_ULPS + 1) * _U * (direct[0] + head + np.abs(tail) + half)
    err = err + (_TERM_ULPS + 1 + 32) * _U * corr_size
    err = err + 12.0 * _U * head + np.abs(tail + half) * _U + 9.0 * _U * (np.abs(after_tail) + corr_size)
    return value, trunc, err + np.abs(value) * _U


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

# Rounding budget of the q-series, in units of u.  A quantity built from
# q^t = exp(t log q) and 1 - q^t = -expm1(t log q) carries a relative error of
# about _TERM_ULPS + 3 |t log q| ulps: the exponent's own rounding is
# magnified by |t log q|.  Past |t log q| = _EXP_ARG_MAX, q^t is 0 in float64
# and nothing is magnified, which also keeps the budget finite when t log q
# overflows.  Each derivative order adds 3 ulps (rho^k and the Eulerian
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


def _horner(coef, z):
    """sum_m coef[m] z^(len-1-m) by Horner's rule, from 0.0, coefficients in order."""
    poly = 0.0
    for c in coef:
        poly = poly * z + c
    return poly


def _lambert(k, z, w, lq: float):
    """g^(k)(t) for g(t) = q^t/(1-q^t) = sum_{j>=1} q^{jt}, completely monotonic in t.

    g^(k)(t) = (log q)^k Li_{-k}(q^t) = z A_k(z) rho^k / (1-z) with z = q^t,
    w = 1 - z (see _q_pow) and rho = log q / w, which stays near -1/t as
    q -> 1.  Its relative rounding error is within _TERM_ULPS + 3k + 3|t log q| ulps.
    k may be an order array; an element of order 0 gets z / w exactly as well.
    """
    if not isinstance(k, np.ndarray) and k == 0:  # A_0 = 1 and rho^0 = 1: the same bits, without the Horner pass
        return z / w
    return z * _horner(_per_order(_eulerian, k), z) * _pow(lq / w, k) / w


@functools.cache
def _em_rows(k0: int) -> tuple[np.ndarray, np.ndarray]:
    """(B_2j/(2j)! as a column, Horner table of A_k) for the orders k = k0 + 2j - 1, j = 1..M+1.

    Column j of the table holds A_k padded with leading zeros to a common
    length; Horner's partial value stays exactly 0.0 through the padding, so
    one pass over the table gives every order's polynomial, each equal to its
    own Horner sum.  Shape (length, M+1, 1): each row broadcasts over t.
    """
    rows = [_eulerian(k0 + 2 * j - 1) for j in range(1, len(_EM_COEF) + 1)]
    width = max(len(r) for r in rows)
    table = np.array([(0.0,) * (width - len(r)) + r for r in rows]).T[:, :, None]
    coefs = np.array(_EM_COEF)[:, None]
    table.flags.writeable = coefs.flags.writeable = False
    return coefs, table


def _em_table(k0: int) -> np.ndarray:
    """The Horner table of _em_rows(k0), shape (length, M+1)."""
    return _em_rows(k0)[1][..., 0]


def _em_corrections(k0, e, z, w, lq: float, scale: float):
    """-sum_{j=1..M} B_2j/(2j)! f^(2j-1)(t) for f^(m)(t) = scale * g^(k0+m)(t).

    (e, z, w) is _q_pow(t, lq).  All orders share z = q^t and rho, so one Horner pass over a table serves
    them; for an order array k0 (one element per t) the table holds each
    element's column.  Returns (correction, remainder bound |B_2M+2/(2M+2)! f^(2M+1)(t)|,
    rounding budget in ulps: each term within its order's budget, plus M
    additions).
    """
    rho = lq / w
    rr = rho * rho
    fac = scale * z / w * _pow(rho, k0 + 1)  # scale z rho^k / (1-z) at k = k0 + 1
    fac, rr = np.atleast_1d(fac, rr)
    if isinstance(k0, np.ndarray):
        coefs, table = _em_rows(0)[0], _per_order(_em_table, k0)
    else:
        coefs, table = _em_rows(k0)
    # row j: B_2j/(2j)! (fac rr^j) A_k(z); running sums are added in order of j
    terms = coefs * np.multiply.accumulate(np.stack([fac] + [rr] * _EM_ORDER), axis=0) * _horner(table, z)
    kept = terms[:-1]  # the last term is left out: it bounds the remainder
    corr = -np.add.accumulate(kept, axis=0)[-1]
    mag = np.add.accumulate(np.abs(kept), axis=0)[-1]
    ulps = _TERM_ULPS + 3.0 * (np.minimum(-e, _EXP_ARG_MAX) + k0 + 2 * _EM_ORDER) + _EM_ORDER
    return corr, np.abs(terms[-1]), mag * ulps


# offsets 0..N-1 of the direct terms, then N of the tail's start T = x + N
_EM_ROWS = np.arange(_EM_DIRECT + 1, dtype=float)[:, None]


def _q_polygamma(n, x: np.ndarray, lq: float):
    """psi_q^(n)(x) = [n=0] (-log(1-q)) + log q * sum_{i>=0} g^(n)(x+i), n an order or an order array (>= 1) like x.

    Returns (value, truncation bound, rounding error bound); each piece of
    the last is scaled by u before it is added, so it stays finite wherever
    the value does.  The tail integral is int_T^inf g^(n) = -g^(n-1)(T), and
    for n = 0 it is -log(1-q^T)/|log q|, which is merged with -log(1-q) into
    log((1-q^T)/(1-q)) so the two large logarithms near q = 1 do not cancel.
    """
    t = x + _EM_ROWS  # row i < N holds x + i, row N holds T; all terms of one sign
    e, z, w = _q_pow(t, lq)
    g = _lambert(n, z, w, lq)
    v = g[:-1]
    # running sums in term order (accumulate never regroups, whatever the shape)
    running = np.add.accumulate(v, axis=0)
    direct = running[-1]
    weighted = np.add.accumulate(v * t[:-1], axis=0)[-1]
    partial = np.add.accumulate(running * _U, axis=0)[-1]
    err = np.abs(direct) * ((_TERM_ULPS + 3.0 * n) * _U) + np.abs(3.0 * lq * weighted) * _U + np.abs(partial)
    e, z, w = e[-1], z[-1], w[-1]  # at T, shared by the head, the half term and the corrections
    ulps = _TERM_ULPS + 3.0 * (n + np.minimum(-e, _EXP_ARG_MAX))
    if not isinstance(n, np.ndarray) and n == 0:
        head = _log_q_number(w, lq)
        head_err = (_TERM_ULPS + np.abs(head)) * _U  # the ratio's relative error, now absolute
    else:
        head = -lq * _lambert(n - 1, z, w, lq)
        head_err = np.abs(head) * ulps * _U
    half = 0.5 * g[-1]
    corr, rem, corr_err = _em_corrections(n, e, z, w, lq, 1.0)
    inner = direct + half + corr
    err = err + (np.abs(half) * ulps * _U + corr_err * _U + 2.0 * _U * np.abs(inner))
    value = head + lq * inner
    err = head_err + abs(lq) * (err + np.abs(inner) * _U) + np.abs(value) * _U
    return value, abs(lq) * rem, err


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
    running = np.add.accumulate(v[:-1], axis=0)  # the direct terms, in order
    direct = running[-1]
    err = np.add.accumulate(v_err[:-1] + np.abs(running), axis=0)[-1]
    phi_n, phi_err = v[-1], v_err[-1]  # phi(N), for the tail
    a, b = _EM_DIRECT + x, _EM_DIRECT + 1.0
    # phi^(m)(N) = log q [g^(m-1)(a) - g^(m-1)(b)]
    corr_a, rem_a, err_a = _em_corrections(-1, *_q_pow(a, lq), lq, lq)
    corr_b, rem_b, err_b = _em_corrections(-1, *_q_pow(b, lq), lq, -lq)
    alpha, beta = -a * lq, -b * lq

    def close(parts, brem, part_err):
        value, total = direct, err + part_err
        for p in (*parts, 0.5 * phi_n, corr_a, corr_b):
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
    """log q, once q is within Q_SERIES_MAX and 1 - q^x is nonzero at every x.

    This is the series' one underflow check: every later abscissa is >= x or
    >= 1, and |log q| >= 1e-6.
    """
    if q.q > Q_SERIES_MAX:
        raise DomainError(
            f"q={q.q!r} exceeds Q_SERIES_MAX={Q_SERIES_MAX!r}; "
            "pass q=1 explicitly for the classical limit"
        )
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
    return _result(fn, value, _series_bound(fn, value, trunc, rounding, cfg), terms, cfg, shape)


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
    return _exp_log("gamma_q", log_gamma_q(x, q, cfg), x, f"Gamma_q({{}}, q={q.q!r})", cfg)


@_quiet
def _polygamma(n, x, q: QValue, cfg: EvalConfig) -> SeriesResult:
    """psi^(n)(x) at q = 1, psi_q^(n)(x) at q < 1, for every order n >= 0: psi, psi_n, psi_q, psi_q_n.

    Classically psi^(n)(x) = (-1)^(n+1) n! zeta(n+1, x) (DLMF 5.15.1), with
    -psi(x) for zeta(1, x).  n may be a checked order array (orders >= 1),
    which broadcasts with x.  Errors name the public function of (n, q).
    """
    fn = ("psi" if q.is_classical else "psi_q") + ("_n" if isinstance(n, np.ndarray) or n else "")
    xs = _checked(fn, x)
    if not q.is_classical:
        lq = _q_series_log_q(xs, q)
        n, xs, shape = _with_orders(n, xs, np.shape(x))
        value, trunc, rounding = _blocked(lambda b, k: _q_polygamma(k, b, lq), xs, n)
        return _series_result(fn, value, trunc, rounding, _EM_TERMS, cfg, shape)
    n, xs, shape = _with_orders(n, xs, np.shape(x))
    zeta, zbound, rounding = _blocked(lambda b, k: _hurwitz_zeta_int(k + 1, b), xs, n)
    nf = _factorial(n)
    sign = 2.0 * (n % 2) - 1.0  # (-1)^(n+1)
    value = sign * nf * zeta
    _check_truncation(fn, value, nf * zbound, cfg)
    # the scaling by n! adds one rounding; tiny powers may be subnormal
    bound = nf * (zbound + rounding + _UNDERFLOW_ERR) + np.abs(value) * _U
    return _result(fn, value, bound, _ZETA_DIRECT + len(_BERNOULLI), cfg, shape)


_CLASSICAL = QValue(1.0)


def psi(x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Digamma at real x > 0: order 0 of psi_n's series, with log(x + 14) for its tail integral.

    The bound adds _TERM_ULPS + 1 ulps per term and the rounding of the
    additions, summed as _hurwitz_zeta_int explains.
    """
    return _polygamma(0, x, _CLASSICAL, cfg)


def psi_n(n, x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """n-th derivative of psi for n >= 1 via the termwise-differentiated series.

    psi^(n)(x) = (-1)^(n+1) n! sum_k (k+x)^(-n-1): 14 direct terms, then the
    tail's integral with 8 Euler-Maclaurin corrections, which is what makes
    1e-12 reachable without ~1/tol direct terms.  n may be an integer array
    of orders >= 1 that broadcasts with x (an order column against a grid
    gives one row per order): one pass of the series serves every order, and
    each element equals the call with its own scalar order bit for bit.
    """
    return _polygamma(_checked_order("psi_n", n), x, _CLASSICAL, cfg)


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
    return _polygamma(0, x, q, cfg)


def psi_q_n(n, x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """n-th derivative of psi_q for n >= 1: log q * sum_{i>=0} g^(n)(x+i); q = 1 routes to psi_n.

    g^(n)(t) = (log q)^n Li_{-n}(q^t) comes from the Eulerian polynomials.  The
    same scheme as psi_q applies to the completely monotonic |g^(n)|, with the
    tail integral -g^(n-1)(T); the bound is the first omitted Euler-Maclaurin
    correction plus a rounding term of a few u per |term|.  As for psi_n, n
    may be an integer array of orders >= 1 that broadcasts with x, evaluated
    in one pass and equal element by element to the scalar-order calls.
    """
    q = _coerce_q(q)
    if q.is_classical:
        return psi_n(n, x, cfg)
    return _polygamma(_checked_order("psi_q_n", n), x, q, cfg)


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
    return _result("dilog_F", value, bound, terms, cfg, np.shape(x))


@_quiet
def _moment(k, x, lq: float):
    """k-th x-derivative of int e^{-xt} d gamma_q(t) = -log q * q^x/(1-q^x), for lq = log q.

    x is a float or an ndarray; an element outside (0, inf) is a DomainError
    naming it.  k is an order >= 0 or an integer order array that broadcasts
    with x, each element equal to its scalar-order call bit for bit.  The
    result is an array of the broadcast shape.
    """
    xs = _checked("measure_moment", x)
    k, xs, shape = _with_orders(_checked_order("measure_moment", k, 0), xs, np.shape(x))
    e = xs * lq
    v = -lq * _lambert(k, np.exp(e), _one_minus_q_pow(e), lq)
    bad = ~np.isfinite(v)
    if bad.any():
        order = k[bad][0] if isinstance(k, np.ndarray) else k
        raise OverflowError(
            f"moment derivative of order {order} at x={_first(xs, bad)} exceeds the float64 range"
        )
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
