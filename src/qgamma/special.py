"""Gamma, q-gamma, psi and q-psi evaluation with explicit truncation error bounds.

Every series evaluator returns a :class:`SeriesResult` carrying the value, a
bound on its error (the discarded tail plus rounding), the number of terms
used and a convergence flag.  The q-series cost a fixed number of terms at
every q: direct terms closed by an Euler-Maclaurin tail.  Ratios of gamma
values should always be formed from log-gamma differences, never from
quotients of direct values.

Every public evaluator takes a float or an ndarray x and runs one numpy path
for both.  A scalar argument gives Python numbers; an array gives ``value``
and ``abs_error_bound`` arrays of its shape, each element equal bit for bit
to the scalar call at that element, with ``converged`` true when every
element converged.  Where a formula branches on the argument, each element
takes the branch its scalar call takes.
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
    """The tail bound cannot meet the tolerance within the term cap."""


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


@dataclass(frozen=True)
class EvalConfig:
    """Truncation tolerance and cost caps shared by all series evaluators.

    ``q_series_max`` is the largest q the q-series accept; callers wanting the
    classical limit pass q = 1, which routes to the classical evaluators.  The
    q-series sum a fixed number of terms, so ``max_terms`` below that number
    raises ConvergenceError.
    """

    rel_tol: float = 1e-12
    max_terms: int = 100_000
    q_series_max: float = 1.0 - 1e-6

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms!r}")
        if not (0.0 < self.q_series_max < 1.0):
            raise DomainError(
                f"q_series_max must lie in (0, 1), got {self.q_series_max!r}"
            )


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


def _shaped(v: np.ndarray, shape: tuple):
    """A flat result in the argument's shape; a Python number for a scalar argument."""
    return v.item(0) if shape == () else v.reshape(shape)


def _checked(fn: str, x, lo: float = 0.0, hi: float = math.inf, closed: bool = False,
             what: str = "x") -> np.ndarray:
    """x as a flat float array, every element finite and inside (lo, hi), or [lo, hi] when ``closed``.

    Every public evaluator validates its arguments here, so NaN, infinities
    and complex values become a DomainError naming the first offending
    element instead of a NaN value or an arithmetic exception.
    """
    arr = np.asarray(x)
    if arr.dtype.kind == "c":
        raise DomainError(f"{fn} requires real {what}, got a complex argument")
    arr = arr.astype(float, copy=False).reshape(-1)
    ok = (lo <= arr) & (arr <= hi) if closed else (lo < arr) & (arr < hi)  # NaN fails either
    if not ok.all():
        left, right = "[]" if closed else "()"
        raise DomainError(
            f"{fn} requires finite {what} in {left}{lo:g}, {hi:g}{right}, got {_first(arr, ~ok)}"
        )
    return arr


def _checked_order(fn: str, n) -> int:
    n = int(n)
    if n < 1:
        raise DomainError(f"{fn} requires order n >= 1, got {n!r}")
    return n


def _result(fn: str, value, bound, terms, cfg: EvalConfig, shape: tuple) -> SeriesResult:
    """Package flat value and bound arrays for an argument of ``shape``."""
    bad = ~np.isfinite(np.abs(value))
    if bad.any():
        where = "" if value.size == 1 else f" at element {int(np.flatnonzero(bad)[0])}"
        raise OverflowError(f"{fn} result exceeds the float64 range{where}")
    bound = np.broadcast_to(bound, value.shape).astype(float)
    conv = bool((bound <= cfg.rel_tol * np.maximum(1.0, np.abs(value))).all())
    return SeriesResult(_shaped(value, shape), _shaped(bound, shape), int(terms), conv)


# The series cores hold a dozen (term, element) scratch arrays; blocks of this
# many elements keep that scratch near 1 MiB for an argument of any size.
_BLOCK = 1024


def _blocked(core, x: np.ndarray) -> tuple:
    """core(x) for a core returning a tuple of arrays shaped like x, run over blocks of x."""
    if x.size <= _BLOCK:
        return core(x)
    blocks = [core(x[i:i + _BLOCK]) for i in range(0, x.size, _BLOCK)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


# ---------------------------------------------------------------------------
# classical gamma / psi / polygamma
# ---------------------------------------------------------------------------

# Stirling series coefficients B_{2n} / (2n (2n-1)), exact rationals for the
# Bernoulli numbers B_2..B_18 (Abramowitz & Stegun 6.1.40 / 23.1).
_STIRLING_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
)
_STIRLING_NEXT = 174611.0 / 125400.0  # |B_20 / (20*19)|, first omitted term

# Digamma asymptotic coefficients B_{2n} / (2n) for B_2..B_16.
_PSI_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)
_PSI_NEXT = 43867.0 / 798.0 / 18.0  # |B_18 / 18|

# Raw Bernoulli numbers B_2..B_18 for the Euler-Maclaurin polygamma tail.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
)

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


def _lgamma_bound(z: np.ndarray) -> np.ndarray:
    """Truncation of the shifted Stirling series plus rounding.

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
    return trunc + _TERM_ULPS * _U * mag


@_quiet
def log_gamma(z, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """log Gamma(z) for Re z > 0, real or complex.

    Agrees with the real logarithm of Gamma on (0, inf) and continues it
    analytically over the right half-plane (imaginary parts are not reduced
    mod 2 pi).  Reflection to Re z <= 0 is deliberately unsupported.  A
    complex argument gives a complex value even on the real axis.
    """
    zs = np.asarray(z)
    if zs.dtype.kind == "c":
        zc = zs.astype(complex).reshape(-1)
        _checked("log_gamma", zc.real, what="Re z")
        _checked("log_gamma", zc.imag, -math.inf, what="Im z")
    else:
        zc = _checked("log_gamma", zs, what="Re z")
    terms = _SHIFT + len(_STIRLING_COEF)
    return _result("log_gamma", _lgamma_core(zc), _lgamma_bound(zc), terms, cfg, zs.shape)


@_quiet
def gamma(z, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Gamma(z) = exp(log_gamma(z)); overflows past z ~ 171.6 on the real axis."""
    lg = log_gamma(z, cfg)
    lv = _flat(lg.value)
    over = lv.real > _LOG_MAX_FLOAT
    if over.any():
        raise OverflowError(f"Gamma({_first(z, over)}) exceeds the float64 range")
    value = np.exp(lv)
    bound = np.abs(value) * (np.expm1(np.minimum(_flat(lg.abs_error_bound), 1.0)) + 2.0 * _U)
    return _result("gamma", value, bound, lg.terms_used, cfg, np.shape(z))


@_quiet
def psi(x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Digamma at real x > 0: recurrence up by 10 then the Bernoulli asymptotic series."""
    xs = _checked("psi", x)
    value = _psi_core(xs)
    bound = _PSI_NEXT * (xs + _SHIFT) ** -18 + 1e-15 * np.maximum(1.0, np.abs(value))
    return _result("psi", value, bound, _SHIFT + len(_PSI_COEF), cfg, np.shape(x))


def _psi_core(x: np.ndarray) -> np.ndarray:
    w = x + _SHIFT
    rw = 1.0 / w
    rw2 = rw * rw  # not 1/(w*w), which overflows for |w| > 1.3e154
    s = np.log(w) - 0.5 / w
    p = rw2
    for c in _PSI_COEF:
        s = s - c * p
        p = p * rw2
    for j in range(_SHIFT):
        s = s - 1.0 / (x + j)
    return s


_ZETA_DIRECT = 14
_ZETA_OFFSETS = np.arange(_ZETA_DIRECT, dtype=float)[:, None]


def _hurwitz_zeta_int(s: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta(s, a) for integer s >= 2 by Euler-Maclaurin; returns (value, error bound).

    The tail past K direct terms is the integral int_K (t+a)^{-s} dt refined by
    Bernoulli corrections; the remainder is below the first omitted correction.
    """
    w = _ZETA_DIRECT + a
    total = 0.0
    for p in (a + _ZETA_OFFSETS) ** -s:  # (k + a)^{-s}, added in order of k
        total = total + p
    total = total + (w ** (1 - s) / (s - 1) + 0.5 * w ** -s)
    rising = float(s)  # (s)_{2j-1} rising factorial
    fact = 2.0  # (2j)!
    wpow = w ** (-s - 1)
    rw2 = 1.0 / (w * w)
    for j, b in enumerate(_BERNOULLI[:-1], start=1):
        total = total + b / fact * rising * wpow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        wpow = wpow * rw2
    bound = np.abs(_BERNOULLI[-1] / fact * rising * wpow)
    return total, bound


@_quiet
def psi_n(n: int, x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """n-th derivative of psi via the termwise-differentiated series.

    psi^(n)(x) = (-1)^(n+1) n! sum_k (k+x)^(-n-1); the tail is controlled by
    integral comparison with Euler-Maclaurin corrections, which is what makes
    1e-12 reachable without ~1/tol direct terms.
    """
    n = _checked_order("psi_n", n)
    xs = _checked("psi_n", x)
    zeta, zbound = _blocked(lambda b: _hurwitz_zeta_int(n + 1, b), xs)
    nf = math.factorial(n)
    sign = 1.0 if n % 2 == 1 else -1.0
    value = sign * nf * zeta
    bound = nf * zbound + 1e-15 * np.maximum(1.0, np.abs(value))
    return _result("psi_n", value, bound, _ZETA_DIRECT + len(_BERNOULLI), cfg, np.shape(x))


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
    """1 - q^t = -expm1(e) for e = t log q, without cancellation."""
    w = -np.expm1(e)
    under = w == 0.0  # t log q underflowed: the q-series term is beyond float64
    if np.any(under):
        raise OverflowError(f"q-series term at t log q = {_first(e, under)} exceeds the float64 range")
    return w


def _horner(coef, z):
    """sum_m coef[m] z^(len-1-m) by Horner's rule, from 0.0, coefficients in order."""
    poly = 0.0
    for c in coef:
        poly = poly * z + c
    return poly


def _lambert(k: int, t, lq: float):
    """g^(k)(t) for g(t) = q^t/(1-q^t) = sum_{j>=1} q^{jt}, completely monotonic in t.

    g^(k)(t) = (log q)^k Li_{-k}(q^t) = z A_k(z) rho^k / (1-z) with z = q^t and
    rho = log q / (1-z), which stays near -1/t as q -> 1.  Its relative
    rounding error is within _TERM_ULPS + 3k + 3|t log q| ulps.
    """
    e = t * lq
    w = _one_minus_q_pow(e)
    z = np.exp(e)
    return z * _horner(_eulerian(k), z) * (lq / w) ** k / w


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


def _em_corrections(k0: int, t, lq: float, scale: float):
    """-sum_{j=1..M} B_2j/(2j)! f^(2j-1)(t) for f^(m)(t) = scale * g^(k0+m)(t).

    All orders share z = q^t and rho, so one Horner pass over a table serves
    them.  Returns (correction, remainder bound |B_2M+2/(2M+2)! f^(2M+1)(t)|,
    rounding budget in ulps: each term within its order's budget, plus M
    additions).
    """
    e = t * lq
    w = _one_minus_q_pow(e)
    z = np.exp(e)
    rho = lq / w
    rr = rho * rho
    fac = scale * z / w * rho ** (k0 + 1)  # scale z rho^k / (1-z) at k = k0 + 1
    fac, rr = np.atleast_1d(fac, rr)
    coefs, table = _em_rows(k0)
    # row j: B_2j/(2j)! (fac rr^j) A_k(z); running sums are added in order of j
    terms = coefs * np.multiply.accumulate(np.stack([fac] + [rr] * _EM_ORDER), axis=0) * _horner(table, z)
    kept = terms[:-1]  # the last term is left out: it bounds the remainder
    corr = -np.add.accumulate(kept, axis=0)[-1]
    mag = np.add.accumulate(np.abs(kept), axis=0)[-1]
    ulps = _TERM_ULPS + 3.0 * (np.minimum(-e, _EXP_ARG_MAX) + k0 + 2 * _EM_ORDER) + _EM_ORDER
    return corr, np.abs(terms[-1]), mag * ulps


_EM_OFFSETS = np.arange(_EM_DIRECT, dtype=float)[:, None]


def _q_polygamma(n: int, x: np.ndarray, lq: float):
    """psi_q^(n)(x) = [n=0] (-log(1-q)) + log q * sum_{i>=0} g^(n)(x+i).

    Returns (value, truncation bound, rounding budget in ulps).  The tail
    integral is int_T^inf g^(n) = -g^(n-1)(T), and for n = 0 it is
    -log(1-q^T)/|log q|, which is merged with -log(1-q) into
    log((1-q^T)/(1-q)) so the two large logarithms near q = 1 do not cancel.
    """
    t = x + _EM_OFFSETS  # row i holds x + i; inlined _lambert, all terms of one sign
    e = t * lq
    w = -np.expm1(e)
    z = np.exp(e)
    v = z * _horner(_eulerian(n), z) * (lq / w) ** n / w if n else z / w
    # running sums in term order (accumulate never regroups, whatever the shape)
    running = np.add.accumulate(v, axis=0)
    direct = running[-1]
    weighted = np.add.accumulate(v * t, axis=0)[-1]
    partial = np.add.accumulate(running, axis=0)[-1]
    err = np.abs(direct) * (_TERM_ULPS + 3.0 * n) + np.abs(3.0 * lq * weighted) + np.abs(partial)
    t = x + _EM_DIRECT
    ulps = _TERM_ULPS + 3.0 * (n + np.minimum(-t * lq, _EXP_ARG_MAX))
    if n == 0:
        head = np.log(np.expm1(t * lq) / math.expm1(lq))
        head_err = _TERM_ULPS + np.abs(head)  # the ratio's relative error, now absolute
    else:
        head = -lq * _lambert(n - 1, t, lq)
        head_err = np.abs(head) * ulps
    half = 0.5 * _lambert(n, t, lq)
    corr, rem, corr_err = _em_corrections(n, t, lq, 1.0)
    inner = direct + half + corr
    err = err + (np.abs(half) * ulps + corr_err + 2.0 * np.abs(inner))
    value = head + lq * inner
    err = head_err + abs(lq) * (err + np.abs(inner)) + np.abs(value)
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


_PHI_N = np.arange(_EM_DIRECT + 1, dtype=float)[:, None]  # phi(0..N-1), then phi(N)


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
    e = (_PHI_N + x) * lq
    w = -np.expm1(e)
    r = np.where(x < 1.0, np.exp(e), -np.exp((_PHI_N + 1.0) * lq)) * d / w

    def near():
        v = np.log1p(r)
        return v, np.abs(v) * (2.0 * _TERM_ULPS + 3.0 * np.minimum(-e, _EXP_ARG_MAX))

    def ratio():
        v = np.log(-np.expm1((_PHI_N + 1.0) * lq) / w)
        return v, _TERM_ULPS + np.abs(v)

    v, v_err = _branch(r > -0.5, near, ratio)
    running = np.add.accumulate(v[:-1], axis=0)  # the direct terms, in order
    direct = running[-1]
    err = np.add.accumulate(v_err[:-1] + np.abs(running), axis=0)[-1]
    phi_n, phi_err = v[-1], v_err[-1]  # phi(N), for the tail
    a, b = _EM_DIRECT + x, _EM_DIRECT + 1.0
    # phi^(m)(N) = log q [g^(m-1)(a) - g^(m-1)(b)]
    corr_a, rem_a, err_a = _em_corrections(-1, a, lq, lq)
    corr_b, rem_b, err_b = _em_corrections(-1, b, lq, -lq)
    alpha, beta = -a * lq, -b * lq

    def close(parts, brem, part_err):
        value, total = direct, err + part_err
        for p in (*parts, 0.5 * phi_n, corr_a, corr_b):
            value = value + p
            total = total + np.abs(value)
        total = total + (0.5 * phi_err + err_a + err_b)
        return value, rem_a + rem_b + brem, total

    def reflected():  # q^a, q^b >= 1/2
        log_b1 = math.log(math.expm1(b * lq) / math.expm1(lq))
        bdiff, brem, berr = _li2_series_diff(alpha, beta, x - 1.0)
        parts = (-a * phi_n, (x - 1.0) * log_b1, -bdiff)
        part_err = (a * (phi_err + np.abs(phi_n))
                    + np.abs(x - 1.0) * (_TERM_ULPS + 2.0 * abs(log_b1)) + berr)
        return close(parts, brem, part_err)

    def direct_li2():
        if lq < -_LOG2:  # log(1-q) from q itself: accurate relative to a small q
            log_1 = math.log1p(-math.exp(lq))
            log_1_err = abs(log_1) * (_TERM_ULPS + 3.0 * -lq)
        else:  # from 1 - q = -expm1(log q): consistent with every other q-power
            log_1 = math.log(-math.expm1(lq))
            log_1_err = _TERM_ULPS + abs(log_1)
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


def _check_cap(fn: str, cfg: EvalConfig, terms: int):
    if cfg.max_terms < terms:
        raise ConvergenceError(f"{fn} sums {terms} terms; max_terms={cfg.max_terms} is below that")


def _q_series_log_q(fn: str, x: np.ndarray, q: QValue, cfg: EvalConfig) -> float:
    """log q, once q is within q_series_max, max_terms allows the fixed term count
    and 1 - q^x is nonzero at every x (the series' other q-powers lie further out)."""
    if q.q > cfg.q_series_max:
        raise DomainError(
            f"q={q.q!r} exceeds q_series_max={cfg.q_series_max!r}; "
            "pass q=1 explicitly for the classical limit"
        )
    _check_cap(fn, cfg, _EM_TERMS)
    lq = math.log(q.q)
    _one_minus_q_pow(x * lq)
    return lq


# absolute error left by gradual underflow: a few hundred operations, each off
# by at most half the smallest subnormal
_UNDERFLOW_ERR = 500 * 2.0 ** -1074


def _series_bound(fn, value, trunc, ulps, cfg: EvalConfig):
    """Bound = truncation bound + ulps * u; the truncation alone must meet rel_tol at every element."""
    value, trunc = np.broadcast_arrays(value, trunc)
    miss = trunc > cfg.rel_tol * np.maximum(1.0, np.abs(value))  # a NaN value is _result's to report
    if miss.any():
        i = int(np.flatnonzero(miss)[0])
        where = "" if value.size == 1 else f" (element {i})"
        raise ConvergenceError(
            f"{fn} truncation bound {trunc.item(i):.3g} misses rel_tol={cfg.rel_tol} "
            f"at value {value.item(i)!r}{where}"
        )
    return trunc + ulps * _U + _UNDERFLOW_ERR


def _series_result(fn, value, trunc, ulps, terms, cfg: EvalConfig, shape: tuple) -> SeriesResult:
    return _result(fn, value, _series_bound(fn, value, trunc, ulps, cfg), terms, cfg, shape)


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
    xs = _checked("log_gamma_q", x)
    q = _coerce_q(q)
    if q.is_classical:
        return log_gamma(x, cfg)
    lq = _q_series_log_q("log_gamma_q", xs, q, cfg)
    value, trunc, ulps = _blocked(lambda b: _log_gamma_q_series(b, lq), xs)
    return _series_result("log_gamma_q", value, trunc, ulps, _EM_TERMS, cfg, np.shape(x))


@_quiet
def gamma_q(x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Gamma_q(x) = exp(log_gamma_q(x)) with the error bound scaled by the value."""
    q = _coerce_q(q)
    lg = log_gamma_q(x, q, cfg)
    lv = _flat(lg.value)
    over = lv > _LOG_MAX_FLOAT
    if over.any():
        raise OverflowError(f"Gamma_q({_first(x, over)}, q={q.q!r}) exceeds the float64 range")
    value = np.exp(lv)
    bound = value * (np.expm1(np.minimum(_flat(lg.abs_error_bound), 1.0)) + 2.0 * _U)
    return _result("gamma_q", value, bound, lg.terms_used, cfg, np.shape(x))


@_quiet
def psi_q(x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """q-digamma: -log(1-q) + log q * sum_{i>=0} g(x+i), g(t) = q^t/(1-q^t); q = 1 routes to psi.

    g is completely monotonic, so after N = 10 direct terms the tail
    sum_{i>=0} g(T+i), T = x + N, is its integral -log(1-q^T)/|log q| plus M = 8
    Euler-Maclaurin corrections, with a remainder between 0 and the first
    omitted one.  The bound is that term plus a rounding term of a few u per
    |term| (see _TERM_ULPS), the merged prefix log((1-q^T)/(1-q)) included.
    """
    xs = _checked("psi_q", x)
    q = _coerce_q(q)
    if q.is_classical:
        return psi(x, cfg)
    lq = _q_series_log_q("psi_q", xs, q, cfg)
    value, trunc, ulps = _blocked(lambda b: _q_polygamma(0, b, lq), xs)
    return _series_result("psi_q", value, trunc, ulps, _EM_TERMS, cfg, np.shape(x))


@_quiet
def psi_q_n(n: int, x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """n-th derivative of psi_q: log q * sum_{i>=0} g^(n)(x+i); q = 1 routes to psi_n.

    g^(n)(t) = (log q)^n Li_{-n}(q^t) comes from the Eulerian polynomials.  The
    same scheme as psi_q applies to the completely monotonic |g^(n)|, with the
    tail integral -g^(n-1)(T); the bound is the first omitted Euler-Maclaurin
    correction plus a rounding term of a few u per |term|.
    """
    n = _checked_order("psi_q_n", n)
    xs = _checked("psi_q_n", x)
    q = _coerce_q(q)
    if q.is_classical:
        return psi_n(n, x, cfg)
    lq = _q_series_log_q("psi_q_n", xs, q, cfg)
    value, trunc, ulps = _blocked(lambda b: _q_polygamma(n, b, lq), xs)
    return _series_result("psi_q_n", value, trunc, ulps, _EM_TERMS, cfg, np.shape(x))


@_quiet
def dilog_F(x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """F(x) = sum_{n>=1} x^n / n^2 = Li2(x) on [0, 1], at a cost independent of x.

    x <= 1/2 sums the Bernoulli series in -log(1-x); x > 1/2 goes through the
    reflection Li2(x) = pi^2/6 - log x log(1-x) - Li2(1-x).  Either series
    has 10 terms and alternates, so the first omitted one bounds the tail;
    the bound adds a rounding term of a few u per |term|.  F(0) = 0 exactly
    and F(1) = pi^2/6 within rounding, at no terms.
    """
    xs = _checked("dilog_F", x, 0.0, 1.0, closed=True)
    zero = xs == 0.0
    inside = ~zero & (xs < 1.0)
    value = np.where(zero, 0.0, _PI2_OVER_6)
    trunc, ulps, terms = 0.0, 1.0, 0
    if inside.any():
        _check_cap("dilog_F", cfg, _LI2_TERMS)
        li2, li2_trunc, li2_ulps = _li2(xs, np.log(xs), 1.0 - xs)
        value = np.where(inside, li2, value)
        trunc = np.where(inside, li2_trunc, 0.0)
        ulps = np.where(inside, li2_ulps, 1.0)
        terms = _LI2_TERMS
    bound = np.where(zero, 0.0, _series_bound("dilog_F", value, trunc, ulps, cfg))
    return _result("dilog_F", value, bound, terms, cfg, np.shape(x))


@_quiet
def _moment(k: int, x, lq: float):
    """k-th x-derivative of int e^{-xt} d gamma_q(t) = -log q * q^x/(1-q^x), for lq = log q."""
    v = -lq * _lambert(k, x, lq)
    bad = ~np.isfinite(v)
    if bad.any():
        raise OverflowError(
            f"moment derivative of order {k} at x={_first(x, bad)} exceeds the float64 range"
        )
    return v


@_quiet
def _moment_over_t(x, lq: float):
    """int (e^{-xt}/t) d gamma_q(t) = sum_k q^{kx}/k = -log(1 - q^x), for lq = log q."""
    e = x * lq
    # where x log q is subnormal (or 0), 1 - q^x = x |log q| to the last bit
    return np.where(e > -_TINY, -np.log(x) - math.log(-lq), -np.log(-np.expm1(e)))


def _moment_log_q(fn: str, x, q) -> tuple[np.ndarray, float]:
    """(x, log q) for the closed-form moments, once x > 0 and q < 1 are checked."""
    xs = _checked(fn, x)
    q = _coerce_q(q)
    if q.is_classical:
        raise DomainError(f"{fn} requires q < 1 (at q=1 the measure is Lebesgue)")
    return xs, math.log(q.q)


def measure_moment(x, q):
    """int e^{-xt} d gamma_q(t) = -q^x log q / (1 - q^x) in closed form (0 < q < 1)."""
    return _shaped(_moment(0, *_moment_log_q("measure_moment", x, q)), np.shape(x))


def measure_moment_over_t(x, q):
    """int (e^{-xt}/t) d gamma_q(t) = sum_k q^{kx}/k = -log(1 - q^x) in closed form."""
    return _shaped(_moment_over_t(*_moment_log_q("measure_moment_over_t", x, q)), np.shape(x))
