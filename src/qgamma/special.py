"""Gamma, q-gamma, psi and q-psi evaluation with explicit truncation error bounds.

Every series evaluator returns a :class:`SeriesResult` carrying the value, a
bound on its error (the discarded tail plus rounding), the number of terms
used and a convergence flag.  The q-series cost a fixed number of terms at
every q: direct terms closed by an Euler-Maclaurin tail.  Ratios of gamma
values should always be formed from log-gamma differences, never from
quotients of direct values.
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
    ``abs_error_bound <= rel_tol * max(1, |value|)``.
    """

    value: float | complex
    abs_error_bound: float
    terms_used: int
    converged: bool


def _coerce_q(q) -> QValue:
    return q if isinstance(q, QValue) else QValue(float(q))


def _checked(fn: str, x, lo: float = 0.0, hi: float = math.inf, closed: bool = False,
             what: str = "x") -> float:
    """x as a finite float inside (lo, hi), or [lo, hi] when ``closed``; else DomainError.

    Every public evaluator validates its arguments here, so NaN and infinities
    become a DomainError instead of a NaN value or an arithmetic exception.
    """
    x = float(x)
    if not (lo <= x <= hi if closed else lo < x < hi):  # NaN fails either test
        left, right = "[]" if closed else "()"
        raise DomainError(f"{fn} requires finite {what} in {left}{lo:g}, {hi:g}{right}, got {x!r}")
    return x


def _checked_order(fn: str, n) -> int:
    n = int(n)
    if n < 1:
        raise DomainError(f"{fn} requires order n >= 1, got {n!r}")
    return n


def _result(fn: str, value, bound, terms, cfg: EvalConfig) -> SeriesResult:
    if not math.isfinite(abs(value)):
        raise OverflowError(f"{fn} result exceeds the float64 range")
    conv = bound <= cfg.rel_tol * max(1.0, abs(value))
    return SeriesResult(value, float(bound), int(terms), bool(conv))


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


def _lgamma_core(z):
    """Stirling series with upward recurrence; z is a float/complex scalar or array.

    Valid for Re z > 0.  The uniform shift puts the series argument at
    Re w >= 10 where the first omitted term is below 2e-19.
    """
    z = np.asarray(z)
    w = z + _SHIFT
    s = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI
    p = 1.0 / w
    rw2 = p * p  # not 1/(w*w), which overflows for |w| > 1.3e154
    for c in _STIRLING_COEF:
        s = s + c * p
        p = p * rw2
    for j in range(_SHIFT):
        s = s - np.log(z + j)
    return s[()] if s.ndim == 0 else s


def _lgamma_bound(z) -> float:
    """Truncation of the shifted Stirling series plus rounding.

    The rounding term scales with what the sum adds up, not with the result:
    |(w - 1/2) log w|, |w| and log sqrt(2 pi) from the Stirling part, and the
    ten recurrence logarithms, each at most max(|log Re z|, log(|z| + 10)) in
    modulus plus pi/2 for its argument off the real axis.
    """
    zc = complex(z)
    wc = zc + _SHIFT
    w = abs(wc)
    slack = 1.0
    arg_room = 0.0
    if zc.imag != 0.0:
        # sec(arg(w)/2)^{20} stays below ~250 on the strip |Im z| <= 100
        theta = abs(math.atan2(wc.imag, wc.real))
        slack = (1.0 / math.cos(theta / 2.0)) ** 20
        arg_room = 0.5 * math.pi
    trunc = _STIRLING_NEXT * w ** -19 * slack
    log_w = math.hypot(math.log(w), math.atan2(wc.imag, wc.real))
    recur = max(abs(math.log(zc.real)), math.log(abs(zc) + _SHIFT)) + arg_room
    mag = abs(wc - 0.5) * log_w + w + _HALF_LOG_2PI + _SHIFT * recur
    return trunc + _TERM_ULPS * _U * mag


def log_gamma(z, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """log Gamma(z) for Re z > 0, real or complex.

    Agrees with the real logarithm of Gamma on (0, inf) and continues it
    analytically over the right half-plane (imaginary parts are not reduced
    mod 2 pi).  Reflection to Re z <= 0 is deliberately unsupported.
    """
    zc = complex(z)
    _checked("log_gamma", zc.real, what="Re z")
    _checked("log_gamma", zc.imag, -math.inf, what="Im z")
    if zc.imag == 0.0 and not isinstance(z, complex):
        value = float(_lgamma_core(zc.real))
    else:
        value = complex(_lgamma_core(zc))
    return _result("log_gamma", value, _lgamma_bound(zc), _SHIFT + len(_STIRLING_COEF), cfg)


def gamma(z, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Gamma(z) = exp(log_gamma(z)); overflows past z ~ 171.6 on the real axis."""
    lg = log_gamma(z, cfg)
    re = lg.value.real if isinstance(lg.value, complex) else lg.value
    if re > _LOG_MAX_FLOAT:
        raise OverflowError(f"Gamma({z!r}) exceeds the float64 range")
    value = np.exp(lg.value)
    value = value if isinstance(lg.value, complex) else float(value)
    bound = abs(value) * (math.expm1(min(lg.abs_error_bound, 1.0)) + 2.0 * _U)
    return _result("gamma", value, bound, lg.terms_used, cfg)


def psi(x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Digamma at real x > 0: recurrence up by 10 then the Bernoulli asymptotic series."""
    x = _checked("psi", x)
    value = float(_psi_core(x))
    bound = _PSI_NEXT * (x + _SHIFT) ** -18 + 1e-15 * max(1.0, abs(value))
    return _result("psi", value, bound, _SHIFT + len(_PSI_COEF), cfg)


def _psi_core(x):
    x = np.asarray(x, dtype=float)
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
    return s[()] if s.ndim == 0 else s


def _hurwitz_zeta_int(s: int, a: float) -> tuple[float, float]:
    """zeta(s, a) for integer s >= 2 by Euler-Maclaurin; returns (value, error bound).

    The tail past K direct terms is the integral int_K (t+a)^{-s} dt refined by
    Bernoulli corrections; the remainder is below the first omitted correction.
    """
    K = 14
    w = K + a
    total = 0.0
    for k in range(K):
        total += (k + a) ** -s
    total += w ** (1 - s) / (s - 1) + 0.5 * w ** -s
    rising = float(s)  # (s)_{2j-1} rising factorial
    fact = 2.0  # (2j)!
    wpow = w ** (-s - 1)
    rw2 = 1.0 / (w * w)
    term = 0.0
    for j, b in enumerate(_BERNOULLI[:-1], start=1):
        term = b / fact * rising * wpow
        total += term
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        wpow *= rw2
    bound = abs(_BERNOULLI[-1] / fact * rising * wpow)
    return total, bound


def psi_n(n: int, x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """n-th derivative of psi via the termwise-differentiated series.

    psi^(n)(x) = (-1)^(n+1) n! sum_k (k+x)^(-n-1); the tail is controlled by
    integral comparison with Euler-Maclaurin corrections, which is what makes
    1e-12 reachable without ~1/tol direct terms.
    """
    n = _checked_order("psi_n", n)
    x = _checked("psi_n", x)
    zeta, zbound = _hurwitz_zeta_int(n + 1, x)
    nf = math.factorial(n)
    sign = 1.0 if n % 2 == 1 else -1.0
    value = sign * nf * zeta
    bound = nf * zbound + 1e-15 * max(1.0, abs(value))
    return _result("psi_n", value, bound, 14 + len(_BERNOULLI), cfg)


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


def _one_minus_q_pow(e: float) -> float:
    """1 - q^t = -expm1(e) for e = t log q, without cancellation."""
    w = -math.expm1(e)
    if w == 0.0:  # t log q underflowed: the q-series term is beyond float64
        raise OverflowError(f"q-series term at t log q = {e!r} exceeds the float64 range")
    return w


def _lambert(k: int, t: float, lq: float) -> float:
    """g^(k)(t) for g(t) = q^t/(1-q^t) = sum_{j>=1} q^{jt}, completely monotonic in t.

    g^(k)(t) = (log q)^k Li_{-k}(q^t) = z A_k(z) rho^k / (1-z) with z = q^t and
    rho = log q / (1-z), which stays near -1/t as q -> 1.  Its relative
    rounding error is within _TERM_ULPS + 3k + 3|t log q| ulps.
    """
    e = t * lq
    w = _one_minus_q_pow(e)
    z = math.exp(e)
    poly = 0.0
    for c in _eulerian(k):
        poly = poly * z + c
    return z * poly * (lq / w) ** k / w


@functools.cache
def _em_rows(k0: int) -> tuple[tuple[float, tuple[float, ...]], ...]:
    """(B_2j/(2j)!, A_k) for the orders k = k0 + 2j - 1, j = 1..M+1, of _em_corrections."""
    return tuple((c, _eulerian(k0 + 2 * j - 1)) for j, c in enumerate(_EM_COEF, start=1))


def _em_corrections(k0: int, t: float, lq: float, scale: float) -> tuple[float, float, float]:
    """-sum_{j=1..M} B_2j/(2j)! f^(2j-1)(t) for f^(m)(t) = scale * g^(k0+m)(t).

    All orders share z = q^t and rho, so each costs one Horner pass.  Returns
    (correction, remainder bound |B_2M+2/(2M+2)! f^(2M+1)(t)|, rounding budget
    in ulps: each term within its order's budget, plus M additions).
    """
    e = t * lq
    w = _one_minus_q_pow(e)
    z = math.exp(e)
    rho = lq / w
    rr = rho * rho
    fac = scale * z / w * rho ** (k0 + 1)  # scale z rho^k / (1-z) at k = k0 + 1
    corr = mag = term = 0.0
    for c, coef in _em_rows(k0):
        corr -= term  # the last term is left out: it bounds the remainder
        mag += abs(term)
        poly = 0.0
        for a in coef:
            poly = poly * z + a
        term = c * fac * poly
        fac *= rr
    ulps = _TERM_ULPS + 3.0 * (min(-e, _EXP_ARG_MAX) + k0 + 2 * _EM_ORDER) + _EM_ORDER
    return corr, abs(term), mag * ulps


def _q_polygamma(n: int, x: float, lq: float) -> tuple[float, float, float]:
    """psi_q^(n)(x) = [n=0] (-log(1-q)) + log q * sum_{i>=0} g^(n)(x+i).

    Returns (value, truncation bound, rounding budget in ulps).  The tail
    integral is int_T^inf g^(n) = -g^(n-1)(T), and for n = 0 it is
    -log(1-q^T)/|log q|, which is merged with -log(1-q) into
    log((1-q^T)/(1-q)) so the two large logarithms near q = 1 do not cancel.
    """
    _one_minus_q_pow(x * lq)  # the only place t log q can underflow
    coef = _eulerian(n)
    direct = weighted = partial = 0.0
    for i in range(_EM_DIRECT):  # inlined _lambert: all terms have one sign
        t = x + i
        e = t * lq
        w = -math.expm1(e)
        z = math.exp(e)
        if n:
            poly = 0.0
            for c in coef:
                poly = poly * z + c
            v = z * poly * (lq / w) ** n / w
        else:
            v = z / w
        direct += v
        weighted += v * t
        partial += direct
    err = abs(direct) * (_TERM_ULPS + 3.0 * n) + abs(3.0 * lq * weighted) + abs(partial)
    t = x + _EM_DIRECT
    ulps = _TERM_ULPS + 3.0 * (n + min(-t * lq, _EXP_ARG_MAX))
    if n == 0:
        head = math.log(math.expm1(t * lq) / math.expm1(lq))
        head_err = _TERM_ULPS + abs(head)  # the ratio's relative error, now absolute
    else:
        head = -lq * _lambert(n - 1, t, lq)
        head_err = abs(head) * ulps
    half = 0.5 * _lambert(n, t, lq)
    corr, rem, corr_err = _em_corrections(n, t, lq, 1.0)
    inner = direct + half + corr
    err += abs(half) * ulps + corr_err + 2.0 * abs(inner)
    value = head + lq * inner
    err = head_err + abs(lq) * (err + abs(inner)) + abs(value)
    return value, abs(lq) * rem, err


# B_2k / (2k+1)! for k = 1..9, the coefficients of the dilogarithm's Bernoulli
# series  Li2(z) = y - y^2/4 + sum_k c_k y^{2k+1},  y = -log(1-z).  For
# 0 <= y <= log 2 the terms from y^3 on alternate and shrink by a factor
# below 0.02, so the k = 9 term bounds the remainder.
_LI2_COEF = tuple(b / math.factorial(2 * k + 1) for k, b in enumerate(_BERNOULLI, start=1))
_LI2_TERMS = len(_LI2_COEF) + 1  # y, -y^2/4 and c_1..c_8
_LOG2 = math.log(2.0)


def _li2_series_diff(alpha: float, beta: float, d: float) -> tuple[float, float, float]:
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
    mag = abs(d) + abs(0.25 * ab * d)
    f, bpow, term = d, beta, 0.0
    for c in _LI2_COEF:
        value += term  # the last term is left out: it bounds the remainder
        mag += abs(term)
        f = a2 * f + ab * bpow * d  # f_2k from f_2k-2
        bpow *= b2
        term = c * f
    # each term within _TERM_ULPS plus 8 ulps per power pair, plus the additions
    return value, abs(term), mag * (_TERM_ULPS + 8.0 * len(_LI2_COEF) + _LI2_TERMS)


def _li2(z: float, log_z: float, one_minus_z: float) -> tuple[float, float, float]:
    """Li2(z) on (0, 1) at bounded cost; returns (value, remainder bound, ulps).

    z <= 1/2 sums the Bernoulli series in y = -log(1-z) <= log 2.  z > 1/2 uses
    the reflection Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z) (DLMF 25.12.6),
    whose last term is the same series in y = -log z < log 2.  The caller
    passes log z and 1 - z so it can supply them without cancellation.
    """
    if z <= 0.5:
        y = -math.log1p(-z)
        return _li2_series_diff(y, 0.0, y)
    y = -log_z
    s, rem, err = _li2_series_diff(y, 0.0, y)
    cross = y * math.log(one_minus_z)
    value = _PI2_OVER_6 + cross - s
    err += 1.0 + _TERM_ULPS * (abs(cross) + y) + abs(_PI2_OVER_6 + cross) + abs(value)
    return value, rem, err


def _log_gamma_q_series(x: float, lq: float) -> tuple[float, float, float]:
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
    _one_minus_q_pow(x * lq)  # the only place t log q can underflow
    d = -math.expm1(abs(x - 1.0) * lq)  # 1 - q^{|x-1|}
    direct = err = 0.0
    for n in range(_EM_DIRECT + 1):  # phi(0..N-1), then phi(N) for the tail
        # r = phi's ratio minus 1 = (q^{n+x} - q^{n+1}) / (1 - q^{n+x}), free of cancellation
        e = (n + x) * lq
        w = -math.expm1(e)
        r = (math.exp(e) if x < 1.0 else -math.exp((n + 1.0) * lq)) * d / w
        if r > -0.5:
            v = math.log1p(r)
            v_err = abs(v) * (2.0 * _TERM_ULPS + 3.0 * min(-e, _EXP_ARG_MAX))
        else:
            v = math.log(-math.expm1((n + 1.0) * lq) / w)
            v_err = _TERM_ULPS + abs(v)
        if n == _EM_DIRECT:
            break
        direct += v
        err += v_err + abs(direct)
    phi_n, phi_err = v, v_err
    a, b = _EM_DIRECT + x, _EM_DIRECT + 1.0
    # phi^(m)(N) = log q [g^(m-1)(a) - g^(m-1)(b)]
    corr_a, rem_a, err_a = _em_corrections(-1, a, lq, lq)
    corr_b, rem_b, err_b = _em_corrections(-1, b, lq, -lq)
    alpha, beta = -a * lq, -b * lq
    if max(alpha, beta) <= _LOG2:
        log_b1 = math.log(math.expm1(b * lq) / math.expm1(lq))
        bdiff, brem, berr = _li2_series_diff(alpha, beta, x - 1.0)
        parts = (-a * phi_n, (x - 1.0) * log_b1, -bdiff)
        err += a * (phi_err + abs(phi_n)) + abs(x - 1.0) * (_TERM_ULPS + 2.0 * abs(log_b1)) + berr
    else:
        if lq < -_LOG2:  # log(1-q) from q itself: accurate relative to a small q
            log_1 = math.log1p(-math.exp(lq))
            log_1_err = abs(log_1) * (_TERM_ULPS + 3.0 * -lq)
        else:  # from 1 - q = -expm1(log q): consistent with every other q-power
            log_1 = math.log(-math.expm1(lq))
            log_1_err = _TERM_ULPS + abs(log_1)
        za, zb = math.exp(a * lq), math.exp(b * lq)
        if max(za, zb) <= 0.5:
            ya, yb = -math.log1p(-za), -math.log1p(-zb)
            tail, brem, terr = _li2_series_diff(ya, yb, phi_n)
            terr += phi_err  # |B(y_a) - B(y_b)| <= |y_a - y_b| carries phi(N)'s error
        else:
            la, ra, la_err = _li2(za, a * lq, -math.expm1(a * lq))
            lb, rb, lb_err = _li2(zb, b * lq, -math.expm1(b * lq))
            tail, brem, terr = la - lb, ra + rb, la_err + lb_err + abs(la - lb)
        parts = ((1.0 - x) * log_1, tail / -lq)
        brem /= -lq
        err += abs(1.0 - x) * (log_1_err + abs(log_1)) + (terr + abs(tail)) / -lq
    value = direct
    for p in (*parts, 0.5 * phi_n, corr_a, corr_b):
        value += p
        err += abs(value)
    err += 0.5 * phi_err + err_a + err_b
    return value, rem_a + rem_b + brem, err


def _check_cap(fn: str, cfg: EvalConfig, terms: int):
    if cfg.max_terms < terms:
        raise ConvergenceError(f"{fn} sums {terms} terms; max_terms={cfg.max_terms} is below that")


def _q_series_log_q(fn: str, q: QValue, cfg: EvalConfig) -> float:
    """log q, once q is within q_series_max and max_terms allows the fixed term count."""
    if q.q > cfg.q_series_max:
        raise DomainError(
            f"q={q.q!r} exceeds q_series_max={cfg.q_series_max!r}; "
            "pass q=1 explicitly for the classical limit"
        )
    _check_cap(fn, cfg, _EM_TERMS)
    return math.log(q.q)


# absolute error left by gradual underflow: a few hundred operations, each off
# by at most half the smallest subnormal
_UNDERFLOW_ERR = 500 * 2.0 ** -1074


def _series_result(fn, value, trunc, ulps, terms, cfg: EvalConfig) -> SeriesResult:
    """Bound = truncation bound + ulps * u; the truncation alone must meet rel_tol."""
    scale = cfg.rel_tol * max(1.0, abs(value))
    if not math.isfinite(value):
        raise OverflowError(f"{fn} result exceeds the float64 range")
    if trunc > scale:
        raise ConvergenceError(
            f"{fn} truncation bound {trunc:.3g} misses rel_tol={cfg.rel_tol} at value {value!r}"
        )
    bound = trunc + ulps * _U + _UNDERFLOW_ERR
    return SeriesResult(value, bound, terms, bound <= scale)


def log_gamma_q(x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """log Gamma_q(x) for x > 0 and q in (0, 1]; q = 1 routes to the classical log_gamma.

    Sums (1-x) log(1-q) + sum_{n>=0} log((1-q^{n+1})/(1-q^{n+x})) as N = 10
    direct terms, the tail integral [Li2(q^{N+x}) - Li2(q^{N+1})]/|log q| (the
    paper's q-Stirling factor) and M = 8 Euler-Maclaurin corrections.  The
    summand is completely monotonic up to sign, so the truncation bound is
    the first omitted correction.  The bound adds a rounding term of a few u
    per |term| (see _TERM_ULPS), so it covers the whole error.
    """
    x = _checked("log_gamma_q", x)
    q = _coerce_q(q)
    if q.is_classical:
        return log_gamma(x, cfg)
    lq = _q_series_log_q("log_gamma_q", q, cfg)
    value, trunc, ulps = _log_gamma_q_series(x, lq)
    return _series_result("log_gamma_q", value, trunc, ulps, _EM_TERMS, cfg)


def gamma_q(x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Gamma_q(x) = exp(log_gamma_q(x)) with the error bound scaled by the value."""
    q = _coerce_q(q)
    lg = log_gamma_q(x, q, cfg)
    if lg.value > _LOG_MAX_FLOAT:
        raise OverflowError(f"Gamma_q({x!r}, q={q.q!r}) exceeds the float64 range")
    value = math.exp(lg.value)
    bound = value * (math.expm1(min(lg.abs_error_bound, 1.0)) + 2.0 * _U)
    return _result("gamma_q", value, bound, lg.terms_used, cfg)


def psi_q(x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """q-digamma: -log(1-q) + log q * sum_{i>=0} g(x+i), g(t) = q^t/(1-q^t); q = 1 routes to psi.

    g is completely monotonic, so after N = 10 direct terms the tail
    sum_{i>=0} g(T+i), T = x + N, is its integral -log(1-q^T)/|log q| plus M = 8
    Euler-Maclaurin corrections, with a remainder between 0 and the first
    omitted one.  The bound is that term plus a rounding term of a few u per
    |term| (see _TERM_ULPS), the merged prefix log((1-q^T)/(1-q)) included.
    """
    x = _checked("psi_q", x)
    q = _coerce_q(q)
    if q.is_classical:
        return psi(x, cfg)
    lq = _q_series_log_q("psi_q", q, cfg)
    value, trunc, ulps = _q_polygamma(0, x, lq)
    return _series_result("psi_q", value, trunc, ulps, _EM_TERMS, cfg)


def psi_q_n(n: int, x, q, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """n-th derivative of psi_q: log q * sum_{i>=0} g^(n)(x+i); q = 1 routes to psi_n.

    g^(n)(t) = (log q)^n Li_{-n}(q^t) comes from the Eulerian polynomials.  The
    same scheme as psi_q applies to the completely monotonic |g^(n)|, with the
    tail integral -g^(n-1)(T); the bound is the first omitted Euler-Maclaurin
    correction plus a rounding term of a few u per |term|.
    """
    n = _checked_order("psi_q_n", n)
    x = _checked("psi_q_n", x)
    q = _coerce_q(q)
    if q.is_classical:
        return psi_n(n, x, cfg)
    lq = _q_series_log_q("psi_q_n", q, cfg)
    value, trunc, ulps = _q_polygamma(n, x, lq)
    return _series_result("psi_q_n", value, trunc, ulps, _EM_TERMS, cfg)


def dilog_F(x, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """F(x) = sum_{n>=1} x^n / n^2 = Li2(x) on [0, 1], at a cost independent of x.

    x <= 1/2 sums the Bernoulli series in -log(1-x); x > 1/2 goes through the
    reflection Li2(x) = pi^2/6 - log x log(1-x) - Li2(1-x).  Either series
    has 10 terms and alternates, so the first omitted one bounds the tail;
    the bound adds a rounding term of a few u per |term|.  F(1) = pi^2/6.
    """
    x = _checked("dilog_F", x, 0.0, 1.0, closed=True)
    if x == 0.0:
        return SeriesResult(0.0, 0.0, 0, True)
    if x == 1.0:
        return _series_result("dilog_F", _PI2_OVER_6, 0.0, 1.0, 0, cfg)
    _check_cap("dilog_F", cfg, _LI2_TERMS)
    value, trunc, ulps = _li2(x, math.log(x), 1.0 - x)
    return _series_result("dilog_F", value, trunc, ulps, _LI2_TERMS, cfg)


def measure_moment(x, q) -> float:
    """int e^{-xt} d gamma_q(t) = -q^x log q / (1 - q^x) in closed form (0 < q < 1)."""
    x = _checked("measure_moment", x)
    q = _coerce_q(q)
    if q.is_classical:
        raise DomainError("measure_moment requires q < 1 (at q=1 the measure is Lebesgue)")
    lq = math.log(q.q)
    return -lq * math.exp(x * lq) / -math.expm1(x * lq)


def measure_moment_over_t(x, q) -> float:
    """int (e^{-xt}/t) d gamma_q(t) = sum_k q^{kx}/k = -log(1 - q^x) in closed form."""
    x = _checked("measure_moment_over_t", x)
    q = _coerce_q(q)
    if q.is_classical:
        raise DomainError("measure_moment_over_t requires q < 1")
    return -math.log(-math.expm1(x * math.log(q.q)))
