"""Proof kernels w(t) and sign scans.

Each completely-monotonicity claim in the corpus reduces to the sign of a
bracketed integrand w(t) inside int e^{-xt} w(t) d gamma_q(t).  This module
evaluates those brackets stably (removable t -> 0 singularities are handled
by truncated Taylor expansions below ``SMALL_T``), scans their sign on a
geometric grid, and exposes the kernel table used by the CLI and the corpus.

All kernel functions accept a scalar or ndarray t and are pure.  Each checks
its t once, through ``special``'s array contract: every element must be
finite and >= 0, and a NaN, an infinity or a negative t is a DomainError
naming the first such element (with its index for an array).  A scalar t
gives a Python float, an array t an array of its shape.  At t = 0 each
returns its t -> 0 limit, and none raises a numpy warning.  Past its small-t
series (formed on min(t, SMALL_T)) each kernel has one formula:
its growing factor e^{mt} (t^2 e^{-alpha t} for thm3.4) is taken out of the
bracket and put back by ``_exp_times``, so no intermediate overflows, and a
value beyond float64 is +-inf, which ``scan_kernel`` reports as an OverflowError.

``KERNELS`` holds the functions themselves, so a kernel's formula, domain
check and limit each have one source: ``scan_kernel`` reports ``fn(t=0)`` as
``t0_limit``, and the corpus builds its mass sums from ``fn`` and lets
``fn``'s DomainError reject out-of-domain case parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .special import DomainError, _checked, _quiet, _shaped

__all__ = [
    "SMALL_T",
    "sinh_ratio",
    "sinh_ratio_bounds",
    "kernel_lemma12_margin",
    "kernel_thm21",
    "kernel_thm25",
    "kernel_thm26",
    "kernel_thm31",
    "kernel_thm32",
    "kernel_thm34",
    "kernel_thm41_mean",
    "kernel_thm41_split",
    "identity_47",
    "Kernel",
    "KERNELS",
    "SignScanReport",
    "default_t_grid",
    "scan_kernel",
]

SMALL_T = 1e-3  # switch-over to series for removable singularities at t = 0

POSITIVE = "positive"
NEGATIVE = "negative"
ONE_SIGN_CHANGE = "one-sign-change"
UNSPECIFIED = "unspecified"


def _rho(t):
    """1 / (1 - e^{-t}), computed through expm1."""
    return 1.0 / -np.expm1(-t)


def _checked_t(fn: str, t) -> np.ndarray:
    """t as a flat float array, every element finite and >= 0: each kernel function's one t check."""
    return _checked(fn, t, 0.0, math.inf, "[)", "t")


def _small_t(t, series, direct):
    """series(min(t, SMALL_T)) below SMALL_T, direct(max(t, SMALL_T)) above: one small-t switch."""
    return np.where(t < SMALL_T, series(np.minimum(t, SMALL_T)), direct(np.maximum(t, SMALL_T)))


# ln 2 = _LN2_HI + _LN2_LO, with _LN2_HI's low 21 bits zero: k * _LN2_HI is exact for |k| < 2^21
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


@_quiet
def _exp_times(log_scale, bracket):
    """bracket * e^log_scale: bracket itself at log_scale = 0, +-inf only where the product leaves float64.

    e^log_scale = 2^k e^r with k = ceil(log_scale / ln 2), so r lies in
    (-ln 2, 0] and bracket * e^r cannot overflow; ``np.ldexp`` applies 2^k
    with one rounding.  |k| is capped at 2200, past which every float64
    product is 0 or +-inf anyway.
    """
    k = np.clip(np.ceil(log_scale / _LN2_HI), -2200.0, 2200.0).astype(int)
    return np.ldexp(bracket * np.exp(log_scale - k * _LN2_HI - k * _LN2_LO), k)


def _sinh_quotient(alpha: float, t):
    """(1 - e^{-2 alpha t}) / (1 - e^{-2t}), alpha at t = 0: sinh(alpha t)/sinh(t) is e^{(alpha-1)t} times it."""
    return np.where(t == 0.0, alpha, np.expm1(-2.0 * alpha * t) / np.expm1(-2.0 * t))


def _sinh_args(fn: str, alpha: float, t) -> tuple[float, np.ndarray]:
    """alpha and t checked for the sinh ratio, its sandwich and lemma 1.2's margin; errors name ``fn``."""
    alpha = float(alpha)
    if alpha <= 0.0:
        raise DomainError(f"{fn} requires alpha > 0, got {alpha!r}")
    return alpha, _checked_t(fn, t)


def _sinh_parts(fn: str, alpha: float, t) -> tuple[float, np.ndarray, np.ndarray]:
    """(alpha, (alpha-1) t, s) with sinh(alpha t)/sinh(t) = e^{(alpha-1)t} s, alpha and t checked."""
    alpha, t = _sinh_args(fn, alpha, t)
    return alpha, (alpha - 1.0) * t, _sinh_quotient(alpha, t)


@_quiet
def sinh_ratio(alpha: float, t):
    """sinh(alpha t) / sinh(t) for t >= 0, as e^{(alpha-1)t} (1 - e^{-2 alpha t}) / (1 - e^{-2t}).

    Its t -> 0 limit alpha is returned at t = 0, and it is exactly 1 at
    alpha = 1, where it equals both sandwich members.  A value beyond float64
    comes back as inf.
    """
    _, log_e, quot = _sinh_parts("sinh_ratio", alpha, t)
    return _shaped(_exp_times(log_e, quot), np.shape(t))


@_quiet
def sinh_ratio_bounds(alpha: float, t):
    """The sandwich members (alpha e^{(alpha-1)t}, alpha) enclosing sinh_ratio (alpha > 0); the first may be inf."""
    alpha, ts = _sinh_args("sinh_ratio_bounds", alpha, t)
    lower = alpha * np.exp((alpha - 1.0) * ts)
    upper = np.full_like(lower, alpha)
    return _shaped(lower, np.shape(t)), _shaped(upper, np.shape(t))


@_quiet
def kernel_lemma12_margin(alpha: float, t):
    """Smaller of the two sandwich margins; > 0 for 0 < alpha < 1, < 0 for alpha > 1.

    With sinh_ratio = e^{(alpha-1)t} s, the margins are e^{(alpha-1)t} (s - alpha)
    and alpha - e^{(alpha-1)t} s.
    """
    alpha, log_e, quot = _sinh_parts("kernel_lemma12_margin", alpha, t)
    out = np.minimum(_exp_times(log_e, quot - alpha), alpha - _exp_times(log_e, quot))
    return _shaped(out, np.shape(t))


def _thm21(alpha: float, t: np.ndarray) -> np.ndarray:
    """kernel_thm21 on a flat array, unchecked: t = inf gives its limit 1 - alpha."""
    return _small_t(
        t,
        lambda t_small: 0.5 + t_small / 12.0 - t_small ** 3 / 720.0 + t_small ** 5 / 30240.0 - alpha,
        lambda t_safe: _rho(t_safe) - 1.0 / t_safe - alpha,
    )


@_quiet
def kernel_thm21(alpha: float, t):
    """1/(1 - e^{-t}) - 1/t - alpha, with t -> 0 limit 1/2 - alpha."""
    return _shaped(_thm21(float(alpha), _checked_t("kernel_thm21", t)), np.shape(t))


@_quiet
def kernel_thm25(a: float, b: float, c: float, t):
    """(e^{-bt} - e^{-at})/(1 - e^{-t}) + (b - a) e^{-ct} for a < b <= a + 1."""
    a, b, c = float(a), float(b), float(c)
    if not (a < b <= a + 1.0):
        raise DomainError(f"kernel_thm25 requires a < b <= a + 1, got a={a}, b={b}")
    ts = _checked_t("kernel_thm25", t)
    m = max(-a, -c)  # e^{mt} taken out: every exponent left in the bracket is <= 0

    def direct(t_safe):
        bracket = (np.exp((-b - m) * t_safe) - np.exp((-a - m) * t_safe)) * _rho(t_safe)
        return _exp_times(m * t_safe, bracket + (b - a) * np.exp((-c - m) * t_safe))

    # power sums S_k = (b^k - a^k)/(b - a) feed the small-t expansion of the quotient
    s2 = a + b
    s3 = a * a + a * b + b * b
    s4 = a ** 3 + a * a * b + a * b * b + b ** 3
    s5 = a ** 4 + a ** 3 * b + a * a * b * b + a * b ** 3 + b ** 4
    g1 = 0.5 - s2 / 2.0
    g2 = 1.0 / 12.0 - s2 / 4.0 + s3 / 6.0
    g3 = -s2 / 24.0 + s3 / 12.0 - s4 / 24.0
    g4 = -1.0 / 720.0 + s3 / 72.0 - s4 / 48.0 + s5 / 120.0

    def series(t_small):
        return (b - a) * (
            (-c - g1) * t_small
            + (c * c / 2.0 - g2) * t_small ** 2
            + (-(c ** 3) / 6.0 - g3) * t_small ** 3
            + (c ** 4 / 24.0 - g4) * t_small ** 4
        )

    return _shaped(_small_t(ts, series, direct), np.shape(t))


@_quiet
def kernel_thm26(a: float, t):
    """a e^{(a-1)t/2} - sinh(at/2)/sinh(t/2); identically 0 at a = 1."""
    a = float(a)
    if a < 1.0:
        raise DomainError(f"kernel_thm26 requires a >= 1, got {a!r}")
    ts = _checked_t("kernel_thm26", t)
    return _shaped(_exp_times((a - 1.0) * ts / 2.0, a - _sinh_quotient(a, ts / 2.0)), np.shape(t))


@_quiet
def kernel_thm31(alpha: float, t):
    """-alpha/(1 - e^{-t}) + 1/(1 - e^{-t/alpha}) for 2^-340 <= alpha < 1; limit (1-alpha)/2.

    Formed as -alpha h(t) + h(t/alpha) with h(v) = 1/(1 - e^{-v}) - 1/v, which
    is ``kernel_thm21(0, v)`` with its own small-v series: the 1/t poles
    cancel exactly, and no series term grows like (t/alpha)^k at small alpha.
    """
    alpha = float(alpha)
    if not (2.0 ** -340 <= alpha < 1.0):
        raise DomainError(f"kernel_thm31 requires 2^-340 <= alpha < 1, got {alpha!r}")
    ts = _checked_t("kernel_thm31", t)
    out = -alpha * _thm21(0.0, ts) + _thm21(0.0, ts / alpha)  # t/alpha may be inf, where h is 1
    return _shaped(out, np.shape(t))


@_quiet
def kernel_thm32(a: float, b: float, c: float, t):
    """2 sinh((b-a)t/2) - (b-a) t e^{((a+b)/2 - c)t} for 0 < a < b."""
    a, b, c = float(a), float(b), float(c)
    if not (0.0 < a < b):
        raise DomainError(f"kernel_thm32 requires 0 < a < b, got a={a}, b={b}")
    ts = _checked_t("kernel_thm32", t)
    # 2 sinh(ut) = e^{ut} (1 - e^{-2ut}), u = (b-a)/2, and (a+b)/2 - c = u + d, d = a - c: taking out
    # e^{mt}, m = u + max(d, 0), leaves the exponents min(-d, 0) and min(d, 0), each one rounding of d
    d = a - c
    bracket = -np.expm1(-(b - a) * ts) * np.exp(min(-d, 0.0) * ts) - (b - a) * ts * np.exp(min(d, 0.0) * ts)
    return _shaped(_exp_times((0.5 * (b - a) + max(d, 0.0)) * ts, bracket), np.shape(t))


@_quiet
def kernel_thm34(alpha: float, t):
    """p_alpha(t) = (12 - t^2 e^{-alpha t}) / (12 (1 - e^{-t})) - 1/2 - 1/t.

    Vanishes quadratically at t = 0 with leading coefficient (2 alpha - 1)/24,
    so the naive form is catastrophically cancellative there; below ``SMALL_T``
    a degree-5 expansion is used instead.
    """
    alpha = float(alpha)
    ts = _checked_t("kernel_thm34", t)

    def direct(t_safe):
        # t^2 e^{-alpha t} / 12 through its logarithm: t^2 alone would overflow where the product need not
        growth = _exp_times(2.0 * np.log(t_safe) - alpha * t_safe, 1.0 / 12.0)
        return (1.0 - growth) * _rho(t_safe) - 0.5 - 1.0 / t_safe

    c2 = alpha / 12.0 - 1.0 / 24.0
    c3 = alpha / 24.0 - alpha ** 2 / 24.0 - 1.0 / 120.0
    c4 = alpha / 144.0 - alpha ** 2 / 48.0 + alpha ** 3 / 72.0
    c5 = 1.0 / 30240.0 + 1.0 / 8640.0 - alpha ** 2 / 288.0 + alpha ** 3 / 144.0 - alpha ** 4 / 288.0

    def series(t_small):
        return c2 * t_small ** 2 + c3 * t_small ** 3 + c4 * t_small ** 4 + c5 * t_small ** 5

    return _shaped(_small_t(ts, series, direct), np.shape(t))


def _check_a_list(a_list) -> np.ndarray:
    a = np.asarray(tuple(a_list), dtype=float)
    if a.size == 0 or np.any(a <= 0.0):
        raise DomainError(f"a_list entries must be positive, got {a_list!r}")
    return a


@_quiet
def kernel_thm41_mean(a_list, t):
    """n e^{-abar t} - sum_i e^{-a_i t} with abar the arithmetic mean.

    By convexity of a -> e^{-at} this bracket is <= 0 (zero when all a_i agree);
    the sign recorded here is the empirical one, and the monotonicity claim it
    feeds is checked on the function itself, not inferred from the bracket.
    """
    a = _check_a_list(a_list)
    ts = _checked_t("kernel_thm41_mean", t)
    out = a.size * np.exp(-a.mean() * ts) - sum(np.exp(-ai * ts) for ai in a)
    return _shaped(out, np.shape(t))


@_quiet
def kernel_thm41_split(a_list, t):
    """n - 1 + e^{-(a_1+...+a_n)t} - sum_i e^{-a_i t}; provably >= 0."""
    a = _check_a_list(a_list)
    ts = _checked_t("kernel_thm41_split", t)
    out = (a.size - 1.0) + np.exp(-a.sum() * ts) - sum(np.exp(-ai * ts) for ai in a)
    return _shaped(out, np.shape(t))


def identity_47(z_list) -> tuple[float, float]:
    """Both sides of n - 1 + z_1...z_n - sum z_i = sum_{j>=2} (1-z_j)(1-z_1...z_{j-1}).

    Inputs must lie in [0, 1); the caller asserts equality.
    """
    z = [float(v) for v in z_list]
    if any(not (0.0 <= v < 1.0) for v in z):
        raise DomainError(f"identity_47 requires 0 <= z_i < 1, got {z_list!r}")
    n = len(z)
    lhs = n - 1.0 + math.prod(z) - sum(z)
    rhs = 0.0
    prefix = 1.0
    for j in range(1, n):
        prefix *= z[j - 1]
        rhs += (1.0 - z[j]) * (1.0 - prefix)
    return lhs, rhs


# ---------------------------------------------------------------------------
# kernel table and sign scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """A scannable kernel: its public function, called as ``fn(t=t, **params)``, and its sign regime.

    The t -> 0 limit is ``fn(t=0.0, **params)``: every kernel takes t = 0,
    through its small-t series where the direct form is singular.
    """

    id: str
    fn: Callable[..., np.ndarray]
    expected_sign: Callable[..., str]
    defaults: dict = field(default_factory=dict)


# regime boundaries like c = (a+b-1)/2 are commonly hit exactly; absorb the
# rounding of the boundary arithmetic itself
_BOUNDARY_EPS = 1e-12


def _sign21(alpha):
    if alpha <= 0.5 + _BOUNDARY_EPS:
        return POSITIVE
    if alpha >= 1.0 - _BOUNDARY_EPS:
        return NEGATIVE
    return ONE_SIGN_CHANGE


def _sign25(a, b, c):
    # w = e^{-ct} [D - e^{-(a-c)t} G(t)] with D = b - a in (0, 1] and G = (1 - e^{-Dt})/(1 - e^{-t}),
    # G(0) = D; the log-derivative of e^{-(a-c)t} G is -(a-c) + (log G)', and (log G)' falls from (1-D)/2 to 0
    if c <= (a + b - 1.0) / 2.0 + _BOUNDARY_EPS:
        return POSITIVE
    if c >= a - _BOUNDARY_EPS:
        return NEGATIVE
    return ONE_SIGN_CHANGE


def _sign32(a, b, c):
    if c >= (a + b) / 2.0 - _BOUNDARY_EPS:
        return POSITIVE
    if c <= a + _BOUNDARY_EPS:
        return NEGATIVE
    return ONE_SIGN_CHANGE


def _sign34(alpha):
    if alpha >= 0.5 - _BOUNDARY_EPS:
        return POSITIVE
    if alpha <= _BOUNDARY_EPS:
        return NEGATIVE
    return ONE_SIGN_CHANGE


def _sign_lemma12(alpha):
    if alpha == 1.0:
        return UNSPECIFIED
    return POSITIVE if alpha < 1.0 else NEGATIVE


KERNELS: dict[str, Kernel] = {
    k.id: k
    for k in (
        Kernel("lemma1.2", kernel_lemma12_margin, _sign_lemma12, {"alpha": 0.5}),
        Kernel("thm2.1", kernel_thm21, _sign21, {"alpha": 0.5}),
        Kernel("thm2.5", kernel_thm25, _sign25, {"a": 0.2, "b": 1.0, "c": 0.1}),
        Kernel("thm2.6", kernel_thm26, lambda a: POSITIVE, {"a": 1.5}),
        Kernel("thm3.1", kernel_thm31, lambda alpha: POSITIVE, {"alpha": 0.5}),
        Kernel("thm3.2", kernel_thm32, _sign32, {"a": 0.5, "b": 1.0, "c": 0.75}),
        Kernel("thm3.4", kernel_thm34, _sign34, {"alpha": 0.5}),
        Kernel("thm4.1-mean", kernel_thm41_mean, lambda a_list: NEGATIVE, {"a_list": (0.5, 1.5)}),
        Kernel("thm4.1-split", kernel_thm41_split, lambda a_list: POSITIVE, {"a_list": (0.5, 1.5)}),
    )
}


@dataclass(frozen=True)
class SignScanReport:
    """Outcome of a kernel sign scan on a t grid plus the analytic t -> 0 limit."""

    kernel_id: str
    params: dict
    t_min: float
    t_max: float
    points: int
    t0_limit: float
    min_value: float
    max_value: float
    sign_change_count: int
    expected_sign: str
    verdict: str  # "match" | "mismatch"


def default_t_grid(t_min: float = 1e-4, t_max: float = 50.0, points: int = 2000):
    """Geometric scan grid; kernels vary on both log and linear scales."""
    if not (0.0 < t_min < t_max < math.inf) or points < 2:
        raise DomainError("t grid requires 0 < t_min < t_max < inf and points >= 2")
    return np.geomspace(t_min, t_max, points)


SIGN_ZERO_TOL = 1e-12  # values within this (scaled) band count as zero


def _count_sign_changes(values: np.ndarray, zero_tol: float) -> int:
    """Sign flips along ``values``, skipping entries within zero_tol of zero (and NaN)."""
    signs = np.where(values > zero_tol, 1, np.where(values < -zero_tol, -1, 0))
    nonzero = signs[signs != 0]
    return int(np.count_nonzero(nonzero[1:] != nonzero[:-1]))


def scan_kernel(kernel_id: str, params: dict | None = None, t_grid=None):
    """Evaluate a registered kernel on a grid and compare with its sign regime.

    A kernel value beyond float64 is an OverflowError naming the first such t.
    Returns (t, w, report).  min/max are taken over the real grid points; the
    t -> 0 limit participates only in sign-change counting, where near-zero
    values (removable singularities, equality cases) are interpolated away.
    """
    if kernel_id not in KERNELS:
        raise DomainError(f"unknown kernel id {kernel_id!r}")
    kern = KERNELS[kernel_id]
    unknown = sorted(set(params or ()) - set(kern.defaults))
    if unknown:
        raise DomainError(
            f"kernel {kernel_id!r} takes no parameter {', '.join(unknown)}; "
            f"it accepts {', '.join(kern.defaults)}"
        )
    p = dict(kern.defaults)
    if params:
        p.update(params)
    t = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    w = np.asarray(kern.fn(t=t, **p), dtype=float)
    beyond = ~np.isfinite(w)
    if beyond.any():
        raise OverflowError(
            f"kernel {kernel_id!r} at t={t.item(int(np.flatnonzero(beyond)[0]))!r} "
            "exceeds the float64 range"
        )
    limit = float(kern.fn(t=0.0, **p)) + 0.0  # + 0.0: a series summing signed zeros prints 0, not -0
    expected = kern.expected_sign(**p)

    zero_tol = SIGN_ZERO_TOL * (1.0 + max(float(np.max(np.abs(w))), abs(limit)))
    seq = np.concatenate([[limit], w])
    changes = _count_sign_changes(seq, zero_tol)
    wmin = float(w.min())
    wmax = float(w.max())

    if expected == POSITIVE:
        ok = wmin >= -SIGN_ZERO_TOL and limit >= -SIGN_ZERO_TOL
    elif expected == NEGATIVE:
        ok = wmax <= SIGN_ZERO_TOL and limit <= SIGN_ZERO_TOL
    elif expected == ONE_SIGN_CHANGE:
        ok = changes == 1
    else:
        ok = True
    report = SignScanReport(
        kernel_id=kernel_id,
        params=p,
        t_min=float(t[0]),
        t_max=float(t[-1]),
        points=int(t.size),
        t0_limit=limit,
        min_value=wmin,
        max_value=wmax,
        sign_change_count=changes,
        expected_sign=expected,
        verdict="match" if ok else "mismatch",
    )
    return t, w, report
