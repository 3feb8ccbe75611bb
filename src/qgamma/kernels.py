"""Proof kernels w(t) and sign scans.

Each completely-monotonicity claim in the corpus reduces to the sign of a
bracketed integrand w(t) inside int e^{-xt} w(t) d gamma_q(t).  This module
evaluates those brackets stably (removable t -> 0 singularities are handled
by truncated Taylor expansions below ``SMALL_T``), scans their sign on a
geometric grid, and exposes the kernel table used by the CLI.

All kernel functions accept a scalar or ndarray ``t`` and are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .special import DomainError

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


def sinh_ratio(alpha: float, t):
    """sinh(alpha t) / sinh(t), stable for large t via the exponential rewrite.

    Equality with both sandwich members holds at alpha = 1.  Arguments with
    (alpha - 1) t beyond the float exponent range overflow to inf rather than
    raising; the scan grids stay far below that.
    """
    alpha = float(alpha)
    t = np.asarray(t, dtype=float)
    if alpha <= 0.0:
        raise DomainError(f"sinh_ratio requires alpha > 0, got {alpha!r}")
    if np.any(t <= 0.0):
        raise DomainError("sinh_ratio requires t > 0")
    if alpha == 1.0:
        out = np.ones_like(t)
        return out[()] if out.ndim == 0 else out
    # sinh(at)/sinh(t) = e^{(a-1)t} (1 - e^{-2at}) / (1 - e^{-2t})
    log_ratio = (alpha - 1.0) * t + np.log(-np.expm1(-2.0 * alpha * t)) - np.log(
        -np.expm1(-2.0 * t)
    )
    out = np.exp(log_ratio)
    return out[()] if out.ndim == 0 else out


def sinh_ratio_bounds(alpha: float, t):
    """The sandwich members (alpha e^{(alpha-1)t}, alpha) enclosing sinh_ratio."""
    alpha = float(alpha)
    t = np.asarray(t, dtype=float)
    lower = alpha * np.exp((alpha - 1.0) * t)
    upper = np.full_like(lower, alpha)
    return (lower[()], upper[()]) if lower.ndim == 0 else (lower, upper)


def kernel_lemma12_margin(alpha: float, t):
    """Smaller of the two sandwich margins; > 0 for 0 < alpha < 1, < 0 for alpha > 1."""
    r = sinh_ratio(alpha, t)
    lower, upper = sinh_ratio_bounds(alpha, t)
    return np.minimum(r - lower, upper - r)


def kernel_thm21(alpha: float, t):
    """1/(1 - e^{-t}) - 1/t - alpha, with t -> 0 limit 1/2 - alpha."""
    alpha = float(alpha)
    t = np.asarray(t, dtype=float)
    t_safe = np.maximum(t, SMALL_T)
    direct = _rho(t_safe) - 1.0 / t_safe - alpha
    series = 0.5 + t / 12.0 - t ** 3 / 720.0 + t ** 5 / 30240.0 - alpha
    out = np.where(t < SMALL_T, series, direct)
    return out[()] if out.ndim == 0 else out


def kernel_thm25(a: float, b: float, c: float, t):
    """(e^{-bt} - e^{-at})/(1 - e^{-t}) + (b - a) e^{-ct} for a < b <= a + 1."""
    a, b, c = float(a), float(b), float(c)
    if not (a < b <= a + 1.0):
        raise DomainError(f"kernel_thm25 requires a < b <= a + 1, got a={a}, b={b}")
    t = np.asarray(t, dtype=float)
    t_safe = np.maximum(t, SMALL_T)
    direct = (np.exp(-b * t_safe) - np.exp(-a * t_safe)) * _rho(t_safe) + (
        b - a
    ) * np.exp(-c * t_safe)
    # power sums S_k = (b^k - a^k)/(b - a) feed the small-t expansion of the quotient
    s2 = a + b
    s3 = a * a + a * b + b * b
    s4 = a ** 3 + a * a * b + a * b * b + b ** 3
    s5 = a ** 4 + a ** 3 * b + a * a * b * b + a * b ** 3 + b ** 4
    g1 = 0.5 - s2 / 2.0
    g2 = 1.0 / 12.0 - s2 / 4.0 + s3 / 6.0
    g3 = -s2 / 24.0 + s3 / 12.0 - s4 / 24.0
    g4 = -1.0 / 720.0 + s3 / 72.0 - s4 / 48.0 + s5 / 120.0
    series = (b - a) * (
        (-c - g1) * t
        + (c * c / 2.0 - g2) * t ** 2
        + (-(c ** 3) / 6.0 - g3) * t ** 3
        + (c ** 4 / 24.0 - g4) * t ** 4
    )
    out = np.where(t < SMALL_T, series, direct)
    return out[()] if out.ndim == 0 else out


def kernel_thm26(a: float, t):
    """a e^{(a-1)t/2} - sinh(at/2)/sinh(t/2); identically 0 at a = 1."""
    a = float(a)
    if a < 1.0:
        raise DomainError(f"kernel_thm26 requires a >= 1, got {a!r}")
    t = np.asarray(t, dtype=float)
    out = a * np.exp((a - 1.0) * t / 2.0) - sinh_ratio(a, t / 2.0)
    return out[()] if out.ndim == 0 else out


def kernel_thm31(alpha: float, t):
    """-alpha/(1 - e^{-t}) + 1/(1 - e^{-t/alpha}) for 0 < alpha < 1; limit (1-alpha)/2."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"kernel_thm31 requires 0 < alpha < 1, got {alpha!r}")
    t = np.asarray(t, dtype=float)
    t_safe = np.maximum(t, SMALL_T)
    direct = -alpha * _rho(t_safe) + _rho(t_safe / alpha)
    series = (
        (1.0 - alpha) / 2.0
        + (1.0 / alpha - alpha) * t / 12.0
        - (1.0 / alpha ** 3 - alpha) * t ** 3 / 720.0
    )
    out = np.where(t < SMALL_T, series, direct)
    return out[()] if out.ndim == 0 else out


def kernel_thm32(a: float, b: float, c: float, t):
    """2 sinh((b-a)t/2) - (b-a) t e^{((a+b)/2 - c)t} for 0 < a < b."""
    a, b, c = float(a), float(b), float(c)
    if not (0.0 < a < b):
        raise DomainError(f"kernel_thm32 requires 0 < a < b, got a={a}, b={b}")
    t = np.asarray(t, dtype=float)
    out = 2.0 * np.sinh(0.5 * (b - a) * t) - (b - a) * t * np.exp(
        (0.5 * (a + b) - c) * t
    )
    return out[()] if out.ndim == 0 else out


def kernel_thm34(alpha: float, t):
    """p_alpha(t) = (12 - t^2 e^{-alpha t}) / (12 (1 - e^{-t})) - 1/2 - 1/t.

    Vanishes quadratically at t = 0 with leading coefficient (2 alpha - 1)/24,
    so the naive form is catastrophically cancellative there; below ``SMALL_T``
    a degree-5 expansion is used instead.
    """
    alpha = float(alpha)
    t = np.asarray(t, dtype=float)
    t_safe = np.maximum(t, SMALL_T)
    direct = (
        (12.0 - t_safe ** 2 * np.exp(-alpha * t_safe)) / 12.0 * _rho(t_safe)
        - 0.5
        - 1.0 / t_safe
    )
    c2 = alpha / 12.0 - 1.0 / 24.0
    c3 = alpha / 24.0 - alpha ** 2 / 24.0 - 1.0 / 120.0
    c4 = alpha / 144.0 - alpha ** 2 / 48.0 + alpha ** 3 / 72.0
    c5 = (
        1.0 / 30240.0
        + 1.0 / 8640.0
        - alpha ** 2 / 288.0
        + alpha ** 3 / 144.0
        - alpha ** 4 / 288.0
    )
    series = c2 * t ** 2 + c3 * t ** 3 + c4 * t ** 4 + c5 * t ** 5
    out = np.where(t < SMALL_T, series, direct)
    return out[()] if out.ndim == 0 else out


def _check_a_list(a_list) -> np.ndarray:
    a = np.asarray(tuple(a_list), dtype=float)
    if a.size == 0 or np.any(a <= 0.0):
        raise DomainError(f"a_list entries must be positive, got {a_list!r}")
    return a


def kernel_thm41_mean(a_list, t):
    """n e^{-abar t} - sum_i e^{-a_i t} with abar the arithmetic mean.

    By convexity of a -> e^{-at} this bracket is <= 0 (zero when all a_i agree);
    the sign recorded here is the empirical one, and the monotonicity claim it
    feeds is checked on the function itself, not inferred from the bracket.
    """
    a = _check_a_list(a_list)
    t = np.asarray(t, dtype=float)
    abar = a.mean()
    out = a.size * np.exp(-abar * t) - sum(np.exp(-ai * t) for ai in a)
    return out[()] if np.asarray(out).ndim == 0 else out


def kernel_thm41_split(a_list, t):
    """n - 1 + e^{-(a_1+...+a_n)t} - sum_i e^{-a_i t}; provably >= 0."""
    a = _check_a_list(a_list)
    t = np.asarray(t, dtype=float)
    out = (a.size - 1.0) + np.exp(-a.sum() * t) - sum(np.exp(-ai * t) for ai in a)
    return out[()] if np.asarray(out).ndim == 0 else out


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
    """A scannable kernel: callable, t -> 0 limit, and its predicted sign regime."""

    id: str
    fn: Callable[..., np.ndarray]
    limit: Callable[..., float]
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
    if -_BOUNDARY_EPS <= c <= (a + b - 1.0) / 2.0 + _BOUNDARY_EPS:
        return POSITIVE
    if c >= a - _BOUNDARY_EPS >= -_BOUNDARY_EPS:
        return NEGATIVE
    return ONE_SIGN_CHANGE


def _sign32(a, b, c):
    if c >= (a + b) / 2.0 - _BOUNDARY_EPS:
        return POSITIVE
    if c <= a + _BOUNDARY_EPS:
        return NEGATIVE
    return ONE_SIGN_CHANGE


def _sign34(alpha):
    if alpha >= 0.5:
        return POSITIVE
    if alpha <= 0.0:
        return NEGATIVE
    return ONE_SIGN_CHANGE


def _sign_lemma12(alpha):
    if alpha == 1.0:
        return UNSPECIFIED
    return POSITIVE if alpha < 1.0 else NEGATIVE


KERNELS: dict[str, Kernel] = {
    k.id: k
    for k in (
        Kernel(
            "lemma1.2",
            lambda t, alpha: kernel_lemma12_margin(alpha, t),
            lambda alpha: 0.0,
            _sign_lemma12,
            {"alpha": 0.5},
        ),
        Kernel(
            "thm2.1",
            lambda t, alpha: kernel_thm21(alpha, t),
            lambda alpha: 0.5 - alpha,
            _sign21,
            {"alpha": 0.5},
        ),
        Kernel(
            "thm2.5",
            lambda t, a, b, c: kernel_thm25(a, b, c, t),
            lambda a, b, c: 0.0,
            _sign25,
            {"a": 0.2, "b": 1.0, "c": 0.1},
        ),
        Kernel(
            "thm2.6",
            lambda t, a: kernel_thm26(a, t),
            lambda a: 0.0,
            lambda a: POSITIVE,
            {"a": 1.5},
        ),
        Kernel(
            "thm3.1",
            lambda t, alpha: kernel_thm31(alpha, t),
            lambda alpha: (1.0 - alpha) / 2.0,
            lambda alpha: POSITIVE,
            {"alpha": 0.5},
        ),
        Kernel(
            "thm3.2",
            lambda t, a, b, c: kernel_thm32(a, b, c, t),
            lambda a, b, c: 0.0,
            _sign32,
            {"a": 0.5, "b": 1.0, "c": 0.75},
        ),
        Kernel(
            "thm3.4",
            lambda t, alpha: kernel_thm34(alpha, t),
            lambda alpha: 0.0,
            _sign34,
            {"alpha": 0.5},
        ),
        Kernel(
            "thm4.1-mean",
            lambda t, a_list: kernel_thm41_mean(a_list, t),
            lambda a_list: 0.0,
            lambda a_list: NEGATIVE,
            {"a_list": (0.5, 1.5)},
        ),
        Kernel(
            "thm4.1-split",
            lambda t, a_list: kernel_thm41_split(a_list, t),
            lambda a_list: 0.0,
            lambda a_list: POSITIVE,
            {"a_list": (0.5, 1.5)},
        ),
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
    if not (0.0 < t_min < t_max) or points < 2:
        raise DomainError("t grid requires 0 < t_min < t_max and points >= 2")
    return np.geomspace(t_min, t_max, points)


SIGN_ZERO_TOL = 1e-12  # values within this (scaled) band count as zero


def _count_sign_changes(values: np.ndarray, zero_tol: float) -> int:
    """Sign flips along ``values``, skipping entries within zero_tol of zero (and NaN)."""
    signs = np.where(values > zero_tol, 1, np.where(values < -zero_tol, -1, 0))
    nonzero = signs[signs != 0]
    return int(np.count_nonzero(nonzero[1:] != nonzero[:-1]))


def scan_kernel(kernel_id: str, params: dict | None = None, t_grid=None):
    """Evaluate a registered kernel on a grid and compare with its sign regime.

    Returns (t, w, report).  min/max are taken over the real grid points; the
    t -> 0 limit participates only in sign-change counting, where near-zero
    values (removable singularities, equality cases) are interpolated away.
    """
    if kernel_id not in KERNELS:
        raise DomainError(f"unknown kernel id {kernel_id!r}")
    kern = KERNELS[kernel_id]
    p = dict(kern.defaults)
    if params:
        p.update(params)
    t = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    w = np.asarray(kern.fn(t, **p), dtype=float)
    limit = float(kern.limit(**p))
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
