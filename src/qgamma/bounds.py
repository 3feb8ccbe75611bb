"""Two-sided gamma-ratio bounds and their complex-plane extensions.

Every ratio of gamma values here is computed as exp of log-gamma differences,
never as a quotient of direct values, so moderate-to-large arguments neither
overflow nor cancel.  Margins within ``EQUALITY_TOL`` of zero are reported as
exactly zero: the analytic equality cases (s -> 1, q = 1 reductions, c in
{0, 1}, a = 0) would otherwise show as spurious hair-thin violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import (
    DEFAULT_CONFIG,
    DomainError,
    EvalConfig,
    QValue,
    _lgamma_core,
    log_gamma,
    log_gamma_q,
    psi,
    psi_q,
)

__all__ = [
    "EQUALITY_TOL",
    "BoundTriple",
    "ComplexSample",
    "gautschi_bounds",
    "kershaw_psi_bounds",
    "kershaw_power_bounds",
    "q_sandwich",
    "rademacher_ratio_bound",
    "beta_ratio_modulus",
]

EQUALITY_TOL = 1e-12
# Deepest recurrence _lgamma_shifted takes to reach Re z >= 1/2; each step adds
# one logarithm's rounding to the result.
_MAX_RECURRENCE = 1000


def _clamp(margin):
    """margin, or 0.0 where |margin| <= EQUALITY_TOL; a float or an ndarray."""
    if isinstance(margin, np.ndarray):
        return np.where(np.abs(margin) <= EQUALITY_TOL, 0.0, margin)
    return 0.0 if abs(margin) <= EQUALITY_TOL else margin


@dataclass(frozen=True)
class BoundTriple:
    """lower < value < upper sandwich with clamped margins.

    Floats for scalar arguments; arrays of the broadcast argument shape when
    x or s is an ndarray, each element equal to the scalar call's.
    """

    lower: float | np.ndarray
    value: float | np.ndarray
    upper: float | np.ndarray

    @property
    def lower_margin(self):
        return _clamp(self.value - self.lower)

    @property
    def upper_margin(self):
        return _clamp(self.upper - self.value)


@dataclass(frozen=True)
class ComplexSample:
    """One complex-plane bound evaluation; construction enforces the hypothesis."""

    s: complex
    a: float
    b: float
    modulus: float

    def __post_init__(self):
        if self.s.real <= (1.0 - self.a - self.b) / 2.0:
            raise DomainError(
                f"Re(s)={self.s.real} violates Re(s) > (1-a-b)/2 for a={self.a}, b={self.b}"
            )


def _lg(z, cfg: EvalConfig):
    return log_gamma(z, cfg).value


def _real_args(fn: str, x, s, x_name: str = "x", x_ok=lambda x, s: x > 0.0, x_rule: str = "x > 0"):
    """x and s broadcast to float arrays after the hypotheses 0 < s < 1 and ``x_rule``.

    A violation names the first offending pair in row order.
    """
    # at least 1-d, so a scalar call runs the same numpy loops as an array call
    x, s = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                               np.atleast_1d(np.asarray(s, dtype=float)))
    for bad, rule in ((~((0.0 < s) & (s < 1.0)), "0 < s < 1"), (~x_ok(x, s), x_rule)):
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise DomainError(
                f"{fn} requires {rule}, got {x_name}={x.item(i)!r}, s={s.item(i)!r}"
            )
    return x, s


def _triple(fn: str, lower, value, upper, scalar: bool) -> BoundTriple:
    """A BoundTriple of floats (scalar arguments) or arrays; beyond float64 raises OverflowError."""
    parts = np.broadcast_arrays(lower, value, upper)
    bad = ~(np.isfinite(parts[0]) & np.isfinite(parts[1]) & np.isfinite(parts[2]))
    if bad.any():
        raise OverflowError(f"{fn} exceeds the float64 range at element {np.flatnonzero(bad)[0]}")
    if scalar:
        return BoundTriple(*(p.item(0) for p in parts))
    return BoundTriple(*(np.array(p) for p in parts))


def _gamma_ratio(x, s, cfg: EvalConfig):
    """Gamma(x+1)/Gamma(x+s) from one log-gamma difference."""
    return np.exp(_lg(x + 1.0, cfg) - _lg(x + s, cfg))


@np.errstate(all="ignore")
def gautschi_bounds(n, s, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundTriple:
    """n^{1-s} < Gamma(n+1)/Gamma(n+s) < exp[(1-s) psi(n+1)] for integer n >= 1.

    n (truncated to an integer) and s may be ndarrays; they broadcast.
    """
    scalar = np.ndim(n) == 0 and np.ndim(s) == 0
    n, s = _real_args("gautschi_bounds", np.trunc(np.asarray(n, dtype=float)), s, "n",
                      lambda n, s: n >= 1.0, "n >= 1")
    upper = np.exp((1.0 - s) * psi(n + 1.0, cfg).value)
    return _triple("gautschi_bounds", n ** (1.0 - s), _gamma_ratio(n, s, cfg), upper, scalar)


@np.errstate(all="ignore")
def kershaw_psi_bounds(x, s, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundTriple:
    """exp[(1-s) psi(x + sqrt(s))] < Gamma(x+1)/Gamma(x+s) < exp[(1-s) psi(x + (s+1)/2)].

    x and s may be ndarrays; they broadcast.
    """
    scalar = np.ndim(x) == 0 and np.ndim(s) == 0
    x, s = _real_args("kershaw_psi_bounds", x, s)
    lower = np.exp((1.0 - s) * psi(x + np.sqrt(s), cfg).value)
    upper = np.exp((1.0 - s) * psi(x + (s + 1.0) / 2.0, cfg).value)
    return _triple("kershaw_psi_bounds", lower, _gamma_ratio(x, s, cfg), upper, scalar)


@np.errstate(all="ignore")
def kershaw_power_bounds(x, s, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundTriple:
    """(x + s/2)^{1-s} < Gamma(x+1)/Gamma(x+s) < (x - 1/2 + sqrt(s + 1/4))^{1-s}.

    x and s may be ndarrays; they broadcast.
    """
    scalar = np.ndim(x) == 0 and np.ndim(s) == 0
    x, s = _real_args("kershaw_power_bounds", x, s)
    lower = (x + s / 2.0) ** (1.0 - s)
    upper = (x - 0.5 + np.sqrt(s + 0.25)) ** (1.0 - s)
    return _triple("kershaw_power_bounds", lower, _gamma_ratio(x, s, cfg), upper, scalar)


@np.errstate(all="ignore")
def q_sandwich(x, s, q, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundTriple:
    """q-analogue sandwich for Gamma_q(x+1)/Gamma_q(x+s) on x > -s/2.

    lower = ((1-q^{x+s/2})/(1-q))^{1-s}, upper = exp[(1-s) psi_q(x+(s+1)/2)];
    at q = 1 both members reduce to the classical forms.  x and s may be
    ndarrays; they broadcast.
    """
    scalar = np.ndim(x) == 0 and np.ndim(s) == 0
    q = q if isinstance(q, QValue) else QValue(float(q))
    x, s = _real_args("q_sandwich", x, s, x_ok=lambda x, s: x > -s / 2.0, x_rule="x > -s/2")
    if q.is_classical:
        lower = (x + s / 2.0) ** (1.0 - s)
        value = _gamma_ratio(x, s, cfg)
        upper = np.exp((1.0 - s) * psi(x + (s + 1.0) / 2.0, cfg).value)
    else:
        lq = math.log(q.q)
        lower = (-np.expm1((x + s / 2.0) * lq) / (1.0 - q.q)) ** (1.0 - s)
        value = np.exp(log_gamma_q(x + 1.0, q, cfg).value - log_gamma_q(x + s, q, cfg).value)
        upper = np.exp((1.0 - s) * psi_q(x + (s + 1.0) / 2.0, q, cfg).value)
    return _triple("q_sandwich", lower, value, upper, scalar)


def _first(s: np.ndarray, mask: np.ndarray) -> complex:
    """The first element of ``s`` (in row order) where ``mask`` holds."""
    return complex(s.reshape(-1)[np.flatnonzero(mask)[0]])


def _lgamma_shifted(z: np.ndarray) -> np.ndarray:
    """Complex log-gamma on an array, continued to Re z <= 0 by the recurrence.

    Each element is shifted by k = max(0, ceil(1/2 - Re z)) so that one
    Stirling pass on z + k serves the whole array; log Gamma(z) is then
    log Gamma(z + k) minus the logarithms of z + j for j < k.  Poles
    (z + j = 0), non-finite z and shifts deeper than ``_MAX_RECURRENCE`` raise
    DomainError; a result beyond float64 raises OverflowError.
    """
    bad = ~np.isfinite(z)
    if bad.any():
        raise DomainError(f"log-gamma requires finite arguments, got {_first(z, bad)!r}")
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if pole.any():
        raise DomainError(f"log-gamma pole at {_first(z, pole)!r}")
    k = np.maximum(0.0, np.ceil(0.5 - z.real))
    depth = int(k.max())
    if depth > _MAX_RECURRENCE:
        raise DomainError(
            f"log-gamma at {_first(z, k == depth)!r} needs {depth} recurrence steps, "
            f"more than {_MAX_RECURRENCE}"
        )
    with np.errstate(all="ignore"):
        out = _lgamma_core(z + k)
        for j in range(depth):
            m = k > j
            out[m] -= np.log(z[m] + j)
    bad = ~np.isfinite(out)
    if bad.any():
        raise OverflowError(f"log-gamma at {_first(z, bad)!r} exceeds the float64 range")
    return out


def _complex_s(fn: str, s) -> tuple[np.ndarray, bool]:
    """s as a finite complex array of at least one dimension, and whether it was scalar."""
    arr = np.atleast_1d(np.asarray(s, dtype=complex))
    bad = ~np.isfinite(arr)
    if bad.any():
        raise DomainError(f"{fn} requires finite s, got {_first(arr, bad)!r}")
    return arr, np.ndim(s) == 0


def _ratio_result(fn: str, s: np.ndarray, scalar: bool, modulus, bound):
    """(modulus, bound) as floats for a scalar s, else as arrays shaped like s."""
    modulus = np.broadcast_to(modulus, s.shape)
    bound = np.broadcast_to(bound, s.shape)
    bad = ~(np.isfinite(modulus) & np.isfinite(bound))
    if bad.any():
        raise OverflowError(f"{fn} at s={_first(s, bad)!r} exceeds the float64 range")
    if scalar:
        return float(modulus[0]), float(bound[0])
    return modulus.copy(), bound.copy()


def rademacher_ratio_bound(s, c: float):
    """(|Gamma(s+c)/Gamma(s)|, |s|^c) under Re(s) >= (1-c)/2, 0 <= c <= 1.

    ``s`` is a complex scalar, giving a pair of floats, or an array, giving a
    pair of arrays of its shape; a hypothesis violation names the first
    offending s in row order.  c = 1 is the recurrence equality
    |Gamma(s+1)/Gamma(s)| = |s| and is handled exactly; c = 0 degenerates to
    (1, 1).  The Stirling pass has a fixed cost, so there is no tolerance to set.
    """
    c = float(c)
    if not (0.0 <= c <= 1.0):
        raise DomainError(f"rademacher_ratio_bound requires 0 <= c <= 1, got {c!r}")
    s, scalar = _complex_s("rademacher_ratio_bound", s)
    zero = s == 0
    if zero.any():
        raise DomainError("rademacher_ratio_bound requires s != 0")
    bad = s.real < (1.0 - c) / 2.0
    if bad.any():
        raise DomainError(
            f"hypothesis Re(s) >= (1-c)/2 violated: s={_first(s, bad)!r}, c={c}"
        )
    with np.errstate(all="ignore"):
        abs_s = np.abs(s)
        bound = abs_s ** c
    if c == 0.0:
        modulus = 1.0
    elif c == 1.0:
        modulus = abs_s
    else:
        lg = _lgamma_shifted(np.stack([s + c, s]))
        with np.errstate(all="ignore"):
            modulus = np.exp((lg[0] - lg[1]).real)
    return _ratio_result("rademacher_ratio_bound", s, scalar, modulus, bound)


def beta_ratio_modulus(s, a: float, b: float):
    """(|Gamma(s+a)Gamma(s+b) / (Gamma(s)Gamma(s+a+b))|, 1.0) for Re(s) > (1-a-b)/2.

    ``s`` is a complex scalar, giving a pair of floats, or an array, giving a
    pair of arrays of its shape; a hypothesis violation names the first
    offending s in row order.  Arguments left of the imaginary axis (possible
    when a + b > 1) are reached through the recurrence, not reflection, so
    gamma poles raise cleanly.
    """
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= 1.0):
        raise DomainError(f"beta_ratio_modulus requires 0 <= a <= 1, got {a!r}")
    if not (0.0 <= b < math.inf):
        raise DomainError(f"beta_ratio_modulus requires finite b >= 0, got {b!r}")
    s, scalar = _complex_s("beta_ratio_modulus", s)
    bad = s.real <= (1.0 - a - b) / 2.0
    if bad.any():
        raise DomainError(
            f"hypothesis Re(s) > (1-a-b)/2 violated: s={_first(s, bad)!r}, a={a}, b={b}"
        )
    if a == 0.0:
        modulus = 1.0
    else:
        lg = _lgamma_shifted(np.stack([s + a, s + b, s, s + a + b]))
        with np.errstate(all="ignore"):
            modulus = np.exp((lg[0] + lg[1] - lg[2] - lg[3]).real)
    return _ratio_result("beta_ratio_modulus", s, scalar, modulus, 1.0)
