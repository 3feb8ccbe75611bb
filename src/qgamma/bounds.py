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
    _checked_complex,
    _coerce_q,
    _finite,
    _first,
    _lgamma_core,
    _quiet,
    _shaped,
    log_gamma,
    log_gamma_q,
    psi,
    psi_q,
)

__all__ = [
    "EQUALITY_TOL",
    "BoundTriple",
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
    """margin, or 0.0 where |margin| <= EQUALITY_TOL; a float or an ndarray, as margin is."""
    return _shaped(np.where(np.abs(margin) <= EQUALITY_TOL, 0.0, margin), np.shape(margin))


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


def _real_args(fn: str, x, s, x_name: str = "x", x_ok=lambda x, s: x > 0.0, x_rule: str = "x > 0"):
    """(x, s, shape): x and s broadcast to ``shape`` and flattened, after 0 < s < 1 and ``x_rule``.

    A violation names the first offending pair in row order, with its index
    for an array.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(s))
    x, s = (np.broadcast_to(np.asarray(v, dtype=float), shape).reshape(-1) for v in (x, s))
    for bad, rule in ((~((0.0 < s) & (s < 1.0)), "0 < s < 1"), (~x_ok(x, s), x_rule)):
        if bad.any():
            raise DomainError(f"{fn} requires {rule}, got {x_name}={x.item(np.flatnonzero(bad)[0])!r}, "
                              f"s={_first(s, bad)}")
    return x, s, shape


def _triple(fn: str, shape: tuple, lower, value, upper) -> BoundTriple:
    """A BoundTriple shaped as ``_shaped`` shapes; a member beyond float64 raises OverflowError."""
    parts = np.broadcast_arrays(lower, value, upper)
    _finite(fn, *parts)
    return BoundTriple(*(_shaped(np.array(p), shape) for p in parts))


def _gamma_ratio(x, s, cfg: EvalConfig):
    """Gamma(x+1)/Gamma(x+s) from one log-gamma difference."""
    return np.exp(log_gamma(x + 1.0, cfg).value - log_gamma(x + s, cfg).value)


@_quiet
def gautschi_bounds(n, s, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundTriple:
    """n^{1-s} < Gamma(n+1)/Gamma(n+s) < exp[(1-s) psi(n+1)] for integer n >= 1.

    n (truncated to an integer) and s may be ndarrays; they broadcast.
    """
    n, s, shape = _real_args("gautschi_bounds", np.trunc(np.asarray(n, dtype=float)), s, "n",
                             lambda n, s: n >= 1.0, "n >= 1")
    upper = np.exp((1.0 - s) * psi(n + 1.0, cfg).value)
    return _triple("gautschi_bounds", shape, n ** (1.0 - s), _gamma_ratio(n, s, cfg), upper)


@_quiet
def kershaw_psi_bounds(x, s, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundTriple:
    """exp[(1-s) psi(x + sqrt(s))] < Gamma(x+1)/Gamma(x+s) < exp[(1-s) psi(x + (s+1)/2)].

    x and s may be ndarrays; they broadcast.
    """
    x, s, shape = _real_args("kershaw_psi_bounds", x, s)
    lower = np.exp((1.0 - s) * psi(x + np.sqrt(s), cfg).value)
    upper = np.exp((1.0 - s) * psi(x + (s + 1.0) / 2.0, cfg).value)
    return _triple("kershaw_psi_bounds", shape, lower, _gamma_ratio(x, s, cfg), upper)


@_quiet
def kershaw_power_bounds(x, s, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundTriple:
    """(x + s/2)^{1-s} < Gamma(x+1)/Gamma(x+s) < (x - 1/2 + sqrt(s + 1/4))^{1-s}.

    x and s may be ndarrays; they broadcast.
    """
    x, s, shape = _real_args("kershaw_power_bounds", x, s)
    lower = (x + s / 2.0) ** (1.0 - s)
    upper = (x - 0.5 + np.sqrt(s + 0.25)) ** (1.0 - s)
    return _triple("kershaw_power_bounds", shape, lower, _gamma_ratio(x, s, cfg), upper)


@_quiet
def q_sandwich(x, s, q, cfg: EvalConfig = DEFAULT_CONFIG) -> BoundTriple:
    """q-analogue sandwich for Gamma_q(x+1)/Gamma_q(x+s) on x > -s/2.

    lower = ((1-q^{x+s/2})/(1-q))^{1-s}, upper = exp[(1-s) psi_q(x+(s+1)/2)];
    at q = 1 both members reduce to the classical forms.  x and s may be
    ndarrays; they broadcast.
    """
    q = _coerce_q(q)
    x, s, shape = _real_args("q_sandwich", x, s, x_ok=lambda x, s: x > -s / 2.0, x_rule="x > -s/2")
    y = x + s / 2.0
    lq = math.log(q.q)
    base = y if q.is_classical else -np.expm1(y * lq) / -math.expm1(lq)
    lower = base ** (1.0 - s)
    value = np.exp(log_gamma_q(x + 1.0, q, cfg).value - log_gamma_q(x + s, q, cfg).value)
    upper = np.exp((1.0 - s) * psi_q(x + (s + 1.0) / 2.0, q, cfg).value)
    return _triple("q_sandwich", shape, lower, value, upper)


def _lgamma_shifted(z: np.ndarray) -> np.ndarray:
    """Complex log-gamma on an array, continued to Re z <= 0 by the recurrence.

    Each element is shifted by k = max(0, ceil(1/2 - Re z)) so that one
    Stirling pass on z + k serves the whole array; log Gamma(z) is then
    log Gamma(z + k) minus the logarithms of z + j for j < k.  Poles
    (z + j = 0), non-finite z and shifts deeper than ``_MAX_RECURRENCE`` raise
    DomainError; a result beyond float64 raises OverflowError.  Each message
    names the first such argument in row order, without an index: the stacked
    z is no argument a caller passed.
    """
    bad = ~np.isfinite(z)
    if bad.any():
        raise DomainError(f"log-gamma requires finite arguments, got {z[bad].item(0)!r}")
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if pole.any():
        raise DomainError(f"log-gamma pole at {z[pole].item(0)!r}")
    k = np.maximum(0.0, np.ceil(0.5 - z.real))
    depth = int(k.max())
    if depth > _MAX_RECURRENCE:
        raise DomainError(
            f"log-gamma at {z[k == depth].item(0)!r} needs {depth} recurrence steps, "
            f"more than {_MAX_RECURRENCE}"
        )
    out = _lgamma_core(z + k)
    for j in range(depth):
        m = k > j
        out[m] -= np.log(z[m] + j)
    bad = ~np.isfinite(out)
    if bad.any():
        raise OverflowError(f"log-gamma at {z[bad].item(0)!r} exceeds the float64 range")
    return out


def _ratio_result(fn: str, s: np.ndarray, shape: tuple, modulus, bound):
    """(modulus, bound) over the flat s, as floats for a scalar s, else as arrays of its ``shape``.

    A member beyond float64 raises OverflowError.
    """
    modulus, bound = (np.broadcast_to(v, s.shape) for v in (modulus, bound))
    _finite(fn, modulus, bound)
    return _shaped(np.array(modulus), shape), _shaped(np.array(bound), shape)


@_quiet
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
    shape = np.shape(s)
    s = _checked_complex("rademacher_ratio_bound", s, what="s")
    if (s == 0).any():
        raise DomainError("rademacher_ratio_bound requires s != 0")
    bad = s.real < (1.0 - c) / 2.0
    if bad.any():
        raise DomainError(f"hypothesis Re(s) >= (1-c)/2 violated: s={_first(s, bad)}, c={c}")
    abs_s = np.abs(s)
    bound = abs_s ** c
    if c == 0.0:
        modulus = 1.0
    elif c == 1.0:
        modulus = abs_s
    else:
        lg = _lgamma_shifted(np.stack([s + c, s]))
        modulus = np.exp((lg[0] - lg[1]).real)
    return _ratio_result("rademacher_ratio_bound", s, shape, modulus, bound)


@_quiet
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
    shape = np.shape(s)
    s = _checked_complex("beta_ratio_modulus", s, what="s")
    bad = s.real <= (1.0 - a - b) / 2.0
    if bad.any():
        raise DomainError(
            f"hypothesis Re(s) > (1-a-b)/2 violated: s={_first(s, bad)}, a={a}, b={b}"
        )
    if a == 0.0:
        modulus = 1.0
    else:
        lg = _lgamma_shifted(np.stack([s + a, s + b, s, s + a + b]))
        modulus = np.exp((lg[0] + lg[1] - lg[2] - lg[3]).real)
    return _ratio_result("beta_ratio_modulus", s, shape, modulus, 1.0)
