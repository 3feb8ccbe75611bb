"""Numerical complete-monotonicity testing via alternating forward differences.

A function f is completely monotonic when (-1)^n f^(n)(x) >= 0 for all orders;
the finite analogue tested here is (-1)^n Delta_h^n f(x) >= 0 over a grid of
(x, h, n).  The test is one-sided: "consistent-with-CM" is necessary-condition
evidence, never a proof, while "violates-CM" comes with a concrete witness
(x, h, n).  Witnesses with h = 0 denote analytic-derivative checks.

Order 0 (f >= 0 pointwise) is included by default for bare function handles
and excluded for difference checks; theorem cases opt in only when their
statement asserts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .special import DomainError, _quiet, log_gamma

__all__ = [
    "GridSpec",
    "CMReport",
    "forward_difference",
    "check_cm",
    "check_difference_cm",
    "gautschi_sum_check",
    "DEFAULT_TOL_ABS",
    "DEFAULT_TOL_REL",
]

# High-order alternating sums amplify roundoff by ~2^n, so the violation
# threshold sits well above it for the function scales in the corpus.
DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-9

CONSISTENT = "consistent-with-CM"
VIOLATES = "violates-CM"

# the orders k whose analytic derivatives check_cm reads through derivs(k, xs)
_DERIV_ORDERS = (1, 2, 3)


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for a CM check.

    ``x_max + max_order * max(h_set)`` must stay inside the tested function's
    valid interval; geometric spacing requires x_min > 0.
    """

    x_min: float
    x_max: float
    points: int = 21
    spacing: str = "geometric"
    h_set: tuple[float, ...] = (0.125, 0.5, 1.0)
    max_order: int = 8

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise DomainError(f"grid requires x_min < x_max, got {self}")
        if self.points < 2:
            raise DomainError("grid requires points >= 2")
        if self.max_order < 1:
            raise DomainError("grid requires max_order >= 1")
        if not self.h_set or any(h <= 0.0 for h in self.h_set):
            raise DomainError("all difference steps h must be positive")
        if self.spacing not in ("linear", "geometric"):
            raise DomainError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "geometric" and self.x_min <= 0.0:
            raise DomainError("geometric spacing requires x_min > 0")

    def xs(self) -> np.ndarray:
        if self.spacing == "geometric":
            return np.geomspace(self.x_min, self.x_max, self.points)
        return np.linspace(self.x_min, self.x_max, self.points)


@dataclass(frozen=True)
class CMReport:
    """Outcome of a CM scan; ``verdict`` is violates-CM iff some signed value
    falls below -(tol_abs + tol_rel * scale) at its own stencil scale.
    ``evaluations`` counts the distinct stencil nodes passed to the tested function."""

    case_id: str
    grid: GridSpec
    tol_abs: float
    tol_rel: float
    per_order_worst: dict[int, float] = field(repr=False)
    worst_violation: float = math.inf
    worst_threshold: float = 0.0
    witness: tuple[float, float, int] = (math.nan, math.nan, -1)  # (x, h, n)
    verdict: str = CONSISTENT
    evaluations: int = 0


def _alternating_sum(value_at: Callable[[int], float], n: int):
    """sum_j (-1)^j C(n, j) value_at(n - j), added in order of j: Delta_h^n from its nodes.

    ``value_at(i)`` is f(x + i h); it may be an array over a lattice of (x, h),
    and each element is then the scalar sum at its own (x, h).
    """
    total = 0.0
    for j in range(n + 1):
        total = total + (-1) ** j * math.comb(n, j) * value_at(n - j)
    return total


def forward_difference(f: Callable[[float], float], x: float, h: float, n: int) -> float:
    """Delta_h^n f(x) = sum_j (-1)^j C(n, j) f(x + (n-j) h)."""
    if h <= 0.0:
        raise DomainError(f"forward_difference requires h > 0, got {h!r}")
    if n < 0:
        raise DomainError(f"forward_difference requires n >= 0, got {n!r}")
    return _alternating_sum(lambda i: f(x + i * h), n)


@_quiet
def check_cm(
    fn: Callable[[np.ndarray], np.ndarray],
    grid: GridSpec,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    derivs: Callable[[int, np.ndarray], np.ndarray] | None = None,
    include_order_zero: bool = True,
    case_id: str = "",
) -> CMReport:
    """Scan (-1)^n Delta_h^n fn(x) over the grid, plus analytic derivative signs.

    ``fn`` must map an ndarray of x elementwise: it is called once, on the
    distinct stencil nodes x + j h of the grid (j = 0..max_order) in order of
    first occurrence, and its values are scattered back over the lattice, so
    a node shared by several (x, h, j) is evaluated once and an error names
    the first bad node of the lattice.  ``derivs(k, xs)``,
    when given, must return the k-th derivative of ``fn`` at the grid points
    xs; orders 1..3 are checked directly as (-1)^k fn^(k)(x) >= 0.  The
    violation threshold at each stencil is tol_abs + tol_rel * max |fn| over
    the stencil.  The witness is the first worst margin (signed + threshold)
    in scan order: order 0, then n, h and x, then the derivative rows.  The
    scan runs with numpy's flags quiet: a stencil whose arithmetic overflows
    to inf or NaN is read as no evidence, never reported as a RuntimeWarning.
    """
    xs = grid.xs()
    steps = np.arange(grid.max_order + 1) * np.asarray(grid.h_set, dtype=float)[:, None, None]
    nodes = xs[None, :, None] + steps  # (h, x, j): x + j h
    flat = nodes.ravel()
    # each distinct bit pattern once (0.0 and -0.0 stay apart), in order of first occurrence
    _, first, inverse = np.unique(flat.view(np.int64), return_index=True, return_inverse=True)
    order = np.argsort(first)
    distinct = flat[first[order]]
    vals = np.broadcast_to(np.asarray(fn(distinct), dtype=float), distinct.shape)
    vals = vals[np.argsort(order)[inverse]].reshape(nodes.shape)
    f0 = vals[0, :, 0]  # fn at the grid points
    d_rows = [] if derivs is None else [
        (k, np.broadcast_to(np.asarray(derivs(k, xs), dtype=float), xs.shape)) for k in _DERIV_ORDERS
    ]

    rows: list[tuple[int, float, np.ndarray, np.ndarray]] = []  # (n, h, signed, threshold)
    if include_order_zero:
        rows.append((0, 0.0, f0, tol_abs + tol_rel * np.abs(f0)))
    scale = np.maximum.accumulate(np.abs(vals), axis=-1)  # max |fn| over x + (0..n) h
    for n in range(1, grid.max_order + 1):
        delta = _alternating_sum(lambda i: vals[..., i], n)
        signed = delta if n % 2 == 0 else -delta
        thresh = tol_abs + tol_rel * scale[..., n]
        rows += [(n, h, signed[k], thresh[k]) for k, h in enumerate(grid.h_set)]
    for k, d in d_rows:
        signed = d if k % 2 == 0 else -d
        rows.append((k, 0.0, signed, tol_abs + tol_rel * np.maximum(np.abs(f0), np.abs(d))))
    signed = np.stack([r[2] for r in rows])
    thresh = np.stack([r[3] for r in rows])
    margin = signed + thresh
    margin[np.isnan(margin)] = math.inf  # a NaN row is no evidence either way
    violated = bool((signed < -thresh).any())
    row_min = np.where(np.isnan(signed), math.inf, signed).min(axis=1)

    per_order: dict[int, float] = {}
    for (n, *_), worst in zip(rows, row_min.tolist()):
        per_order[n] = min(per_order.get(n, math.inf), worst)
    worst_violation, worst_threshold, witness = math.inf, 0.0, (math.nan, math.nan, -1)
    i, p = divmod(int(margin.argmin()), xs.size)
    if margin[i, p] < math.inf:
        n, h = rows[i][:2]
        worst_violation, worst_threshold = float(signed[i, p]), float(thresh[i, p])
        witness = (float(xs[p]), h, n)
    return CMReport(
        case_id=case_id,
        grid=grid,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        per_order_worst=dict(sorted(per_order.items())),
        worst_violation=worst_violation,
        worst_threshold=worst_threshold,
        witness=witness,
        verdict=VIOLATES if violated else CONSISTENT,
        evaluations=distinct.size,
    )


def check_difference_cm(
    fn: Callable[[float], float],
    a: float,
    grid: GridSpec,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    case_id: str = "",
) -> CMReport:
    """CM check of x -> fn(x) - fn(x + a), the difference of a CM candidate.

    For CM fn this difference is again CM; the converse fails, so order 0 is
    not tested here (a non-CM fn with constant difference passes by design).
    """
    if a <= 0.0:
        raise DomainError(f"check_difference_cm requires a > 0, got {a!r}")
    return check_cm(
        lambda x: fn(x) - fn(x + a),
        grid,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        include_order_zero=False,
        case_id=case_id or f"difference(a={a})",
    )


def gautschi_sum_check(n: int, samples: int, seed: int) -> float:
    """Worst margin of n - sum_k 1/Gamma(x_k) over constrained random tuples.

    Tuples x_1..x_n > 0 with product 1 are drawn in log space from a seeded
    normal generator and re-centered so the log-sum is exactly zero.  The
    inequality holds for n <= 8, so the returned minimum should be >= 0 up to
    roundoff (n = 1 pins x_1 = 1 and gives margin 0).
    """
    n = int(n)
    if not (1 <= n <= 8):
        raise DomainError(f"gautschi_sum_check requires 1 <= n <= 8, got {n!r}")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(int(seed))
    y = rng.normal(0.0, 0.75, size=(int(samples), n))
    y -= y.mean(axis=1, keepdims=True)
    x = np.exp(y)
    inv_gamma = np.exp(-log_gamma(x).value)
    margins = n - inv_gamma.sum(axis=1)
    return float(margins.min())
