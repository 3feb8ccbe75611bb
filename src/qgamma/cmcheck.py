"""Numerical complete-monotonicity testing: analytic derivative rows, or alternating forward differences.

A function f is completely monotonic when (-1)^n f^(n)(x) >= 0 for all
orders (Bernstein; Widder, *The Laplace Transform*, ch. IV).  Two checks test
it:

- ``check_rows(grid, values, radius)`` reads the values f^(n) at the grid
  points for n = 0..max_order, each with a radius bounding its error.  A row
  value (-1)^n f^(n)(x) below -(radius + tol_abs + tol_rel * max(|f|,
  |f^(n)|)) proves that f is not CM, with the witness (x, 0, n).  Its
  tolerances default to 0.  The theorem corpus is verified this way.
- ``check_cm(fn, grid)`` tests (-1)^n Delta_h^n f(x) >= 0 over a grid of
  (x, h, n), the finite analogue, each against tol_abs + tol_rel times the
  stencil's largest |f|.  A violation comes with the witness (x, h, n).  f is
  called once, on the distinct nodes x + j h, and one pass of array steps
  (``_differences``) gives every order; ``forward_difference`` reads its one
  (x, h, n) from the same pass.

Either test is one-sided: "consistent-with-CM" is necessary-condition
evidence on the grid, never a proof.  Both run with numpy's flags quiet: a
value that overflows to inf or NaN is read as no evidence, never reported as
a RuntimeWarning.  Order 0 (f >= 0 pointwise) is included by default for bare
function handles and excluded for difference checks; theorem cases opt in
only when their statement asserts it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .special import DomainError, _quiet, _running, log_gamma

__all__ = [
    "GridSpec",
    "CMReport",
    "forward_difference",
    "check_rows",
    "check_cm",
    "check_difference_cm",
    "gautschi_sum_check",
    "DEFAULT_TOL_ABS",
    "DEFAULT_TOL_REL",
]

# The stencil check's defaults: high-order alternating sums amplify roundoff
# by ~2^n, so the violation threshold sits well above it.
DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-9

CONSISTENT = "consistent-with-CM"
VIOLATES = "violates-CM"

@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for a CM check.

    The analytic rows read the grid points and orders 0..max_order; a stencil
    also reads the steps ``h_set``, and ``x_max + max_order * max(h_set)``
    must then stay inside the tested function's valid interval.  Geometric
    spacing requires x_min > 0.
    """

    x_min: float
    x_max: float
    points: int = 21
    spacing: str = "geometric"
    h_set: tuple[float, ...] = (0.125, 0.5, 1.0)
    max_order: int = 8

    def __post_init__(self):
        if not (self.x_min < self.x_max and math.isfinite(self.x_max - self.x_min)):
            raise DomainError(f"grid requires x_min < x_max a finite distance apart, got {self}")
        if self.points < 2:
            raise DomainError("grid requires points >= 2")
        if self.max_order < 1:
            raise DomainError("grid requires max_order >= 1")
        if not self.h_set or not all(0.0 < h < math.inf for h in self.h_set):
            raise DomainError(f"all difference steps h must be positive and finite, got {self.h_set}")
        if self.spacing not in ("linear", "geometric"):
            raise DomainError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "geometric" and self.x_min <= 0.0:
            raise DomainError("geometric spacing requires x_min > 0")

    def xs(self) -> np.ndarray:
        """The grid points, read-only, computed on the first call and kept with the grid."""
        xs = self.__dict__.get("_xs")
        if xs is None:
            if self.spacing == "geometric":
                xs = np.geomspace(self.x_min, self.x_max, self.points)
            else:
                xs = np.linspace(self.x_min, self.x_max, self.points)
            xs.flags.writeable = False
            object.__setattr__(self, "_xs", xs)  # not a field: eq, hash, repr and replace ignore it
        return xs


@dataclass(frozen=True)
class CMReport:
    """Outcome of a CM scan; ``verdict`` is violates-CM iff some signed value
    falls below its own threshold, ``worst_threshold`` at the witness: the
    radius plus tol_abs + tol_rel * scale in ``check_rows``, tol_abs + tol_rel
    * scale in ``check_cm``.  ``evaluations`` counts the row values read, or
    the distinct stencil nodes passed to the tested function."""

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


@functools.cache
def _signed_binomials(n_max: int) -> np.ndarray:
    """(-1)^j C(n, j) as floats at [j, n] for j, n = 0..n_max, shaped to broadcast over (n, h, x)."""
    out = np.array([[float((-1) ** j * math.comb(n, j)) for n in range(n_max + 1)] for j in range(n_max + 1)])
    out = out[:, :, None, None]
    out.flags.writeable = False
    return out


@_quiet  # as Python's float arithmetic: inf - inf is NaN, not a warning
def _differences(vals: np.ndarray, out: np.ndarray) -> None:
    """(-1)^n Delta_h^n at orders n = 1..max_order into ``out`` (n - 1, h, x), from vals (j, h, x) = fn(x + j h).

    Step j adds term j of every order n >= j, so each order's sum is
    0.0 + term 0 + term 1 + ..., added in order of j, with infinities and NaN
    where it has them: max_order + 1 passes over arrays in place of a pass per
    order.
    """
    n_max = len(out)
    coef = _signed_binomials(n_max)
    term = np.empty_like(out)
    out.fill(0.0)
    for j in range(n_max + 1):
        lo = max(j, 1)  # the orders n = lo..n_max have a term j: C(n, j) f(x + (n - j) h)
        part, acc = term[:n_max - lo + 1], out[lo - 1:]
        np.multiply(coef[j, lo:], vals[lo - j:n_max - j + 1], out=part)
        acc += part
    np.negative(out[0::2], out=out[0::2])  # odd orders: (-1)^n Delta_h^n = -Delta_h^n


def forward_difference(f: Callable[[float], float], x: float, h: float, n: int) -> float:
    """Delta_h^n f(x) = sum_j (-1)^j C(n, j) f(x + (n-j) h), added in order of j as check_cm adds it.

    f is called at x + n h first, then down to x.
    """
    if h <= 0.0:
        raise DomainError(f"forward_difference requires h > 0, got {h!r}")
    if n < 0:
        raise DomainError(f"forward_difference requires n >= 0, got {n!r}")
    vals = [f(x + i * h) for i in range(n, -1, -1)]
    if n == 0:
        return 0.0 + vals[0]
    out = np.empty((n, 1, 1))
    _differences(np.array(vals[::-1], dtype=float)[:, None, None], out)
    return float(out[-1, 0, 0] if n % 2 == 0 else -out[-1, 0, 0])


@_quiet
def check_rows(grid: GridSpec, values, radius, tol_abs: float = 0.0, tol_rel: float = 0.0, *,
               include_order_zero: bool = True, case_id: str = "") -> CMReport:
    """Scan the analytic rows (-1)^n f^(n)(x) over the grid points.

    ``values`` and ``radius`` each broadcast to (max_order + 1, points): f^(n)
    at the grid points in row n, and a bound on each value's error.  Row n is
    checked as (-1)^n f^(n)(x) >= 0 against radius + tol_abs + tol_rel *
    max(|f|, |f^(n)|), so a violation beyond the radius proves that f is not
    completely monotonic; row 0 (f >= 0) only when ``include_order_zero``.
    The witness (x, 0.0, n) is the first worst margin (signed + threshold) in
    scan order, n then x, and ``evaluations`` is ``values.size``.
    """
    xs = grid.xs()
    values, radius = (np.broadcast_to(np.asarray(a, dtype=float), (grid.max_order + 1, xs.size)) for a in (values, radius))
    top = int(include_order_zero)
    lo = 1 - top  # the first order checked
    signed = values[lo:].copy()
    np.negative(signed[top::2], out=signed[top::2])  # the odd orders
    thresh = radius[lo:] + tol_abs + tol_rel * np.maximum(np.abs(values[0]), np.abs(values[lo:]))
    labels = [(n, 0.0) for n in range(lo, grid.max_order + 1)]
    return _report(case_id, grid, tol_abs, tol_rel, labels, signed, thresh, xs, values.size)


@_quiet
def check_cm(fn: Callable[[np.ndarray], np.ndarray], grid: GridSpec, tol_abs: float = DEFAULT_TOL_ABS,
             tol_rel: float = DEFAULT_TOL_REL, *, include_order_zero: bool = True, case_id: str = "") -> CMReport:
    """Scan (-1)^n Delta_h^n fn(x) over the grid.

    ``fn`` must map an ndarray of x elementwise: it is called once, on the
    distinct stencil nodes x + j h of the grid (j = 0..max_order) in order of
    first occurrence, and its values are scattered back over the lattice, so
    a node shared by several (x, h, j) is evaluated once and an error names
    the first bad node of the lattice.  The violation threshold at each
    stencil is tol_abs + tol_rel * max |fn| over the stencil.

    Order 0 (f >= 0) comes first when ``include_order_zero``.  The witness is
    the first worst margin (signed + threshold) in scan order: n, then h,
    then x.
    """
    top = int(include_order_zero)
    xs, n_max, n_h = grid.xs(), grid.max_order, len(grid.h_set)
    steps = np.arange(n_max + 1) * np.asarray(grid.h_set, dtype=float)[:, None, None]
    lattice = (xs[None, :, None] + steps).ravel()  # (h, x, j): x + j h
    # each distinct node once, in order of first occurrence; equal values are equal bits, since with
    # GridSpec's finite ends and steps h > 0 no node is NaN or -0.0 (x + 0 h is +0.0 at x = -0.0)
    _, first, inverse = np.unique(lattice, return_index=True, return_inverse=True)
    order = np.argsort(first)
    nodes = lattice[first[order]]
    gather = np.argsort(order)[inverse].reshape(n_h, xs.size, -1).transpose(2, 0, 1)
    # fn(x + j h) on the lattice, laid out (j, h, x)
    vals = np.broadcast_to(np.asarray(fn(nodes), dtype=float), nodes.shape)[gather]
    f0 = vals[0, 0]  # fn at the grid points

    # one row per (n, h) in scan order: order 0, then n, h (x along each row)
    labels = [(0, 0.0)] * top + [(n, h) for n in range(1, n_max + 1) for h in grid.h_set]
    signed = np.empty((len(labels), xs.size))
    thresh = np.empty_like(signed)
    if include_order_zero:
        signed[0] = f0
        thresh[0] = tol_abs + tol_rel * np.abs(f0)
    _differences(vals, signed[top:].reshape(n_max, n_h, -1))
    limit = thresh[top:].reshape(n_max, n_h, -1)  # tol_abs + tol_rel * max |fn| over x + (0..n) h
    np.multiply(_running(np.maximum, np.abs(vals))[1:], tol_rel, out=limit)
    np.add(limit, tol_abs, out=limit)
    return _report(case_id, grid, tol_abs, tol_rel, labels, signed, thresh, xs, nodes.size)


def _report(case_id, grid, tol_abs, tol_rel, labels, signed, thresh, xs, evaluations) -> CMReport:
    """The report of a scan: row i of ``signed`` and ``thresh`` is labels[i] = (n, h), x along it."""
    margin = signed + thresh
    margin[np.isnan(margin)] = math.inf  # a NaN row is no evidence either way
    violated = bool((signed < -thresh).any())
    row_min = np.where(np.isnan(signed), math.inf, signed).min(axis=1)

    per_order: dict[int, float] = {}
    for (n, _), worst in zip(labels, row_min.tolist()):
        per_order[n] = min(per_order.get(n, math.inf), worst)
    worst_violation, worst_threshold, witness = math.inf, 0.0, (math.nan, math.nan, -1)
    i, p = divmod(int(margin.argmin()), xs.size)
    if margin[i, p] < math.inf:
        n, h = labels[i]
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
        evaluations=evaluations,
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
