"""The registered corpus of monotonicity cases.

Each :class:`TheoremCase` bundles a function family f, analytic derivatives of
f built from the q-special primitives (never from the kernel representation,
so the two stay independently checkable; ``deriv(k, x)`` takes a float or an
ndarray x and maps it elementwise, so ``check_cm`` evaluates the distinct
nodes of a whole stencil lattice in one call), the proof kernel it corresponds to,
the documented sample parameters, the expected complete-monotonicity verdict
and the valid x-interval.  Case ids are stable strings used by the CLI and
CSV reports; suffixes ``-pos`` / ``-neg`` / ``-low`` / ``-neither`` name the
parameter branches of a theorem.

One builder.  Each kernel-bearing case has a representation
f' = orientation * int e^{-xt} w(t) d gamma_q(t) (f itself for thm3.1, whose
claim includes order 0).  Its sample parameters live in the registry
``_FACTORIES`` alone: ``make_case`` passes the factory every registered key,
overridden or not, and rejects an override of any other.  The factory states
the derivative closure, the kernel id and the orientation once, in one
``_case`` call, with any composition factor and the x-interval rule; ``_case`` derives the rest
from ``KERNELS[kernel_id]``, the table ``scan-kernel`` reports.  The
kernel's own function rejects parameters outside its domain (``_case``
evaluates it at t = 0, and the factories call ``_case`` before any
arithmetic that such values would break), and the verdict is the kernel's
sign regime ``expected_sign`` times the orientation:

    sign(w) * orientation > 0   ->  f' CM  (f CM for thm3.1)
    sign(w) * orientation < 0   ->  -f' CM
    w has one sign change       ->  neither

The representation is the mass sum of the kernel function, times the
composition factor (1 - e^{-at} for thm2.3, e^{-st} - e^{-t} for the
cor3.5/3.6 ratio, 1/alpha for thm3.1), scaled by the orientation, at q < 1
only; the grid follows from the start of the x-interval.  ``psi-prime`` has
no kernel and states its verdict.

Families.  Each theorem has one derivative closure, written in the q-pieces
of ``_Q`` (log Gamma_q, psi_q and its derivatives, the first moment, log(1-q^x),
the scale log((1-q^x)/(1-q)) and the q-Stirling term); each piece takes its
classical form at q = 1.  The classical cases are the q = 1 members of their
families and share their factories, registered without q: ``thm2.1`` of
``thm2.2``'s h, ``cor2.4`` of ``thm2.3``'s difference h(x) - h(x+a), and
``cor3.6`` of ``cor3.5``'s difference log g(x+s) - log g(x+1).  A shared
factory reads the theorem's name for its messages from the case id, and
thm4.1's reads its kernel id the same way.  Theorems share families too:
thm3.4's log g is thm2.2's h at alpha = 1/2 minus psi_q'(x+alpha)/12, and
thm2.6's function is thm2.5's at b = c = 0.  The q-only factories reject
q = 1 themselves.  The primitives call the evaluators at their default
configuration, at which every result ``verify`` reaches has converged.

Sharing.  Each evaluation is made once.  ``verify_case`` evaluates
``deriv`` once per (order, abscissae) for all of a case's directions, so a
"neither" case's -f' check reads its f' values negated.  Its three
derivative rows come from one ``deriv`` call with an order column: every
primitive takes an integer order array that broadcasts with its abscissae
and evaluates all the orders in one call, each element equal to its
scalar-order call bit for bit.  Where a closure needs one primitive on
several shifts of x (the difference compositions, thm2.5, thm2.6, thm3.2,
thm4.1), ``_Q.stacked`` evaluates it in one call on the concatenated
abscissae; each closure keeps the order in which it calls its primitives,
so an x outside the interval is named as separate calls would name it.
Where a closure needs one primitive at two orders (the moments of orders
k - 1 and k - 2 in thm2.1's and thm3.4's families), ``_Q.mom_pair`` stacks
the orders into one call.  Every evaluator's array call equals its scalar
calls element for element, so sharing changes no value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cmcheck import _DERIV_ORDERS, CMReport, DEFAULT_TOL_ABS, DEFAULT_TOL_REL, GridSpec, VIOLATES, check_cm
from .kernels import KERNELS, NEGATIVE, ONE_SIGN_CHANGE, POSITIVE
from .special import (
    ConvergenceError,
    DomainError,
    QValue,
    _factorial,
    _log_one_minus_q,
    _log_q_number,
    _moment,
    _moment_over_t,
    _pow,
    _quiet,
    dilog_F,
    log_gamma_q,
    psi_n,
    psi_q_n,
)

__all__ = [
    "TheoremCase",
    "CaseVerification",
    "theorem_registry",
    "registry_ids",
    "make_case",
    "verify_case",
    "F_PRIME_CM",
    "NEG_F_PRIME_CM",
    "NEITHER",
    "F_CM",
]

F_PRIME_CM = "f' CM"
NEG_F_PRIME_CM = "-f' CM"
NEITHER = "neither"
F_CM = "f CM"

@dataclass(frozen=True)
class TheoremCase:
    """One registered branch of a monotonicity theorem."""

    id: str
    params: dict
    interval: str
    x_start: float
    expected: str
    # k-th derivative of f at x for any k >= 0, elementwise in x.  k may also be
    # an integer array of orders above the case's base order (1; 0 for "f CM"),
    # as for the derivative rows verify_case asks for, broadcasting with x (an
    # order column gives one row per order); each element equals its
    # scalar-order call bit for bit
    deriv: Callable[[int | np.ndarray, np.ndarray], np.ndarray]
    grid: GridSpec
    kernel_id: str = ""
    representation: Callable[[float], float] | None = None  # f' (f for "f CM") by the kernel

    def directions(self) -> list[tuple[str, int, int]]:
        """(label, sign, base-derivative-order) of each direction to test."""
        if self.expected == F_PRIME_CM:
            return [("f'", +1, 1)]
        if self.expected == NEG_F_PRIME_CM:
            return [("-f'", -1, 1)]
        if self.expected == NEITHER:
            return [("f'", +1, 1), ("-f'", -1, 1)]
        if self.expected == F_CM:
            return [("f", +1, 0)]
        raise DomainError(f"unknown expected verdict {self.expected!r}")


@dataclass(frozen=True)
class CaseVerification:
    case: TheoremCase
    reports: dict[str, CMReport]
    matches: bool


def verify_case(
    case: TheoremCase,
    grid: GridSpec | None = None,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> CaseVerification:
    """Run the CM check on every direction the case claims and compare verdicts.

    ``case.deriv`` is evaluated once per (order, abscissae) for all the
    case's directions, so the -f' check of a "neither" case reads the f'
    values negated, which is exact.  The first derivative row check_cm asks
    for brings all of them: orders base + 1..3 on the grid points, in one
    ``case.deriv`` call with an order column.  The node values (order base
    on the distinct stencil nodes, every grid point among them) come first,
    in a call of their own.  The values are kept for this call only.
    An x outside the case's interval still raises DomainError from the
    evaluators it reaches; the closures' own arithmetic at such an x (1/0,
    the log of a negative) must not warn first, so numpy's flags are quiet
    over the whole lattice.

    A "neither" case matches only when both directions produce an explicit
    violation witness; CM cases match when their direction stays consistent.
    """
    g = grid or case.grid
    values: dict[tuple[int, bytes], np.ndarray] = {}

    @_quiet
    def deriv(k: int, x: np.ndarray, rows: tuple[int, ...] = ()) -> np.ndarray:
        """case.deriv(k, x) from the cache; a miss given ``rows`` (k among them) evaluates every row."""
        at = x.tobytes()
        if (k, at) not in values:
            if rows:
                vals = np.broadcast_to(case.deriv(np.array(rows)[:, None], x), (len(rows), *x.shape))
                values.update(((r, at), np.asarray(v, dtype=float)) for r, v in zip(rows, vals))
            else:
                values[(k, at)] = np.asarray(case.deriv(k, x), dtype=float)
        return values[(k, at)]

    reports: dict[str, CMReport] = {}
    for label, sign, base in case.directions():
        rows = tuple(base + k for k in _DERIV_ORDERS)
        reports[label] = check_cm(
            lambda x: sign * deriv(base, x),
            g,
            tol_abs=tol_abs,
            tol_rel=tol_rel,
            derivs=lambda k, x: sign * deriv(base + k, x, rows),
            include_order_zero=case.expected == F_CM,
            case_id=f"{case.id}[{label}]",
        )
    if case.expected == NEITHER:
        matches = all(r.verdict == VIOLATES for r in reports.values())
    else:
        matches = all(r.verdict != VIOLATES for r in reports.values())
    return CaseVerification(case=case, reports=reports, matches=matches)


# ---------------------------------------------------------------------------
# primitive providers
# ---------------------------------------------------------------------------


def _is_order(k, n: int) -> bool:
    """k is the single order n; an order array (see TheoremCase.deriv) never takes a low-order branch."""
    return not isinstance(k, np.ndarray) and k == n


class _Q:
    """Primitives bound to one deformation parameter (q = 1 means classical).

    Each primitive is the q-analogue of a classical piece and takes the
    classical form at q = 1, so one family closure serves a theorem and its
    q = 1 member.
    """

    def __init__(self, q: float):
        self.qv = QValue(q)
        self.q = self.qv.q
        self.classical = self.qv.is_classical
        self.lq = 0.0 if self.classical else math.log(self.q)

    @staticmethod
    def stacked(piece: Callable[[np.ndarray], np.ndarray], *ys) -> np.ndarray:
        """piece(y) for each abscissa array y (one shape), as the rows of one call on the concatenated ys.

        ``piece`` maps an ndarray elementwise, so each row equals its own call
        piece(y) bit for bit, and an error names the first bad element in the
        order of ``ys``.  An order column that ``piece`` carries leads its
        result; each row keeps it, shaped (*orders, *y.shape).
        """
        flat = np.concatenate([np.reshape(y, -1) for y in ys])
        out = piece(flat)
        lead = np.shape(out)[:-1]
        return np.moveaxis(np.reshape(out, (*lead, len(ys), *np.shape(ys[0]))), len(lead), 0)

    def lg(self, y: float | np.ndarray) -> float | np.ndarray:
        return log_gamma_q(y, self.qv).value

    def ps(self, k, y: float | np.ndarray) -> float | np.ndarray:
        return psi_q_n(k, y, self.qv).value

    def dlg(self, k) -> Callable[[np.ndarray], np.ndarray]:
        """The k-th derivative of log Gamma_q as a function of y: lg at k = 0, psi_q^(k-1) above."""
        return self.lg if _is_order(k, 0) else lambda y: self.ps(k - 1, y)

    def mom(self, k, y: float | np.ndarray) -> float | np.ndarray:
        """k-th derivative of the first moment -q^y log q / (1 - q^y); (-1)^k k! / y^(k+1) classically."""
        if self.classical:
            return (1 - 2 * (k % 2)) * _factorial(k) * _pow(y, -k - 1)
        return _moment(k, y, self.lq)

    def mom_pair(self, k, y: float | np.ndarray) -> np.ndarray:
        """(mom(k - 1, y), mom(k - 2, y)) from one call, the two orders stacked on a new leading axis."""
        orders = np.stack(np.broadcast_arrays(k - 1, k - 2))
        # a scalar order gains y's axes, as an order column carries them already
        return self.mom(orders.reshape(orders.shape + (1,) * (np.ndim(y) - np.ndim(k))), y)

    def log1m(self, y: float | np.ndarray) -> float | np.ndarray:
        """log(1 - q^y) for q < 1, log(y) classically."""
        if self.classical:
            return np.log(y)
        return -_moment_over_t(y, self.lq)

    def log_scale(self, y: float | np.ndarray) -> float | np.ndarray:
        """log((1-q^y)/(1-q)) for q < 1, log(y) classically."""
        if self.classical:
            return np.log(y)
        return _log_q_number(-np.expm1(y * self.lq), self.lq)

    def stirling(self, y: float | np.ndarray) -> float | np.ndarray:
        """The q-Stirling term y log(1-q) + F(q^y)/log q; y - y log y classically.

        Its derivative is -log_scale(y); y - y log y is its q -> 1 limit up to
        a constant.
        """
        if self.classical:
            return y - y * np.log(y)
        return y * _log_one_minus_q(self.lq)[0] + dilog_F(np.exp(y * self.lq)).value / self.lq


_MASS_SUM_CAP = 400_000


def _mass_sum(x: float, q: float, w: Callable[[np.ndarray], np.ndarray], sigma: float = 0.0,
              rho: bool = False, scale: float = 1.0) -> float:
    """scale * sum_k (-log q) e^{-(x+sigma) t_k} [rho(t_k)] w(t_k), t_k = -k log q.

    The independent route for checking a case's analytic derivative against its
    kernel: masses -log q sit at t_k, and the factor 1/(1-e^{-t}) is switched
    on by ``rho``.  Terms are summed until they fall below 1e-17 of the total;
    a sum still running at ``_MASS_SUM_CAP`` terms raises ConvergenceError.
    """
    lq = math.log(q)
    total = 0.0
    block = 512
    k0 = 1
    while k0 < _MASS_SUM_CAP:
        k = np.arange(k0, k0 + block, dtype=float)
        t = -k * lq
        weight = -lq * np.exp(-(x + sigma) * t)
        if rho:
            weight = weight / -np.expm1(-t)
        terms = weight * np.asarray(w(t), dtype=float)
        total += float(terms.sum())
        if float(np.abs(terms[-8:]).max()) <= 1e-17 * max(1.0, abs(total)):
            return scale * total
        k0 += block
    raise ConvergenceError(
        f"mass sum at x={x!r}, q={q!r} did not converge within {_MASS_SUM_CAP} terms"
    )


# ---------------------------------------------------------------------------
# case factories
# ---------------------------------------------------------------------------


def _default_grid(x_start: float) -> GridSpec:
    if x_start >= 0.0:
        return GridSpec(max(x_start + 0.05, 0.1), 20.0, 21, "geometric")
    lo = x_start + 0.05
    return GridSpec(lo, lo + 15.0, 21, "linear")


def _kernel_args(kernel_id: str, params: dict) -> tuple:
    """The kernel table entry and the case parameters that kernel takes."""
    kern = KERNELS[kernel_id]
    return kern, {k: params[k] for k in kern.defaults}


def _kernel_sign(kernel_id: str, params: dict) -> str:
    """The kernel's sign regime at the case parameters it takes, as ``scan-kernel`` reports it."""
    kern, args = _kernel_args(kernel_id, params)
    return kern.expected_sign(**args)


# (sign of w times orientation, object the representation gives) -> verdict
_VERDICTS = {(1, "fprime"): F_PRIME_CM, (-1, "fprime"): NEG_F_PRIME_CM, (1, "f"): F_CM}


def _regime_verdict(kernel_id: str, params: dict, orientation: int, target: str = "fprime") -> str:
    """The verdict implied by the kernel's sign regime and the case's orientation."""
    sign = _kernel_sign(kernel_id, params)
    if sign == ONE_SIGN_CHANGE:
        return NEITHER
    return _VERDICTS[({POSITIVE: 1, NEGATIVE: -1}[sign] * orientation, target)]


def _case(case_id: str, params: dict, deriv, kernel_id: str, orientation: int,
          factor: Callable[[np.ndarray], np.ndarray] | None = None, sigma: float = 0.0,
          rho: bool = False, x_start: float = 0.0, interval: str = "(0, inf)",
          grid: GridSpec | None = None, target: str = "fprime") -> TheoremCase:
    """A kernel-bearing case: its ``target``, f' or f, is orientation * int e^{-xt} w(t) d gamma_q.

    The kernel w is ``KERNELS[kernel_id].fn`` at the case parameters it
    takes; it is evaluated once at t = 0 first, so its own DomainError
    rejects parameters outside its domain.  The expected verdict is the
    kernel's sign regime times the orientation; the representation is the
    mass sum of w, times the composition's ``factor`` if it has one, scaled by
    the orientation at the case's q, None at q = 1; the grid defaults to the
    one for ``x_start``.
    """
    kern, args = _kernel_args(kernel_id, params)
    kern.fn(t=0.0, **args)

    def weight(t):
        w = kern.fn(t=t, **args)
        return w if factor is None else factor(t) * w

    q = float(params.get("q", 1.0))
    rep = None
    if q < 1.0:
        rep = lambda x: _mass_sum(x, q, weight, sigma, rho, scale=orientation)
    return TheoremCase(
        id=case_id,
        params=params,
        interval=interval,
        x_start=x_start,
        expected=_regime_verdict(kernel_id, params, orientation, target),
        deriv=deriv,
        grid=grid or _default_grid(x_start),
        kernel_id=kernel_id,
        representation=rep,
    )


def _q_only(case_id: str, params: dict) -> _Q:
    """The primitives at the case's q for a q-only theorem; its q = 1 member is registered without q."""
    P = _Q(params.get("q", 1.0))
    if P.classical and "q" in params:  # the theorem's name is the case id without its branch suffix
        raise DomainError(f"{case_id.split('-')[0]} requires q < 1")
    return P


def _difference(deriv, a: float, b: float):
    """Derivatives of the difference composition h(x + a) - h(x + b) of a family h.

    Both shifts go through one call of the family's closure, so each of its
    primitives is evaluated once per order.
    """
    def diff(k, x):
        at_a, at_b = _Q.stacked(lambda y: deriv(k, y), x + a, x + b)
        return at_a - at_b

    return diff


def _thm22_family(alpha: float, P: _Q):
    """h(x) = x log(1-q) + alpha log(1-q^x) + log Gamma_q(x) + F(q^x)/log q and its derivatives.

    At q = 1 this is thm2.1's h(x) = alpha log x + log Gamma(x) + x - x log x.
    """
    def deriv(k, x):
        if _is_order(k, 0):
            return P.stirling(x) + alpha * P.log1m(x) + P.lg(x)
        if _is_order(k, 1):
            return alpha * P.mom(0, x) + P.ps(0, x) - P.log_scale(x)
        m1, m2 = P.mom_pair(k, x)
        return alpha * m1 + P.ps(k - 1, x) - m2

    return deriv


def _case_thm22(case_id: str, params: dict) -> TheoremCase:
    """thm2.2's h; thm2.1's at q = 1."""
    P = _q_only(case_id, params)
    return _case(case_id, params, _thm22_family(params["alpha"], P), "thm2.1", -1)


def _case_thm23(case_id: str, params: dict) -> TheoremCase:
    """The difference h(x) - h(x+a) of thm2.2's h; cor2.4's at q = 1."""
    P = _q_only(case_id, params)
    a = params["a"]
    return _case(case_id, params, _difference(_thm22_family(params["alpha"], P), 0.0, a), "thm2.1", -1,
                 factor=lambda t: -np.expm1(-a * t))


def _thm25_family(a: float, b: float, c: float, P: _Q):
    """log of Gamma_q(x+b)/Gamma_q(x+a) ((1-q^{x+c})/(1-q))^{a-b} and its derivatives; thm2.6's at b = c = 0."""
    def deriv(k, x):
        scale = P.log_scale(x + c) if _is_order(k, 0) else P.mom(k - 1, x + c)
        at_b, at_a = P.stacked(P.dlg(k), x + b, x + a)
        return (a - b) * scale + at_b - at_a

    return deriv


def _case_thm25(case_id: str, params: dict) -> TheoremCase:
    a, b, c = params["a"], params["b"], params["c"]
    P = _Q(params["q"])
    x_start, interval = {  # -(log g)' CM on (-c, inf), (log g)' CM on (-a, inf)
        POSITIVE: (-c, "(-c, inf)"),
        NEGATIVE: (-a, "(-a, inf)"),
        ONE_SIGN_CHANGE: (-min(a, c), "(-min(a,c), inf)"),
    }[_kernel_sign("thm2.5", params)]
    return _case(case_id, params, _thm25_family(a, b, c, P), "thm2.5", -1, x_start=x_start, interval=interval)


def _case_thm26(case_id: str, params: dict) -> TheoremCase:
    P = _q_only(case_id, params)
    a = params["a"]
    return _case(case_id, params, _thm25_family(a, 0.0, 0.0, P), "thm2.6", 1, sigma=(a - 1.0) / 2.0)


def _case_thm31(case_id: str, params: dict) -> TheoremCase:
    """f(x) = psi_q(x) - psi_{q^{1/alpha}}(alpha x), claimed CM including order 0.

    Its representation gives f itself, not f'.  The two -log(1-.) constants
    of the psi_q series do not cancel: the integral of the bracket reproduces
    f only up to the positive constant log((1-q^{1/alpha})/(1-q)), which
    leaves every monotonicity conclusion (order 0 included) intact.
    """
    P = _q_only(case_id, params)
    alpha = params["alpha"]

    def deriv(k, x):
        return P.ps(k, x) - _pow(alpha, k) * P2.ps(k, alpha * x)

    # _case rejects an alpha outside the kernel's domain before anything divides by it
    case = _case(case_id, params, deriv, "thm3.1", 1, factor=lambda t: 1.0 / alpha, target="f")
    q2 = P.q ** (1.0 / alpha)
    if q2 == 0.0:  # else _Q would name a q the caller never gave
        raise DomainError(f"thm3.1 requires q^(1/alpha) > 0 in float64, got q={P.q!r}, alpha={alpha!r}")
    P2 = _Q(q2)
    const = _log_q_number(-math.expm1(P.lq / alpha), P.lq)
    rep = case.representation
    return dataclasses.replace(case, representation=lambda x: const + rep(x))


def _case_thm32(case_id: str, params: dict) -> TheoremCase:
    """h = log of Gamma_q(x+a)/Gamma_q(x+b) exp[(b-a) psi_q(x+c)]."""
    a, b, c = params["a"], params["b"], params["c"]
    P = _Q(params["q"])

    def deriv(k, x):
        at_a, at_b = P.stacked(P.dlg(k), x + a, x + b)
        return at_a - at_b + (b - a) * P.ps(k, x + c)

    # h' CM on (-c, inf); -h' CM and neither on (-a, inf)
    x_start, interval = (
        (-c, "(-c, inf)") if _kernel_sign("thm3.2", params) == NEGATIVE else (-a, "(-a, inf)")
    )
    return _case(case_id, params, deriv, "thm3.2", -1, sigma=(a + b) / 2.0, rho=True,
                 x_start=x_start, interval=interval)


def _thm34_family(alpha: float, P: _Q):
    """log g(x) = thm2.2's h at alpha = 1/2, minus psi_q'(x+alpha)/12, and its derivatives.

    The (1-q^x)^{1/2} factor and the orientation follow the kernel
    representation (log g)' = -sum e^{-xt} p_alpha d gamma_q, verified
    numerically to high precision.  At q = 1 this is
    x - x log x + log(x)/2 + log Gamma(x) - psi'(x+alpha)/12, the function
    whose differences cor3.6 tests.
    """
    h = _thm22_family(0.5, P)

    def deriv(k, x):
        return h(k, x) - P.ps(k + 1, x + alpha) / 12.0

    return deriv


def _case_thm34(case_id: str, params: dict) -> TheoremCase:
    alpha = params["alpha"]
    return _case(case_id, params, _thm34_family(alpha, _q_only(case_id, params)), "thm3.4", -1,
                 x_start=max(0.0, -alpha), interval="(max(0,-alpha), inf)")


def _case_cor35(case_id: str, params: dict) -> TheoremCase:
    """log f for f = g_alpha(x+s)/g_alpha(x+1), the difference composition of thm3.4's log g.

    cor3.5 takes g with Gamma_q; cor3.6, its classical member, takes it with
    the gamma function.
    """
    alpha, s = params["alpha"], params["s"]
    if not (0.0 < s < 1.0):
        raise DomainError(f"{case_id.split('-')[0]} requires 0 < s < 1, got {s!r}")
    P = _q_only(case_id, params)
    x_start = max(0.0, -alpha - s)
    grid = GridSpec(max(x_start + 0.05, 0.05), 15.0, 21, "geometric", (0.125, 0.5, 1.0, 2.0), 8)
    return _case(case_id, params, _difference(_thm34_family(alpha, P), s, 1.0), "thm3.4", -1,
                 factor=lambda t: np.exp(-s * t) - np.exp(-t),
                 x_start=x_start, interval="(max(0,-alpha-s), inf)", grid=grid)


def _case_thm41(case_id: str, params: dict) -> TheoremCase:
    """log of prod Gamma_q(x+a_i) / Gamma_q(x+abar)^n (mean) or, for split,
    log of prod Gamma_q(x+a_i) / (Gamma_q(x)^{n-1} Gamma_q(x+sum a_i)); the case id is the kernel id."""
    a = tuple(float(v) for v in params["a_list"])
    P = _Q(params["q"])

    def deriv(k, x):
        vals = P.stacked(P.dlg(k), *(x + ai for ai in a), *(x + shift for _, shift in denominator))
        out = sum(vals[:len(a)])
        for (power, _), v in zip(denominator, vals[len(a):]):
            out = out - power * v
        return out

    # _case checks that a_list is nonempty and positive before anything divides by its length
    case = _case(case_id, {**params, "a_list": a}, deriv, case_id, 1, rho=True)
    n = len(a)
    denominator = {  # (power, shift) of each Gamma_q(x + shift) below the ratio
        "thm4.1-mean": ((n, sum(a) / n),),
        "thm4.1-split": ((n - 1, 0.0), (1, sum(a))),
    }[case_id]
    return case


def _case_psi_prime(case_id: str, params: dict) -> TheoremCase:
    """psi'(x) = sum_k (k+x)^{-2} is completely monotonic; with no kernel, the verdict is stated."""
    def deriv(k, x):
        return psi_n(k, x).value

    return TheoremCase(
        id=case_id,
        params=params,
        interval="(0, inf)",
        x_start=0.0,
        expected=F_PRIME_CM,
        deriv=deriv,
        grid=GridSpec(0.1, 20.0, 25, "geometric"),
    )


# (factory, sample parameters) per stable case id; the classical member of a
# q-theorem shares its factory and is registered without q.  Bare ids carry
# the branch highlighted first in each statement, except cor2.4 whose bare id
# is the "neither" branch.
_FACTORIES: dict[str, tuple[Callable[[str, dict], TheoremCase], dict]] = {
    "thm2.1": (_case_thm22, {"alpha": 0.5}),
    "thm2.1-pos": (_case_thm22, {"alpha": 1.0}),
    "thm2.1-neither": (_case_thm22, {"alpha": 0.75}),
    "thm2.2": (_case_thm22, {"alpha": 0.5, "q": 0.5}),
    "thm2.2-pos": (_case_thm22, {"alpha": 1.0, "q": 0.5}),
    "thm2.3": (_case_thm23, {"alpha": 0.5, "a": 1.0, "q": 0.5}),
    "thm2.3-pos": (_case_thm23, {"alpha": 1.0, "a": 1.0, "q": 0.5}),
    "cor2.4": (_case_thm23, {"alpha": 0.75, "a": 1.0}),
    "cor2.4-neg": (_case_thm23, {"alpha": 0.5, "a": 1.0}),
    "cor2.4-pos": (_case_thm23, {"alpha": 1.0, "a": 1.0}),
    "thm2.5": (_case_thm25, {"a": 0.2, "b": 1.0, "c": 0.1, "q": 0.5}),
    "thm2.5-pos": (_case_thm25, {"a": 0.2, "b": 1.0, "c": 0.5, "q": 0.5}),
    "thm2.6": (_case_thm26, {"a": 1.5, "q": 0.5}),
    "thm3.1": (_case_thm31, {"alpha": 0.5, "q": 0.5}),
    "thm3.2": (_case_thm32, {"a": 0.5, "b": 1.0, "c": 0.75, "q": 0.5}),
    "thm3.2-pos": (_case_thm32, {"a": 0.5, "b": 1.0, "c": 0.5, "q": 0.5}),
    "thm3.2-neither": (_case_thm32, {"a": 0.5, "b": 1.0, "c": 0.74, "q": 0.5}),
    "thm3.4": (_case_thm34, {"alpha": 0.5, "q": 0.5}),
    "thm3.4-low": (_case_thm34, {"alpha": 0.0, "q": 0.5}),
    "cor3.5": (_case_cor35, {"alpha": 0.75, "s": 0.1, "q": 0.5}),
    "cor3.5-low": (_case_cor35, {"alpha": 0.0, "s": 0.1, "q": 0.5}),
    "cor3.5-neither": (_case_cor35, {"alpha": 0.25, "s": 0.1, "q": 0.5}),
    "cor3.6": (_case_cor35, {"alpha": 0.75, "s": 0.1}),
    "cor3.6-low": (_case_cor35, {"alpha": 0.0, "s": 0.1}),
    "cor3.6-neither": (_case_cor35, {"alpha": 0.25, "s": 0.1}),
    "thm4.1-mean": (_case_thm41, {"a_list": (0.5, 1.5), "q": 0.5}),
    "thm4.1-split": (_case_thm41, {"a_list": (0.5, 1.5), "q": 0.5}),
    "psi-prime": (_case_psi_prime, {}),
}


def registry_ids() -> list[str]:
    return list(_FACTORIES)


def case_default_params(case_id: str) -> dict:
    """The documented sample parameters a case is registered with."""
    if case_id not in _FACTORIES:
        raise DomainError(f"unknown case id {case_id!r}")
    return dict(_FACTORIES[case_id][1])


def make_case(case_id: str, **overrides) -> TheoremCase:
    """Build one registered case, optionally overriding its sample parameters.

    A case takes exactly the parameters it is registered with; an override of
    any other is a DomainError, so e.g. thm2.1 takes no q.  The expected
    verdict is re-derived from the final parameters, so e.g. overriding
    cor2.4 with alpha = 0.75 yields the "neither" expectation.
    """
    params = case_default_params(case_id)
    for key, val in overrides.items():
        if key not in params:
            raise DomainError(f"case {case_id!r} takes no parameter {key!r}; it takes {', '.join(params) or 'none'}")
        if val is not None:
            params[key] = val
    return _FACTORIES[case_id][0](case_id, params)


def theorem_registry() -> list[TheoremCase]:
    """The full corpus, one case per registered theorem branch."""
    return [make_case(cid) for cid in _FACTORIES]
