"""The registered corpus of monotonicity cases.

Each :class:`TheoremCase` bundles a function family f, analytic derivatives of
f built from the q-special primitives (never from the kernel representation,
so the two stay independently checkable; ``deriv(k, x)`` takes a float or an
ndarray x and maps it elementwise, so ``check_cm`` evaluates a whole stencil
lattice in one call), the proof kernel it corresponds to,
the documented sample parameters, the expected complete-monotonicity verdict
and the valid x-interval.  Case ids are stable strings used by the CLI and
CSV reports; suffixes ``-pos`` / ``-neg`` / ``-low`` / ``-neither`` name the
parameter branches of a theorem.

Expected verdicts.  Each kernel-bearing case has a representation
f' = orientation * int e^{-xt} w(t) d gamma_q(t) (f itself for thm3.1).  Its
verdict is therefore read off the kernel's sign regime,
``KERNELS[kernel_id].expected_sign`` (the table ``scan-kernel`` reports),
times the orientation:

    sign(w) * orientation > 0   ->  f' CM  (f CM for thm3.1)
    sign(w) * orientation < 0   ->  -f' CM
    w has one sign change       ->  neither

    orientation  cases
    -1           thm2.1, thm2.2, thm2.3, cor2.4, thm2.5, thm3.2, thm3.4,
                 cor3.5, cor3.6
    +1           thm2.6, thm3.1, thm4.1-mean, thm4.1-split

The orientation is also the scale of the case's mass-sum representation.
The ``thm3.4`` family (with ``cor3.5`` / ``cor3.6``) carries the algebraic
factor (1-q^x)^{1/2}; with it (log g)' = -sum e^{-xt} p_alpha d gamma_q,
verified numerically to high precision.  ``psi-prime`` has no kernel and
states its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cmcheck import (
    CMReport,
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    GridSpec,
    VIOLATES,
    check_cm,
)
from .kernels import (
    KERNELS,
    NEGATIVE,
    ONE_SIGN_CHANGE,
    POSITIVE,
    kernel_thm21,
    kernel_thm25,
    kernel_thm26,
    kernel_thm31,
    kernel_thm32,
    kernel_thm34,
    kernel_thm41_mean,
    kernel_thm41_split,
)
from .special import (
    ConvergenceError,
    DomainError,
    EvalConfig,
    QValue,
    _moment,
    _moment_over_t,
    dilog_F,
    log_gamma,
    log_gamma_q,
    psi,
    psi_n,
    psi_q,
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

# Tighter than the public default: order-8 differences amplify the series
# truncation error by ~2^8, and the violation threshold is 1e-9.
_CASE_CONFIG = EvalConfig(rel_tol=1e-14)


@dataclass(frozen=True)
class TheoremCase:
    """One registered branch of a monotonicity theorem."""

    id: str
    theorem: str
    params: dict
    param_domain: str
    interval: str
    x_start: float
    expected: str
    deriv: Callable[[int, np.ndarray], np.ndarray]  # k-th derivative of f, k = 0..4, elementwise
    grid: GridSpec
    kernel_id: str = ""
    representation: Callable[[float], float] | None = None
    rep_target: str = "fprime"  # which object the representation reproduces
    include_order_zero: bool = False
    notes: str = ""

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

    def tested(self, sign: int, base: int):
        """``fn`` and ``derivs`` for check_cm, with numpy's flags quiet over the whole lattice.

        An x outside the case's interval still raises DomainError from the
        evaluators it reaches; the closures' own arithmetic at such an x
        (1/0, the log of a negative) must not warn first.
        """
        @np.errstate(all="ignore")
        def fn(x):
            return sign * self.deriv(base, x)

        @np.errstate(all="ignore")
        def derivs(k, x):
            return sign * self.deriv(base + k, x)

        return fn, derivs


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

    A "neither" case matches only when both directions produce an explicit
    violation witness; CM cases match when their direction stays consistent.
    """
    g = grid or case.grid
    reports: dict[str, CMReport] = {}
    for label, sign, base in case.directions():
        fn, derivs = case.tested(sign, base)
        reports[label] = check_cm(
            fn,
            g,
            tol_abs=tol_abs,
            tol_rel=tol_rel,
            derivs=derivs,
            include_order_zero=case.include_order_zero,
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


class _Q:
    """Primitives bound to one deformation parameter (q = 1 means classical)."""

    def __init__(self, q: float):
        self.qv = QValue(q)
        self.q = self.qv.q
        self.classical = self.qv.is_classical
        self.lq = 0.0 if self.classical else math.log(self.q)

    def lg(self, y: float) -> float:
        return log_gamma_q(y, self.qv, _CASE_CONFIG).value

    def ps(self, k: int, y: float) -> float:
        if k == 0:
            return psi_q(y, self.qv, _CASE_CONFIG).value
        return psi_q_n(k, y, self.qv, _CASE_CONFIG).value

    def mom(self, k: int, y: float) -> float:
        """k-th derivative of the first moment -q^y log q / (1 - q^y); 1/y classically."""
        if self.classical:
            return (-1.0) ** k * math.factorial(k) * y ** (-k - 1)
        return _moment(k, y, self.lq)

    def mt(self, y: float) -> float:
        """-log(1 - q^y) = sum_k q^{ky}/k (q < 1 only)."""
        return _moment_over_t(y, self.lq)

    def log_scale(self, y: float) -> float:
        """log((1-q^y)/(1-q)) for q < 1, log(y) classically."""
        if self.classical:
            return np.log(y)
        return np.log(-np.expm1(y * self.lq)) - math.log1p(-self.q)

    def dilog(self, y: float) -> float:
        return dilog_F(y, _CASE_CONFIG).value


_MASS_SUM_CAP = 400_000


def _mass_sum(
    x: float,
    q: float,
    w: Callable[[np.ndarray], np.ndarray],
    sigma: float = 0.0,
    rho: bool = False,
    scale: float = 1.0,
) -> float:
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


# (sign of w times orientation, object the representation gives) -> verdict
_VERDICTS = {(1, "fprime"): F_PRIME_CM, (-1, "fprime"): NEG_F_PRIME_CM, (1, "f"): F_CM}


def _regime_verdict(kernel_id: str, params: dict, orientation: int, target: str = "fprime") -> str:
    """The verdict implied by the kernel's sign regime and the case's orientation."""
    kern = KERNELS[kernel_id]
    sign = kern.expected_sign(**{k: params[k] for k in kern.defaults})
    if sign == ONE_SIGN_CHANGE:
        return NEITHER
    return _VERDICTS[({POSITIVE: 1, NEGATIVE: -1}[sign] * orientation, target)]


def _thm21_family(alpha: float):
    def deriv(k, x):
        if k == 0:
            return alpha * np.log(x) + log_gamma(x, _CASE_CONFIG).value + x - x * np.log(x)
        if k == 1:
            return alpha / x + psi(x, _CASE_CONFIG).value - np.log(x)
        if k == 2:
            return -alpha / x ** 2 + psi_n(1, x, _CASE_CONFIG).value - 1.0 / x
        if k == 3:
            return 2.0 * alpha / x ** 3 + psi_n(2, x, _CASE_CONFIG).value + 1.0 / x ** 2
        if k == 4:
            return -6.0 * alpha / x ** 4 + psi_n(3, x, _CASE_CONFIG).value - 2.0 / x ** 3
        raise DomainError(f"derivative order {k} not provided")

    return deriv


def _case_thm21(case_id: str, alpha: float = 0.5) -> TheoremCase:
    params = {"alpha": alpha}
    return TheoremCase(
        id=case_id,
        theorem="thm2.1",
        params=params,
        param_domain="alpha real; -h' CM for alpha <= 1/2, h' CM for alpha >= 1, neither between",
        interval="(0, inf)",
        x_start=0.0,
        expected=_regime_verdict("thm2.1", params, -1),
        deriv=_thm21_family(alpha),
        grid=_default_grid(0.0),
        kernel_id="thm2.1",
        notes="h(x) = log[x^alpha Gamma(x) (e/x)^x]; classical q = 1",
    )


def _thm22_family(alpha: float, q: float):
    P = _Q(q)
    lq = P.lq
    l1q = math.log1p(-P.q)

    def deriv(k, x):
        if k == 0:
            # x log(1-q) + alpha log(1-q^x) + log Gamma_q(x) + F(q^x)/log q
            return x * l1q - alpha * P.mt(x) + P.lg(x) + P.dilog(np.exp(x * lq)) / lq
        if k == 1:
            return l1q + alpha * P.mom(0, x) + P.ps(0, x) + P.mt(x)
        return alpha * P.mom(k - 1, x) + P.ps(k - 1, x) - P.mom(k - 2, x)

    return deriv, P


def _case_thm22(case_id: str, alpha: float = 0.5, q: float = 0.5) -> TheoremCase:
    deriv, P = _thm22_family(alpha, q)
    if P.classical:
        raise DomainError("thm2.2 requires q < 1")
    params, orientation = {"alpha": alpha, "q": q}, -1
    rep = lambda x: _mass_sum(x, P.q, lambda t: kernel_thm21(alpha, t), scale=orientation)
    return TheoremCase(
        id=case_id,
        theorem="thm2.2",
        params=params,
        param_domain="0 < q < 1; -h' CM for alpha <= 1/2, h' CM for alpha >= 1",
        interval="(0, inf)",
        x_start=0.0,
        expected=_regime_verdict("thm2.1", params, orientation),
        deriv=deriv,
        grid=_default_grid(0.0),
        kernel_id="thm2.1",
        representation=rep,
        notes="q-analogue of thm2.1 with the dilogarithm-series factor",
    )


def _case_thm23(case_id: str, alpha: float = 0.5, a: float = 1.0, q: float = 0.5) -> TheoremCase:
    base_d, P = _thm22_family(alpha, q)
    if P.classical:
        raise DomainError("thm2.3 requires q < 1")
    params, orientation = {"alpha": alpha, "a": a, "q": q}, -1
    rep = lambda x: _mass_sum(
        x, P.q, lambda t: (-np.expm1(-a * t)) * kernel_thm21(alpha, t), scale=orientation
    )
    return TheoremCase(
        id=case_id,
        theorem="thm2.3",
        params=params,
        param_domain="0 < q < 1, a > 0; -H' CM for alpha <= 1/2, H' CM for alpha >= 1",
        interval="(0, inf)",
        x_start=0.0,
        expected=_regime_verdict("thm2.1", params, orientation),
        deriv=lambda k, x: base_d(k, x) - base_d(k, x + a),
        grid=_default_grid(0.0),
        kernel_id="thm2.1",
        representation=rep,
        notes="difference composition H(x) = h(x) - h(x+a) of the thm2.2 family",
    )


def _case_cor24(case_id: str, alpha: float = 0.75, a: float = 1.0) -> TheoremCase:
    base_d = _thm21_family(alpha)
    params = {"alpha": alpha, "a": a}
    return TheoremCase(
        id=case_id,
        theorem="cor2.4",
        params=params,
        param_domain="a > 0; -H' CM for alpha <= 1/2, H' CM for alpha >= 1, neither between",
        interval="(0, inf)",
        x_start=0.0,
        expected=_regime_verdict("thm2.1", params, -1),
        deriv=lambda k, x: base_d(k, x) - base_d(k, x + a),
        grid=_default_grid(0.0),
        kernel_id="thm2.1",
        notes="classical difference composition of thm2.1; neither branch at alpha = 0.75",
    )


def _case_thm25(
    case_id: str, a: float = 0.2, b: float = 1.0, c: float = 0.1, q: float = 0.5
) -> TheoremCase:
    if not (a < b <= a + 1.0):
        raise DomainError(f"thm2.5 requires a < b <= a + 1, got a={a}, b={b}")
    P = _Q(q)

    def deriv(k, x):
        if k == 0:
            return (a - b) * P.log_scale(x + c) + P.lg(x + b) - P.lg(x + a)
        return (a - b) * P.mom(k - 1, x + c) + P.ps(k - 1, x + b) - P.ps(k - 1, x + a)

    params, orientation = {"a": a, "b": b, "c": c, "q": q}, -1
    expected = _regime_verdict("thm2.5", params, orientation)
    x_start, interval = {
        NEG_F_PRIME_CM: (-c, "(-c, inf)"),
        F_PRIME_CM: (-a, "(-a, inf)"),
        NEITHER: (-min(a, c), "(-min(a,c), inf)"),
    }[expected]
    rep = None
    if not P.classical:
        rep = lambda x: _mass_sum(x, P.q, lambda t: kernel_thm25(a, b, c, t), scale=orientation)
    return TheoremCase(
        id=case_id,
        theorem="thm2.5",
        params=params,
        param_domain="a < b <= a+1; -(log g)' CM on (-c, inf) for 0 <= c <= (a+b-1)/2, "
        "(log g)' CM on (-a, inf) for c >= a >= 0",
        interval=interval,
        x_start=x_start,
        expected=expected,
        deriv=deriv,
        grid=_default_grid(x_start),
        kernel_id="thm2.5",
        representation=rep,
    )


def _case_thm26(case_id: str, a: float = 1.5, q: float = 0.5) -> TheoremCase:
    if a < 1.0:
        raise DomainError(f"thm2.6 requires a >= 1, got {a!r}")
    P = _Q(q)
    if P.classical:
        raise DomainError("thm2.6 requires q < 1")

    def deriv(k, x):
        if k == 0:
            return a * P.log_scale(x) + P.lg(x) - P.lg(x + a)
        return a * P.mom(k - 1, x) + P.ps(k - 1, x) - P.ps(k - 1, x + a)

    params, orientation = {"a": a, "q": q}, 1
    rep = lambda x: _mass_sum(
        x, P.q, lambda t: kernel_thm26(a, t), sigma=(a - 1.0) / 2.0, scale=orientation
    )
    return TheoremCase(
        id=case_id,
        theorem="thm2.6",
        params=params,
        param_domain="0 < q < 1; h' CM on (0, inf) for a >= 1",
        interval="(0, inf)",
        x_start=0.0,
        expected=_regime_verdict("thm2.6", params, orientation),
        deriv=deriv,
        grid=_default_grid(0.0),
        kernel_id="thm2.6",
        representation=rep,
    )


def _case_thm31(case_id: str, alpha: float = 0.5, q: float = 0.5) -> TheoremCase:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"thm3.1 requires 0 < alpha < 1, got {alpha!r}")
    P = _Q(q)
    if P.classical:
        raise DomainError("thm3.1 requires q < 1")
    P2 = _Q(P.q ** (1.0 / alpha))

    def deriv(k, x):
        return P.ps(k, x) - alpha ** k * P2.ps(k, alpha * x)

    # The two -log(1-.) constants of the psi_q series do not cancel: the
    # integral of the bracket reproduces f only up to the positive constant
    # log((1-q^{1/alpha})/(1-q)), which leaves every monotonicity conclusion
    # (order 0 included) intact.
    const = math.log(-math.expm1(math.log(P.q) / alpha)) - math.log1p(-P.q)
    params, orientation = {"alpha": alpha, "q": q}, 1
    rep = lambda x: const + _mass_sum(
        x, P.q, lambda t: kernel_thm31(alpha, t), scale=orientation / alpha
    )
    return TheoremCase(
        id=case_id,
        theorem="thm3.1",
        params=params,
        param_domain="0 < alpha < 1, 0 < q < 1",
        interval="(0, inf)",
        x_start=0.0,
        expected=_regime_verdict("thm3.1", params, orientation, target="f"),
        deriv=deriv,
        grid=_default_grid(0.0),
        kernel_id="thm3.1",
        representation=rep,
        rep_target="f",
        include_order_zero=True,
        notes="f(x) = psi_q(x) - psi_{q^{1/alpha}}(alpha x); CM including order 0",
    )


def _case_thm32(
    case_id: str, a: float = 0.5, b: float = 1.0, c: float = 0.75, q: float = 0.5
) -> TheoremCase:
    if not (0.0 < a < b):
        raise DomainError(f"thm3.2 requires 0 < a < b, got a={a}, b={b}")
    P = _Q(q)

    def deriv(k, x):
        if k == 0:
            return P.lg(x + a) - P.lg(x + b) + (b - a) * P.ps(0, x + c)
        return P.ps(k - 1, x + a) - P.ps(k - 1, x + b) + (b - a) * P.ps(k, x + c)

    params, orientation = {"a": a, "b": b, "c": c, "q": q}, -1
    expected = _regime_verdict("thm3.2", params, orientation)
    x_start, interval = (-c, "(-c, inf)") if expected == F_PRIME_CM else (-a, "(-a, inf)")
    rep = None
    if not P.classical:
        rep = lambda x: _mass_sum(
            x,
            P.q,
            lambda t: kernel_thm32(a, b, c, t),
            sigma=(a + b) / 2.0,
            rho=True,
            scale=orientation,
        )
    return TheoremCase(
        id=case_id,
        theorem="thm3.2",
        params=params,
        param_domain="0 < a < b, 0 < q <= 1; -h' CM on (-a, inf) for c >= (a+b)/2, "
        "h' CM on (-c, inf) for c <= a, neither for a < c < (a+b)/2",
        interval=interval,
        x_start=x_start,
        expected=expected,
        deriv=deriv,
        grid=_default_grid(x_start),
        kernel_id="thm3.2",
        representation=rep,
        notes="h = log of Gamma_q(x+a)/Gamma_q(x+b) exp[(b-a) psi_q(x+c)]",
    )


def _thm34_family(alpha: float, q: float):
    P = _Q(q)
    if P.classical:
        raise DomainError("thm3.4 requires q < 1")
    lq = P.lq
    l1q = math.log1p(-P.q)

    def deriv(k, x):
        if k == 0:
            return (
                x * l1q
                - 0.5 * P.mt(x)
                + P.lg(x)
                + P.dilog(np.exp(x * lq)) / lq
                - P.ps(1, x + alpha) / 12.0
            )
        if k == 1:
            return l1q + 0.5 * P.mom(0, x) + P.ps(0, x) + P.mt(x) - P.ps(2, x + alpha) / 12.0
        return (
            0.5 * P.mom(k - 1, x)
            + P.ps(k - 1, x)
            - P.mom(k - 2, x)
            - P.ps(k + 1, x + alpha) / 12.0
        )

    return deriv, P


def _case_thm34(case_id: str, alpha: float = 0.5, q: float = 0.5) -> TheoremCase:
    deriv, P = _thm34_family(alpha, q)
    x_start = max(0.0, -alpha)
    params, orientation = {"alpha": alpha, "q": q}, -1
    rep = lambda x: _mass_sum(x, P.q, lambda t: kernel_thm34(alpha, t), scale=orientation)
    return TheoremCase(
        id=case_id,
        theorem="thm3.4",
        params=params,
        param_domain="0 < q < 1; -(log g)' CM for alpha >= 1/2, (log g)' CM for alpha <= 0",
        interval="(max(0,-alpha), inf)",
        x_start=x_start,
        expected=_regime_verdict("thm3.4", params, orientation),
        deriv=deriv,
        grid=_default_grid(x_start),
        kernel_id="thm3.4",
        representation=rep,
        notes="g(x) = (1-q)^x (1-q^x)^{1/2} Gamma_q(x) exp[F(q^x)/log q - psi_q'(x+alpha)/12]; "
        "the (1-q^x)^{1/2} factor and the CM orientation follow the kernel "
        "representation (log g)' = -sum e^{-xt} p_alpha d gamma_q",
    )


def _case_cor35(
    case_id: str, alpha: float = 0.75, s: float = 0.1, q: float = 0.5
) -> TheoremCase:
    if not (0.0 < s < 1.0):
        raise DomainError(f"cor3.5 requires 0 < s < 1, got {s!r}")
    base_d, P = _thm34_family(alpha, q)
    x_start = max(0.0, -alpha - s)
    params, orientation = {"alpha": alpha, "s": s, "q": q}, -1
    rep = lambda x: _mass_sum(
        x,
        P.q,
        lambda t: (np.exp(-s * t) - np.exp(-t)) * kernel_thm34(alpha, t),
        scale=orientation,
    )
    grid = GridSpec(max(x_start + 0.05, 0.05), 15.0, 21, "geometric", (0.125, 0.5, 1.0, 2.0), 8)
    return TheoremCase(
        id=case_id,
        theorem="cor3.5",
        params=params,
        param_domain="0 < q < 1, 0 < s < 1; -(log f)' CM for alpha >= 1/2, "
        "(log f)' CM for alpha <= 0, neither for 0 < alpha < 1/2",
        interval="(max(0,-alpha-s), inf)",
        x_start=x_start,
        expected=_regime_verdict("thm3.4", params, orientation),
        deriv=lambda k, x: base_d(k, x + s) - base_d(k, x + 1.0),
        grid=grid,
        kernel_id="thm3.4",
        representation=rep,
        notes="f = g_alpha(x+s)/g_alpha(x+1), difference composition of thm3.4",
    )


def _case_cor36(case_id: str, alpha: float = 0.75, s: float = 0.1) -> TheoremCase:
    if not (0.0 < s < 1.0):
        raise DomainError(f"cor3.6 requires 0 < s < 1, got {s!r}")

    def deriv(k, x):
        if k == 0:
            return (
                (x + 0.5) * np.log(x + 1.0)
                - (x + s - 0.5) * np.log(x + s)
                + log_gamma(x + s, _CASE_CONFIG).value
                - log_gamma(x + 1.0, _CASE_CONFIG).value
                + (s - 1.0)
                + (psi_n(1, x + 1.0 + alpha, _CASE_CONFIG).value
                   - psi_n(1, x + s + alpha, _CASE_CONFIG).value) / 12.0
            )
        u, v = x + 1.0, x + s
        pg = lambda m, y: psi_n(m, y, _CASE_CONFIG).value
        tail = (pg(k + 1, x + 1.0 + alpha) - pg(k + 1, x + s + alpha)) / 12.0
        if k == 1:
            lead = np.log(u) - np.log(v) - 0.5 / u + 0.5 / v
            mid = psi(v, _CASE_CONFIG).value - psi(u, _CASE_CONFIG).value
        elif k == 2:
            lead = 1.0 / u - 1.0 / v + 0.5 / u ** 2 - 0.5 / v ** 2
            mid = pg(1, v) - pg(1, u)
        elif k == 3:
            lead = -1.0 / u ** 2 + 1.0 / v ** 2 - 1.0 / u ** 3 + 1.0 / v ** 3
            mid = pg(2, v) - pg(2, u)
        elif k == 4:
            lead = 2.0 / u ** 3 - 2.0 / v ** 3 + 3.0 / u ** 4 - 3.0 / v ** 4
            mid = pg(3, v) - pg(3, u)
        else:
            raise DomainError(f"derivative order {k} not provided")
        return lead + mid + tail

    x_start = max(0.0, -alpha - s)
    params = {"alpha": alpha, "s": s}
    grid = GridSpec(max(x_start + 0.05, 0.05), 15.0, 21, "geometric", (0.125, 0.5, 1.0, 2.0), 8)
    return TheoremCase(
        id=case_id,
        theorem="cor3.6",
        params=params,
        param_domain="0 < s < 1; -(log f)' CM for alpha >= 1/2, (log f)' CM for "
        "alpha <= 0, neither for 0 < alpha < 1/2",
        interval="(max(0,-alpha-s), inf)",
        x_start=x_start,
        expected=_regime_verdict("thm3.4", params, -1),
        deriv=deriv,
        grid=grid,
        kernel_id="thm3.4",
        notes="classical limit of cor3.5 with the gamma function (not Gamma_q) in the ratio",
    )


def _case_thm41(case_id: str, variant: str, a_list=(0.5, 1.5), q: float = 0.5) -> TheoremCase:
    a = tuple(float(v) for v in a_list)
    if not a or any(v <= 0.0 for v in a):
        raise DomainError(f"thm4.1 requires positive a_list, got {a_list!r}")
    P = _Q(q)
    n = len(a)
    abar = sum(a) / n
    total = sum(a)

    if variant == "mean":
        def deriv(k, x):
            if k == 0:
                return sum(P.lg(x + ai) for ai in a) - n * P.lg(x + abar)
            return sum(P.ps(k - 1, x + ai) for ai in a) - n * P.ps(k - 1, x + abar)

        kernel_fn = lambda t: kernel_thm41_mean(a, t)
        notes = "ratio prod Gamma_q(x+a_i) / Gamma_q(x+abar)^n"
    elif variant == "split":
        def deriv(k, x):
            if k == 0:
                return sum(P.lg(x + ai) for ai in a) - (n - 1) * P.lg(x) - P.lg(x + total)
            return (
                sum(P.ps(k - 1, x + ai) for ai in a)
                - (n - 1) * P.ps(k - 1, x)
                - P.ps(k - 1, x + total)
            )

        kernel_fn = lambda t: kernel_thm41_split(a, t)
        notes = "ratio prod Gamma_q(x+a_i) / (Gamma_q(x)^{n-1} Gamma_q(x+sum a_i))"
    else:
        raise DomainError(f"unknown thm4.1 variant {variant!r}")

    params, orientation = {"a_list": a, "q": q}, 1
    kernel_id = f"thm4.1-{variant}"
    rep = None
    if not P.classical:
        rep = lambda x: _mass_sum(x, P.q, kernel_fn, rho=True, scale=orientation)
    return TheoremCase(
        id=case_id,
        theorem="thm4.1",
        params=params,
        param_domain="a_i > 0, 0 < q <= 1; both log-derivative directions CM on (0, inf)",
        interval="(0, inf)",
        x_start=0.0,
        expected=_regime_verdict(kernel_id, params, orientation),
        deriv=deriv,
        grid=_default_grid(0.0),
        kernel_id=kernel_id,
        representation=rep,
        notes=notes,
    )


def _case_psi_prime(case_id: str = "psi-prime") -> TheoremCase:
    def deriv(k, x):
        return psi(x, _CASE_CONFIG).value if k == 0 else psi_n(k, x, _CASE_CONFIG).value

    return TheoremCase(
        id=case_id,
        theorem="psi-prime",
        params={},
        param_domain="none",
        interval="(0, inf)",
        x_start=0.0,
        expected=F_PRIME_CM,
        deriv=deriv,
        grid=GridSpec(0.1, 20.0, 25, "geometric"),
        notes="psi'(x) = sum_k (k+x)^{-2} is completely monotonic",
    )


# (factory, default overrides) per stable case id; bare ids carry the branch
# highlighted first in each statement, except cor2.4 whose bare id is the
# "neither" branch.
_FACTORIES: dict[str, tuple[Callable[..., TheoremCase], dict]] = {
    "thm2.1": (_case_thm21, {"alpha": 0.5}),
    "thm2.1-pos": (_case_thm21, {"alpha": 1.0}),
    "thm2.1-neither": (_case_thm21, {"alpha": 0.75}),
    "thm2.2": (_case_thm22, {"alpha": 0.5, "q": 0.5}),
    "thm2.2-pos": (_case_thm22, {"alpha": 1.0, "q": 0.5}),
    "thm2.3": (_case_thm23, {"alpha": 0.5, "a": 1.0, "q": 0.5}),
    "thm2.3-pos": (_case_thm23, {"alpha": 1.0, "a": 1.0, "q": 0.5}),
    "cor2.4": (_case_cor24, {"alpha": 0.75, "a": 1.0}),
    "cor2.4-neg": (_case_cor24, {"alpha": 0.5, "a": 1.0}),
    "cor2.4-pos": (_case_cor24, {"alpha": 1.0, "a": 1.0}),
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
    "cor3.6": (_case_cor36, {"alpha": 0.75, "s": 0.1}),
    "cor3.6-low": (_case_cor36, {"alpha": 0.0, "s": 0.1}),
    "cor3.6-neither": (_case_cor36, {"alpha": 0.25, "s": 0.1}),
    "thm4.1-mean": (
        lambda case_id, **kw: _case_thm41(case_id, "mean", **kw),
        {"a_list": (0.5, 1.5), "q": 0.5},
    ),
    "thm4.1-split": (
        lambda case_id, **kw: _case_thm41(case_id, "split", **kw),
        {"a_list": (0.5, 1.5), "q": 0.5},
    ),
    "psi-prime": (lambda case_id, **kw: _case_psi_prime(case_id), {}),
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

    The expected verdict is re-derived from the final parameters, so e.g.
    overriding cor2.4 with alpha = 0.75 yields the "neither" expectation.
    """
    if case_id not in _FACTORIES:
        raise DomainError(f"unknown case id {case_id!r}")
    factory, defaults = _FACTORIES[case_id]
    params = dict(defaults)
    for key, val in overrides.items():
        if val is not None:
            params[key] = val
    return factory(case_id, **params)


def theorem_registry() -> list[TheoremCase]:
    """The full corpus, one case per registered theorem branch."""
    return [make_case(cid) for cid in _FACTORIES]
