"""The registered corpus of monotonicity cases.

Each :class:`TheoremCase` bundles a function family f, analytic derivatives of
f built from the q-special primitives (never from the kernel representation,
so the two stay independently checkable; ``deriv(k, x)`` takes a float or an
ndarray x and maps it elementwise, and an order column gives every
derivative row in one call), the proof kernel it corresponds to,
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

Verification.  ``verify_case`` checks the case's claim from its analytic
derivatives, as Bernstein's definition states it: (-1)^n (target)^(n) >= 0,
n = 1..max_order (and n = 0 for "f CM"), at the grid points.  One
``case.deriv`` call with the order column base..base + max_order gives every
row, with a radius: each value of a closure is a ``_Ball``, which carries an
error radius through the closure's sums and scalings from the evaluators'
``abs_error_bound`` and ``special._moment``'s bound (see ``_Q``).  A row
value below -(radius + tol_abs + tol_rel * max(|f|, |row|)) proves that the
target is not completely monotonic; a "neither" case's -f' check reads the
f' rows negated.

Sharing.  Each evaluation is made once.  Every primitive takes an integer
order array that broadcasts with its abscissae and evaluates all the orders
in one call, each element equal to its scalar-order call bit for bit.  Where
a closure needs one primitive on several shifts of x (the difference
compositions, and the order-0 values of thm2.5, thm2.6, thm3.2 and thm4.1),
``_Q.stacked`` evaluates it in one call on the concatenated abscissae.
Where it needs psi_q or the first moment at several orders and abscissae,
``_Q.ps_rows`` and ``_Q.mom_rows`` answer its requests through one gather,
``_Q._union``: one evaluator call on the order column the requests span
against their distinct abscissae, from which each request reads its rows.
thm3.1's request at q^(1/alpha) rides in the same psi call, whose q is then
an array; its x is checked alone first, so a bad x is named as a call of its
own names it.  Each closure keeps the order in which it calls evaluators
(the moments before psi), so an x outside the interval is named as separate
calls would name it, its element index counted in the argument the
evaluator received.  Every evaluator's array call equals its scalar calls
element for element, so sharing changes no value.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cmcheck import CMReport, DEFAULT_TOL_ABS, DEFAULT_TOL_REL, GridSpec, VIOLATES, check_rows
from .cmcheck import check_cm  # unused here: qbench patches this name until ROADMAP item 19 removes it
from .kernels import KERNELS, NEGATIVE, ONE_SIGN_CHANGE, POSITIVE
from .special import (
    _U,
    ConvergenceError,
    DomainError,
    QValue,
    _checked,
    _log_one_minus_q,
    _log_q_number,
    _moment,
    _moment_over_t,
    _one_minus_q,
    _pow,
    _psi_q_n,
    _quiet,
    dilog_F,
    log_gamma_q,
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
    # k-th derivative of f at x for a single order k >= 0 (an int or a 0-d
    # array), elementwise in an x of any shape.  k may also be an order
    # column (m, 1) at or above the case's base order (1; 0 for "f CM"), as
    # verify_case asks for its rows, against a float or 1-d x: one row per
    # order, each element equal to its scalar-order call bit for bit.  Any
    # other order array is a DomainError naming both shapes, raised before
    # any evaluator runs.  Given radius=True it returns (value, radius), the
    # radius a bound on each value's error at every order from the base
    # order on (inf below it; see _Q).  An x outside the interval raises
    # DomainError, a scalar x as an array element does, with no numpy warning
    deriv: Callable[..., np.ndarray | tuple[np.ndarray, np.ndarray]]
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

    One ``case.deriv`` call gives every row: the order column base..base +
    max_order on the grid points, with the radius of each value.  check_rows
    reads them as (-1)^n (target)^(n), each against its radius plus the
    tolerances; the -f' check of a "neither" case reads the f' rows negated,
    which is exact.  An x outside the case's interval still raises
    DomainError from the evaluators it reaches; ``case.deriv`` keeps numpy's
    flags quiet itself, so the closures' own arithmetic at such an x (1/0,
    the log of a negative) does not warn first.

    A "neither" case matches only when both directions produce an explicit
    violation witness; CM cases match when their direction stays consistent.
    """
    g = grid or case.grid
    directions = case.directions()
    values, radius = case.deriv(directions[0][2] + np.arange(g.max_order + 1)[:, None], g.xs(), radius=True)
    reports = {
        label: check_rows(
            g,
            sign * values,
            radius,
            tol_abs=tol_abs,
            tol_rel=tol_rel,
            include_order_zero=case.expected == F_CM,
            case_id=f"{case.id}[{label}]",
        )
        for label, sign, _ in directions
    }
    if case.expected == NEITHER:
        matches = all(r.verdict == VIOLATES for r in reports.values())
    else:
        matches = all(r.verdict != VIOLATES for r in reports.values())
    return CaseVerification(case=case, reports=reports, matches=matches)


# ---------------------------------------------------------------------------
# primitive providers
# ---------------------------------------------------------------------------


def _is_order(k, n: int) -> bool:
    """k is the single order n (an int or a 0-d array); an order column never takes a low-order branch."""
    return np.ndim(k) == 0 and k == n


class _Ball:
    """A value and a radius that bounds its error: midpoint-radius arithmetic (Johansson, "Arb", 2017).

    ``v`` and ``r`` are floats or arrays of one shape, or ``r`` a scalar that
    broadcasts.  +, - and * give ``v`` the bits numpy gives the bare values,
    and ``r`` the radii carried through the operation plus u times the
    rounded result; an operand that is no _Ball (a parameter, an integer
    power) is exact.  numpy defers its operators to this class.  Radii are
    rounded to nearest as they are added up; a case's deriv widens the final
    one by _RADIUS_ROUNDING for that.
    """

    __array_ufunc__ = None
    __slots__ = ("v", "r")

    def __init__(self, v, r):
        self.v, self.r = v, r

    @staticmethod
    def of(other) -> "_Ball":
        return other if isinstance(other, _Ball) else _Ball(other, 0.0)

    def __add__(self, other):
        o = _Ball.of(other)
        v = self.v + o.v
        return _Ball(v, self.r + o.r + _U * np.abs(v))

    __radd__ = __add__  # IEEE addition commutes, bit for bit

    def __sub__(self, other):
        o = _Ball.of(other)
        v = self.v - o.v
        return _Ball(v, self.r + o.r + _U * np.abs(v))

    def __neg__(self):
        return _Ball(-self.v, self.r)

    def __mul__(self, other):
        o = _Ball.of(other)
        v = self.v * o.v
        r = np.abs(o.v) * self.r + _U * np.abs(v)
        if isinstance(other, _Ball):  # a number is exact and adds nothing of its own (nor 0 * inf)
            r = r + (np.abs(self.v) + self.r) * o.r
        return _Ball(v, r)

    __rmul__ = __mul__  # so does multiplication

    def __truediv__(self, d: float):
        """Division by an exact nonzero number."""
        v = self.v / d
        return _Ball(v, self.r / abs(d) + _U * np.abs(v))

    def radius(self) -> np.ndarray:
        """The radius in the value's shape."""
        shape = np.shape(self.v)
        return self.r if np.shape(self.r) == shape else np.broadcast_to(self.r, shape)

    def map(self, f) -> "_Ball":
        """f applied to the value and to the radius in the value's shape: a reshape or a move of axes."""
        return _Ball(f(self.v), f(self.radius()))

    def __iter__(self):
        return (_Ball(v, r) for v, r in zip(self.v, self.radius()))


def _rounded(c, ulps: float = 1.0) -> _Ball:
    """A coefficient within ``ulps`` units of roundoff of the exact one: a - b is within one, a pow within two."""
    return _Ball(c, ulps * _U * np.abs(c))


# relative widening of a final radius for the roundings of its own sum (a few dozen terms)
_RADIUS_ROUNDING = 1.0 + 2.0 ** -40


class _Q:
    """Primitives bound to one deformation parameter (q = 1 means classical).

    Each primitive is the q-analogue of a classical piece and takes the
    classical form at q = 1, so one family closure serves a theorem and its
    q = 1 member.

    Each primitive takes its abscissa y as a _Ball, whose radius bounds how
    far the float y (a shift x + a the closure rounded, say) lies from the
    exact one, and returns a _Ball.  Its radius is the evaluator's
    ``abs_error_bound`` (the moments' is special._moment's), plus twice y's radius
    times a bound on the primitive's slope at y.  With r = |log q|/(1 - q^y)
    <= 1/y + |log q| (1/y at q = 1) and A_(k+1) <= (k+1) A_k on [0, 1] for
    the Eulerian polynomials, the slopes are:
    - psi_q^(k), k >= 1, and the moments of order k >= 0: (k+1) r |value|,
      since each is a sum of terms of one sign (see special._lambert);
    - psi_q: r (1 + r), the first term of psi_q' plus the integral of the rest;
    - the moment of order -1, log((1-q^y)/(1-q)): r, its slope the first moment.
    The pieces of the order-0 value of the f' families (log Gamma_q,
    log(1 - q^y), the q-Stirling term) have no radius model: their radius is
    inf, and no verified row reads them.
    """

    def __init__(self, q: float):
        self.qv = QValue(q)
        self.q = self.qv.q
        self.classical = self.qv.is_classical
        self.lq = 0.0 if self.classical else math.log(self.q)

    @staticmethod
    def stacked(piece: Callable[[_Ball], _Ball], *ys: _Ball) -> _Ball:
        """piece(y) for each abscissa ball y (one shape), as the rows of one call on the concatenated ys.

        ``piece`` maps an ndarray elementwise, so each row equals its own call
        piece(y) bit for bit, and an error names the first bad element in the
        order of ``ys``.  An order column that ``piece`` carries leads its
        result; each row keeps it, shaped (*orders, *y.shape).
        """
        flat = [y.map(lambda a: np.reshape(a, -1)) for y in ys]
        out = piece(_Ball(np.concatenate([y.v for y in flat]), np.concatenate([y.r for y in flat])))
        lead = np.shape(out.v)[:-1]
        shape = (*lead, len(ys), *np.shape(ys[0].v))
        return out.map(lambda a: np.moveaxis(np.reshape(a, shape), len(lead), 0))

    def _at(self, v, err, y: _Ball, slope) -> _Ball:
        """_Ball(v, err) widened by twice y's radius times slope(r), r = 1/y + |log q| (see the class docstring)."""
        if np.ndim(y.r) == 0 and y.r == 0.0:  # an abscissa the closure did not round
            return _Ball(v, err)
        return _Ball(v, err + 2.0 * y.r * slope(1.0 / y.v - self.lq))

    def lg(self, y: _Ball) -> _Ball:
        return _Ball(log_gamma_q(y.v, self.qv).value, math.inf)

    def _psi_at(self, k, v, err, y: _Ball) -> _Ball:
        """psi_q^(k)(y) = v within err, widened for y's radius by the slope bound of its order."""
        return self._at(v, err, y, lambda r: np.where(k == 0, r * (1.0 + r), (k + 1) * r * np.abs(v)))

    def ps(self, k, y: _Ball) -> _Ball:
        res = psi_q_n(k, y.v, self.qv)
        return self._psi_at(k, res.value, res.abs_error_bound, y)

    def _union(self, requests, evaluate, at) -> list[_Ball]:
        """[at(P, k, value, error, y) for k, y, P in requests] from one evaluate(orders, ys, qs) call.

        A request is (k, y), or (k, y, P) at P's q.  The call takes the order
        column lo..hi that the requests span against the abscissae of their
        distinct (y, P) concatenated, with ``qs`` None at this q alone, else
        one q per abscissa.  ``at`` widens each distinct ball once, and each
        request reads its own rows back, k a single order or an order column
        against a y of at most one dimension (see TheoremCase.deriv).  So each
        ball equals its own call's bit for bit, value and radius, and an error
        names the first bad abscissa in request order, its element index
        counted in the concatenated argument.
        """
        requests = [(k, y, *P) if P else (k, y, self) for k, y, *P in requests]
        rows = [np.asarray(k).reshape(-1) for k, *_ in requests]  # each request's orders, flat
        lo, hi = min(min(r.tolist()) for r in rows), max(max(r.tolist()) for r in rows)
        orders = np.arange(lo, hi + 1)[:, None]
        balls = {(id(y), id(P)): (y, P) for _, y, P in requests}  # the distinct (y, P), in request order
        sizes = [np.size(y.v) for y, _ in balls.values()]
        ys = [np.asarray(y.v).reshape(-1) for y, _ in balls.values()]
        qs = None if all(P is self for _, P in balls.values()) else np.repeat([P.q for _, P in balls.values()], sizes)
        value, err = evaluate(orders, ys[0] if len(ys) == 1 else np.concatenate(ys), qs)
        blocks = {}
        for (key, (y, P)), flat, end in zip(balls.items(), ys, itertools.accumulate(sizes)):
            flat_y = _Ball(flat, y.r.reshape(-1) if np.ndim(y.r) else y.r)
            blocks[key] = at(P, orders, value[:, end - flat.size:end], err[:, end - flat.size:end], flat_y)
        out = []
        for (k, y, P), r in zip(requests, rows):
            block, r = blocks[id(y), id(P)], r - lo
            shape = np.shape(y.v) if np.ndim(k) == 0 else (len(k), np.size(y.v))  # k against y
            out.append(_Ball(block.v[r].reshape(shape), block.r[r].reshape(shape)))
        return out

    def ps_rows(self, *requests: tuple) -> list[_Ball]:
        """[P.ps(k, y) for k, y, P in requests] from one psi_q_n call (see _union); P is this _Q if not given."""
        def psi(orders, ys, qs):  # several q by the name qbench's tracer leaves alone (see special._psi_q_n)
            res = psi_q_n(orders, ys, self.qv) if qs is None else _psi_q_n(orders, ys, qs)
            return res.value, res.abs_error_bound

        return self._union(requests, psi, _Q._psi_at)

    def _mom_at(self, k, v, err, y: _Ball) -> _Ball:
        """The k-th moment derivative at y = v within err, widened for y's radius by its slope bound."""
        return self._at(v, err, y, lambda r: np.where(k < 0, r, (k + 1) * r * np.abs(v)))

    def mom(self, k, y: _Ball) -> _Ball:
        """k-th derivative, k >= -1, of the first moment -q^y log q / (1 - q^y): special._moment, value and bound.

        Classically (-1)^k k! / y^(k+1).  Order -1 is log((1-q^y)/(1-q)), log y
        classically, whose slope is the first moment.
        """
        return self._mom_at(k, *_moment(k, y.v, self.lq), y)

    def mom_rows(self, *requests: tuple) -> list[_Ball]:
        """[self.mom(k, y) for k, y in requests] from one special._moment call (see _union)."""
        return self._union(requests, lambda orders, ys, _: _moment(orders, ys, self.lq), _Q._mom_at)

    def log1m(self, y: _Ball) -> _Ball:
        """log(1 - q^y) for q < 1, log(y) classically."""
        if self.classical:
            return _Ball(np.log(y.v), math.inf)
        return _Ball(-_moment_over_t(y.v, self.lq), math.inf)

    def stirling(self, y: _Ball) -> _Ball:
        """The q-Stirling term y log(1-q) + F(q^y)/log q; y - y log y classically.

        Its derivative is -mom(-1, y); y - y log y is its q -> 1 limit up to
        a constant.
        """
        if self.classical:
            return _Ball(y.v - y.v * np.log(y.v), math.inf)
        return _Ball(y.v * _log_one_minus_q(self.lq)[0] + dilog_F(np.exp(y.v * self.lq)).value / self.lq, math.inf)


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


def _deriv(closure) -> Callable:
    """A case's ``deriv`` from its family closure: x enters as an exact ball, under quiet numpy flags.

    It checks the order layout (see TheoremCase.deriv) before the closure
    runs.  A float or 0-d x runs as the array [x], so that it takes the
    array's power path; at a single order the result is that array's
    element, bit for bit.
    """
    @_quiet
    def deriv(k, x, radius: bool = False):
        if np.ndim(k) and (np.shape(k)[1:] != (1,) or np.ndim(x) > 1):
            raise DomainError(f"deriv takes a single order, or an order column of shape (m, 1) against a float or "
                              f"1-d x; got orders of shape {np.shape(k)} against x of shape {np.shape(x)}")
        scalar = np.ndim(x) == 0
        out = closure(k, _Ball(np.array([x], dtype=float) if scalar else x, 0.0))
        v, r = out.v, out.r * _RADIUS_ROUNDING
        if scalar and np.ndim(k) == 0:
            v, r = v[0], r[0]
        return (v, r) if radius else v

    return deriv


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
        deriv=_deriv(deriv),
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
        m1, m2 = P.mom_rows((k - 1, x), (k - 2, x))  # at k = 1, m2 is order -1
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
        at_c = P.mom(k - 1, x + c)
        ys = (x + b, x + a)
        at_b, at_a = P.stacked(P.lg, *ys) if _is_order(k, 0) else P.ps_rows(*((k - 1, y) for y in ys))
        return _rounded(a - b) * at_c + at_b - at_a

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
        _checked("psi_q_n", x.v)  # x alone first, named as a call of its own names it
        at_q, at_q2 = P.ps_rows((k, x), (k, alpha * x, P2))
        return at_q - _rounded(_pow(alpha, k), 2.0) * at_q2

    # _case rejects an alpha outside the kernel's domain before anything divides by it
    case = _case(case_id, params, deriv, "thm3.1", 1, factor=lambda t: 1.0 / alpha, target="f")
    q2 = P.q ** (1.0 / alpha)
    if q2 == 0.0:  # else _Q would name a q the caller never gave
        raise DomainError(f"thm3.1 requires q^(1/alpha) > 0 in float64, got q={P.q!r}, alpha={alpha!r}")
    P2 = _Q(q2)
    const = _log_q_number(-math.expm1(P.lq / alpha), _one_minus_q(P.lq))
    rep = case.representation
    return dataclasses.replace(case, representation=lambda x: const + rep(x))


def _case_thm32(case_id: str, params: dict) -> TheoremCase:
    """h = log of Gamma_q(x+a)/Gamma_q(x+b) exp[(b-a) psi_q(x+c)]."""
    a, b, c = params["a"], params["b"], params["c"]
    P = _Q(params["q"])

    def deriv(k, x):
        if _is_order(k, 0):
            at_a, at_b = P.stacked(P.lg, x + a, x + b)
            at_c = P.ps(0, x + c)
        else:  # psi_q^(k-1) at x + a and x + b, psi_q^(k) at x + c, from one call
            at_a, at_b, at_c = P.ps_rows((k - 1, x + a), (k - 1, x + b), (k, x + c))
        return at_a - at_b + _rounded(b - a) * at_c

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
        if _is_order(k, 0):
            return h(0, x) - P.ps(1, x + alpha) / 12.0
        # h(k, x) written out, so that its psi row and psi_q^(k+1)(x + alpha) come from one call; the
        # moments come first, as in h, so an x outside the interval is named by the same evaluator
        m1, m2 = P.mom_rows((k - 1, x), (k - 2, x))
        at_x, at_alpha = P.ps_rows((k - 1, x), (k + 1, x + alpha))
        return 0.5 * m1 + at_x - m2 - at_alpha / 12.0

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
        ys = [x + ai for ai in a] + [x + shift for _, shift in denominator]
        vals = list(P.stacked(P.lg, *ys)) if _is_order(k, 0) else P.ps_rows(*((k - 1, y) for y in ys))
        out = sum(vals[:len(a)])
        for (power, _), v in zip(denominator, vals[len(a):]):
            out = out - power * v
        return out

    # _case checks that a_list is nonempty and positive before anything divides by its length
    case = _case(case_id, {**params, "a_list": a}, deriv, case_id, 1, rho=True)
    n = len(a)
    total = sum(_Ball(ai, 0.0) for ai in a)  # sum(a), its rounding in the radius
    denominator = {  # (power, shift) of each Gamma_q(x + shift) below the ratio
        "thm4.1-mean": ((n, total / n),),
        "thm4.1-split": ((n - 1, 0.0), (1, total)),
    }[case_id]
    return case


def _case_psi_prime(case_id: str, params: dict) -> TheoremCase:
    """psi'(x) = sum_k (k+x)^{-2} is completely monotonic; with no kernel, the verdict is stated."""
    return TheoremCase(
        id=case_id,
        params=params,
        interval="(0, inf)",
        x_start=0.0,
        expected=F_PRIME_CM,
        deriv=_deriv(_Q(1.0).ps),
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
