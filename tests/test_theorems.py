"""Registry contents, kernel-function transcription consistency, and the full
verdict sweep.

The transcription checks are the dual route: each case's analytic derivative
(built from the special-function primitives) is compared against the discrete
mass sum of its proof kernel (q < 1), or against Lebesgue quadrature of the
same integrand (q = 1).  Agreement validates both sides independently.
"""

import dataclasses
import hashlib
import itertools
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from qgamma import kernels as K
from qgamma import theorems as T
from qgamma.cli import main
from qgamma.cmcheck import CONSISTENT, VIOLATES, check_rows
from test_special import _li_neg, _psi_q_n_reference

from qgamma.special import (
    ConvergenceError,
    DomainError,
    EvalConfig,
    dilog_F,
    log_gamma,
    log_gamma_q,
    measure_moment,
    measure_moment_over_t,
    psi,
    psi_n,
    psi_q,
    psi_q_n,
)

X_PROBE = (0.3, 0.8, 1.7, 3.1)


def test_registry_size_and_ids():
    registry = T.theorem_registry()
    assert len(registry) >= 12
    ids = [c.id for c in registry]
    assert len(ids) == len(set(ids))
    for required in (
        "thm2.1", "thm2.2", "thm2.3", "cor2.4", "thm2.5", "thm2.6",
        "thm3.1", "thm3.2", "thm3.4", "cor3.5", "cor3.6",
        "thm4.1-mean", "thm4.1-split",
    ):
        assert required in ids, required


def test_registry_documented_branches():
    by_id = {c.id: c for c in T.theorem_registry()}
    thm25 = by_id["thm2.5"]
    assert thm25.interval == "(-c, inf)"
    assert thm25.x_start == pytest.approx(-0.1)
    assert thm25.expected == T.NEG_F_PRIME_CM
    cor24 = by_id["cor2.4"]
    assert cor24.expected == T.NEITHER and cor24.params["alpha"] == 0.75
    assert by_id["thm3.1"].expected == T.F_CM
    assert 0 in T.verify_case(by_id["thm3.1"]).reports["f"].per_order_worst
    assert by_id["thm3.2-neither"].expected == T.NEITHER
    assert by_id["thm4.1-mean"].expected == T.NEG_F_PRIME_CM
    assert by_id["thm4.1-split"].expected == T.F_PRIME_CM


def test_make_case_overrides_rederive_verdict():
    assert T.make_case("cor2.4", alpha=0.3).expected == T.NEG_F_PRIME_CM
    assert T.make_case("cor2.4", alpha=1.2).expected == T.F_PRIME_CM
    assert T.make_case("cor2.4", alpha=0.75).expected == T.NEITHER
    assert T.make_case("thm3.2", c=0.4).expected == T.F_PRIME_CM
    with pytest.raises(DomainError):
        T.make_case("no-such-case")
    with pytest.raises(DomainError):
        T.make_case("thm3.1", alpha=1.5)


@pytest.mark.parametrize("cid, key, accepted", [
    ("thm2.1", "q", "alpha"), ("cor2.4-neg", "q", "alpha, a"), ("cor3.6-low", "q", "alpha, s"),
    ("thm2.5", "alpha", "a, b, c, q"), ("psi-prime", "q", "none"),
])
def test_make_case_rejects_a_parameter_the_case_is_not_registered_with(cid, key, accepted):
    # a classical member shares its q-theorem's factory, so this check is what keeps q from it
    message = f"case {cid!r} takes no parameter {key!r}; it takes {accepted}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        T.make_case(cid, **{key: 0.5})


def test_case_default_params_exposed():
    assert T.case_default_params("thm2.5") == {"a": 0.2, "b": 1.0, "c": 0.1, "q": 0.5}
    assert T.case_default_params("thm4.1-mean")["a_list"] == (0.5, 1.5)


# ---------------------------------------------------------------------------
# kernel-function transcription consistency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cid",
    [c.id for c in T.theorem_registry() if c.representation is not None],
)
def test_mass_sum_matches_analytic_derivative(cid):
    case = T.make_case(cid)
    order = 0 if case.expected == T.F_CM else 1
    for x in X_PROBE:
        want = case.deriv(order, x)
        got = case.representation(x)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (cid, x, got, want)


def _quad_to_inf(fn, cut=120.0):
    val, err = quad(fn, 0.0, cut, epsabs=1e-12, epsrel=1e-12, limit=300)
    return val, err


def test_quadrature_matches_thm21_classical():
    alpha = 0.75
    case = T.make_case("thm2.1-neither")
    for x in (0.7, 1.5, 3.0):
        want = case.deriv(1, x)
        got, _ = _quad_to_inf(lambda t: -K.kernel_thm21(alpha, t) * math.exp(-x * t))
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), x


def test_quadrature_matches_cor24_classical():
    alpha, a = 0.75, 1.0
    case = T.make_case("cor2.4")
    for x in (0.7, 1.5, 3.0):
        want = case.deriv(1, x)
        got, _ = _quad_to_inf(
            lambda t: -K.kernel_thm21(alpha, t) * (-math.expm1(-a * t)) * math.exp(-x * t)
        )
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), x


def test_quadrature_matches_cor36_classical():
    alpha, s = 0.25, 0.1
    case = T.make_case("cor3.6-neither")
    for x in (0.7, 1.5, 3.0):
        want = case.deriv(1, x)
        got, _ = _quad_to_inf(
            lambda t: -K.kernel_thm34(alpha, t)
            * (math.exp(-s * t) - math.exp(-t))
            * math.exp(-x * t)
        )
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), x


def test_quadrature_matches_psi_prime():
    case = T.make_case("psi-prime")
    for x in (0.7, 1.5, 3.0):
        want = case.deriv(1, x)
        got, _ = _quad_to_inf(lambda t: t * math.exp(-x * t) / -math.expm1(-t))
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), x


# ---------------------------------------------------------------------------
# analytic derivative providers vs central differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cid", T.registry_ids())
def test_derivative_providers_match_central_differences(cid):
    case = T.make_case(cid)
    h = 1e-5
    for x in (1.3, 2.6):
        for k in (1, 2, 3):
            diff = (case.deriv(k - 1, x + h) - case.deriv(k - 1, x - h)) / (2.0 * h)
            assert abs(diff - case.deriv(k, x)) <= 1e-6, (cid, k, x)


# ---------------------------------------------------------------------------
# verdict sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cid", T.registry_ids())
def test_registry_case_reproduces_expected_verdict(cid):
    ver = T.verify_case(T.make_case(cid))
    assert ver.matches, {label: rep.verdict for label, rep in ver.reports.items()}
    if ver.case.expected == T.NEITHER:
        for label, rep in ver.reports.items():
            assert rep.verdict == VIOLATES
            x, h, n = rep.witness
            assert math.isfinite(x) and n >= 1
    else:
        for rep in ver.reports.values():
            assert rep.verdict == CONSISTENT


@pytest.mark.parametrize("a,b,c", [(-0.5, 0.3, 0.2), (-0.5, 0.5, -0.5), (0.2, 1.0, -0.1)])
def test_thm25_verdict_holds_with_a_or_c_below_zero(a, b, c):
    # c >= a: f' CM; c <= (a+b-1)/2: -f' CM; on b = a + 1, c = a the kernel is 0 and both hold
    ver = T.verify_case(T.make_case("thm2.5", a=a, b=b, c=c))
    assert ver.matches, {label: rep.verdict for label, rep in ver.reports.items()}


@pytest.mark.parametrize("q", [None, 0.9, 0.99, 0.999])
def test_every_verdict_holds_on_the_row_radii_alone(q):
    # with tol_abs = tol_rel = 0 each row is compared with its radius alone: no CM case shows a
    # violation, and every "neither" case still shows two; thm2.5's zero kernel rows are pure rounding
    cases = [T.make_case(cid) if q is None or "q" not in T.case_default_params(cid) else T.make_case(cid, q=q)
             for cid in T.registry_ids()]
    if q is None:
        cases.append(T.make_case("thm2.5", a=-0.5, b=0.5, c=-0.5))
    for case in cases:
        ver = T.verify_case(case, tol_abs=0.0, tol_rel=0.0)
        assert ver.matches, (case.id, case.params, {label: rep.verdict for label, rep in ver.reports.items()})


def test_verify_case_deterministic():
    case = T.make_case("thm2.2")
    v1 = T.verify_case(case)
    v2 = T.verify_case(case)
    assert v1.reports == v2.reports and v1.matches == v2.matches


def test_mass_sum_cap_raises_convergence_error():
    # near q = 1 the masses at small x decay too slowly for the term cap
    rep = T.make_case("thm2.2", q=0.9999).representation
    with pytest.raises(ConvergenceError, match=r"x=0\.1, q=0\.9999.*400000"):
        rep(0.1)


# ---------------------------------------------------------------------------
# one regime table: expected verdicts follow the kernel's sign regime
# ---------------------------------------------------------------------------

# f' = orientation * int e^{-xt} w(t) d gamma_q(t) (f itself for thm3.1)
ORIENTATION = {
    "thm2.1": -1, "thm2.2": -1, "thm2.3": -1, "cor2.4": -1, "thm2.5": -1,
    "thm3.2": -1, "thm3.4": -1, "cor3.5": -1, "cor3.6": -1,
    "thm2.6": +1, "thm3.1": +1, "thm4.1-mean": +1, "thm4.1-split": +1,
}
KERNEL_OF = {
    "thm2.1": "thm2.1", "thm2.2": "thm2.1", "thm2.3": "thm2.1", "cor2.4": "thm2.1",
    "thm2.5": "thm2.5", "thm2.6": "thm2.6", "thm3.1": "thm3.1", "thm3.2": "thm3.2",
    "thm3.4": "thm3.4", "cor3.5": "thm3.4", "cor3.6": "thm3.4",
    "thm4.1-mean": "thm4.1-mean", "thm4.1-split": "thm4.1-split",
}
# (kernel sign regime, orientation) -> expected verdict
REGIME_VERDICT = {
    ("positive", -1): "-f' CM", ("negative", -1): "f' CM",
    ("positive", +1): "f' CM", ("negative", +1): "-f' CM",
    ("one-sign-change", -1): "neither", ("one-sign-change", +1): "neither",
}


def _around(*points):
    return [p + d for p in points for d in (-1e-13, 0.0, 1e-13)]


REGIME_SWEEP = (
    [(cid, {"alpha": v}) for cid in ("thm2.1", "thm2.2", "thm2.3", "cor2.4")
     for v in _around(0.5, 1.0)]
    + [("thm2.5", {"c": v}) for v in _around(0.0, 0.1, 0.2)]  # a = 0.2, b = 1: (a+b-1)/2 = 0.1
    + [("thm2.6", {"a": v}) for v in (1.0, 1.0 + 1e-13, 1.5)]
    + [("thm3.1", {"alpha": v}) for v in (1e-3, 0.5, 1.0 - 1e-13)]
    + [("thm3.2", {"c": v}) for v in _around(0.5, 0.75)]  # a = 0.5, b = 1: (a+b)/2 = 0.75
    + [(cid, {"alpha": v}) for cid in ("thm3.4", "cor3.5", "cor3.6") for v in _around(0.0, 0.5)]
    + [(cid, {"a_list": v}) for cid in ("thm4.1-mean", "thm4.1-split")
       for v in ((0.5, 1.5), (1.0, 1.0), (0.2, 0.7, 3.0))]
)


@pytest.mark.parametrize("cid,override", REGIME_SWEEP)
def test_expected_verdict_follows_kernel_sign_regime(cid, override):
    case = T.make_case(cid, **override)
    assert case.kernel_id == KERNEL_OF[cid]
    kernel_params = {k: case.params[k] for k in K.KERNELS[case.kernel_id].defaults}
    _, _, rep = K.scan_kernel(case.kernel_id, kernel_params)
    want = REGIME_VERDICT[(rep.expected_sign, ORIENTATION[cid])]
    if cid == "thm3.1":  # the representation gives f itself, not f'
        want = {"f' CM": "f CM"}[want]
    assert case.expected == want, (cid, override, rep.expected_sign)


def _mom_closed_form(k, y, lq):
    """The hand-expanded moment derivatives the Eulerian form replaced, kept as the reference."""
    u = math.exp(y * lq)
    r = 1.0 / -math.expm1(y * lq)
    return (
        -lq * u * r,
        -(lq ** 2) * u * r * r,
        -(lq ** 3) * u * (1.0 + u) * r ** 3,
        -(lq ** 4) * u * (1.0 + 4.0 * u + u * u) * r ** 4,
    )[k]


def _exact(y) -> T._Ball:
    """An abscissa as the primitives of _Q take it: a ball of radius 0."""
    return T._Ball(y, 0.0)


def test_moment_derivatives_match_closed_forms():
    # each form rounds on its own; on a dense grid they differ by at most
    # 3.7, 5.4, 7.4 and 8.5 units of 2^-53 for k = 0..3
    for q in (0.01, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6):
        P = T._Q(q)
        for y in (0.05, 0.1, 0.3, 1.0, 1.7, 3.7, 20.0, 150.0):
            for k in range(4):
                want = _mom_closed_form(k, y, P.lq)
                tol = (6 + 3 * k) * 2.0 ** -53 * max(1.0, abs(want))
                assert abs(P.mom(k, _exact(y)).v - want) <= tol, (q, y, k)


# ---------------------------------------------------------------------------
# classical cases as the q = 1 members of their q-families
# ---------------------------------------------------------------------------

_REF_CFG = EvalConfig(rel_tol=1e-14)
X_DENSE = np.geomspace(0.01, 60.0, 2001)


def _lg(y):
    return log_gamma(y, _REF_CFG).value


def _pg(m, y):
    return psi(y, _REF_CFG).value if m == 0 else psi_n(m, y, _REF_CFG).value


def _thm21_ladder(alpha, k, x):
    """Terms of the hand-expanded thm2.1 derivatives h^(k), k = 0..4, kept as the reference."""
    return {
        0: (alpha * np.log(x), _lg(x), x, -x * np.log(x)),
        1: (alpha / x, _pg(0, x), -np.log(x)),
        2: (-alpha / x ** 2, _pg(1, x), -1.0 / x),
        3: (2.0 * alpha / x ** 3, _pg(2, x), 1.0 / x ** 2),
        4: (-6.0 * alpha / x ** 4, _pg(3, x), -2.0 / x ** 3),
    }[k]


def _cor36_ladder(alpha, s, k, x):
    """Terms of the hand-expanded cor3.6 derivatives, k = 0..4, kept as the reference."""
    u, v = x + 1.0, x + s
    lead = {
        0: ((x + 0.5) * np.log(u), -(x + s - 0.5) * np.log(v), _lg(v), -_lg(u), s - 1.0),
        1: (np.log(u), -np.log(v), -0.5 / u, 0.5 / v, _pg(0, v), -_pg(0, u)),
        2: (1.0 / u, -1.0 / v, 0.5 / u ** 2, -0.5 / v ** 2, _pg(1, v), -_pg(1, u)),
        3: (-1.0 / u ** 2, 1.0 / v ** 2, -1.0 / u ** 3, 1.0 / v ** 3, _pg(2, v), -_pg(2, u)),
        4: (2.0 / u ** 3, -2.0 / v ** 3, 3.0 / u ** 4, -3.0 / v ** 4, _pg(3, v), -_pg(3, u)),
    }[k]
    return lead + (_pg(k + 1, u + alpha) / 12.0, -_pg(k + 1, v + alpha) / 12.0)


def _assert_matches_terms(got, terms, label):
    """got equals the sum of ``terms`` up to 16 units of 2^-53 of their magnitude.

    Both sides add the same terms in a different order, so they differ by a
    few roundings of the largest partial sum; where the terms cancel (order
    4 near x = 0.01 sums +-5e8 to 1e6) that is many ulps of the value itself.
    """
    want = sum(terms)
    scale = np.maximum(1.0, sum(np.abs(t) for t in terms))
    err = np.abs(got - want) / scale
    assert err.max() <= 16 * 2.0 ** -53, (label, float(err.max()) / 2.0 ** -53)


@pytest.mark.parametrize("alpha", [-2.0, 0.5, 0.75, 1.0])
def test_thm21_is_the_q1_member_of_thm22(alpha):
    for cid in ("thm2.1", "cor2.4"):
        case = T.make_case(cid, alpha=alpha)
        for k in range(5):
            ref = _thm21_ladder(alpha, k, X_DENSE)
            if cid == "cor2.4":
                ref = ref + tuple(-t for t in _thm21_ladder(alpha, k, X_DENSE + 1.0))
            _assert_matches_terms(case.deriv(k, X_DENSE), ref, (cid, k))


@pytest.mark.parametrize("alpha,s", [(0.75, 0.1), (0.0, 0.1), (0.25, 0.1), (0.25, 0.9), (-0.05, 0.5)])
def test_cor36_is_the_q1_member_of_cor35(alpha, s):
    deriv = T.make_case("cor3.6", alpha=alpha, s=s).deriv
    for k in range(5):
        _assert_matches_terms(deriv(k, X_DENSE), _cor36_ladder(alpha, s, k, X_DENSE), k)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
def test_q_family_order_zero_and_one_are_the_old_groupings(q):
    # h = x log(1-q) - alpha (-log(1-q^x)) + log Gamma_q + F(q^x)/log q and
    # h' = log(1-q) + alpha m(x) + psi_q(x) + (-log(1-q^x)), as the families
    # were first written; the regrouping must not shift either by a constant
    lq, l1q, x = math.log(q), math.log1p(-q), X_DENSE
    mt = measure_moment_over_t(x, q)
    lgq = log_gamma_q(x, q, _REF_CFG).value
    stir = (x * l1q, dilog_F(np.exp(x * lq), _REF_CFG).value / lq)
    psq = psi_q(x, q, _REF_CFG).value
    for alpha in (0.5, 1.0):
        deriv = T.make_case("thm2.2", alpha=alpha, q=q).deriv
        _assert_matches_terms(deriv(0, x), stir + (-alpha * mt, lgq), (alpha, 0))
        _assert_matches_terms(deriv(1, x), (l1q, alpha * measure_moment(x, q), psq, mt), (alpha, 1))
    alpha = 0.5
    corr = (-psi_q_n(1, x + alpha, q, _REF_CFG).value / 12.0,
            -psi_q_n(2, x + alpha, q, _REF_CFG).value / 12.0)
    deriv = T.make_case("thm3.4", alpha=alpha, q=q).deriv
    _assert_matches_terms(deriv(0, x), stir + (-0.5 * mt, lgq, corr[0]), "thm3.4 0")
    _assert_matches_terms(deriv(1, x), (l1q, 0.5 * measure_moment(x, q), psq, mt, corr[1]), "thm3.4 1")


@pytest.mark.parametrize("cid", ["thm2.2", "thm2.3", "thm2.6", "thm3.1", "thm3.4", "cor3.5"])
def test_q_only_cases_reject_q1(cid):
    with pytest.raises(DomainError, match="requires q < 1"):
        T.make_case(cid, q=1.0)


# ---------------------------------------------------------------------------
# one kernel source: the kernel's own DomainError rejects out-of-domain cases
# ---------------------------------------------------------------------------

# (case id, overrides, the message of the kernel function that rejects them)
KERNEL_DOMAIN_ERRORS = [
    ("thm2.5", {"a": 1.0, "b": 0.5}, "kernel_thm25 requires a < b <= a \\+ 1"),  # b <= a
    ("thm2.5", {"a": 0.5, "b": 0.5}, "kernel_thm25 requires a < b <= a \\+ 1"),
    ("thm2.5", {"a": 0.2, "b": 1.5}, "kernel_thm25 requires a < b <= a \\+ 1"),  # b > a + 1
    ("thm2.6", {"a": 0.5}, "kernel_thm26 requires a >= 1"),
    ("thm3.1", {"alpha": 0.0}, "kernel_thm31 requires"),
    ("thm3.1", {"alpha": 1.0}, "kernel_thm31 requires"),
    ("thm3.1", {"alpha": 1.5}, "kernel_thm31 requires"),
    ("thm3.1", {"alpha": 1e-300}, "kernel_thm31 requires"),  # below the 2^-340 edge
    ("thm3.2", {"a": 1.0, "b": 0.5}, "kernel_thm32 requires 0 < a < b"),  # a >= b
    ("thm3.2", {"a": 1.0, "b": 1.0}, "kernel_thm32 requires 0 < a < b"),
    ("thm3.2", {"a": 0.0}, "kernel_thm32 requires 0 < a < b"),  # a <= 0
    ("thm3.2", {"a": -0.5}, "kernel_thm32 requires 0 < a < b"),
    ("thm4.1-mean", {"a_list": ()}, "a_list entries must be positive"),
    ("thm4.1-split", {"a_list": ()}, "a_list entries must be positive"),
    ("thm4.1-mean", {"a_list": (1.0, 0.0)}, "a_list entries must be positive"),
    ("thm4.1-split", {"a_list": (1.0, -1.0)}, "a_list entries must be positive"),
]


@pytest.mark.parametrize("cid,override,message", KERNEL_DOMAIN_ERRORS)
def test_kernel_domain_rejects_case_parameters(cid, override, message):
    # before any factory arithmetic on them: thm3.1 computes q^{1/alpha} and
    # thm4.1-mean divides by the length of a_list
    with pytest.raises(DomainError, match=message):
        T.make_case(cid, **override)


def test_thm31_rejects_a_q_whose_root_underflows():
    # q^(1/alpha) rounds to 0 here, outside (0, 1]; the message names the q and alpha given
    message = "thm3.1 requires q^(1/alpha) > 0 in float64, got q=1e-200, alpha=0.5"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        T.make_case("thm3.1", q=1e-200)
    assert T.make_case("thm3.1", q=1e-100).params["q"] == 1e-100


# ---------------------------------------------------------------------------
# each evaluation once: shared directions, stacked shifts
# ---------------------------------------------------------------------------

# the evaluators a closure reaches through the theorems module, and where each takes its order and q;
# _psi_q_n is psi_q_n by the name its calls at several q take (see special._psi_q_n), and counts as psi_q_n
_EVALUATORS = {
    "log_gamma_q": (None, 1), "psi_q_n": (0, 2), "_psi_q_n": (0, 2), "_moment": (0, 2),
    "_moment_over_t": (None, 1), "dilog_F": (None, None),
}


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Every evaluator call made through the theorems module, as (name, order, q).

    An order array is recorded as a tuple, and a q array as the tuple of its distinct values.
    """
    calls = []
    for name, (order_at, q_at) in _EVALUATORS.items():
        original = getattr(T, name)

        def counted(*args, _f=original, _name=name.replace("_psi_q_n", "psi_q_n"), _o=order_at, _q=q_at,
                    **kwargs):
            q = None if _q is None else getattr(args[_q], "q", args[_q])
            order = None if _o is None else args[_o]
            if isinstance(order, np.ndarray):
                order = tuple(order.ravel().tolist())
            if isinstance(q, np.ndarray):
                q = tuple(np.unique(q).tolist())
            calls.append((_name, order, q))
            return _f(*args, **kwargs)

        monkeypatch.setattr(T, name, counted)
    return calls


def _rows(case):
    """The order column base..base + max_order of the case on its grid points, as verify_case asks for it."""
    base = case.directions()[0][2]
    return base + np.arange(case.grid.max_order + 1)[:, None], case.grid.xs()


def _unshared_reports(case):
    """The reports of verify_case from one check_rows per direction, each row from a scalar-order call.

    The tolerances are verify_case's defaults, passed explicitly: check_rows' own are 0.
    """
    orders, xs = _rows(case)
    values, radius = map(np.array, zip(*(case.deriv(int(k), xs, radius=True) for k in orders.ravel())))
    reports = {}
    for label, sign, _ in case.directions():
        reports[label] = check_rows(
            case.grid,
            sign * values,
            radius,
            T.DEFAULT_TOL_ABS,
            T.DEFAULT_TOL_REL,
            include_order_zero=case.expected == T.F_CM,
            case_id=f"{case.id}[{label}]",
        )
    return reports


def test_neither_case_evaluates_as_often_as_its_f_prime_direction(evaluator_calls):
    case = T.make_case("cor3.5-neither")
    assert [label for label, *_ in case.directions()] == ["f'", "-f'"]
    ver = T.verify_case(case)
    shared = list(evaluator_calls)
    evaluator_calls.clear()
    case.deriv(*_rows(case), radius=True)  # the rows of f' alone
    assert shared == evaluator_calls and len(shared) > 0
    assert set(ver.reports) == {"f'", "-f'"}


@pytest.mark.parametrize("cid", ["thm2.3", "cor2.4", "cor3.5", "cor3.6", "thm2.5", "thm2.6",
                                 "thm3.2", "thm4.1-mean", "thm4.1-split"])
def test_shifted_closures_call_each_primitive_once_per_order(evaluator_calls, cid):
    case = T.make_case(cid)
    x = case.grid.xs()
    for k in range(5):
        evaluator_calls.clear()
        case.deriv(k, x)
        assert evaluator_calls and len(set(evaluator_calls)) == len(evaluator_calls), (k, evaluator_calls)


def _report_fields(rep):
    return {f.name: repr(getattr(rep, f.name)) for f in dataclasses.fields(rep)}


@pytest.mark.parametrize("cid", T.registry_ids())
def test_shared_verification_equals_one_check_per_direction(cid):
    case = T.make_case(cid)
    got = T.verify_case(case).reports
    want = _unshared_reports(case)
    assert list(got) == list(want)
    for label in want:
        assert _report_fields(got[label]) == _report_fields(want[label]), label


_Q_CASES = [cid for cid in T.registry_ids() if "q" in T.case_default_params(cid)]


@pytest.mark.parametrize("q", [0.9, 0.99])
@pytest.mark.parametrize("cid", _Q_CASES)
def test_shared_verification_equals_one_check_per_direction_near_q1(cid, q):
    # the rows come from one order-column call; the reference asks per scalar order
    case = T.make_case(cid, q=q)
    got = T.verify_case(case).reports
    want = _unshared_reports(case)
    assert list(got) == list(want)
    for label in want:
        assert _report_fields(got[label]) == _report_fields(want[label]), label


@pytest.mark.parametrize("cid, q", [(cid, None) for cid in T.registry_ids()]
                         + [(cid, q) for cid in _Q_CASES for q in (0.9, 0.99)])
def test_case_derivative_rows_in_one_call_equal_scalar_orders(cid, q):
    case = T.make_case(cid) if q is None else T.make_case(cid, q=q)
    orders, x = _rows(case)
    rows, radius = case.deriv(orders, x, radius=True)
    assert rows.shape == radius.shape == (orders.size, x.size)
    for k, row, r in zip(orders.ravel().tolist(), rows, radius):
        assert row.tobytes() == np.asarray(case.deriv(k, x), dtype=float).tobytes(), k
        assert r.tobytes() == np.asarray(case.deriv(k, x, radius=True)[1], dtype=float).tobytes(), k


def test_verify_makes_one_rows_call_per_primitive(evaluator_calls):
    T.verify_case(T.make_case("thm2.2"))
    names = [name for name, *_ in evaluator_calls]
    assert (names.count("psi_q_n"), names.count("_moment")) == (1, 1)
    # orders 1..9 of h need psi_q^(0..8), in one call
    assert ("psi_q_n", tuple(range(9)), 0.5) in evaluator_calls


def test_verify_all_makes_one_node_and_one_rows_call_per_case(evaluator_calls):
    # the node values (the base order) and the derivative rows come from one order-column call
    orders = []
    for case in T.theorem_registry():
        def deriv(k, x, _deriv=case.deriv, **kwargs):
            orders.append(np.shape(k))
            return _deriv(k, x, **kwargs)

        T.verify_case(dataclasses.replace(case, deriv=deriv))
        assert orders == [(case.grid.max_order + 1, 1)], case.id
        orders.clear()
    names = [name for name, *_ in evaluator_calls]
    assert names.count("psi_q_n") <= 28
    # one moment call per case of the f' families (thm2.1-2.6, thm3.4, cor2.4, cor3.5/3.6), q = 1 members included
    assert names.count("_moment") <= 21


@pytest.mark.parametrize("cid", T.registry_ids())
def test_verify_makes_one_psi_call_per_q_and_at_most_one_moment_call(evaluator_calls, cid):
    # a closure's psi requests share one order-column call; thm3.1's, at q and at q^(1/alpha), take a q array
    T.verify_case(T.make_case(cid))
    psi_qs = [q for name, _, q in evaluator_calls if name == "psi_q_n"]
    assert len(psi_qs) == 1, evaluator_calls
    if cid == "thm3.1":
        assert psi_qs == [(0.25, 0.5)]  # q = 0.5 and q^(1/alpha) at alpha = 0.5
    assert [name for name, *_ in evaluator_calls].count("_moment") <= 1


@pytest.mark.parametrize("q", [1.0, 0.5, 1.0 - 1e-6])
def test_stacked_order_column_equals_scalar_orders(q):
    P = T._Q(q)
    x = np.concatenate([np.geomspace(0.05, 30.0, 17), [0.5, 1.0, 2.0]])
    ys = (x + 0.5, x, x + 2.0)
    # mom at order 0 reaches the classical exponent -1, ps at order 2 the exponent 2
    for piece, ks in ((P.ps, (1, 2, 3)), (P.mom, (0, 1, 2))):
        rows = T._Q.stacked(lambda y: piece(np.array(ks)[:, None], y), *map(_exact, ys)).v
        assert rows.shape == (len(ys), len(ks), x.size)
        for per_shift, y in zip(rows, ys):
            for k, row in zip(ks, per_shift):
                assert row.tobytes() == np.asarray(piece(k, _exact(y)).v, dtype=float).tobytes(), k
    # the same shifts as ps_rows requests: psi_q^(k-1), the k-th derivative of log Gamma_q that thm2.5 and
    # thm4.1 read at orders k >= 1
    ks = (2, 3, 4)
    rows = P.ps_rows(*((np.array(ks)[:, None] - 1, _exact(y)) for y in ys))
    for per_shift, y in zip(rows, ys):
        assert per_shift.v.shape == (len(ks), x.size)
        for k, row in zip(ks, per_shift.v):
            assert row.tobytes() == np.asarray(P.ps(k - 1, _exact(y)).v, dtype=float).tobytes(), k


@pytest.mark.parametrize("q", [1.0, 0.5, 1.0 - 1e-6])
def test_moment_pair_equals_two_scalar_order_calls(q):
    P = T._Q(q)
    x = np.concatenate([np.geomspace(0.05, 30.0, 17), [0.5, 1.0, 2.0]])
    # one ball, exact or rounded (x + 0.5 carries a radius), gives one call on the orders k - 2..k - 1
    for y, k in itertools.product((_exact(x), _exact(x) + 0.5), (2, 3, 5, np.array([[2], [3], [4]]))):
        for got, order in zip(P.mom_rows((k - 1, y), (k - 2, y)), (k - 1, k - 2)):
            want = P.mom(order, y)
            assert got.v.shape == np.broadcast_shapes(np.shape(k), x.shape)
            assert got.v.tobytes() == np.asarray(want.v, dtype=float).tobytes(), order
            assert got.radius().tobytes() == want.radius().tobytes(), order
    y = _exact(x)
    half = _exact(1.5)
    pair = [got.v for got in P.mom_rows((1, half), (0, half))]
    assert np.array(pair).tobytes() == np.array([P.mom(1, half).v, P.mom(0, half).v]).tobytes()
    # order -1, the log of the q-number: the thm2.2 family's order-1 row reads it from the same call
    scale = P.mom(-1, y).v.tobytes()
    assert P.mom_rows((0, y), (-1, y))[1].v.tobytes() == scale
    k = np.array([[1], [2], [3]])
    assert P.mom_rows((k - 1, y), (k - 2, y))[1].v[0].tobytes() == scale


@given(
    st.integers(0, 3),
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 3.0)), min_size=1, max_size=4),
    st.lists(st.floats(0.05, 30.0), min_size=1, max_size=12),
    st.sampled_from((0.5, 0.99, 1.0)),
    st.booleans(),
)
def test_psi_rows_equal_separate_calls_bit_for_bit(base, length, requests, grid, q, column):
    # each request (order offset, shift) reads psi_q^(k + offset)(x + shift) from the one union call
    P = T._Q(q)
    k = base + np.arange(length)[:, None] if column else base
    x = _exact(np.array(grid))
    asked = [(k + offset, x + shift if shift else x) for offset, shift in requests]
    for got, (order, y) in zip(P.ps_rows(*asked), asked):
        want = P.ps(order, y)
        assert got.v.shape == np.shape(want.v) == np.broadcast_shapes(np.shape(order), x.v.shape)
        assert got.v.tobytes() == want.v.tobytes()
        assert got.radius().tobytes() == want.radius().tobytes()


# (x_min, evaluator, value, element) of the first bad abscissa a verify on 5 points from x_min
# meets: the element counts in the argument the evaluator receives, the grid with every shift stacked
_FIRST_BAD_REQUEST = {
    ("thm3.2", ()): (-0.6, "psi_q_n", -0.6 + 0.5, 0),  # x + a, in the first request
    ("thm3.2", ("--c", "0.2")): (-0.3, "psi_q_n", -0.3 + 0.2, 10),  # x + c, after x + a and x + b
    ("thm3.4-low", ()): (-0.3, "measure_moment", -0.3, 0),  # the moments come before the psi rows
    ("cor3.6", ()): (-0.3, "psi_n", -0.3 + 0.1, 0),  # y = x + s, in the first request
    ("cor3.6", ("--alpha", "-0.5")): (0.1, "psi_n", 0.1 + 0.1 - 0.5, 10),  # y + alpha, after y = x + s, x + 1
}


@pytest.mark.parametrize("cid, params", list(_FIRST_BAD_REQUEST))
def test_x_outside_the_interval_names_the_first_bad_request(capsys, cid, params):
    x_min, evaluator, value, element = _FIRST_BAD_REQUEST[cid, params]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", cid, *params, "--x-min", str(x_min), "--x-max", "3", "--points", "5",
                     "--spacing", "linear"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {evaluator} requires finite x in (0, inf), got {value!r} (element {element})\n"


@pytest.mark.parametrize("q", [1.0, 0.5, 1.0 - 1e-6])
def test_stacked_shifts_equal_separate_calls_bit_for_bit(q):
    P = T._Q(q)
    x = np.concatenate([np.geomspace(0.05, 30.0, 17), [0.5, 1.0, 2.0]])
    pieces = [P.lg, P.log1m, P.stirling] + [
        (lambda y, k=k: P.ps(k, y)) for k in (0, 1, 3)] + [(lambda y, k=k: P.mom(k, y)) for k in (-1, 0, 2)]
    for piece in pieces:
        ys = (x + 0.5, x, x + 2.0)
        rows = T._Q.stacked(piece, *map(_exact, ys)).v
        assert rows.shape == (3, x.size)
        for row, y in zip(rows, ys):
            assert row.tobytes() == np.asarray(piece(_exact(y)).v, dtype=float).tobytes()
        # a scalar abscissa gives one value per shift
        got = T._Q.stacked(piece, _exact(0.75), _exact(1.5)).v
        assert [float(v) for v in got] == [piece(_exact(0.75)).v, piece(_exact(1.5)).v]


def test_classical_polygamma_is_one_path_for_every_order():
    # psi, psi_q at q = 1 and the closures' pieces of every order reach one classical path
    x = np.concatenate([np.geomspace(1e-6, 1e8, 301), 1.4616321449683622 + np.linspace(-0.1, 0.1, 41)])
    P = T._Q(1.0)
    for got in (psi_q(x, 1.0).value, P.ps(0, _exact(x)).v):
        assert np.asarray(got).tobytes() == psi(x).value.tobytes()
    assert psi_q(x, 1.0).abs_error_bound.tobytes() == psi(x).abs_error_bound.tobytes()
    for k in (1, 2, 5):
        got = P.ps(k, _exact(x)).v
        assert got.tobytes() == psi_n(k, x).value.tobytes() == psi_q_n(k, x, 1.0).value.tobytes()
    # and so does psi-prime's closure
    case = T.make_case("psi-prime")
    for k in (0, 1, 3):
        assert case.deriv(k, x).tobytes() == P.ps(k, _exact(x)).v.tobytes()


@pytest.mark.parametrize("q", [0.01, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6])
def test_log_scale_is_within_4u_of_high_precision(q):
    # one logarithm of (1-q^y)/(1-q): near q = 1 two large logarithms no longer cancel
    y = np.concatenate([np.geomspace(1e-3, 1e3, 301), [0.5, 1.0, 2.0]])
    got = T._Q(q).mom(-1, _exact(y)).v
    with mp.workdps(40):
        qq = mp.mpf(q)
        for yi, gi in zip(y, got):
            want = mp.log((1 - qq ** mp.mpf(yi)) / (1 - qq))
            assert abs(gi - want) <= 4 * 2.0 ** -53 * max(1, abs(want)), (yi, gi, want)
    assert T._Q(q).mom(-1, _exact(1.0)).v == 0.0


# ---------------------------------------------------------------------------
# one source per fact: the evaluators' default tolerance, every value pinned
# ---------------------------------------------------------------------------


def test_verify_all_evaluator_results_converge(monkeypatch, capsys):
    # the closures call the evaluators at their default configuration, whose
    # truncation bound every node of the corpus meets
    results = []
    for name in ("log_gamma_q", "psi_q_n", "dilog_F"):
        def recorded(*args, _f=getattr(T, name), _name=name, **kwargs):
            res = _f(*args, **kwargs)
            results.append((_name, args[0] if _name.startswith("psi") else None, res.converged))
            return res

        monkeypatch.setattr(T, name, recorded)
    for extra in ([], ["--q", "0.9"], ["--q", "0.99"]):
        assert main(["verify", "all", *extra]) == 0
        capsys.readouterr()
    assert results and [r for r in results if not r[2]] == []


# md5 over every registered case's deriv (orders 0-5 on a scalar and on a
# grid from x_start, the order column base+1..base+3), its representation at
# 1.3 and its error text outside the interval, at the registered q and at
# q = 0.3, 0.9, 0.99, pinned so that no refactor of the factories moves a bit.
# Re-pinned when thm2.1's closures at a scalar x = 0 went from
# ZeroDivisionError to the DomainError an array x gives.
_CORPUS_MD5 = "b2cbb59719098df3f66195f1c2714a1e"


def _outcome(fn) -> bytes:
    """The bytes of fn()'s value, or the error it raises: the library's with its text, Python's by type."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(), dtype=float).tobytes()
    except (ConvergenceError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    except ArithmeticError as exc:  # a ZeroDivisionError's text is the interpreter's
        return type(exc).__name__.encode()


def _case_fingerprint(case) -> list[bytes]:
    base = case.directions()[0][2]
    xs = case.x_start + np.geomspace(0.01, 30.0, 40)
    fields = (case.id, case.params, case.interval, case.x_start, case.expected, case.grid, case.kernel_id)
    parts = [repr(fields).encode()]
    for k in range(6):
        parts += [_outcome(lambda: case.deriv(k, 1.3)), _outcome(lambda: case.deriv(k, xs))]
    parts.append(_outcome(lambda: case.deriv(base + np.array([[1], [2], [3]]), xs)))
    if case.representation is not None:
        parts.append(_outcome(lambda: case.representation(1.3)))
    for x in (-0.5, 0.0, float("nan")):
        parts.append(_outcome(lambda: case.deriv(base, x)))
    return parts


def test_corpus_values_and_errors_keep_their_bits():
    md5 = hashlib.md5()
    for cid in T.registry_ids():
        qs = (None, 0.3, 0.9, 0.99) if "q" in T.case_default_params(cid) else (None,)
        for q in qs:
            for part in _case_fingerprint(T.make_case(cid) if q is None else T.make_case(cid, q=q)):
                md5.update(part)
    assert md5.hexdigest() == _CORPUS_MD5


def _deriv_outcome(case, k, x) -> str:
    """case.deriv(k, x)'s value bytes or the library error it raises, with any numpy warning an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.asarray(case.deriv(k, x), dtype=float).tobytes().hex()
    except (ConvergenceError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("cid", T.registry_ids())
def test_deriv_at_a_float_x_equals_the_array_element(cid):
    # value and radius, bit for bit, of a float x and a 0-d x against the shape-(1,) call and the whole
    # array's element: a float x takes the array's power path (at q = 1 a float's ** and an array's
    # np.power differ in the last bit on a few percent of x)
    case = T.make_case(cid)
    base = case.directions()[0][2]
    xs = case.x_start + np.geomspace(0.3, 30.0, 25)
    for k in range(base, base + 6):
        for x, want in zip(xs.tolist(), np.stack(case.deriv(k, xs, radius=True), axis=-1)):
            assert np.array(case.deriv(k, x, radius=True)).tobytes() == want.tobytes(), (k, x)
            assert np.array(case.deriv(k, np.array(x), radius=True)).tobytes() == want.tobytes(), (k, x)
            assert np.concatenate(case.deriv(k, np.array([x]), radius=True)).tobytes() == want.tobytes(), (k, x)


@pytest.mark.parametrize("cid", T.registry_ids())
def test_deriv_takes_a_single_order_or_an_order_column_against_at_most_1d_x(cid, evaluator_calls):
    # any other order array is a DomainError naming both shapes, before any evaluator runs: a flat
    # order array once gave thm2.3 one value that was neither order's, and other cases an IndexError
    case = T.make_case(cid)
    orders = case.directions()[0][2] + np.arange(2)
    x = case.x_start + np.array([1.3, 2.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, xs in ((orders, x[:1]), (orders, x), (orders[None, :], x), (orders[:, None], np.stack([x, x]))):
            message = (f"deriv takes a single order, or an order column of shape (m, 1) against a float or 1-d x; "
                       f"got orders of shape {k.shape} against x of shape {xs.shape}")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                case.deriv(k, xs)
    assert evaluator_calls == []


@pytest.mark.parametrize("cid", T.registry_ids())
def test_a_single_order_may_be_an_int_an_int64_or_a_0d_array(cid):
    # the f' families take order 0 (the function itself) in a branch of its own, which a 0-d order once missed
    case = T.make_case(cid)
    x = case.x_start + np.array([0.4, 1.3, 7.0])
    for k in range(3):
        want = np.concatenate(case.deriv(k, x, radius=True)).tobytes()
        for form in (np.int64(k), np.array(k)):
            assert np.concatenate(case.deriv(form, x, radius=True)).tobytes() == want, (k, type(form))


@pytest.mark.parametrize("cid", T.registry_ids())
def test_scalar_and_array_x_outside_the_interval_give_one_quiet_outcome(cid):
    case = T.make_case(cid)
    for x in (0.0, -0.0, -0.5):
        for k in range(3):
            scalar = _deriv_outcome(case, k, x)
            assert scalar == _deriv_outcome(case, k, np.array([x])), (x, k)
    if cid.startswith("thm2.1"):
        assert _deriv_outcome(case, 1, 0.0) == "DomainError: psi_n requires finite x in (0, inf), got 0.0"


# ---------------------------------------------------------------------------
# the radius of each derivative row: a true bound, and the verdict's threshold
# ---------------------------------------------------------------------------


def _mp_moment(k, y, q):
    """The k-th derivative of the first moment -q^y log q / (1 - q^y); order -1 is log((1-q^y)/(1-q)).

    At q = None, the classical (-1)^k k! / y^(k+1), and log y at order -1.
    """
    if q is None:
        return mp.log(y) if k == -1 else (-1) ** k * mp.factorial(k) / y ** (k + 1)
    lq = mp.log(q)
    if k == -1:
        return mp.log(-mp.expm1(y * lq) / -mp.expm1(lq))
    return -lq ** (k + 1) * _li_neg(k, y * lq)


def _mp_psi(k, y, q):
    return mp.polygamma(k, y) if q is None else _psi_q_n_reference(k, y, q)


def _mp_h(k, y, alpha, q):
    """The k-th derivative (k >= 1) of thm2.2's h; thm2.1's at q = None."""
    return alpha * _mp_moment(k - 1, y, q) + _mp_psi(k - 1, y, q) - _mp_moment(k - 2, y, q)


def _row_reference(case, k, x):
    """f^(k)(x) of the case at its parameters, to 40 digits, x exact."""
    with mp.workdps(40):
        x = mp.mpf(x)
        p = {key: tuple(map(mp.mpf, v)) if isinstance(v, tuple) else mp.mpf(v) for key, v in case.params.items()}
        q = p.get("q")
        if case.id == "psi-prime":
            return mp.polygamma(k, x)
        if case.id == "thm2.2":
            return _mp_h(k, x, p["alpha"], q)
        if case.id == "thm3.2":
            a, b, c = p["a"], p["b"], p["c"]
            return _mp_psi(k - 1, x + a, q) - _mp_psi(k - 1, x + b, q) + (b - a) * _mp_psi(k, x + c, q)
        if case.id == "thm3.1":
            alpha = p["alpha"]
            return _mp_psi(k, x, q) - alpha ** k * _mp_psi(k, alpha * x, q ** (1 / alpha))
        if case.id == "thm4.1-mean":
            a = p["a_list"]
            return mp.fsum(_mp_psi(k - 1, x + ai, q) for ai in a) - len(a) * _mp_psi(k - 1, x + mp.fsum(a) / len(a), q)
        # cor3.6: the difference at s and 1 of thm2.1's h at alpha = 1/2 minus psi'(y + alpha)/12
        g = lambda y: _mp_h(k, y, mp.mpf(0.5), None) - _mp_psi(k + 1, y + p["alpha"], None) / 12
        return g(x + p["s"]) - g(x + 1)


# every kind of closure: evaluators at x, at shifts x + a (thm3.2), at a scaled alpha x with a
# rounded coefficient alpha^k (thm3.1), at a shift by the rounded mean of a_list (thm4.1-mean), and
# shifts of shifts, x + s + alpha with alpha < 0 (cor3.6); classical moments in thm2.1's family
_RADIUS_CASES = [("thm2.2", {}), ("thm2.2", {"q": 0.99}), ("thm3.2", {}), ("thm3.2", {"q": 0.99}),
                 ("psi-prime", {}), ("thm3.1", {}), ("thm4.1-mean", {"a_list": (0.3, 0.7, 2.9)}),
                 ("cor3.6", {"alpha": -0.04})]


@pytest.mark.parametrize("cid, params", _RADIUS_CASES)
def test_row_radius_covers_the_error_against_40_digits(cid, params):
    case = T.make_case(cid, **params)
    xs = case.grid.xs()[[0, 4, 11, 20]]
    orders = case.directions()[0][2] + np.array([[0], [1], [4], [8]])
    values, radius = case.deriv(orders, xs, radius=True)
    for k, row, rad in zip(orders.ravel().tolist(), values, radius):
        for x, v, r in zip(xs.tolist(), row.tolist(), rad.tolist()):
            err = abs(mp.mpf(v) - _row_reference(case, k, x))
            assert err <= r, (k, x, v, r, err)
            assert r <= 1e-11 * max(1.0, abs(v)), (k, x, v, r)


@pytest.mark.parametrize("cid, params", _RADIUS_CASES)
def test_row_moved_by_twice_its_threshold_violates(cid, params):
    # a CM case's rows pass; placing one signed row value at twice its threshold below zero is
    # a certified violation there, at half of it the check stays consistent
    case = T.make_case(cid, **params)
    (label, sign, base), = case.directions()
    orders, xs = _rows(case)
    values, radius = case.deriv(orders, xs, radius=True)
    assert check_rows(case.grid, sign * values, radius, include_order_zero=False).verdict == CONSISTENT
    for n, p in ((1, 0), (4, 11), (8, 20)):
        # check_rows' tolerances default to 0: the threshold at the moved value is its radius alone
        threshold = radius[n, p]
        for scale, verdict in ((2.0, VIOLATES), (0.5, CONSISTENT)):
            moved = sign * values.copy()
            moved[n, p] = (-1) ** (n + 1) * scale * threshold  # the signed value (-1)^n row is -scale * threshold
            rep = check_rows(case.grid, moved, radius, include_order_zero=False)
            assert rep.verdict == verdict, (n, p, scale)
            if verdict == VIOLATES:
                assert rep.witness == (float(xs[p]), 0.0, n)
