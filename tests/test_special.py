"""Oracle and invariant tests for the gamma / q-gamma / psi evaluators.

Expected values are either closed forms, high-precision references computed
with mpmath, or independent brute-force oracles (partial products, partial
sums, quadrature, finite differences) evaluated inside the tests.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from qgamma import special as sp

mp.mp.dps = 30

EULER_GAMMA = 0.5772156649015329
PI2_OVER_6 = 1.6449340668482264


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_qvalue_range():
    assert sp.QValue(0.5).q == 0.5
    assert sp.QValue(1.0).is_classical
    assert not sp.QValue(0.999999).is_classical
    for bad in (0.0, -0.1, 1.0000001, float("nan")):
        with pytest.raises(sp.DomainError):
            sp.QValue(bad)


def test_eval_config_validation():
    sp.EvalConfig(rel_tol=1e-10)
    with pytest.raises(sp.DomainError):
        sp.EvalConfig(rel_tol=0.0)
    # the q range is all of (0, 1]: no cap, as a setting or as a module constant
    with pytest.raises(TypeError):
        sp.EvalConfig(q_series_max=0.9)
    assert not hasattr(sp, "Q_SERIES_MAX")
    for q in (1.0 - 1e-6, math.nextafter(1.0 - 1e-6, 1.0), 1.0 - 1e-12, math.nextafter(1.0, 0.0)):
        assert sp.psi_q(1.0, q).converged


def test_euler_gamma_partial_sum_oracle():
    # midpoint-accelerated form of lim (sum 1/k - log n); plain log n converges
    # only like 1/(2n), the log(n + 1/2) variant like 1/(24 n^2)
    n = 2_000_000
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float)))
    limit = harmonic - math.log(n + 0.5)
    assert abs(sp.EULER_GAMMA - limit) < 1e-12


# ---------------------------------------------------------------------------
# classical log-gamma / psi / polygamma
# ---------------------------------------------------------------------------


def test_bernoulli_coefficients_are_the_literal_quotients():
    # each table is the float of an exact quotient of one Bernoulli source;
    # these are the hand-typed literals it replaced, equal bit for bit
    assert sp._STIRLING_COEF == (
        1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
        -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0, 43867.0 / 244188.0,
    )
    assert sp._STIRLING_NEXT == 174611.0 / 125400.0
    # psi's asymptotic coefficients are the s = 1 member of the polygamma
    # corrections, each within 1 ulp of the exact B_2j / (2j), j = 1..9
    *psi_coefs, _ = sp._zeta_coefs(1)
    for j, (c, (num, den)) in enumerate(zip(psi_coefs, sp._BERNOULLI_EXACT), start=1):
        assert abs(c - num / (den * 2 * j)) <= math.ulp(c), j
    bernoulli = (
        1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
        -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    )
    assert sp._BERNOULLI == bernoulli
    # the Euler-Maclaurin and dilogarithm coefficients divide the rounded B_2j
    assert sp._EM_COEF == tuple(b / math.factorial(2 * j) for j, b in enumerate(bernoulli, start=1))
    assert sp._LI2_COEF == tuple(b / math.factorial(2 * k + 1) for k, b in enumerate(bernoulli, start=1))


def test_log_gamma_trivial_and_frozen():
    assert abs(sp.log_gamma(1.0).value) <= 1e-13
    assert abs(sp.log_gamma(2.0).value) <= 1e-13
    assert abs(sp.log_gamma(0.5).value - 0.57236494292470009) <= 1e-13
    assert abs(sp.log_gamma(1.5).value - (-0.12078223763524522)) <= 1e-13


def test_log_gamma_real_grid_relative_accuracy():
    xs = np.concatenate(
        [np.geomspace(1e-3, 0.98, 25), np.geomspace(1.02, 1.98, 10), np.geomspace(2.02, 170.0, 40)]
    )
    for x in xs:
        want = float(mp.loggamma(mp.mpf(float(x))))
        got = sp.log_gamma(float(x)).value
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-2), x


def test_log_gamma_complex_strip():
    for z in (0.3 + 1j, 1 + 3j, 2.5 - 40j, 0.05 + 100j, 30 + 100j, 7 - 0.1j, 169 + 99j):
        want = mp.loggamma(z)
        got = sp.log_gamma(z).value
        assert abs(got - complex(want.real, want.imag)) <= 1e-12 * max(1.0, abs(want)), z


def test_log_gamma_domain():
    for z in (0.0, -1.0, -0.5 + 2j):
        with pytest.raises(sp.DomainError):
            sp.log_gamma(z)


def test_gamma_wrapper():
    assert abs(sp.gamma(0.5).value - math.sqrt(math.pi)) <= 1e-12
    with pytest.raises(OverflowError):
        sp.gamma(200.0)


def test_psi_frozen_values():
    assert abs(sp.psi(1.0).value - (-EULER_GAMMA)) <= 1e-13
    assert abs(sp.psi(2.0).value - (1.0 - EULER_GAMMA)) <= 1e-13
    assert abs(sp.psi(0.5).value - (-1.9635100260214235)) <= 1e-13
    with pytest.raises(sp.DomainError):
        sp.psi(0.0)


def test_psi_recurrence_and_reference():
    for x in np.geomspace(0.05, 160.0, 30):
        x = float(x)
        assert abs(sp.psi(x + 1.0).value - sp.psi(x).value - 1.0 / x) <= 1e-12 * max(
            1.0, abs(sp.psi(x).value)
        )
        want = float(mp.digamma(mp.mpf(x)))
        assert abs(sp.psi(x).value - want) <= 1e-12 * max(1.0, abs(want))


def test_psi_n_frozen_values():
    assert abs(sp.psi_n(1, 1.0).value - PI2_OVER_6) <= 1e-12
    assert abs(sp.psi_n(2, 1.0).value - (-2.4041138063191886)) <= 1e-12
    for n, x in [(1, 0.1), (2, 3.3), (3, 0.7), (5, 12.0)]:
        want = float(mp.polygamma(n, mp.mpf(x)))
        assert abs(sp.psi_n(n, x).value - want) <= 1e-12 * max(1.0, abs(want))
    with pytest.raises(sp.DomainError):
        sp.psi_n(-1, 1.0)
    with pytest.raises(sp.DomainError):
        sp.psi_n(1, -1.0)


def test_psi_n_asymptotic_consistency():
    x = 100.0
    approx = 1.0 / x + 1.0 / (2.0 * x * x)
    got = sp.psi_n(1, x).value
    assert abs(got - approx) / got < 1e-3


def test_psi_matches_central_difference_of_log_gamma():
    for x in (0.6, 1.7, 9.0):
        h = 1e-5
        diff = (sp.log_gamma(x + h).value - sp.log_gamma(x - h).value) / (2.0 * h)
        assert abs(diff - sp.psi(x).value) <= 1e-6


def test_psi_n_matches_central_difference_of_psi():
    for x in (0.6, 1.7, 9.0):
        h = 1e-5
        diff = (sp.psi(x + h).value - sp.psi(x - h).value) / (2.0 * h)
        assert abs(diff - sp.psi_n(1, x).value) <= 1e-6


# ---------------------------------------------------------------------------
# q-gamma
# ---------------------------------------------------------------------------


def _telescoped_gamma_q(k: int, q: float) -> float:
    # Gamma_q(k) from Gamma_q(1) = 1 and the recurrence factor (1-q^x)/(1-q)
    val = 1.0
    for j in range(1, k):
        val *= -math.expm1(j * math.log(q)) / (1.0 - q)
    return val


def test_log_gamma_q_identity_case():
    res = sp.log_gamma_q(1.0, 0.5)
    assert res.value == 0.0 and res.converged


def test_gamma_q_telescoping_oracle():
    for q in (0.1, 0.5, 0.9):
        for k in (2, 3, 4, 7):
            want = _telescoped_gamma_q(k, q)
            got = sp.gamma_q(float(k), q).value
            assert abs(got - want) <= 1e-12 * want, (k, q)
    assert abs(sp.log_gamma_q(3.0, 0.5).value - math.log(1.5)) <= 1e-13
    assert abs(sp.gamma_q(4.0, 0.5).value - 2.625) <= 1e-12


def test_log_gamma_q_partial_product_oracle():
    x, q = 0.5, 0.9
    n = np.arange(0, 2000, dtype=float)
    oracle = (1.0 - x) * math.log1p(-q) + float(
        np.sum(np.log1p(-(q ** (n + 1.0))) - np.log1p(-(q ** (n + x))))
    )
    res = sp.log_gamma_q(x, q)
    assert abs(res.value - oracle) <= res.abs_error_bound + 1e-14


def test_log_gamma_q_routes_and_domain():
    assert abs(sp.log_gamma_q(3.0, 1.0).value - math.log(2.0)) <= 1e-12
    with pytest.raises(sp.DomainError):
        sp.log_gamma_q(-1.0, 0.5)
    with pytest.raises(sp.DomainError):
        sp.log_gamma_q(1.0, 1.0000001)
    # every q below 1 takes the q-series: log Gamma_q(1) = 0
    res = sp.log_gamma_q(1.0, 0.9999999)
    assert abs(res.value) <= res.abs_error_bound


def test_gamma_q_overflow():
    with pytest.raises(OverflowError):
        sp.gamma_q(3000.0, 0.99)


def test_gamma_q_recurrence_residual():
    for q in (0.1, 0.5, 0.9):
        lq = math.log(q)
        for x in np.linspace(0.1, 20.0, 23):
            x = float(x)
            left = sp.gamma_q(x + 1.0, q).value
            right = -math.expm1(x * lq) / (1.0 - q) * sp.gamma_q(x, q).value
            assert abs(left - right) <= 1e-10 * left, (x, q)


def test_gamma_q_classical_limit_decreasing():
    for x in (0.5, 1.5, 2.5):
        gx = sp.gamma(x).value
        errs = [abs(sp.gamma_q(x, q).value - gx) for q in (0.9, 0.99, 0.999)]
        assert errs[0] > errs[1] > errs[2], (x, errs)


# ---------------------------------------------------------------------------
# q-psi
# ---------------------------------------------------------------------------


def test_psi_q_partial_sum_oracle():
    x, q = 1.0, 0.5
    k = np.arange(1, 201, dtype=float)
    oracle = -math.log1p(-q) + math.log(q) * float(np.sum(q ** (k * x) / (1.0 - q ** k)))
    res = sp.psi_q(x, q)
    assert abs(res.value - oracle) <= res.abs_error_bound + 1e-14


def test_psi_q_matches_log_gamma_q_derivative():
    h = 1e-5
    for x, q in [(0.7, 0.5), (2.3, 0.9), (5.0, 0.2)]:
        diff = (sp.log_gamma_q(x + h, q).value - sp.log_gamma_q(x - h, q).value) / (2 * h)
        assert abs(diff - sp.psi_q(x, q).value) <= 1e-6, (x, q)


def test_psi_q_classical_limit():
    target = sp.psi(2.0).value
    errs = [abs(sp.psi_q(2.0, q).value - target) for q in (0.9, 0.99, 0.999)]
    assert errs[0] > errs[1] > errs[2]
    assert abs(sp.psi_q(2.0, 1.0).value - target) == 0.0


def test_psi_q_representation_consistency():
    # psi_q(x) = -log(1-q) - sum_k mass e^{-x t_k} / (1 - e^{-t_k}), t_k = -k log q
    for x, q in [(0.5, 0.3), (1.0, 0.5), (2.0, 0.8)]:
        lq = math.log(q)
        k = np.arange(1, 4000, dtype=float)
        t = -k * lq
        rep = -math.log1p(-q) - float(np.sum(-lq * np.exp(-x * t) / -np.expm1(-t)))
        res = sp.psi_q(x, q)
        assert abs(res.value - rep) <= res.abs_error_bound + 1e-10, (x, q)


def test_psi_q_n_partial_sum_oracle():
    n, x, q = 1, 1.0, 0.5
    k = np.arange(1, 400, dtype=float)
    oracle = math.log(q) ** 2 * float(np.sum(k * q ** (k * x) / (1.0 - q ** k)))
    res = sp.psi_q_n(n, x, q)
    assert abs(res.value - oracle) <= res.abs_error_bound + 1e-14


def test_psi_q_n_matches_central_difference():
    h = 1e-5
    for x, q in [(0.8, 0.5), (2.0, 0.9)]:
        diff = (sp.psi_q(x + h, q).value - sp.psi_q(x - h, q).value) / (2 * h)
        assert abs(diff - sp.psi_q_n(1, x, q).value) <= 1e-6
        diff2 = (sp.psi_q_n(1, x + h, q).value - sp.psi_q_n(1, x - h, q).value) / (2 * h)
        assert abs(diff2 - sp.psi_q_n(2, x, q).value) <= 1e-6


def test_psi_q_n_first_derivative_positive():
    for q in (0.1, 0.5, 0.9):
        for x in np.geomspace(0.05, 30.0, 12):
            assert sp.psi_q_n(1, float(x), q).value > 0.0
            assert sp.psi_q_n(2, float(x), q).value < 0.0


def test_psi_q_n_classical_route():
    assert sp.psi_q_n(1, 1.0, 1.0).value == sp.psi_n(1, 1.0).value


def test_gamma_q_routes_to_gamma_at_q_one():
    x = np.concatenate([np.geomspace(1e-3, 170.0, 60), [0.5, 1.0, 2.0]])
    for arg in (x, 3.7, x - 2j):
        got, want = sp.gamma_q(arg, 1.0), sp.gamma(arg)
        assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
        assert np.asarray(got.abs_error_bound).tobytes() == np.asarray(want.abs_error_bound).tobytes()
    with pytest.raises(OverflowError, match=r"^Gamma\(300\.0\) exceeds"):
        sp.gamma_q(300.0, 1.0)
    with pytest.raises(OverflowError, match=r"^Gamma_q\(3000\.0, q=0\.99\) exceeds"):
        sp.gamma_q(3000.0, 0.99)


def test_every_polygamma_order_keeps_its_public_name_in_errors():
    # one path serves every order; each public function still validates as its own
    for call, message in [
        (lambda: sp.psi(-1.0), r"^psi requires finite x"),
        (lambda: sp.psi_n(-1, 1.0), r"^psi_n requires order n >= 0, got -1"),
        (lambda: sp.psi_n(2, 0.0), r"^psi_n requires finite x"),
        (lambda: sp.psi_q(-1.0, 1.0), r"^psi requires finite x"),
        (lambda: sp.psi_q(-1.0, 0.5), r"^psi_q requires finite x"),
        (lambda: sp.psi_q_n(-1, 1.0, 1.0), r"^psi_n requires order n >= 0, got -1"),
        (lambda: sp.psi_q_n(-1, 1.0, 0.5), r"^psi_q_n requires order n >= 0, got -1"),
        (lambda: sp.psi_q_n(1, -1.0, 0.5), r"^psi_q_n requires finite x"),
    ]:
        with pytest.raises(sp.DomainError, match=message):
            call()


# ---------------------------------------------------------------------------
# dilogarithm-type series
# ---------------------------------------------------------------------------


def test_dilog_trivial_and_frozen():
    res0 = sp.dilog_F(0.0)
    assert res0.value == 0.0 and res0.terms_used == 0
    assert abs(sp.dilog_F(0.5).value - 0.58224052646501251) <= 1e-13


def test_dilog_at_one_integral_tail():
    res = sp.dilog_F(1.0)
    assert res.converged
    assert abs(res.value - PI2_OVER_6) <= res.abs_error_bound


def test_dilog_quadrature_oracle():
    val, err = quad(lambda t: -math.log1p(-t) / t, 0.0, 0.5, epsabs=1e-13)
    assert err < 1e-11
    assert abs(sp.dilog_F(0.5).value - val) <= 1e-10


def test_dilog_domain():
    for x in (-0.1, 1.1):
        with pytest.raises(sp.DomainError):
            sp.dilog_F(x)


# ---------------------------------------------------------------------------
# measure moments
# ---------------------------------------------------------------------------


def test_measure_moment_closed_forms():
    assert abs(sp.measure_moment(1.0, 0.5) - math.log(2.0)) <= 1e-15
    assert abs(sp.measure_moment_over_t(1.0, 0.5) - math.log(2.0)) <= 1e-15
    assert abs(sp.measure_moment_over_t(2.0, 0.5) - 0.28768207245178093) <= 1e-15


def test_measure_moment_discrete_sum_oracle():
    for x, q in [(1.0, 0.5), (2.0, 0.3), (3.0, 0.5)]:
        lq = math.log(q)
        k = np.arange(1, 61, dtype=float)
        s1 = float(np.sum(-lq * q ** (k * x)))
        s2 = float(np.sum(q ** (k * x) / k))
        assert abs(sp.measure_moment(x, q) - s1) <= 1e-10
        assert abs(sp.measure_moment_over_t(x, q) - s2) <= 1e-10


def test_measure_moment_decays():
    xs = np.geomspace(0.5, 200.0, 12)
    vals = [sp.measure_moment(float(x), 0.5) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-30


def test_measure_moment_domain():
    with pytest.raises(sp.DomainError):
        sp.measure_moment(1.0, 1.0)
    with pytest.raises(sp.DomainError):
        sp.measure_moment_over_t(-1.0, 0.5)


def _moment_reference(k, x, q):
    """The k-th derivative of -q^x log q / (1 - q^x) at exact x and q, to 40 digits; order -1 is log((1-q^x)/(1-q)).

    At q = 1, the classical (-1)^k k! / x^(k+1), and log x at order -1.
    """
    with mp.workdps(40):
        x, q = mp.mpf(x), mp.mpf(q)
        if q == 1:
            return mp.log(x) if k == -1 else (-1) ** k * mp.factorial(k) / x ** (k + 1)
        lq = mp.log(q)
        if k == -1:
            return mp.log(-mp.expm1(x * lq) / -mp.expm1(lq))
        return -lq ** (k + 1) * _li_neg(k, x * lq)


# (q, orders, abscissae) at which _moment's bound is checked: the classical forms at
# orders 0..20 on log-uniform x in [1e-6, 1e6], where every power x^-(k+1) is normal;
# order -1 at q = 0.5, 0.99, 1 there, and on test_theorems' log-scale grid at each of
# its q; orders 0..8 of the q-forms; the classical forms at orders 0..59 on log-uniform
# x in [1e-3, 1e16], where many powers are subnormal or flushed to 0 (at x = 1e15,
# k = 20 the value 2.4e-297 is off by 3.7e-306, far past 4 ulps of it)
_LOG_UNIFORM_XS = tuple(np.exp(np.random.default_rng(30).uniform(math.log(1e-6), math.log(1e6), 60)).tolist())
_UNDERFLOW_XS = (1e15, *np.exp(np.random.default_rng(31).uniform(math.log(1e-3), math.log(1e16), 60)).tolist())
_LOG_SCALE_XS = tuple(np.concatenate([np.geomspace(1e-3, 1e3, 301), [0.5, 1.0, 2.0]]).tolist())
_MOMENT_BOUND_CASES = [
    (1.0, range(21), _LOG_UNIFORM_XS),
    *((q, (-1,), _LOG_UNIFORM_XS) for q in (0.5, 0.99, 1.0)),
    *((q, (-1,), _LOG_SCALE_XS) for q in (0.01, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6)),
    *((q, range(9), _LOG_UNIFORM_XS[:20]) for q in (0.5, 0.99)),
    (1.0, range(60), _UNDERFLOW_XS),
]


@pytest.mark.parametrize("q, orders, xs", _MOMENT_BOUND_CASES)
def test_moment_bound_covers_its_error_against_40_digits(q, orders, xs):
    # the rounding the bound models is really there: some error is nonzero at every order,
    # so a closed form's ulp model set to 0 fails here
    x = np.array(xs)
    lq = math.log(q)
    for k in orders:
        value, bound = sp._moment(k, x, lq)
        errs = [abs(mp.mpf(v) - _moment_reference(k, xi, q)) for xi, v in zip(xs, value.tolist())]
        for xi, v, b, err in zip(xs, value.tolist(), bound.tolist(), errs):
            assert err <= b, (q, k, xi, v, b, float(err))
        assert max(errs) > 0, (q, k)
    if -1 in orders:  # the q-number [1]_q is 1: its log is 0 exactly
        assert sp._moment(-1, 1.0, lq)[0] == 0.0


@pytest.mark.parametrize("x", [5e-324, 1e-320])
@pytest.mark.parametrize("q", [0.5, 0.9])
def test_measure_moment_at_subnormal_x(x, q):
    # the moment ~ 1/x lies beyond float64; -log(1 - q^x) ~ -log(x |log q|) does not,
    # even where x log q is subnormal or underflows to zero
    with pytest.raises(OverflowError):
        sp.measure_moment(x, q)
    if x * math.log(q) == 0.0:  # 1 - q^x is 0: the moment's own underflow check names it
        with pytest.raises(OverflowError, match="q-series term at t log q"):
            sp.measure_moment(x, q)
    with mp.workdps(40):
        want = -mp.log(-mp.expm1(mp.mpf(x) * mp.log(mp.mpf(q))))
    got = sp.measure_moment_over_t(x, q)
    assert math.isfinite(got)
    assert abs(got - float(want)) <= 4e-16 * float(want)


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------


def _converged_invariant(res, cfg):
    # converged is the truncation's verdict, and a truncation that misses raises: every result converged
    assert res.converged


def test_series_result_invariants():
    cfg = sp.DEFAULT_CONFIG
    samples = [
        sp.log_gamma_q(0.7, 0.9, cfg),
        sp.gamma_q(2.5, 0.5, cfg),
        sp.psi_q(0.7, 0.9, cfg),
        sp.psi_q_n(2, 0.7, 0.9, cfg),
        sp.dilog_F(0.9, cfg),
        sp.psi(3.3, cfg),
        sp.psi_n(1, 3.3, cfg),
        sp.log_gamma(3.3, cfg),
    ]
    for res in samples:
        _converged_invariant(res, cfg)


@pytest.mark.parametrize("call", [lambda cfg: sp.log_gamma(3.3, cfg), lambda cfg: sp.psi_q(0.7, 0.9, cfg),
                                  lambda cfg: sp.psi_n(np.array([[1], [4]]), np.array([0.5, 3.0]), cfg)])
def test_converged_reads_the_truncation_not_the_rounding(call):
    # at rel_tol 1e-15 the truncation still meets the tolerance while the rounding part of
    # the bound exceeds it: the result has converged
    res = call(sp.EvalConfig(rel_tol=1e-15))
    assert res.converged
    assert np.any(res.abs_error_bound > 1e-15 * np.maximum(1.0, np.abs(res.value)))


def test_error_honesty_under_tightening():
    loose = sp.EvalConfig(rel_tol=1e-10)
    tight = sp.EvalConfig(rel_tol=5e-11)
    pairs = [
        (sp.log_gamma_q(0.7, 0.9, loose), sp.log_gamma_q(0.7, 0.9, tight)),
        (sp.psi_q(0.7, 0.9, loose), sp.psi_q(0.7, 0.9, tight)),
        (sp.psi_q_n(1, 0.7, 0.9, loose), sp.psi_q_n(1, 0.7, 0.9, tight)),
        (sp.dilog_F(0.9, loose), sp.dilog_F(0.9, tight)),
        (sp.gamma_q(0.7, 0.9, loose), sp.gamma_q(0.7, 0.9, tight)),
    ]
    for a, b in pairs:
        assert abs(a.value - b.value) <= a.abs_error_bound


def test_gamma_ratio_asymptotic_sanity():
    # z^{b-a} Gamma(z+a)/Gamma(z+b) - 1 - (a-b)(a+b+1)/(2z) shrinks at least
    # as fast as 1/z between z = 400 and z = 200
    for a, b in [(0.3, 0.7), (0.0, 1.0)]:
        def residual(z):
            ratio = math.exp(
                (b - a) * math.log(z) + sp.log_gamma(z + a).value - sp.log_gamma(z + b).value
            )
            return ratio - 1.0 - (a - b) * (a + b + 1.0) / (2.0 * z)

        assert abs(residual(200.0)) <= 4.0 * abs(residual(400.0)) + 1e-13, (a, b)


# ---------------------------------------------------------------------------
# 40-digit oracles: every reported abs_error_bound covers the actual error
# ---------------------------------------------------------------------------
#
# The q-series references are high-order Euler-Maclaurin sums in mpmath: 30
# direct terms, the closed-form tail integral and 12 Bernoulli corrections,
# with the polylogarithms of negative order written through Stirling numbers
# (remainder below 1e-30 for every q).
# mpmath.nsum extrapolates these slowly decaying series to wrong values and
# mpmath.qgamma does not converge near q = 1, so neither is used.  The
# references are themselves checked against plain direct sums where those
# are affordable.

ORACLE_XS = (0.05, 0.37, 1.0, 1.4616321449683622, 2.9, 9.5, 30.0)
# x log q is subnormal here for q near 1; only term 0 can be
TINY_XS = (1e-300, 1e-305, 5e-308, 1e-308)
ORACLE_QS = (0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6,
             1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0 ** -52, math.nextafter(1.0, 0.0))


def _em_reference(deriv, x, direct=30, order=12):
    """sum_{i>=0} f(x+i) for f^(k)(t) = deriv(k, t); deriv(-1, t) is int_t^inf f."""
    with mp.workdps(40):
        total = mp.fsum(deriv(0, x + i) for i in range(direct))
        t = x + direct
        total += deriv(-1, t) + deriv(0, t) / 2
        for j in range(1, order + 1):
            total -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * deriv(2 * j - 1, t)
        return total


def _li_neg(m, e):
    """Li_{-m}(z) at z = exp(e) = sum_j j! S(m+1, j+1) (z/(1-z))^{j+1}, S the Stirling numbers of the second kind.

    1 - z is -expm1(e): at a tiny e, 1 - exp(e) would round to 0 even at 40 digits.
    """
    u = mp.exp(e) / -mp.expm1(e)
    return mp.fsum(mp.factorial(j) * mp.stirling2(m + 1, j + 1) * u ** (j + 1) for j in range(m + 1))


def _psi_q_n_reference(n, x, q):
    """psi_q^(n)(x) = [n=0](-log(1-q)) + log q sum_{i>=0} (log q)^n Li_{-n}(q^{x+i})."""
    with mp.workdps(40):
        x, q = mp.mpf(x), mp.mpf(q)
        lq = mp.log(q)

        def g(k, t):
            m = n + k
            if m == -1:
                return mp.log(-mp.expm1(t * lq)) / lq
            val = lq ** m * _li_neg(m, t * lq)
            return -val if k == -1 else val

        base = -mp.log1p(-q) if n == 0 else 0
        return base + lq * _em_reference(g, x)


def _log_gamma_q_reference(x, q):
    """(1-x) log(1-q) + sum_{n>=0} [l(n+x) - l(n+1)], l(s) = -log(1-q^s)."""
    with mp.workdps(40):
        x, q = mp.mpf(x), mp.mpf(q)
        lq = mp.log(q)

        def ell(k, s):
            if k == -1:
                return mp.polylog(2, mp.exp(s * lq)) / -lq
            if k == 0:
                return -mp.log(-mp.expm1(s * lq))
            return lq ** k * _li_neg(k - 1, s * lq)

        phi = lambda k, t: ell(k, t + x) - ell(k, t + 1)
        return (1 - x) * mp.log1p(-q) + _em_reference(phi, mp.mpf(0))


def _assert_within_bound(res, ref, label):
    err = abs(mp.mpf(res.value) - ref)
    assert err <= res.abs_error_bound, (label, float(err), res.abs_error_bound)


def test_em_references_match_direct_sums():
    with mp.workdps(40):
        for x, q in [(0.37, 0.5), (2.9, 0.9), (0.05, 0.1)]:
            xm, qm = mp.mpf(x), mp.mpf(q)
            lq = mp.log(qm)
            ms = range(1200)  # q^1200 < 1e-50 for every q here
            for n in (0, 1, 4):
                direct = mp.fsum(mp.polylog(-n, mp.exp((xm + m) * lq)) for m in ms)  # mpmath's own
                want = (-mp.log1p(-qm) if n == 0 else 0) + lq ** (n + 1) * direct
                assert abs(_psi_q_n_reference(n, x, q) - want) <= mp.mpf(10) ** -30 * (1 + abs(want))
            prod = mp.fsum(mp.log(-mp.expm1((m + 1) * lq)) - mp.log(-mp.expm1((m + xm) * lq))
                           for m in ms)
            want = (1 - xm) * mp.log1p(-qm) + prod
            assert abs(_log_gamma_q_reference(x, q) - want) <= mp.mpf(10) ** -30 * (1 + abs(want))


@pytest.mark.parametrize("q", ORACLE_QS)
def test_q_series_within_bounds_against_oracle(q):
    for x in ORACLE_XS + TINY_XS:
        lg_ref = _log_gamma_q_reference(x, q)
        checks = [(lambda n=n: sp.psi_q_n(n, x, q), lambda n=n: _psi_q_n_reference(n, x, q), ("psi_q_n", n))
                  for n in range(6)]
        checks += [(lambda: sp.psi_q(x, q), lambda: _psi_q_n_reference(0, x, q), ("psi_q",)),
                   (lambda: sp.log_gamma_q(x, q), lambda: lg_ref, ("log_gamma_q",)),
                   (lambda: sp.gamma_q(x, q), lambda: mp.exp(lg_ref), ("gamma_q",))]
        for call, ref, label in checks:
            try:
                res = call()
            except OverflowError:  # only where the value leaves the float64 range, or x log q rounds to 0
                assert abs(ref()) > sys.float_info.max or x * math.log(q) == 0.0, (label, x, q)
                continue
            _assert_within_bound(res, ref(), (*label, x, q))


@pytest.mark.parametrize("x, q", [(5e-308, 0.9), (1e-300, 1.0 - 1e-9)])
def test_psi_q_is_finite_where_x_log_q_is_subnormal(x, q):
    # g(x) = q^x/(1-q^x) alone is beyond float64 here; psi_q(x) ~ -1/x is not
    res = sp.psi_q(x, q)
    assert math.isfinite(res.value) and math.isfinite(res.abs_error_bound), res
    _assert_within_bound(res, _psi_q_n_reference(0, x, q), ("psi_q", x, q))


@pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11, 1e-12])
def test_q_to_one_follows_the_first_order_expansion(eps):
    # log Gamma_q(x) = log Gamma(x) - eps (x-1)(x-2)/4 + O(eps^2), eps = 1 - q (Moak 1984),
    # so psi_q(x) = psi(x) + eps (3/2 - x)/2 + O(eps^2): the rates hold to within the two
    # bounds over eps and an eps^2 term of degree 4 in x
    q = 1.0 - eps
    eps = 1.0 - q  # exact
    for x in (0.05, 0.5, 1.3, 2.9, 7.0):
        room = eps * (1.0 + x) ** 4
        for got, classical, rate in [(sp.psi_q(x, q), sp.psi(x), (1.5 - x) / 2.0),
                                     (sp.log_gamma_q(x, q), sp.log_gamma(x), -(x - 1.0) * (x - 2.0) / 4.0)]:
            slack = (got.abs_error_bound + classical.abs_error_bound) / eps + room
            assert abs((got.value - classical.value) / eps - rate) <= slack, (x, eps, rate)


def test_q_series_far_range_within_bounds_against_oracle():
    # large x with small q: values underflow or (1-x) log(1-q) dominates
    for q in (1e-5, 0.3, 0.95, 1.0 - 1e-6):
        for x in (300.0, 1e5):
            _assert_within_bound(sp.psi_q(x, q), _psi_q_n_reference(0, x, q), ("psi_q", x, q))
            _assert_within_bound(sp.psi_q_n(2, x, q), _psi_q_n_reference(2, x, q), ("psi_q_n", x, q))
            _assert_within_bound(sp.log_gamma_q(x, q), _log_gamma_q_reference(x, q), ("lgq", x, q))


def test_dilog_within_bounds_against_oracle():
    xs = [k / 64.0 for k in range(65)] + [1e-300, 1e-8, 0.4999999, 0.5000001, 1.0 - 1e-9]
    with mp.workdps(40):
        for x in xs:
            res = sp.dilog_F(x)
            _assert_within_bound(res, mp.polylog(2, mp.mpf(x)), ("dilog_F", x))
            assert type(res.value) is float and type(res.abs_error_bound) is float
            assert res.converged


def test_log_gamma_within_bounds_against_oracle():
    xs = list(np.linspace(0.0, 5.0, 37)[1:]) + list(np.geomspace(1e-3, 170.0, 40))
    zs = [0.3 + 1j, 1 + 3j, 2.5 - 40j, 0.05 + 100j, 30 + 100j, 7 - 0.1j, 96.2 + 0.5j]
    with mp.workdps(40):
        for x in xs:
            _assert_within_bound(sp.log_gamma(float(x)), mp.loggamma(mp.mpf(float(x))), x)
        for z in zs:
            res = sp.log_gamma(z)
            ref = mp.loggamma(mp.mpc(z))
            err = abs(mp.mpc(res.value) - ref)
            assert err <= res.abs_error_bound, (z, float(err), res.abs_error_bound)


PSI_ROOT = 1.4616321449683622  # the positive zero of psi


def test_psi_within_bounds_against_oracle():
    # psi at 2.4966... and psi_n(3, 0.00388735) exceeded the fixed rounding
    # term 1e-15 max(1, |value|) the bound once had
    xs = list(np.linspace(0.0, 5.0, 37)[1:]) + list(np.geomspace(1e-3, 170.0, 40))
    xs += [2.496636486606825, 0.00388735]
    with mp.workdps(40):
        for x in xs:
            _assert_within_bound(sp.psi(float(x)), mp.psi(0, mp.mpf(float(x))), ("psi", x))
            for n in range(1, 6):
                res = sp.psi_n(n, float(x))
                _assert_within_bound(res, mp.psi(n, mp.mpf(float(x))), ("psi_n", n, x))
    # psi's terms change sign: tiny x, where every partial sum is near 1/x, far x,
    # and around the root, where the result is far below its partial sums
    far = np.concatenate([np.geomspace(1e-6, 1e8, 400), PSI_ROOT + np.linspace(-0.2, 0.2, 401),
                          PSI_ROOT + np.arange(-20, 21) * 2.0 ** -52])
    res = sp.psi(far)
    with mp.workdps(40):
        for x, v, b in zip(far, res.value, res.abs_error_bound):
            err = abs(mp.mpf(float(v)) - mp.digamma(mp.mpf(float(x))))
            assert err <= b, ("psi", float(x), float(err), float(b))


def test_tiny_arguments_keep_finite_bounds_against_oracle():
    # the first term, ~1/x or ~1/x^2, is near the top of float64: its rounding
    # budget in ulps would overflow, the budget scaled by u does not
    with mp.workdps(40):
        lq = mp.log(mp.mpf(0.5))
        for n, x in ((0, 1e-308), (1, 1.2e-154)):
            classical = sp.psi(x) if n == 0 else sp.psi_n(n, x)
            deformed = sp.psi_q(x, 0.5) if n == 0 else sp.psi_q_n(n, x, 0.5)
            # psi_q^(n)(x) = psi_q^(n)(x + 1) + log q g^(n)(x), g(t) = q^t/(1-q^t); x + 1 is taken
            # as 1, which moves the reference by about x, far below the bound
            e = mp.mpf(x) * lq
            g = mp.exp(e) / -mp.expm1(e) if n == 0 else lq * mp.exp(e) / mp.expm1(e) ** 2
            for res, ref in ((classical, mp.psi(n, mp.mpf(x))),
                             (deformed, _psi_q_n_reference(n, 1.0, 0.5) + lq * g)):
                assert math.isfinite(res.value) and math.isfinite(res.abs_error_bound), (n, x, res)
                _assert_within_bound(res, ref, (n, x))


def test_q_series_cost_does_not_depend_on_q():
    near_one = 1.0 - 1e-6
    for x in (0.05, 1.3, 30.0):
        for f in (lambda q: sp.psi_q(x, q), lambda q: sp.psi_q_n(3, x, q),
                  lambda q: sp.log_gamma_q(x, q), lambda q: sp.gamma_q(x, q)):
            assert f(0.5).terms_used == f(near_one).terms_used
    assert sp.dilog_F(0.1).terms_used == sp.dilog_F(0.999999).terms_used


def test_q_series_cap_and_tolerance_raise():
    # no fixed-cost scheme certifies 1e-30 relative
    with pytest.raises(sp.ConvergenceError):
        sp.psi_q(1.0, 0.999, sp.EvalConfig(rel_tol=1e-30))


@pytest.mark.parametrize(
    "fn,call",
    [
        ("log_gamma", lambda cfg: sp.log_gamma(2.0, cfg)),
        ("log_gamma", lambda cfg: sp.log_gamma(2.0 + 3.0j, cfg)),
        ("log_gamma", lambda cfg: sp.gamma(2.0, cfg)),
        ("psi", lambda cfg: sp.psi(np.array([1e300, 2.0]), cfg)),
        ("psi_n", lambda cfg: sp.psi_n(3, 2.0, cfg)),
    ],
)
def test_classical_evaluators_raise_when_truncation_misses_rel_tol(fn, call):
    # the same check as the q-series: truncation bound <= rel_tol * max(1, |value|)
    with pytest.raises(sp.ConvergenceError, match=f"^{fn} truncation bound .* misses rel_tol=1e-300"):
        call(sp.EvalConfig(rel_tol=1e-300))
    # a looser tolerance is met, and the returned bound does not depend on rel_tol
    loose = call(sp.EvalConfig(rel_tol=1e-6))
    assert loose.converged
    assert np.array_equal(loose.abs_error_bound, call(sp.DEFAULT_CONFIG).abs_error_bound)


def test_non_finite_arguments_are_domain_errors():
    calls = [
        lambda v: sp.log_gamma(v), lambda v: sp.gamma(v), lambda v: sp.psi(v),
        lambda v: sp.psi_n(2, v), lambda v: sp.log_gamma_q(v, 0.5), lambda v: sp.gamma_q(v, 0.5),
        lambda v: sp.psi_q(v, 0.5), lambda v: sp.psi_q_n(1, v, 0.5), lambda v: sp.dilog_F(v),
        lambda v: sp.measure_moment(v, 0.5), lambda v: sp.measure_moment_over_t(v, 0.5),
        lambda v: sp.psi_q(1.0, v), lambda v: sp.log_gamma(complex(1.0, v)),
    ]
    for call in calls:
        for v in (math.inf, -math.inf, math.nan):
            with pytest.raises(sp.DomainError):
                call(v)


def test_tiny_argument_gives_value_or_typed_error():
    for q in (0.5, 1.0 - 1e-6):
        assert sp.psi_q(1e-300, q).value == pytest.approx(-1e300, rel=1e-12)
        for n in (1, 2):
            with pytest.raises(OverflowError):
                sp.psi_q_n(n, 1e-300, q)
        # Gamma_q(x) ~ (1-q) / (x |log q|) as x -> 0
        near_zero = -math.log(1e-300) + math.log((1.0 - q) / -math.log(q))
        assert sp.log_gamma_q(1e-300, q).value == pytest.approx(near_zero, rel=1e-12)
