"""Registry contents, kernel-function transcription consistency, and the full
verdict sweep.

The transcription checks are the dual route: each case's analytic derivative
(built from the special-function primitives) is compared against the discrete
mass sum of its proof kernel (q < 1), or against Lebesgue quadrature of the
same integrand (q = 1).  Agreement validates both sides independently.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qgamma import kernels as K
from qgamma import theorems as T
from qgamma.cmcheck import CONSISTENT, VIOLATES
from qgamma.special import ConvergenceError, DomainError

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
    assert by_id["thm3.1"].include_order_zero
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
    order = 0 if case.rep_target == "f" else 1
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
