"""Finite-difference CM machinery: exact difference identities, soundness on
functions with known monotonicity class, and the constrained-product sweep."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgamma import cmcheck as cm
from qgamma.special import DomainError, psi_n, psi_q_n

GRID = cm.GridSpec(0.1, 20.0, 21, "geometric")


# ---------------------------------------------------------------------------
# forward differences
# ---------------------------------------------------------------------------


def test_forward_difference_constant():
    for n in range(1, 6):
        # exact zero up to the rounding of the binomial-weighted products
        assert abs(cm.forward_difference(lambda x: 3.7, 1.0, 0.5, n)) <= 1e-13


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.integers(min_value=0, max_value=8),
)
def test_forward_difference_exponential_closed_form(x, h, n):
    # Delta_h^n e^{-x} = e^{-x} (e^{-h} - 1)^n, so the alternating sign is exact
    got = cm.forward_difference(lambda u: math.exp(-u), x, h, n)
    want = math.exp(-x) * (math.exp(-h) - 1.0) ** n
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)) + 1e-13
    signed = (-1) ** n * got
    assert signed >= 0.0


def test_forward_difference_validation():
    with pytest.raises(DomainError):
        cm.forward_difference(math.exp, 1.0, 0.0, 2)
    with pytest.raises(DomainError):
        cm.forward_difference(math.exp, 1.0, 0.5, -1)


def test_sine_second_difference_sign_violation():
    found = False
    for x in np.linspace(0.0, 10.0, 50):
        if cm.forward_difference(math.sin, float(x), 0.5, 2) > 1e-6:
            found = True
            break
    assert found


# ---------------------------------------------------------------------------
# check_cm soundness
# ---------------------------------------------------------------------------


def test_known_cm_functions_pass():
    assert cm.check_cm(lambda x: np.exp(-2.0 * x), GRID).verdict == cm.CONSISTENT
    assert cm.check_cm(lambda x: x ** -1.5, GRID).verdict == cm.CONSISTENT
    assert cm.check_cm(lambda x: psi_n(1, x).value, GRID).verdict == cm.CONSISTENT


def test_known_non_cm_functions_fail():
    rep = cm.check_cm(np.sin, cm.GridSpec(0.1, 10.0, 21, "linear"))
    assert rep.verdict == cm.VIOLATES
    # -log is nonnegative-violating only through order 0 on (0.1, 20)
    rep = cm.check_cm(lambda x: -np.log(x), GRID)
    assert rep.verdict == cm.VIOLATES and rep.witness[2] == 0
    # x -> x fails at first order
    rep = cm.check_cm(lambda x: x, GRID)
    assert rep.verdict == cm.VIOLATES and rep.witness[2] == 1
    # x -> -x fails already at order 0 in the convention for bare handles
    rep = cm.check_cm(lambda x: -x, GRID)
    assert rep.verdict == cm.VIOLATES and rep.witness[2] == 0


def test_check_cm_analytic_derivative_rows():
    # e^{-x} passes every difference test, so feeding deliberately wrong
    # derivative values must be caught through the analytic rows (h = 0)
    rep = cm.check_cm(
        lambda x: np.exp(-x),
        GRID,
        derivs=lambda k, x: np.exp(-x),  # wrong sign at odd orders
        include_order_zero=True,
    )
    assert rep.verdict == cm.VIOLATES and rep.witness[1] == 0.0 and rep.witness[2] == 1


def test_check_cm_report_fields_and_determinism():
    rep1 = cm.check_cm(lambda x: np.exp(-x), GRID, case_id="exp")
    rep2 = cm.check_cm(lambda x: np.exp(-x), GRID, case_id="exp")
    assert rep1 == rep2
    assert rep1.case_id == "exp"
    assert set(rep1.per_order_worst) == set(range(0, GRID.max_order + 1))
    assert rep1.worst_violation >= -rep1.worst_threshold
    # verdict invariant: violates iff worst falls below its own threshold
    assert (rep1.verdict == cm.VIOLATES) == (rep1.worst_violation < -rep1.worst_threshold)


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        cm.GridSpec(2.0, 1.0)
    with pytest.raises(DomainError):
        cm.GridSpec(0.1, 1.0, points=1)
    with pytest.raises(DomainError):
        cm.GridSpec(0.1, 1.0, h_set=(0.0,))
    with pytest.raises(DomainError):
        cm.GridSpec(-1.0, 1.0, spacing="geometric")
    with pytest.raises(DomainError):
        cm.GridSpec(0.1, 1.0, spacing="cubic")
    xs = cm.GridSpec(-1.0, 1.0, points=5, spacing="linear").xs()
    assert xs[0] == -1.0 and xs[-1] == 1.0


# ---------------------------------------------------------------------------
# difference CM
# ---------------------------------------------------------------------------


def test_difference_of_cm_function_consistent():
    rep = cm.check_difference_cm(lambda x: 1.0 / x, 1.0, GRID)
    assert rep.verdict == cm.CONSISTENT


def test_difference_of_q_psi_prime_consistent():
    rep = cm.check_difference_cm(lambda x: psi_q_n(1, x, 0.5).value, 0.5, GRID)
    assert rep.verdict == cm.CONSISTENT


def test_difference_check_is_one_directional():
    # x -> x is not CM, yet its difference is the constant -a with vanishing
    # higher differences, so the difference test cannot refute it
    rep = cm.check_difference_cm(lambda x: x, 1.0, GRID)
    assert rep.verdict == cm.CONSISTENT


def test_difference_requires_positive_shift():
    with pytest.raises(DomainError):
        cm.check_difference_cm(lambda x: 1.0 / x, 0.0, GRID)


# ---------------------------------------------------------------------------
# constrained-product margin sweep
# ---------------------------------------------------------------------------


def test_gautschi_sum_margin_base_case():
    assert abs(cm.gautschi_sum_check(1, 100, seed=7)) <= 1e-12


def test_gautschi_sum_margin_positive():
    for n in (2, 5, 8):
        assert cm.gautschi_sum_check(n, 5000, seed=11) >= -1e-12


def test_gautschi_sum_determinism_and_domain():
    assert cm.gautschi_sum_check(3, 1000, seed=5) == cm.gautschi_sum_check(3, 1000, seed=5)
    assert cm.gautschi_sum_check(3, 1000, seed=5) != cm.gautschi_sum_check(3, 1000, seed=6)
    with pytest.raises(DomainError):
        cm.gautschi_sum_check(9, 10, seed=0)
    with pytest.raises(DomainError):
        cm.gautschi_sum_check(0, 10, seed=0)
