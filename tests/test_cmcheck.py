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


_ORDERS = np.arange(GRID.max_order + 1)[:, None]


def test_check_cm_analytic_derivative_rows():
    # the rows of e^{-x} pass; the same rows with the wrong sign at odd orders are caught at order 1 (h = 0)
    xs = GRID.xs()
    rep = cm.check_rows(GRID, (-1.0) ** _ORDERS * np.exp(-xs), 0.0)
    assert rep.verdict == cm.CONSISTENT and set(rep.per_order_worst) == set(range(GRID.max_order + 1))
    assert rep.evaluations == (GRID.max_order + 1) * GRID.points
    rep = cm.check_rows(GRID, np.exp(-xs), 0.0)
    assert rep.verdict == cm.VIOLATES and rep.witness == (float(xs[0]), 0.0, 1)
    # order 0 only when asked for: -e^{-x} fails there and nowhere else
    values = -((-1.0) ** _ORDERS) * np.exp(-xs)
    assert cm.check_rows(GRID, values, 0.0, include_order_zero=False).verdict == cm.VIOLATES
    rep = cm.check_rows(GRID, np.where(_ORDERS == 0, -1.0, 0.0) * np.exp(-xs), 0.0)
    assert rep.verdict == cm.VIOLATES and rep.witness[2] == 0 and set(rep.per_order_worst) == {*range(9)}
    # the options after the tolerances are keywords: rows passed where check_cm once took them fail loudly
    with pytest.raises(TypeError):
        cm.check_cm(lambda x: np.exp(-x), GRID, 1e-9, 1e-9, (np.exp(-xs), 0.0))


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_analytic_row_threshold_is_its_radius_plus_the_tolerances(tol):
    # a row value -d against radius r: violates-CM exactly when d > r + tol_abs + tol_rel * max(|f|, |row|)
    xs = GRID.xs()
    f = np.exp(-xs)
    radius = np.full((GRID.max_order + 1, xs.size), 1e-6)
    for scale in (0.5, 2.0):
        values = (-1.0) ** _ORDERS * f
        values[3, 4] = -(radius[3, 4] + tol + tol * f[4]) * scale  # order 3: its sign is (-1)^3
        values[3, 4] *= -1.0
        rep = cm.check_rows(GRID, values, radius, tol, tol, include_order_zero=False)
        want = radius[3, 4] + tol + tol * max(f[4], abs(values[3, 4]))
        assert rep.witness == (float(xs[4]), 0.0, 3) and rep.worst_threshold == want
        assert rep.verdict == (cm.VIOLATES if scale > 1.0 else cm.CONSISTENT)


def test_check_cm_report_fields_and_determinism():
    rep1 = cm.check_cm(lambda x: np.exp(-x), GRID, case_id="exp")
    rep2 = cm.check_cm(lambda x: np.exp(-x), GRID, case_id="exp")
    assert rep1 == rep2
    assert rep1.case_id == "exp"
    assert set(rep1.per_order_worst) == set(range(0, GRID.max_order + 1))
    assert rep1.worst_violation >= -rep1.worst_threshold
    # verdict invariant: violates iff worst falls below its own threshold
    assert (rep1.verdict == cm.VIOLATES) == (rep1.worst_violation < -rep1.worst_threshold)


# ---------------------------------------------------------------------------
# one stencil pass per check
# ---------------------------------------------------------------------------


def test_verify_all_runs_no_stencil(monkeypatch, capsys):
    from qgamma.cli import main
    from qgamma.theorems import theorem_registry

    passes, calls = [], []
    differences = cm._differences
    monkeypatch.setattr(cm, "_differences", lambda vals, out: passes.append(vals.shape) or differences(vals, out))
    # verify reads analytic rows at the grid points: it runs no stencil pass
    assert main(["verify", "all"]) == 0
    capsys.readouterr()
    assert passes == []
    # a stencil check calls fn once and takes every order from one pass
    for case in theorem_registry():
        cm.check_cm(lambda x: calls.append(x.shape) or np.exp(-x), case.grid)
    assert (len(calls), len(passes)) == (28, 28)


def _lattice(grid) -> np.ndarray:
    """The distinct stencil nodes of a grid, in order of first occurrence, from its own points."""
    nodes = [float(x) + j * h for h in grid.h_set for x in grid.xs() for j in range(grid.max_order + 1)]
    seen = {}
    for v in nodes:
        seen.setdefault(np.float64(v).tobytes(), v)
    return np.array(list(seen.values()))


def test_stencils_keep_the_bits_of_their_grid():
    for ends in (((-0.0, 5.0), (0.0, 5.0)), ((-1.0, -0.0), (-1.0, 0.0))):
        grids = [cm.GridSpec(lo, hi, 21, "linear") for lo, hi in ends]
        assert grids[0] == grids[1]  # equal as dataclasses, not in their bits
        for grid in grids:
            nodes = []

            def fn(x):
                nodes.append(x.copy())
                return np.exp(-x) - 2.0  # negative: the witness is the last grid point, at order 0

            rep = cm.check_cm(fn, grid)
            assert nodes[0].tobytes() == _lattice(grid).tobytes()
            # x + 0 h is +0.0 even at x = -0.0: no node is -0.0, so distinct values are distinct bits
            zeros = nodes[0][nodes[0] == 0.0]
            assert zeros.size == 1 and not np.signbit(zeros).any()
            assert np.float64(rep.witness[0]).tobytes() == grid.xs()[-1].tobytes()
    # the grid ending at -0.0 has -0.0 for its last point, and names it so in its witness
    assert np.signbit(cm.GridSpec(-1.0, -0.0, 21, "linear").xs()[-1])


def test_functions_writing_their_argument_change_nothing():
    grid = cm.GridSpec(0.1, 5.0, 7, "linear")

    def fn(x):
        out = np.exp(-x)
        x[:] = 99.0
        return out

    first = cm.check_cm(fn, grid)
    again = cm.check_cm(fn, grid)
    clean = cm.check_cm(lambda x: np.exp(-x), grid)
    assert first == again == clean
    assert grid.xs()[0] == 0.1


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        cm.GridSpec(2.0, 1.0)
    with pytest.raises(DomainError):
        cm.GridSpec(0.1, 1.0, points=1)
    # a step of inf or NaN puts NaN where the grid points belong (0 * h), so it is refused
    for h_set in ((0.0,), (), (0.5, math.inf), (math.nan,), (-0.5,)):
        with pytest.raises(DomainError):
            cm.GridSpec(0.1, 1.0, h_set=h_set)
    with pytest.raises(DomainError):
        cm.GridSpec(-1.0, 1.0, spacing="geometric")
    with pytest.raises(DomainError):
        cm.GridSpec(0.1, 1.0, spacing="cubic")
    for lo, hi in ((0.1, math.inf), (-math.inf, 1.0), (-math.inf, math.inf), (0.1, math.nan), (-1e308, 1e308)):
        with pytest.raises(DomainError, match="finite"):
            cm.GridSpec(lo, hi, spacing="linear")
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
