"""The array-native path: every evaluator maps an ndarray elementwise, bit for
bit equal to its scalar calls; bad elements are named; check_cm evaluates a
whole stencil lattice in one call and reports what the per-node scan did."""

import inspect
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgamma import bounds as bnd
from qgamma import cmcheck as cm
from qgamma import kernels as K
from qgamma import special as sp
from qgamma import theorems as T
from qgamma.cli import main

QS = (0.5, 0.9, 0.99, 0.999)
_N = 10  # direct terms of the q-series


def _xs(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.uniform(0.01, 10.0, 24),
        np.geomspace(1e-3, 3000.0, 14),
        [1e-300, 0.5, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 2.0],
    ])


def _branch_edges(q: float) -> list[float]:
    """x where log_gamma_q's tail changes form: q^(N+x) = 1/2, just inside and outside."""
    edge = math.log(2.0) / -math.log(q) - _N
    return [e for e in (edge * (1 - 1e-9), edge, edge * (1 + 1e-9)) if e > 0.0]


def _same(res_arr, scalars):
    """An array SeriesResult equals the list of scalar results, bit for bit."""
    assert np.array_equal(res_arr.value, [r.value for r in scalars])
    assert np.array_equal(res_arr.abs_error_bound, [r.abs_error_bound for r in scalars])
    assert res_arr.terms_used == max(r.terms_used for r in scalars)
    assert type(res_arr.terms_used) is int
    assert res_arr.converged is all(r.converged for r in scalars)
    for r in scalars:
        assert type(r.abs_error_bound) is float
        assert type(r.value) in (float, complex)


def _check(call, xs):
    _same(call(xs), [call(float(x)) for x in xs])


# ---------------------------------------------------------------------------
# evaluators: array call == element-wise scalar calls
# ---------------------------------------------------------------------------


def test_classical_evaluators_array_equals_scalar():
    xs = _xs(1)
    xs = xs[xs < 170.0]  # Gamma overflows beyond
    _check(sp.log_gamma, xs)
    _check(sp.gamma, xs)
    _check(sp.psi, xs)
    for n in range(1, 6):
        _check(lambda v: sp.psi_n(n, v), xs[xs > 1e-100])  # psi^(n)(1e-300) overflows
    # psi's bound sums the rounding error of each addition: in the same order
    # for a lone element as for a column of a block
    _check(sp.psi, np.concatenate([np.geomspace(1e-6, 1e8, 1500), 1.4616 + np.linspace(-0.3, 0.3, 1500)]))


def test_complex_log_gamma_array_equals_scalar():
    rng = np.random.default_rng(2)
    zs = rng.uniform(0.01, 40.0, 30) + 1j * rng.uniform(-100.0, 100.0, 30)
    zs = np.concatenate([zs, [1 + 0j, 0.5 - 0j, 3 + 1e-300j]])
    res = sp.log_gamma(zs)
    _same(res, [sp.log_gamma(complex(z)) for z in zs])
    assert res.value.dtype == complex
    _same(sp.gamma(zs[:10] / 4), [sp.gamma(complex(z) / 4) for z in zs[:10]])


@pytest.mark.parametrize("q", QS)
def test_q_evaluators_array_equal_scalar(q):
    xs = np.concatenate([_xs(3), _branch_edges(q)])
    _check(lambda v: sp.log_gamma_q(v, q), xs)
    _check(lambda v: sp.psi_q(v, q), xs)
    for n in range(1, 6):
        _check(lambda v: sp.psi_q_n(n, v, q), xs[xs > 1e-100])  # overflows at 1e-300
    finite = xs[xs < 100.0]
    _check(lambda v: sp.gamma_q(v, q), finite)


def test_log_gamma_q_takes_every_branch_per_element():
    # the three tail forms and both phi forms, mixed in one array
    q = 0.999
    xs = np.array([0.3, 1.0, 7.0, *_branch_edges(q), 2000.0, 0.05, 670.0])
    res = sp.log_gamma_q(xs, q)
    _same(res, [sp.log_gamma_q(float(x), q) for x in xs])
    _same(sp.log_gamma_q(xs, 0.99), [sp.log_gamma_q(float(x), 0.99) for x in xs])


def test_dilog_array_equals_scalar_including_end_points():
    rng = np.random.default_rng(4)
    xs = np.concatenate([[0.0, 1.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1e-300],
                         rng.uniform(0.0, 1.0, 40), [1.0 - 1e-9, 0.0]])
    res = sp.dilog_F(xs)
    _same(res, [sp.dilog_F(float(x)) for x in xs])
    assert res.value[0] == 0.0 and res.abs_error_bound[0] == 0.0
    assert res.terms_used == sp.dilog_F(0.3).terms_used
    assert sp.dilog_F(np.array([0.0, 1.0])).terms_used == 0


@pytest.mark.parametrize("q", QS)
def test_moments_array_equal_scalar(q):
    xs = np.concatenate([_xs(5)[:-6], [5e-324, 1e-320, 1e-310]])
    got = sp.measure_moment_over_t(xs, q)
    assert np.array_equal(got, [sp.measure_moment_over_t(float(x), q) for x in xs])
    xs = xs[xs > 1e-250]
    got = sp.measure_moment(xs, q)
    want = [sp.measure_moment(float(x), q) for x in xs]
    assert np.array_equal(got, want) and all(type(w) is float for w in want)


def test_arrays_keep_their_shape_and_blocks_join_exactly():
    x = np.linspace(0.1, 9.0, 12).reshape(3, 4)
    res = sp.psi_q_n(2, x, 0.9)
    assert res.value.shape == (3, 4) and res.abs_error_bound.shape == (3, 4)
    # more elements than one evaluation block: every element still equals its scalar call
    big = np.linspace(0.05, 40.0, 2 * sp._BLOCK + 37)
    res = sp.psi_q(big, 0.99)
    for i in (0, sp._BLOCK - 1, sp._BLOCK, 2 * sp._BLOCK, big.size - 1):
        one = sp.psi_q(float(big[i]), 0.99)
        assert res.value[i] == one.value and res.abs_error_bound[i] == one.abs_error_bound


def test_case_derivatives_map_elementwise():
    xs = np.linspace(0.3, 12.0, 9)
    for case in T.theorem_registry():
        lo = case.grid.x_min
        grid_xs = xs + max(0.0, lo)
        for k in range(0, 5):
            got = case.deriv(k, grid_xs)
            want = [case.deriv(k, grid_xs[i:i + 1])[0] for i in range(grid_xs.size)]
            assert np.array_equal(got, want), (case.id, k)


# ---------------------------------------------------------------------------
# order arrays: one pass for every order, each element its scalar-order call
# ---------------------------------------------------------------------------

ORDER_QS = (0.1, 0.5, 0.9, 0.99, 0.999, sp.Q_SERIES_MAX, 1.0)
_GRID = np.geomspace(0.15, 20.0, 21)


def _order_xs() -> np.ndarray:
    xs = _xs(7)
    return xs[xs >= 1e-3]  # order 8 at 1e-300 overflows


def _polygammas(q):
    """(name, f(n, x)) of each evaluator an order array reaches at q."""
    if q == 1.0:
        return [("psi_n", sp.psi_n), ("psi_q_n", lambda n, x: sp.psi_q_n(n, x, 1.0))]
    return [("psi_q_n", lambda n, x: sp.psi_q_n(n, x, q))]


def _same_rows(res, rows):
    """An order-column SeriesResult equals the list of scalar-order results, row for row."""
    assert res.value.shape == (len(rows), *np.shape(rows[0].value))
    for value, bound, one in zip(res.value, res.abs_error_bound, rows):
        assert value.tobytes() == one.value.tobytes() and bound.tobytes() == one.abs_error_bound.tobytes()
    assert res.terms_used == rows[0].terms_used
    assert res.converged is all(r.converged for r in rows)


@pytest.mark.parametrize("q", ORDER_QS)
def test_order_arrays_equal_scalar_orders(q):
    # orders 1 and 2 reach the exponents -1 (zeta's w^(1-s)) and 2 (rho^k, rho^(k0+1)),
    # where numpy's scalar power is not pow
    xs = _order_xs()
    orders = np.random.default_rng(8).integers(1, 9, xs.size)
    assert set(orders.tolist()) == set(range(1, 9))
    for name, f in _polygammas(q):
        _same(f(orders, xs), [f(int(k), float(x)) for k, x in zip(orders, xs)])
        _same_rows(f(np.array([[1], [2], [3]]), _GRID), [f(k, _GRID) for k in (1, 2, 3)])
        # a 0-d order array is a scalar order
        _same(f(np.array([2] * 3), _GRID[:3]), [f(2, float(x)) for x in _GRID[:3]])
        assert f(np.int64(3), 1.3) == f(3, 1.3)


@pytest.mark.parametrize("q", ORDER_QS[:-1])
def test_moment_order_arrays_equal_scalar_orders(q):
    lq = math.log(q)
    xs = _order_xs()
    orders = np.random.default_rng(9).integers(0, 9, xs.size)
    got = sp._moment(orders, xs, lq)
    assert got.tobytes() == np.array([sp._moment(int(k), float(x), lq) for k, x in zip(orders, xs)]).tobytes()
    rows = sp._moment(np.arange(9)[:, None], _GRID, lq)
    assert rows.shape == (9, _GRID.size)
    for k, row in enumerate(rows):
        assert row.tobytes() == sp._moment(k, _GRID, lq).tobytes()


def test_order_arrays_run_over_blocks():
    big = np.linspace(0.05, 40.0, sp._BLOCK + 37)
    orders = np.arange(big.size) % 4 + 1
    res = sp.psi_q_n(orders, big, 0.9)
    for i in (0, 1, sp._BLOCK - 1, sp._BLOCK, big.size - 1):
        one = sp.psi_q_n(int(orders[i]), float(big[i]), 0.9)
        assert res.value[i] == one.value and res.abs_error_bound[i] == one.abs_error_bound


def test_pow_keeps_the_bits_of_a_scalar_exponent():
    rng = np.random.default_rng(10)
    base = np.concatenate([rng.uniform(-30.0, 30.0, 4000), rng.uniform(-1e-2, 1e-2, 200), [0.5, -2.0]])
    n = rng.integers(-6, 9, base.size)
    got = sp._pow(base, n)
    for k in range(-6, 9):
        at = n == k
        assert got[at].tobytes() == (base[at] ** k).tobytes(), k
    # a Python float keeps Python's **, order by order
    col = np.array([[0], [1], [2], [3], [-1]])
    assert sp._pow(0.7, col).ravel().tolist() == [0.7 ** k for k in (0, 1, 2, 3, -1)]


def test_order_arrays_are_checked():
    with pytest.raises(sp.DomainError, match=r"^psi_q_n requires order n >= 1, got 0 \(element 2\)$"):
        sp.psi_q_n(np.array([1, 2, 0]), 1.0, 0.5)
    with pytest.raises(sp.DomainError, match="^psi_n requires integer orders"):
        sp.psi_n(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(sp.DomainError, match=r"^measure_moment requires order n >= 0, got -1"):
        sp._moment(np.array([[1], [-1]]), 1.0, math.log(0.5))
    # x is checked in its own shape, before it broadcasts with the orders
    with pytest.raises(sp.DomainError, match=r"got -1.0 \(element 1\)$"):
        sp.psi_q_n(np.array([[1], [2]]), np.array([1.0, -1.0]), 0.5)


@given(
    st.lists(st.tuples(st.floats(1e-2, 1e3), st.integers(1, 8)), min_size=1, max_size=16),
    st.one_of(st.sampled_from(ORDER_QS), st.floats(0.01, 0.999)),
)
def test_order_arrays_equal_scalar_orders_on_random_draws(pairs, q):
    xs = np.array([x for x, _ in pairs])
    orders = np.array([k for _, k in pairs])
    for _, f in _polygammas(q):
        _same(f(orders, xs), [f(k, x) for x, k in pairs])
    if q < 1.0:
        lq = math.log(q)
        got = sp._moment(orders - 1, xs, lq)
        assert got.tobytes() == np.array([sp._moment(k - 1, x, lq) for x, k in pairs]).tobytes()


# ---------------------------------------------------------------------------
# validation names the offending element
# ---------------------------------------------------------------------------

_EVALUATORS = [
    ("log_gamma", lambda v: sp.log_gamma(v)),
    ("gamma", lambda v: sp.gamma(v)),
    ("psi", lambda v: sp.psi(v)),
    ("psi_n", lambda v: sp.psi_n(2, v)),
    ("log_gamma_q", lambda v: sp.log_gamma_q(v, 0.5)),
    ("gamma_q", lambda v: sp.gamma_q(v, 0.5)),
    ("psi_q", lambda v: sp.psi_q(v, 0.9)),
    ("psi_q_n", lambda v: sp.psi_q_n(3, v, 0.9)),
    ("dilog_F", lambda v: sp.dilog_F(v)),
    ("measure_moment", lambda v: sp.measure_moment(v, 0.5)),
    ("measure_moment_over_t", lambda v: sp.measure_moment_over_t(v, 0.5)),
]


@pytest.mark.parametrize("name, call", _EVALUATORS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25])
def test_one_bad_element_is_a_domain_error_naming_it(name, call, bad):
    x = np.array([0.3, 0.6, 0.2, bad, 0.7, math.nan])
    with pytest.raises(sp.DomainError, match=rf"{name} requires .*got {bad!r} \(element 3\)"):
        call(x)


def test_out_of_range_dilog_element_and_overflow_are_named():
    with pytest.raises(sp.DomainError, match=r"got 1\.5 \(element 1\)"):
        sp.dilog_F(np.array([0.5, 1.5]))
    with pytest.raises(OverflowError, match="element 2"):
        sp.gamma(np.array([1.0, 2.0, 200.0]))
    with pytest.raises(OverflowError, match="element 1"):
        sp.psi_q_n(2, np.array([1.0, 1e-300]), 0.5)


def test_array_calls_raise_no_numpy_warnings():
    x = np.array([1e-300, 0.5, 1e5, 3000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp.psi_q(x, 0.999)
        sp.log_gamma_q(x, 0.999)
        sp.dilog_F(np.array([0.0, 0.5, 1.0]))
        sp.measure_moment_over_t(np.array([5e-324, *x]), 0.5)
        with pytest.raises(OverflowError):  # psi_q'''(1e-300) ~ 2e900
            sp.psi_q_n(3, x, 0.5)
        with pytest.raises(OverflowError):  # x log q underflows to 0
            sp.psi_q(np.array([1.0, 5e-324]), 0.999)


# ---------------------------------------------------------------------------
# one array contract for every public numeric entry point
# ---------------------------------------------------------------------------

_X = (0.3, 1.7, 12.0, 1e-3, 25.0, 4.5)
# 5.73e-4 is in the small-t series band, where a float's ** once differed from an array's
_T = (0.0, 5.732475161969985e-4, 2e-3, 0.9, 7.0, 45.0)
_KERNEL_BAD = (math.nan, -1.0, math.inf, -math.inf)

# (public name, call on the one argument that varies, valid elements, bad elements)
_CONTRACT = [
    ("log_gamma", lambda v: sp.log_gamma(v), _X, (math.nan,)),
    ("log_gamma complex", lambda v: sp.log_gamma(v + 0.5j), _X, (math.nan,)),
    ("gamma", lambda v: sp.gamma(v), _X, (math.nan,)),
    ("log_gamma_q", lambda v: sp.log_gamma_q(v, 0.7), _X, (math.nan,)),
    ("gamma_q", lambda v: sp.gamma_q(v, 0.7), _X, (math.nan,)),
    ("psi", lambda v: sp.psi(v), _X, (math.nan,)),
    ("psi_n", lambda v: sp.psi_n(2, v), _X, (math.nan,)),
    ("psi_q", lambda v: sp.psi_q(v, 0.7), _X, (math.nan,)),
    ("psi_q_n", lambda v: sp.psi_q_n(2, v, 0.7), _X, (math.nan,)),
    ("dilog_F", lambda v: sp.dilog_F(v), (0.0, 0.2, 0.5, 0.75, 1.0, 0.999), (math.nan,)),
    ("measure_moment", lambda v: sp.measure_moment(v, 0.5), _X, (math.nan,)),
    ("measure_moment_over_t", lambda v: sp.measure_moment_over_t(v, 0.5), _X, (math.nan,)),
    ("sinh_ratio", lambda v: K.sinh_ratio(0.5, v), _T, _KERNEL_BAD),
    # the lower member is beyond float64 at t = 1000: inf, without a warning
    ("sinh_ratio_bounds", lambda v: K.sinh_ratio_bounds(3.0, v), _T[:5] + (1000.0,), _KERNEL_BAD),
    ("kernel_lemma12_margin", lambda v: K.kernel_lemma12_margin(0.5, v), _T, _KERNEL_BAD),
    ("kernel_thm21", lambda v: K.kernel_thm21(0.75, v), _T, _KERNEL_BAD),
    ("kernel_thm25", lambda v: K.kernel_thm25(0.2, 1.0, 0.1, v), _T, _KERNEL_BAD),
    ("kernel_thm26", lambda v: K.kernel_thm26(1.5, v), _T, _KERNEL_BAD),
    ("kernel_thm31", lambda v: K.kernel_thm31(0.5, v), _T, _KERNEL_BAD),
    ("kernel_thm32", lambda v: K.kernel_thm32(0.5, 1.0, 0.6, v), _T, _KERNEL_BAD),
    ("kernel_thm34", lambda v: K.kernel_thm34(0.5, v), _T, _KERNEL_BAD),
    ("kernel_thm41_mean", lambda v: K.kernel_thm41_mean((0.5, 1.5), v), _T, _KERNEL_BAD),
    ("kernel_thm41_split", lambda v: K.kernel_thm41_split((0.5, 1.5), v), _T, _KERNEL_BAD),
    ("gautschi_bounds", lambda v: bnd.gautschi_bounds(v, 0.5), (1.0, 2.0, 5.0, 30.0, 400.0, 7.0), (math.nan,)),
    ("kershaw_psi_bounds", lambda v: bnd.kershaw_psi_bounds(v, 0.5), _X, (math.nan,)),
    ("kershaw_power_bounds", lambda v: bnd.kershaw_power_bounds(v, 0.3), _X, (math.nan,)),
    ("q_sandwich", lambda v: bnd.q_sandwich(v, 0.5, 0.7), _X, (math.nan,)),
    ("rademacher_ratio_bound", lambda v: bnd.rademacher_ratio_bound(v + (0.5 + 1j), 0.5), _X, (math.nan,)),
    ("beta_ratio_modulus", lambda v: bnd.beta_ratio_modulus(v - 2j, 0.5, 0.5), _X, (math.nan,)),
]


def _leaves(result) -> tuple:
    """The numbers a result carries: a SeriesResult's value and bound, a BoundTriple's five, a tuple's members."""
    if isinstance(result, sp.SeriesResult):
        return result.value, result.abs_error_bound
    if isinstance(result, bnd.BoundTriple):
        return result.lower, result.value, result.upper, result.lower_margin, result.upper_margin
    return result if isinstance(result, tuple) else (result,)


def test_contract_table_names_every_public_numeric_entry_point():
    # identity_47 takes a list of z, default_t_grid and scan_kernel build and scan grids: none maps elements
    public = {n for mod in (sp, K, bnd) for n in mod.__all__ if inspect.isfunction(getattr(mod, n))}
    assert {name.split()[0] for name, *_ in _CONTRACT} == public - {"identity_47", "default_t_grid", "scan_kernel"}


@pytest.mark.parametrize("name, call, good, bad", _CONTRACT, ids=[row[0] for row in _CONTRACT])
def test_one_array_contract(name, call, good, bad):
    arr = np.array(good).reshape(2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalars = [_leaves(call(v)) for v in good]
        for leaves in scalars:
            assert all(type(leaf) in (float, complex) for leaf in leaves), (name, leaves)
        for k, leaf in enumerate(_leaves(call(arr))):
            assert type(leaf) is np.ndarray and leaf.shape == arr.shape, (name, k)
            want = np.array([leaves[k] for leaves in scalars], dtype=leaf.dtype).reshape(arr.shape)
            assert leaf.tobytes() == want.tobytes(), (name, k, leaf, want)  # bit for bit
        for b in bad:
            text = re.escape(repr(b))
            with pytest.raises(sp.DomainError, match=rf"got (\w+=)?{text}(, .*)?$"):
                call(b)
            flat = np.array(good)
            flat[2] = b
            with pytest.raises(sp.DomainError, match=rf"got (\w+=)?{text}(, .*)? \(element 2\)$"):
                call(flat)


def test_kernel_contract_edges():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sp.DomainError, match=r"got -1000\.0$"):
            K.kernel_thm41_mean((0.5, 1.5), -1000.0)
        # the inner h(t/alpha) meets t/alpha = inf, where h is 1
        assert K.kernel_thm31(2.0 ** -340, 1e300) == 1.0


# ---------------------------------------------------------------------------
# check_cm against the per-node scalar scan it replaced
# ---------------------------------------------------------------------------


def _reference_check_cm(fn, grid, tol_abs, tol_rel, derivs=None, include_order_zero=True):
    """The scalar scan check_cm ran before it evaluated whole lattices."""
    xs = grid.xs()
    cache = {}

    def ev(x):
        if x not in cache:
            cache[x] = float(fn(x))
        return cache[x]

    per_order = {}
    worst_margin, worst = math.inf, (math.inf, 0.0, (math.nan, math.nan, -1))
    violated = False

    def record(signed, thresh, x, h, n):
        nonlocal worst_margin, worst, violated
        per_order[n] = min(per_order.get(n, math.inf), signed)
        if signed + thresh < worst_margin:
            worst_margin, worst = signed + thresh, (signed, thresh, (x, h, n))
        violated = violated or signed < -thresh

    if include_order_zero:
        for x in xs:
            v = ev(float(x))
            record(v, tol_abs + tol_rel * abs(v), float(x), 0.0, 0)
    for n in range(1, grid.max_order + 1):
        for h in grid.h_set:
            for x in xs:
                x = float(x)
                vals = [ev(x + j * h) for j in range(n + 1)]
                delta = 0.0
                for j in range(n + 1):
                    delta += (-1) ** j * math.comb(n, j) * vals[n - j]
                signed = delta if n % 2 == 0 else -delta
                record(signed, tol_abs + tol_rel * max(abs(v) for v in vals), x, h, n)
    if derivs is not None:
        for k in range(1, 4):
            for x in xs:
                x = float(x)
                d = float(derivs(k, x))
                signed = d if k % 2 == 0 else -d
                record(signed, tol_abs + tol_rel * max(abs(ev(x)), abs(d)), x, 0.0, k)
    signed, thresh, witness = worst
    return dict(sorted(per_order.items())), signed, thresh, witness, violated


def _assert_matches_reference(fn, grid, derivs=None, include_order_zero=True, tol=1e-9):
    rep = cm.check_cm(fn, grid, tol, tol, derivs=derivs, include_order_zero=include_order_zero)
    per_order, signed, thresh, witness, violated = _reference_check_cm(
        fn, grid, tol, tol, derivs, include_order_zero
    )
    assert rep.per_order_worst == per_order
    assert (rep.worst_violation, rep.worst_threshold) == (signed, thresh)
    assert rep.witness == witness
    assert rep.verdict == (cm.VIOLATES if violated else cm.CONSISTENT)
    assert rep.evaluations == len(_distinct_nodes(grid))
    return rep


def _distinct_nodes(grid):
    """The distinct stencil nodes x + j h of a grid, as the scalar scan keys them."""
    return {float(x) + j * h for h in grid.h_set for x in grid.xs() for j in range(grid.max_order + 1)}


_grids = st.builds(
    cm.GridSpec,
    x_min=st.floats(0.05, 2.0),
    x_max=st.floats(2.5, 25.0),
    points=st.integers(2, 12),
    spacing=st.sampled_from(("linear", "geometric")),
    h_set=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3).map(tuple),
    max_order=st.integers(1, 9),
)


@given(
    _grids,
    st.floats(-3.0, 3.0),
    st.floats(0.0, 3.0),
    st.floats(-2.0, 2.0),
    st.booleans(),
    st.booleans(),
)
def test_check_cm_matches_scalar_scan_on_exp_plus_pole(grid, a, b, c, zero, with_derivs):
    fn = lambda x: a * np.exp(-b * x) + c / x
    derivs = None
    if with_derivs:
        # np.asarray: numpy's ** on an array multiplies out small integer powers, while a
        # float's ** calls pow, so x ** 3 of a float may differ from it in the last bit
        derivs = lambda k, x: (a * (-b) ** k * np.exp(-b * x)
                               + c * (-1) ** k * math.factorial(k) / np.asarray(x) ** (k + 1))
    _assert_matches_reference(fn, grid, derivs, zero)


@given(_grids, st.floats(0.1, 5.0), st.floats(-1.0, 1.0), st.booleans())
def test_check_cm_matches_scalar_scan_on_sine(grid, w, phase, zero):
    _assert_matches_reference(lambda x: np.sin(w * x + phase), grid, include_order_zero=zero)


@given(_grids, st.sampled_from((-1.0, 0.0, 2.5)), st.booleans())
def test_check_cm_ties_resolve_to_the_first_in_scan_order(grid, c, zero):
    # a constant has equal margins everywhere in each order: the first one scanned wins
    rep = _assert_matches_reference(lambda x: np.full_like(x, c), grid, include_order_zero=zero)
    if zero and c < 0.0:
        assert rep.witness == (float(grid.xs()[0]), 0.0, 0)


@given(_grids, st.floats(0.5, 30.0), st.booleans())
def test_check_cm_nan_values_are_no_evidence(grid, cut, zero):
    # NaN nodes leave their stencils out of the minimum, the witness and the verdict
    _assert_matches_reference(lambda x: np.where(x > cut, np.nan, np.exp(-x) - 0.1), grid,
                              include_order_zero=zero)
    rep = _assert_matches_reference(lambda x: np.full_like(x, np.nan), grid)
    assert rep.witness[2] == -1 and rep.verdict == cm.CONSISTENT


# steps that are exact multiples of each other: many stencil nodes coincide
_multiple_grids = st.builds(
    cm.GridSpec,
    x_min=st.floats(0.05, 2.0),
    x_max=st.floats(2.5, 25.0),
    points=st.integers(2, 12),
    spacing=st.sampled_from(("linear", "geometric")),
    h_set=st.lists(st.sampled_from((0.125, 0.25, 0.5, 1.0, 2.0)), min_size=1, max_size=5,
                   unique=True).map(tuple),
    max_order=st.integers(1, 9),
)


@given(_multiple_grids, st.floats(-3.0, 3.0), st.floats(0.0, 3.0), st.booleans())
def test_check_cm_evaluates_each_distinct_node_once(grid, a, b, zero):
    calls = []

    def fn(x):
        if np.ndim(x):  # check_cm's call, not the scalar scan's
            calls.append(np.array(x))
        return a * np.exp(-b * x) + 1.0 / x

    rep = _assert_matches_reference(fn, grid, include_order_zero=zero)
    (nodes,) = calls
    assert rep.evaluations == nodes.size == np.unique(nodes).size == len(_distinct_nodes(grid))
    assert nodes[0] == grid.xs()[0]  # first occurrence order: the lattice starts at x_min


def test_check_cm_calls_fn_once_on_the_whole_lattice():
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return np.exp(-x)

    rep = cm.check_cm(fn, cm.GridSpec(0.1, 5.0, 7), derivs=lambda k, x: (-1) ** k * np.exp(-x))
    # 3 * 7 * 9 = 189 stencil nodes, of which 133 are distinct
    assert calls == [(133,)] and rep.evaluations == 133


# the first argument outside (0, inf) each closure meets on a lattice from x = -0.5:
# x itself, or x + c (thm2.5, c = 0.1) and x + s (cor3.6, s = 0.1)
_FIRST_BAD_ARGUMENT = {"thm2.1": -0.5, "cor3.6-low": -0.4, "thm2.5": -0.4, "thm3.4": -0.5,
                       "thm2.2": -0.5, "thm2.6": -0.5}


@pytest.mark.parametrize("case_id", list(_FIRST_BAD_ARGUMENT))
def test_lattice_outside_the_interval_is_a_domain_error_without_warnings(capsys, case_id):
    # the lattice reaches x <= 0, where the closures divide by zero or take logs
    # of negatives before an evaluator rejects the point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", case_id, "--x-min", "-0.5", "--x-max", "3", "--spacing", "linear"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert f"requires finite x in (0, inf), got {_FIRST_BAD_ARGUMENT[case_id]!r} (element 0)" in err


def test_verify_every_registered_case_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cid in T.registry_ids():
            assert T.verify_case(T.make_case(cid)).matches, cid


# ---------------------------------------------------------------------------
# real-grid bounds take arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda x, s: bnd.kershaw_psi_bounds(x, s),
        lambda x, s: bnd.kershaw_power_bounds(x, s),
        lambda x, s: bnd.gautschi_bounds(np.rint(x) + 1.0, s),
        lambda x, s: bnd.q_sandwich(x, s, 0.7),
        lambda x, s: bnd.q_sandwich(x, s, 1.0),
    ],
)
def test_real_bounds_array_equals_scalar(call):
    x, s = np.meshgrid(np.linspace(0.05, 6.0, 7), np.linspace(0.05, 0.95, 5), indexing="ij")
    t = call(x, s)
    assert t.value.shape == x.shape
    for i in np.ndindex(x.shape):
        one = call(float(x[i]), float(s[i]))
        assert type(one.value) is float
        got = (t.lower[i], t.value[i], t.upper[i], t.lower_margin[i], t.upper_margin[i])
        assert got == (one.lower, one.value, one.upper, one.lower_margin, one.upper_margin)


def test_real_bounds_name_the_first_bad_pair():
    with pytest.raises(sp.DomainError, match=r"x=-0\.5, s=0\.5"):
        bnd.kershaw_power_bounds(np.array([1.0, -0.5, -1.0]), 0.5)
    with pytest.raises(sp.DomainError, match="0 < s < 1"):
        bnd.q_sandwich(1.0, np.array([0.5, 1.0]), 0.5)


# ---------------------------------------------------------------------------
# CLI: negative exponent-form values, atomic --output
# ---------------------------------------------------------------------------


def test_negative_values_in_exponent_form_parse(capsys):
    assert main(["verify", "thm2.5", "--c", "-1e-13"]) == 0
    assert "c=-1e-13" in capsys.readouterr().out
    assert main(["bounds", "kershaw-power", "--x", "1", "--s", "5e-1"]) == 0
    capsys.readouterr()
    # a negative --s reaches the library's hypothesis check instead of failing to parse
    assert main(["bounds", "q-sandwich", "--x", "1", "--s", "-5e-1"]) == 2
    assert "0 < s < 1" in capsys.readouterr().err


def test_output_write_error_exits_two(capsys, tmp_path):
    missing = tmp_path / "no_such_dir" / "out.csv"
    assert main(["eval", "psi", "--x", "1", "--output", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot write" in captured.err
    # a directory cannot be replaced by the report: exit 2, nothing left behind
    target = tmp_path / "dir"
    target.mkdir()
    assert main(["eval", "psi", "--x", "1", "--output", str(target)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["dir"] and os.listdir(target) == []


def test_output_replaces_whole_or_leaves_target(capsys, tmp_path):
    target = tmp_path / "report.csv"
    target.write_text("previous\n")
    assert main(["eval", "psi", "--x", "-1", "--output", str(target)]) == 2
    assert target.read_text() == "previous\n"
    assert main(["eval", "psi", "--x", "1", "--output", str(target)]) == 0
    assert target.read_text().startswith("value ")
    assert os.listdir(tmp_path) == ["report.csv"]


def test_output_failing_replace_leaves_target_and_no_temp_file(capsys, tmp_path, monkeypatch):
    import qgamma.cli as cli_module

    target = tmp_path / "report.csv"
    target.write_text("previous\n")

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli_module.os, "replace", failing_replace)
    assert main(["eval", "psi", "--x", "1", "--output", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert target.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["report.csv"]
