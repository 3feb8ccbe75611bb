"""The array-native path: every evaluator maps an ndarray elementwise, bit for
bit equal to its scalar calls; bad elements are named; check_cm evaluates a
whole stencil lattice in one call and reports what the per-node scan did."""

import hashlib
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

ORDER_QS = (0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0)
_GRID = np.geomspace(0.15, 20.0, 21)


def _order_xs() -> np.ndarray:
    xs = _xs(7)
    return xs[xs >= 1e-3]  # order 8 at 1e-300 overflows


def _polygammas(q):
    """(name, f(n, x)) of each evaluator an order array reaches at q."""
    if q == 1.0:
        return [("psi_n", sp.psi_n), ("psi_q_n", lambda n, x: sp.psi_q_n(n, x, 1.0))]
    return [("psi_q_n", lambda n, x: sp.psi_q_n(n, x, q))]


# md5 of psi_q(_GRID, q)'s value and bound bytes (psi's at q = 1): order 0 of
# the polygamma series, pinned so that its bits do not move
_ORDER_0_MD5 = {
    0.1: "68f9721379a7d96c1dc75b89d9602aa5",
    0.5: "00c72e1a52373cd166a738c63777e902",
    0.9: "a79b1971108b67a71651ba1239f1a8d9",
    0.99: "f48e72eb4f53fc94b68aa0d1dbabb23d",
    0.999: "da9b9670a95a2532410bc4e5e0c4cd9f",
    1.0 - 1e-6: "6bf6ae2ad894c123dc8833c9e59cf9b1",
    1.0: "a5b48d0e0ef09ef5eb0304041142c3c0",
}


def _order_forms(k: int) -> list:
    """The forms one order k takes: an int, np.int64, a 0-d array, a shape-(1,) array and a full grid array."""
    return [k, np.int64(k), np.array(k), np.array([k]), np.full(_GRID.size, k)]


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
        assert f(np.int64(3), 1.3) == f(3, 1.3) == f(np.array(3), 1.3)
        # every form of one order against the grid has the bits of the scalar calls
        for k in (1, 2, 5):
            scalars = [f(k, float(x)) for x in _GRID]
            for form in _order_forms(k):
                got = f(form, _GRID)
                _same(got, scalars)
                assert got.value.tobytes() == np.array([r.value for r in scalars]).tobytes()
                assert got.abs_error_bound.tobytes() == np.array([r.abs_error_bound for r in scalars]).tobytes()
    # order 0, through psi and psi_q, keeps its bits
    zero = sp.psi(_GRID) if q == 1.0 else sp.psi_q(_GRID, q)
    assert hashlib.md5(zero.value.tobytes() + zero.abs_error_bound.tobytes()).hexdigest() == _ORDER_0_MD5[q]
    _same(zero, [sp.psi_q(float(x), q) for x in _GRID])


@pytest.mark.parametrize("q", ORDER_QS)
def test_order_0_is_psi_and_psi_q(q):
    # psi_n and psi_q_n take order 0 on psi's and psi_q's path: the same bits in
    # every form of the order, and at the order-0 elements of an order array
    zero = sp.psi(_GRID) if q == 1.0 else sp.psi_q(_GRID, q)
    for name, f in _polygammas(q):
        assert f(0, 1.3) == (sp.psi(1.3) if q == 1.0 else sp.psi_q(1.3, q)), name
        for form in _order_forms(0):
            got = f(form, _GRID)
            assert got.value.tobytes() == zero.value.tobytes(), name
            assert got.abs_error_bound.tobytes() == zero.abs_error_bound.tobytes(), name
        _same_rows(f(np.array([[0], [1], [2]]), _GRID), [zero, f(1, _GRID), f(2, _GRID)])
        orders = np.arange(_GRID.size) % 3
        _same(f(orders, _GRID), [f(int(k), float(x)) for k, x in zip(orders, _GRID)])


def test_empty_order_arrays_give_empty_results():
    res = sp.psi_n(np.array([[1], [2]]), np.array([]))
    assert res.value.shape == res.abs_error_bound.shape == (2, 0)
    assert sp.psi_q_n(np.array([[1], [2]]), np.array([]), 0.5).value.shape == (2, 0)
    assert sp.psi_q_n(np.array([], int), 1.3, 0.5).abs_error_bound.shape == (0,)
    assert [part.shape for part in sp._moment(np.array([], int), np.array([]), math.log(0.5))] == [(0,), (0,)]
    # an order array that does not broadcast with x is a DomainError naming both shapes
    for call, fn, shapes in [
        (lambda: sp.psi_q_n(np.array([1, 2]), np.array([]), 0.5), "psi_q_n", (2,)),
        (lambda: sp.psi_n(np.array([1, 2]), np.array([]), sp.DEFAULT_CONFIG), "psi_n", (2,)),
        (lambda: sp._moment(np.array([[1, 2]]), np.array([]), math.log(0.5)), "measure_moment", (1, 2)),
    ]:
        with pytest.raises(sp.DomainError, match=re.escape(
                f"{fn} order array of shape {shapes} does not broadcast with x of shape (0,)")):
            call()


def _moment_bytes(*parts) -> tuple:
    """The bytes of _moment's (value, bound), or of the list of such pairs that scalar calls give, value first."""
    if isinstance(parts[0], tuple):
        parts = zip(*parts)
    return tuple(np.array(p, dtype=float).tobytes() for p in parts)


@pytest.mark.parametrize("q", ORDER_QS)
def test_moment_order_arrays_equal_scalar_orders(q):
    # value and bound, order -1 (the log of the q-number) and q = 1 (the classical forms) included
    lq = math.log(q)
    xs = _order_xs()
    orders = np.random.default_rng(9).integers(-1, 9, xs.size)
    got = sp._moment(orders, xs, lq)
    assert _moment_bytes(*got) == _moment_bytes(*(sp._moment(int(k), float(x), lq) for k, x in zip(orders, xs)))
    assert _moment_bytes(*got) == _moment_bytes(*(sp._moment(k, x[None], lq) for k, x in zip(orders, xs)))
    rows = sp._moment(np.arange(-1, 9)[:, None], _GRID, lq)
    assert rows[0].shape == rows[1].shape == (10, _GRID.size)
    for k, row, bound in zip(range(-1, 9), *rows):
        assert _moment_bytes(row, bound) == _moment_bytes(*sp._moment(k, _GRID, lq))
        # every form of one order, orders -1 and 0 included, has the bits of the scalar calls
        scalars = _moment_bytes(*(sp._moment(k, x, lq) for x in _GRID))
        for form in _order_forms(k):
            assert _moment_bytes(*sp._moment(form, _GRID, lq)) == scalars


@pytest.mark.parametrize("q", [0.5, 1.0])
def test_moment_order_minus_one_arrays_take_the_broadcast_shape(q):
    # at q = 1 the order -1 elements are log x, which alone does not meet the orders' shape
    lq, x = math.log(q), np.array([0.5, 1.0, 2.0])
    for k in (np.array([[-1]]), np.array([[-1], [-1]]), np.full((2, 3), -1)):
        value, bound = sp._moment(k, x, lq)
        assert value.shape == bound.shape == np.broadcast_shapes(k.shape, x.shape), k.shape
        for row, row_bound in zip(value, bound):
            assert _moment_bytes(row, row_bound) == _moment_bytes(*sp._moment(-1, x, lq))


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


def test_numpy_power_of_an_order_array_is_exact_at_orders_0_and_1():
    # _pow runs np.power for orders 0 and 1 and fixes up only -1 and 2: pow with an int64
    # exponent array gives exactly 1.0 and the base itself there, on every kind of base
    rng = np.random.default_rng(30)
    base = np.concatenate([
        rng.uniform(0.0, 1.0, 100_000),
        np.exp(rng.uniform(-700.0, 700.0, 100_000)),
        rng.uniform(0.0, 1.0, 20_000) * 2.0 ** -1022,  # subnormal
        [5e-324, 2.0 ** -1022, 1.0, np.finfo(float).max],
    ])
    for k, want in ((0, np.ones_like(base)), (1, base)):
        assert np.power(base, np.full(base.size, k)).tobytes() == want.tobytes(), k
        assert sp._pow(base, np.full(base.size, k)).tobytes() == want.tobytes(), k


def _with_edge_values(shape, seed: int) -> np.ndarray:
    """Values of every magnitude, with infinities, NaN, signed zeros and subnormals sprinkled in."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    edges = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1.7e308]
    flat = out.reshape(-1)
    at = rng.choice(flat.size, size=min(flat.size, 2 * len(edges)), replace=False)
    flat[at] = (edges * 2)[:at.size]
    return out


@pytest.mark.parametrize("shape", [(1, 7), (9, 1), (10, 63), (10, 1500)])
@pytest.mark.parametrize("row_loop", [0, sp._ROW_LOOP])
def test_row_loops_keep_the_bits_of_accumulate(monkeypatch, shape, row_loop):
    monkeypatch.setattr(sp, "_ROW_LOOP", row_loop)  # 0: the row loop at every width
    for seed in range(3):
        rows = _with_edge_values(shape, seed)
        with np.errstate(all="ignore"):  # inf - inf and overflow, as the quiet evaluators meet them
            for ufunc in (np.add, np.multiply):
                want = ufunc.accumulate(rows, axis=0)
                got = sp._running(ufunc, rows.copy())
                assert got.tobytes() == want.tobytes(), (ufunc, seed)
            total = sp._total(rows)
            assert total.tobytes() == np.add.accumulate(rows, axis=0)[-1].tobytes(), seed
        assert not np.shares_memory(total, rows)


def _em_z() -> np.ndarray:
    """q-powers z = q^t in [0, 1], the ends and an underflowed one included."""
    rng = np.random.default_rng(11)
    return np.concatenate([[0.0, 5e-324, 1e-300, 0.5, np.nextafter(1.0, 0.0), 1.0], rng.uniform(0.0, 1.0, 40)])


def _reference_poly(k, z) -> np.ndarray:
    """A_k(z) element by element, by Horner's rule in Python floats over sp._eulerian(k), in the broadcast shape."""
    ks, zs = np.broadcast_arrays(np.asarray(k), np.asarray(z, dtype=float))
    out = np.empty(ks.shape)
    for i in np.ndindex(ks.shape):
        poly, t = 0.0, float(zs[i])
        for c in sp._eulerian(int(ks[i])):
            poly = poly * t + c
        out[i] = poly
    return out


def _same_poly(k, z):
    got = sp._eulerian_poly(k, z)
    want = _reference_poly(k, z)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k0", range(-1, 21))
def test_trimmed_em_pass_equals_the_padded_horner(k0):
    column = np.int64(k0) + sp._EM_ODD  # the Euler-Maclaurin orders k0 + 2j - 1, one a row
    _same_poly(column, _em_z())
    _same_poly(column, 0.3)  # a Python float z, as log_gamma_q's tail at b = N + 1 passes it
    _same_poly(column[::-1], _em_z())  # rows that do not ascend are not trimmed past their start


def test_trimmed_em_pass_equals_the_padded_horner_for_order_arrays():
    z = _em_z()
    rng = np.random.default_rng(12)
    mixed, uniform, low, high = (rng.integers(0, 21, z.size), np.full(z.size, 7), np.arange(z.size) % 3,
                                 rng.integers(15, 21, z.size))
    for orders in (mixed, uniform, low, high):
        _same_poly(orders + sp._EM_ODD, z)  # an order array with a row axis z lacks
        _same_poly(orders, z ** (1.0 + sp._EM_ROWS))  # _lambert's form: one order per column of an (N+1, m) z
        _same_poly(orders, 0.3)
        _same_poly(orders[:, None] + sp._EM_ODD.T, z[:, None])  # z has every axis of k: no row is trimmed
    for k in (*range(21), 170):  # a single order on an (N+1, m) z, up to the table's top
        _same_poly(np.int64(k), z ** (1.0 + sp._EM_ROWS))
    _same_poly(np.zeros(0, dtype=np.int64) + sp._EM_ODD, np.zeros(0))
    assert sp._eulerian_poly(np.zeros(0, dtype=np.int64) + sp._EM_ODD, np.zeros(0)).shape == (len(sp._EM_COEF), 0)
    assert sp._eulerian_poly(np.zeros(0, dtype=np.int64), np.zeros((_N + 1, 0))).shape == (_N + 1, 0)


def test_zeta_coefficients_are_read_by_order():
    s = np.random.default_rng(13).integers(1, 41, 60)
    got = sp._order_columns(sp._zeta_coefs, int(s.max()))[:, s]
    for i, order in enumerate(s.tolist()):
        assert got[:, i].tolist() == list(sp._zeta_coefs(order))


@pytest.mark.parametrize("q", QS)
def test_lambert_order_0_keeps_the_bits_of_an_order_array(q):
    lq = math.log(q)
    t = _xs(13)
    _, z, w = sp._q_pow(t, lq)
    orders = np.arange(t.size) % 4  # order 0 among others
    with np.errstate(all="ignore"):  # high orders at t = 1e-300 overflow, as the evaluators' own calls may
        single = sp._lambert(np.int64(0), z, w, lq)
        mixed = sp._lambert(orders, z, w, lq)
    assert single.tobytes() == (z * (-lq / w)).tobytes()
    assert single[orders == 0].tobytes() == mixed[orders == 0].tobytes()
    # order 1 skips the pass too: A_1 = 1
    with np.errstate(all="ignore"):
        first = sp._lambert(np.int64(1), z, w, lq)
        passed = z * sp._eulerian_poly(np.int64(1), z) * sp._pow(-lq / w, np.int64(2))
    assert first.tobytes() == passed.tobytes()
    assert first[orders == 1].tobytes() == mixed[orders == 1].tobytes()


def test_order_arrays_are_checked():
    with pytest.raises(sp.DomainError, match=r"^psi_q_n requires order n >= 0, got -1 \(element 2\)$"):
        sp.psi_q_n(np.array([1, 2, -1]), 1.0, 0.5)
    with pytest.raises(sp.DomainError, match="^psi_n requires integer orders"):
        sp.psi_n(np.array([1.0, 2.0]), 1.0)
    # the moments take order -1, the log of the q-number, at every q
    for lq in (math.log(0.5), 0.0):
        with pytest.raises(sp.DomainError, match=r"^measure_moment requires order n >= -1, got -2"):
            sp._moment(np.array([[1], [-2]]), 1.0, lq)
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
        for low in (1, 2):  # orders from 0, and from -1
            got = sp._moment(orders - low, xs, lq)
            assert _moment_bytes(*got) == _moment_bytes(*(sp._moment(k - low, x, lq) for x, k in pairs))


# ---------------------------------------------------------------------------
# q as an array axis: each element equals its scalar-q call
# ---------------------------------------------------------------------------

# (name, call(x, q)): every q-evaluator, psi_q_n at order 2
_Q_EVALUATORS = [
    ("log_gamma_q", sp.log_gamma_q),
    ("gamma_q", sp.gamma_q),
    ("psi_q", sp.psi_q),
    ("psi_q_n", lambda x, q: sp.psi_q_n(2, x, q)),
]
# q = 1 and 1 - q = 1e-12 drawn often, to be mixed with each other and with the rest in one array
_Q_DRAWS = st.one_of(st.sampled_from((1.0, 1.0 - 1e-12, 0.5, 0.99)), st.floats(0.01, 1.0))
_X_DRAWS = st.floats(1e-3, 60.0)


def _bits(res) -> tuple[bytes, bytes]:
    return np.asarray(res.value, dtype=float).tobytes(), np.asarray(res.abs_error_bound, dtype=float).tobytes()


def _scalar_bits(call, xs, qs) -> tuple[bytes, bytes]:
    """The value and bound bytes of call(x, q) for each pair of Python floats, in order."""
    results = [call(float(x), float(q)) for x, q in zip(xs, qs)]
    return (np.array([r.value for r in results]).tobytes(), np.array([r.abs_error_bound for r in results]).tobytes())


@given(st.lists(_X_DRAWS, min_size=1, max_size=4), st.lists(_Q_DRAWS, min_size=1, max_size=4),
       st.lists(st.tuples(_X_DRAWS, _Q_DRAWS), min_size=1, max_size=6))
def test_q_arrays_equal_scalar_q_calls(xs, qs, pairs):
    x, q = np.array(xs), np.array(qs)
    mx, mq = np.meshgrid(x, q, indexing="ij")
    px, pq = (np.array(col) for col in zip(*pairs))
    for name, call in _Q_EVALUATORS:
        mesh = call(x[:, None], q[None, :])  # (m, 1) against (1, k)
        assert mesh.value.shape == (x.size, q.size), name
        assert _bits(mesh) == _scalar_bits(call, mx.ravel(), mq.ravel()), name
        assert _bits(call(px, pq)) == _scalar_bits(call, px, pq), name  # flat, one q per x
        assert _bits(call(px, np.array(pq[0]))) == _scalar_bits(call, px, [pq[0]] * px.size), name  # 0-d q
        assert _bits(call(np.array(px[0]), pq)) == _scalar_bits(call, [px[0]] * pq.size, pq), name  # 0-d x
    # an order column against x and q of one dimension: one row per order
    rows = sp.psi_q_n(np.array([[0], [1], [3]]), px, pq)
    assert rows.value.shape == (3, px.size)
    for k, value, bound in zip((0, 1, 3), rows.value, rows.abs_error_bound):
        want = _scalar_bits(lambda v, w: sp.psi_q_n(k, v, w), px, pq)
        assert (value.tobytes(), bound.tobytes()) == want, k
    # one order, one x and one q per element
    orders = np.arange(px.size) % 4
    results = [sp.psi_q_n(int(k), float(v), float(w)) for k, v, w in zip(orders, px, pq)]
    assert _bits(sp.psi_q_n(orders, px, pq)) == (np.array([r.value for r in results]).tobytes(),
                                                 np.array([r.abs_error_bound for r in results]).tobytes())
    # orders, x and q all broadcast: (3, 1, 1) orders against the (m, k) mesh
    cube = sp.psi_q_n(np.array([1, 2, 4]).reshape(3, 1, 1), x[:, None], q[None, :])
    for k, value in zip((1, 2, 4), cube.value):
        want = _scalar_bits(lambda v, w: sp.psi_q_n(k, v, w), mx.ravel(), mq.ravel())[0]
        assert value.tobytes() == want, k


def test_q_arrays_take_a_qvalue_and_keep_the_scalar_result_types():
    assert sp.psi_q(1.3, sp.QValue(0.9)) == sp.psi_q(1.3, np.float64(0.9)) == sp.psi_q(1.3, np.array(0.9))
    res = sp.log_gamma_q(2.5, np.array([0.5, 1.0]))
    assert type(res.value) is np.ndarray and res.terms_used == sp.log_gamma(2.5).terms_used
    assert sp.log_gamma_q(2.5, np.array([0.5, 0.9])).terms_used == sp.log_gamma_q(2.5, 0.5).terms_used


@pytest.mark.parametrize("name, call", _Q_EVALUATORS)
@pytest.mark.parametrize("bad", [math.nan, 0.0, 1.5])
def test_a_bad_q_element_is_a_domain_error_naming_it(name, call, bad):
    text = re.escape(repr(bad))
    with pytest.raises(sp.DomainError, match=rf"^q must lie in \(0, 1\], got {text}$"):
        call(1.3, bad)
    with pytest.raises(sp.DomainError, match=rf"^q must lie in \(0, 1\], got {text} \(element 2\)$"):
        call(np.array([0.5, 1.3, 2.0, 4.0]), np.array([0.5, 1.0, bad, bad]))
    # gamma_q's messages are log_gamma_q's, as for x
    with pytest.raises(sp.DomainError, match=rf"{name} q of shape \(3,\) does not broadcast with x of shape \(2,\)$"):
        call(np.array([0.5, 1.3]), np.array([0.5, 0.9, 1.0]))


@pytest.mark.parametrize("name, call", _Q_EVALUATORS)
def test_an_underflowing_x_log_q_is_named_by_its_index_in_the_broadcast(name, call):
    # x log q = -0.0 at x = 1e-308, q = nextafter(1, 0): element 3 of the (2, 2) broadcast
    near = np.nextafter(1.0, 0.0)
    with pytest.raises(OverflowError, match=r"^q-series term at t log q = -0\.0 \(element 3\) exceeds"):
        call(np.array([[0.5], [1e-308]]), np.array([[0.5, near]]))
    # where q = 1 the classical series takes the element, and nothing underflows
    with pytest.raises(OverflowError, match=r"^q-series term at t log q = -0\.0 \(element 2\) exceeds"):
        call(np.array([1e-308, 1e-308, 1e-308]), np.array([1.0, 1.0, near]))


def test_a_result_beyond_float64_where_q_is_1_is_named_by_its_index_in_the_broadcast():
    with pytest.raises(OverflowError, match=r"^psi_q_n result exceeds the float64 range at element 2$"):
        sp.psi_q_n(3, np.array([1.0, 1.0, 1e-300]), np.array([0.5, 1.0, 1.0]))
    with pytest.raises(OverflowError, match=r"^Gamma\(300\.0 \(element 1\)\) exceeds the float64 range$"):
        sp.gamma_q(np.array([3.0, 300.0]), np.array([0.5, 1.0]))
    with pytest.raises(OverflowError, match=r"^Gamma_q\(3000\.0 \(element 1\), q=0\.99\) exceeds"):
        sp.gamma_q(np.array([3.0, 3000.0]), np.array([1.0, 0.99]))


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


def _reference_check_cm(fn, grid, tol_abs, tol_rel, include_order_zero=True):
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
    signed, thresh, witness = worst
    return dict(sorted(per_order.items())), signed, thresh, witness, violated


def _assert_matches_reference(fn, grid, include_order_zero=True, tol=1e-9):
    rep = cm.check_cm(fn, grid, tol, tol, include_order_zero=include_order_zero)
    per_order, signed, thresh, witness, violated = _reference_check_cm(fn, grid, tol, tol, include_order_zero)
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


@given(_grids, st.floats(-3.0, 3.0), st.floats(0.0, 3.0), st.floats(-2.0, 2.0), st.booleans())
def test_check_cm_matches_scalar_scan_on_exp_plus_pole(grid, a, b, c, zero):
    _assert_matches_reference(lambda x: a * np.exp(-b * x) + c / x, grid, zero)


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

    rep = cm.check_cm(fn, cm.GridSpec(0.1, 5.0, 7))
    # 3 * 7 * 9 = 189 stencil nodes, of which 133 are distinct
    assert calls == [(133,)] and rep.evaluations == 133


@pytest.mark.parametrize("max_order", [1, 2, 5, 12, 20, 40])
def test_check_cm_differences_equal_the_alternating_sum_order_by_order(max_order):
    # (j, h, x) stencil values of every magnitude, infinities, NaN and -0.0 among them
    rng = np.random.default_rng(max_order)
    vals = rng.standard_normal((max_order + 1, 3, 17)) * 10.0 ** rng.integers(-8, 8, (max_order + 1, 3, 17))
    vals.reshape(-1)[rng.choice(vals.size, 12, replace=False)] = [np.inf, -np.inf, np.nan, -0.0] * 3
    out = np.empty((max_order, 3, 17))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf is NaN, as in Python's float arithmetic, not a warning
        cm._differences(vals, out)
        for h, x in np.ndindex(3, 17):
            for n in range(1, max_order + 1):
                delta = 0.0  # sum_j (-1)^j C(n, j) f(x + (n - j) h), added in order of j
                for j in range(n + 1):
                    delta = delta + (-1) ** j * math.comb(n, j) * float(vals[n - j, h, x])
                signed = delta if n % 2 == 0 else -delta
                assert np.float64(out[n - 1, h, x]).tobytes() == np.float64(signed).tobytes(), (n, h, x)
                nodes = []
                got = cm.forward_difference(lambda t: nodes.append(t) or vals[int(t), h, x], 0.0, 1.0, n)
                assert np.float64(got).tobytes() == np.float64(delta).tobytes(), (n, h, x)
                assert nodes == [float(i) for i in range(n, -1, -1)]  # x + n h first


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
