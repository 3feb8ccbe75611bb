"""A float, a 0-d array and a shape-(1,) array are one argument: the same bits, value and bound.

The README promises that an array call's elements equal the scalar calls bit
for bit.  This audit holds the kernels at their defaults, the four real
bounds (lower, value, upper) and the two complex bounds (modulus, bound) to
it in all three forms; ``case.deriv`` of every registered case is held to it
by test_theorems.py's test_deriv_at_a_float_x_equals_the_array_element.
"""

import numpy as np
import pytest

from qgamma import bounds as B
from qgamma import kernels as K

_RNG = np.random.default_rng(23)


def _forms(v):
    """v as a float (a complex for a complex v), as a 0-d array and as a shape-(1,) array."""
    return v, np.array(v), np.array([v])


def _bits(out) -> bytes:
    """The bytes of every member of a result, each flattened: a value, or a tuple of them."""
    parts = out if isinstance(out, tuple) else (out,)
    return b"".join(np.asarray(p, dtype=float).reshape(-1).tobytes() for p in parts)


def _assert_one_result(call, *args):
    """call(*args) gives the same bits with every argument as a float, a 0-d array and a (1,) array."""
    want, *others = (_bits(call(*form)) for form in zip(*map(_forms, args)))
    for got, form in zip(others, ("0-d", "(1,)")):
        assert got == want, (form, args)


# t at 0, on both sides of every small-t switch, across the double range the kernels take
_T = np.concatenate([
    [0.0, 5e-324, 1e-300, 1e-12],
    np.nextafter(K.SMALL_T, 0.0) * np.array([1.0, 1.0 - 2.0 ** -52]),
    [K.SMALL_T, np.nextafter(K.SMALL_T, 1.0)],
    np.geomspace(1e-9, 700.0, 300),
    _RNG.uniform(0.0, 2.0 * K.SMALL_T, 100),
    _RNG.uniform(0.0, 60.0, 100),
]).tolist()


@pytest.mark.parametrize("kernel_id", list(K.KERNELS))
def test_kernel_takes_a_scalar_t_in_every_form(kernel_id):
    kern = K.KERNELS[kernel_id]
    for t in _T:
        _assert_one_result(lambda t: kern.fn(t=t, **kern.defaults), t)


_XS = np.concatenate([np.geomspace(1e-3, 1e3, 60), _RNG.uniform(0.01, 30.0, 40)])
_SS = _RNG.uniform(0.01, 0.99, _XS.size)


@pytest.mark.parametrize("bound", [B.kershaw_psi_bounds, B.kershaw_power_bounds,
                                   lambda x, s: B.q_sandwich(x, s, 0.7), lambda x, s: B.q_sandwich(x, s, 1.0)],
                         ids=["kershaw-psi", "kershaw-power", "q-sandwich", "q-sandwich-classical"])
def test_real_bound_takes_scalar_x_and_s_in_every_form(bound):
    def triple(x, s):
        out = bound(x, s)
        return out.lower, out.value, out.upper

    for x, s in zip(_XS.tolist(), _SS.tolist()):
        _assert_one_result(triple, x, s)


def test_gautschi_bounds_take_scalar_n_and_s_in_every_form():
    def triple(n, s):
        out = B.gautschi_bounds(n, s)
        return out.lower, out.value, out.upper

    for n, s in zip(np.geomspace(1, 1e6, 60).round().tolist(), _SS.tolist()):
        _assert_one_result(triple, n, s)


_S = (_RNG.uniform(0.4, 8.0, 60) + 1j * _RNG.uniform(-20.0, 20.0, 60)).tolist()


@pytest.mark.parametrize("bound", [lambda s: B.rademacher_ratio_bound(s, 0.5),
                                   lambda s: B.rademacher_ratio_bound(s, 0.25),
                                   lambda s: B.beta_ratio_modulus(s, 0.5, 0.9),
                                   lambda s: B.beta_ratio_modulus(s, 0.25, 1.5)],
                         ids=["rademacher-0.5", "rademacher-0.25", "beta-0.5-0.9", "beta-0.25-1.5"])
def test_complex_bound_takes_a_scalar_s_in_every_form(bound):
    for s in _S:
        _assert_one_result(bound, s)
