"""Kernel value oracles, sandwich sweeps, and sign-scan behavior."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgamma import kernels as K
from qgamma.special import DomainError

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# sinh ratio sandwich
# ---------------------------------------------------------------------------


def test_sinh_ratio_values():
    assert abs(K.sinh_ratio(0.5, 1.0) - 0.44340944198503695) <= 1e-14
    lo, up = K.sinh_ratio_bounds(0.5, 1.0)
    assert abs(lo - 0.30326532985631671) <= 1e-14
    assert up == 0.5
    assert abs(K.sinh_ratio(2.0, 1.0) - 3.0861612696304876) <= 1e-13
    assert K.sinh_ratio(2.0, 1.0) > 2.0  # reversal above alpha = 1


def test_sinh_ratio_equality_at_one():
    t = np.geomspace(1e-3, 50.0, 20)
    assert np.all(K.sinh_ratio(1.0, t) == 1.0)


def test_sinh_ratio_large_t_stability():
    # naive sinh quotient would overflow near t ~ 700
    val = K.sinh_ratio(0.5, 600.0)
    assert 0.0 < val < 1e-100


def test_lemma12_quantified_sandwich():
    rng = np.random.default_rng(1234)
    alpha = rng.uniform(1e-3, 1.0 - 1e-3, 10_000)
    t = rng.uniform(1e-3, 50.0, 10_000)
    for a, tt in zip(alpha, t):
        r = K.sinh_ratio(a, tt)
        lo, up = K.sinh_ratio_bounds(a, tt)
        assert lo < r < up, (a, tt)
    alpha = rng.uniform(1.0 + 1e-3, 3.0, 1_000)
    t = rng.uniform(1e-3, 50.0, 1_000)
    for a, tt in zip(alpha, t):
        r = K.sinh_ratio(a, tt)
        lo, up = K.sinh_ratio_bounds(a, tt)
        assert lo > r > up, (a, tt)


# ---------------------------------------------------------------------------
# individual kernels
# ---------------------------------------------------------------------------


def test_kernel_thm21_examples():
    assert abs(K.kernel_thm21(0.5, 1e-7) - 0.0) <= 1e-8  # limit 1/2 - alpha = 0
    assert abs(K.kernel_thm21(1.0, 1.0) - (-0.41802329313067358)) <= 1e-14
    # one sign change for alpha = 0.75 with the root bracketed in (3, 4)
    assert K.kernel_thm21(0.75, 3.0) < 0.0 < K.kernel_thm21(0.75, 4.0)


def test_kernel_thm25_examples():
    assert abs(K.kernel_thm25(0.0, 1.0, 0.0, 1.0)) <= 1e-15
    t = np.geomspace(1e-4, 50.0, 400)
    assert np.all(K.kernel_thm25(0.2, 1.0, 0.1, t) > 0.0)
    assert np.all(K.kernel_thm25(0.2, 1.0, 0.5, t) < 0.0)
    with pytest.raises(DomainError):
        K.kernel_thm25(0.0, 1.5, 0.0, 1.0)  # b > a + 1
    with pytest.raises(DomainError):
        K.kernel_thm25(1.0, 0.5, 0.0, 1.0)


def test_kernel_thm26_examples():
    t = np.geomspace(1e-4, 50.0, 200)
    assert np.all(K.kernel_thm26(1.0, t) == 0.0)
    assert abs(K.kernel_thm26(2.0, 1.0) - 1.0421906109874947) <= 1e-13
    assert np.all(K.kernel_thm26(1.5, t) > 0.0)
    with pytest.raises(DomainError):
        K.kernel_thm26(0.9, 1.0)


def test_kernel_thm31_examples():
    assert abs(K.kernel_thm31(0.5, 1.0) - 0.36552928931500244) <= 1e-13
    t = np.geomspace(1e-4, 50.0, 300)
    for alpha in (0.1, 0.5, 0.9, 0.999):
        w = K.kernel_thm31(alpha, t)
        assert np.all(w > 0.0), alpha
    # kernel shrinks to zero uniformly as alpha -> 1
    assert float(np.max(np.abs(K.kernel_thm31(0.999, t)))) < 2e-3
    with pytest.raises(DomainError):
        K.kernel_thm31(1.0, 1.0)


def test_kernel_thm32_regimes():
    t = np.geomspace(1e-4, 50.0, 500)
    assert np.all(K.kernel_thm32(0.5, 1.0, 0.75, t) > 0.0)  # sinh theta > theta
    assert np.all(K.kernel_thm32(0.5, 1.0, 0.5, t) < 0.0)  # e^{-2x} > 1 - 2x
    w = K.kernel_thm32(0.5, 1.0, 0.6, t)
    flips = int(np.sum(np.sign(w[:-1]) != np.sign(w[1:])))
    assert flips == 1 and w[0] < 0.0 < w[-1]
    with pytest.raises(DomainError):
        K.kernel_thm32(1.0, 0.5, 0.6, 1.0)


def test_kernel_thm34_regimes():
    t = np.geomspace(1e-4, 60.0, 500)
    assert np.all(K.kernel_thm34(0.5, t) > 0.0)
    assert np.all(K.kernel_thm34(0.0, t) < 0.0)
    w = K.kernel_thm34(0.25, t)
    assert np.any(w < 0.0) and np.any(w > 0.0)


@pytest.mark.parametrize("t", [1e-4, 3e-4, 9.9e-4, 1.01e-3, 5e-3])
def test_small_t_branches_match_high_precision(t):
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        want21 = float(1 / (1 - mp.e ** -mp.mpf(t)) - 1 / mp.mpf(t) - alpha)
        assert abs(K.kernel_thm21(alpha, t) - want21) <= 5e-13
        want34 = float(
            (12 - mp.mpf(t) ** 2 * mp.e ** (-alpha * mp.mpf(t)))
            / (12 * (1 - mp.e ** -mp.mpf(t)))
            - mp.mpf(1) / 2
            - 1 / mp.mpf(t)
        )
        assert abs(K.kernel_thm34(alpha, t) - want34) <= 5e-13
    for a, b, c in [(0.0, 1.0, 0.0), (0.2, 1.0, 0.1), (0.2, 1.0, 0.5), (0.5, 1.2, 0.4)]:
        tt = mp.mpf(t)
        want25 = float(
            (mp.e ** (-b * tt) - mp.e ** (-a * tt)) / (1 - mp.e ** -tt)
            + (b - a) * mp.e ** (-c * tt)
        )
        assert abs(K.kernel_thm25(a, b, c, t) - want25) <= 5e-13
    for alpha in (0.1, 0.5, 0.9):
        tt = mp.mpf(t)
        want31 = float(-alpha / (1 - mp.e ** -tt) + 1 / (1 - mp.e ** (-tt / alpha)))
        assert abs(K.kernel_thm31(alpha, t) - want31) <= 5e-13


def test_kernel_thm41_examples():
    assert abs(K.kernel_thm41_mean((0.5, 1.5), 1.0) - (-0.093901937518178609)) <= 1e-14
    assert abs(K.kernel_thm41_split((0.5, 1.5), 1.0) - 0.30567446337554944) <= 1e-14
    t = np.geomspace(1e-4, 50.0, 300)
    assert np.all(np.abs(K.kernel_thm41_mean((0.7, 0.7, 0.7), t)) <= 1e-15)
    assert np.all(np.abs(K.kernel_thm41_split((0.4,), t)) <= 1e-15)
    # constant sign in t for distinct entries
    w = K.kernel_thm41_mean((0.5, 1.5), t)
    assert np.all(w < 0.0)


@given(
    st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=6),
    st.floats(min_value=1e-3, max_value=50.0),
)
def test_kernel_thm41_split_nonnegative(a_list, t):
    assert K.kernel_thm41_split(a_list, t) >= -1e-13


@given(st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=1, max_size=6))
def test_identity_47(z):
    lhs, rhs = K.identity_47(z)
    assert abs(lhs - rhs) <= 1e-14 * len(z) + 1e-15


def test_identity_47_examples():
    lhs, rhs = K.identity_47((0.3, 0.7))
    assert abs(lhs - 0.21) <= 1e-15 and abs(rhs - 0.21) <= 1e-15
    lhs, rhs = K.identity_47((0.0, 0.0, 0.0, 0.0))
    assert lhs == 3.0 and rhs == 3.0
    with pytest.raises(DomainError):
        K.identity_47((0.5, 1.0))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_default_t_grid():
    t = K.default_t_grid()
    assert t.size == 2000 and abs(t[0] - 1e-4) < 1e-16 and abs(t[-1] - 50.0) < 1e-12
    with pytest.raises(DomainError):
        K.default_t_grid(t_min=0.0)


@pytest.mark.parametrize(
    "kid,params,expected,changes",
    [
        ("thm2.1", {"alpha": 0.5}, "positive", 0),
        ("thm2.1", {"alpha": 1.0}, "negative", 0),
        ("thm2.1", {"alpha": 0.75}, "one-sign-change", 1),
        ("thm2.5", {"a": 0.2, "b": 1.0, "c": 0.1}, "positive", 0),
        ("thm2.5", {"a": 0.2, "b": 1.0, "c": 0.5}, "negative", 0),
        ("thm2.6", {"a": 1.5}, "positive", 0),
        ("thm3.1", {"alpha": 0.9}, "positive", 0),
        ("thm3.2", {"a": 0.5, "b": 1.0, "c": 0.75}, "positive", 0),
        ("thm3.2", {"a": 0.5, "b": 1.0, "c": 0.5}, "negative", 0),
        ("thm3.2", {"a": 0.5, "b": 1.0, "c": 0.6}, "one-sign-change", 1),
        ("thm3.4", {"alpha": 0.5}, "positive", 0),
        ("thm3.4", {"alpha": 0.0}, "negative", 0),
        ("thm3.4", {"alpha": 0.25}, "one-sign-change", 1),
        ("thm4.1-mean", {"a_list": (0.5, 1.5)}, "negative", 0),
        ("thm4.1-split", {"a_list": (0.5, 1.5)}, "positive", 0),
        ("lemma1.2", {"alpha": 0.5}, "positive", 0),
        ("lemma1.2", {"alpha": 2.0}, "negative", 0),
        ("lemma1.2", {"alpha": 1.0}, "unspecified", 0),
    ],
)
def test_scan_kernel_regimes(kid, params, expected, changes):
    _, _, rep = K.scan_kernel(kid, params)
    assert rep.expected_sign == expected
    assert rep.sign_change_count == changes
    assert rep.verdict == "match"


def test_scan_kernel_unknown_id():
    with pytest.raises(DomainError):
        K.scan_kernel("nope")


def test_scan_min_max_exclude_virtual_point():
    # the t -> 0 limit of thm3.4 is 0, but the grid minimum stays strictly
    # positive at alpha = 1/2
    _, _, rep = K.scan_kernel("thm3.4", {"alpha": 0.5})
    assert rep.t0_limit == 0.0 and rep.min_value > 0.0


def _count_sign_changes_reference(values, zero_tol):
    """The original element-by-element count, kept as the oracle for the numpy version."""
    signs = [1 if v > zero_tol else -1 if v < -zero_tol else 0 for v in values]
    nonzero = [s for s in signs if s != 0]
    return sum(1 for u, v in zip(nonzero, nonzero[1:]) if u != v)


ZERO_TOL = 1e-6


@given(
    st.lists(
        st.one_of(
            st.just(0.0),
            st.just(-0.0),
            st.floats(-ZERO_TOL, ZERO_TOL),  # inside the zero band, edges included
            st.sampled_from((ZERO_TOL, -ZERO_TOL, math.nan)),
            st.floats(-10.0, 10.0),
        ),
        max_size=60,
    )
)
def test_count_sign_changes_matches_reference(values):
    arr = np.asarray(values, dtype=float)
    got = K._count_sign_changes(arr, ZERO_TOL)
    assert type(got) is int
    assert got == _count_sign_changes_reference(arr, ZERO_TOL)
