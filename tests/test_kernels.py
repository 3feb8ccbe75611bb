"""Kernel value oracles, sandwich sweeps, and sign-scan behavior."""

import math
import warnings

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
    # exactly, with no special case: e^{0 t} scales the quotient 1 by nothing
    t = np.array([0.0, 5e-324, 1e-300, 1e4, 1e300])
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
        # a or c below 0: c >= a is negative, c <= (a+b-1)/2 positive, whatever their signs
        ("thm2.5", {"a": -0.5, "b": 0.3, "c": 0.2}, "negative", 0),
        ("thm2.5", {"a": 0.2, "b": 1.0, "c": -0.1}, "positive", 0),
        ("thm2.5", {"a": -0.5, "b": 0.5, "c": -0.5}, "positive", 0),  # b = a + 1, c = a: w = 0
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


@pytest.mark.parametrize(
    "kid,params",
    [("thm2.1", {"q": 0.5}), ("thm2.1", {"s": 0.5}), ("thm2.1", {"a": 1.0}),
     ("thm2.5", {"alpha": 0.3}), ("thm4.1-mean", {"a_list": (1.0, 2.0), "c": 0.1})],
)
def test_scan_kernel_rejects_foreign_parameters(kid, params):
    accepted = ", ".join(K.KERNELS[kid].defaults)
    with pytest.raises(DomainError, match=f"accepts {accepted}$"):
        K.scan_kernel(kid, params)


# ---------------------------------------------------------------------------
# one kernel source: the t -> 0 limit is the kernel's own value at t = 0
# ---------------------------------------------------------------------------

# The hand-written limits the kernel table used to carry, kept as the reference.
OLD_LIMITS = {
    "lemma1.2": lambda alpha: 0.0,
    "thm2.1": lambda alpha: 0.5 - alpha,
    "thm2.5": lambda a, b, c: 0.0,
    "thm2.6": lambda a: 0.0,
    "thm3.1": lambda alpha: (1.0 - alpha) / 2.0,
    "thm3.2": lambda a, b, c: 0.0,
    "thm3.4": lambda alpha: 0.0,
    "thm4.1-mean": lambda a_list: 0.0,
    "thm4.1-split": lambda a_list: 0.0,
}


def _limit_samples(kid, rng, n=300):
    """Parameters inside each kernel's domain: random draws plus its regime boundaries."""
    if kid in ("lemma1.2", "thm2.1", "thm3.4"):
        lo = 1e-3 if kid == "lemma1.2" else -2.0
        draws = [{"alpha": v} for v in rng.uniform(lo, 3.0, n)]
        return draws + [{"alpha": v} for v in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0) if v > lo]
    if kid == "thm2.5":
        a = rng.uniform(-1.0, 3.0, n)
        b = a + rng.uniform(1e-6, 1.0, n)
        draws = [{"a": x, "b": y, "c": z} for x, y, z in zip(a, b, rng.uniform(-2.0, 5.0, n))]
        edges = [(0.2, 1.0, 0.1), (0.2, 1.0, 0.2), (0.2, 1.0, 0.0), (0.0, 1.0, 0.0), (0.5, 1.5, 0.5)]
        return draws + [{"a": x, "b": y, "c": z} for x, y, z in edges]
    if kid == "thm2.6":
        return [{"a": v} for v in rng.uniform(1.0, 5.0, n)] + [{"a": 1.0}, {"a": 1.0 + 1e-13}]
    if kid == "thm3.1":
        return [{"alpha": v} for v in rng.uniform(1e-6, 1.0, n)] + [
            {"alpha": v} for v in (2.0 ** -340, 1e-100, 0.5, 1.0 - 1e-16)]
    if kid == "thm3.2":
        a = rng.uniform(1e-6, 3.0, n)
        b = a + rng.uniform(1e-6, 3.0, n)
        draws = [{"a": x, "b": y, "c": z} for x, y, z in zip(a, b, rng.uniform(-2.0, 5.0, n))]
        return draws + [{"a": 0.5, "b": 1.0, "c": v} for v in (0.5, 0.6, 0.75)]
    lists = [tuple(rng.uniform(1e-3, 5.0, rng.integers(1, 6))) for _ in range(n)]
    return [{"a_list": v} for v in lists + [(0.5, 1.5), (1.0, 1.0), (0.4,)]]


@pytest.mark.parametrize("kid", sorted(OLD_LIMITS))
def test_t0_limit_is_the_kernel_at_zero_bit_for_bit(kid):
    assert set(K.KERNELS) == set(OLD_LIMITS)
    rng = np.random.default_rng(8)
    for p in _limit_samples(kid, rng):
        got = float(K.KERNELS[kid].fn(t=0.0, **p)) + 0.0
        want = OLD_LIMITS[kid](**p)
        assert got.hex() == want.hex(), (kid, p, got, want)
        _, _, rep = K.scan_kernel(kid, p, K.default_t_grid(points=5))
        assert rep.t0_limit.hex() == want.hex(), (kid, p)


def test_kernel_thm31_rejects_alpha_whose_series_overflows():
    for alpha in (2.0 ** -341, 1e-300, 0.0):
        with pytest.raises(DomainError, match="2\\^-340 <= alpha < 1"):
            K.kernel_thm31(alpha, 0.0)
    assert np.isfinite(K.kernel_thm31(2.0 ** -340, np.array([0.0, 1e-4, 1.0]))).all()


def test_sinh_ratio_at_zero_is_its_limit():
    for alpha in (1e-300, 1e-3, 0.1, 0.5, 1.0, 2.0, 7.5, 1e300):
        assert K.sinh_ratio(alpha, 0.0) == alpha
    out = K.sinh_ratio(0.5, np.array([0.0, 1.0]))
    assert out[0] == 0.5 and out[1] == K.sinh_ratio(0.5, 1.0)
    for t in (-1e-300, -1.0, np.array([1.0, -0.5])):
        with pytest.raises(DomainError, match="t >= 0"):
            K.sinh_ratio(0.5, t)


@pytest.mark.parametrize(
    "argv",
    [("thm2.5", "--a", "-1", "--b", "-0.5", "--c", "0"), ("thm3.4", "--alpha", "-1")],
)
def test_t0_limit_prints_zero_not_negative_zero(capsys, argv):
    from qgamma.cli import main

    kid, flags = argv[0], argv[1:]
    params = {k.lstrip("-"): float(v) for k, v in zip(flags[::2], flags[1::2])}
    # the small-t series sums signed zeros to -0.0 at these parameters
    assert math.copysign(1.0, K.KERNELS[kid].fn(t=0.0, **params)) == -1.0
    main(["scan-kernel", *argv, "--t-points", "5"])
    rows = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("summary,t0_limit,")]
    assert rows == ["summary,t0_limit,0"]


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.5, 0.9])
def test_kernel_thm31_matches_high_precision_at_small_alpha(alpha):
    # -alpha h(t) + h(t/alpha): no series term grows like (t/alpha)^k
    t = np.geomspace(1e-6, 50.0, 4000)
    w = K.kernel_thm31(alpha, t)
    a = mp.mpf(alpha)
    want = [-a / (1 - mp.e ** -mp.mpf(v)) + 1 / (1 - mp.e ** (-mp.mpf(v) / a)) for v in t]
    assert max(abs(float(wi - wv)) for wi, wv in zip(w, want)) <= 5e-13


# (kernel, flags, first t whose value is beyond float64, or None) on the grid
# geomspace(1e-4, 1e300, 7) = 1e-4, 4.6e46, 2.2e97, 1e148, 4.6e198, ...
_T_1E300 = np.geomspace(1e-4, 1e300, 7)
LARGE_T_SCANS = [
    ("lemma1.2", (), None),
    ("lemma1.2", ("--alpha", "1.5"), _T_1E300[1]),
    ("thm2.1", (), None),
    ("thm2.1", ("--alpha", "2"), None),
    ("thm2.5", (), None),
    ("thm2.5", ("--a", "-0.5", "--b", "0.2", "--c", "-0.3"), _T_1E300[1]),
    ("thm2.6", (), _T_1E300[1]),
    ("thm2.6", ("--a", "1"), None),
    ("thm3.1", (), None),
    ("thm3.1", ("--alpha", "0.01"), None),
    ("thm3.2", (), _T_1E300[1]),
    ("thm3.2", ("--c", "0.5"), _T_1E300[1]),
    ("thm3.4", (), None),
    ("thm3.4", ("--alpha", "-0.5"), _T_1E300[1]),
    ("thm3.4", ("--alpha", "0"), _T_1E300[4]),  # t^2/12 leaves float64 past t = 4.6e154
    ("thm4.1-mean", (), None),
    ("thm4.1-split", (), None),
]


@pytest.mark.parametrize("kid,flags,beyond", LARGE_T_SCANS)
def test_scan_to_large_t_is_finite_or_an_overflow_error(capsys, kid, flags, beyond):
    from qgamma.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["scan-kernel", kid, *flags, "--t-max", "1e300", "--t-points", "7"])
    out, err = capsys.readouterr()
    if beyond is None:
        assert code in (0, 1) and err == ""
        values = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]
                  if line.split(",")[1] in ("min", "max", "t0_limit") or line.startswith("point,")]
        assert len(values) == 10 and all(math.isfinite(v) for v in values)
    else:
        assert code == 2 and out == ""
        assert err == f"error: kernel {kid!r} at t={float(beyond)!r} exceeds the float64 range\n"


def test_scan_to_infinite_t_is_a_domain_error(capsys):
    from qgamma.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["scan-kernel", "thm2.1", "--t-max", "inf", "--t-points", "4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "t_max < inf" in err


def test_every_kernel_has_a_large_t_scan():
    assert {kid for kid, *_ in LARGE_T_SCANS} == set(K.KERNELS)


# kernels whose direct form overflows in an intermediate (e^{ct}, t^2) while
# the value itself may still be a float64, with their 40-digit references
def _ref_lemma12(t, alpha):
    r = mp.sinh(alpha * t) / mp.sinh(t)
    return min(r - alpha * mp.e ** ((alpha - 1) * t), alpha - r)


def _ref_thm25(t, a, b, c):
    return (mp.e ** (-b * t) - mp.e ** (-a * t)) / (1 - mp.e ** -t) + (b - a) * mp.e ** (-c * t)


def _ref_thm26(t, a):
    return a * mp.e ** ((a - 1) * t / 2) - mp.sinh(a * t / 2) / mp.sinh(t / 2)


def _ref_thm32(t, a, b, c):
    return 2 * mp.sinh((b - a) * t / 2) - (b - a) * t * mp.e ** (((a + b) / 2 - c) * t)


def _ref_thm34(t, alpha):
    return (12 - t ** 2 * mp.e ** (-alpha * t)) / (12 * (1 - mp.e ** -t)) - mp.mpf(1) / 2 - 1 / t


_LARGE_T_REFERENCES = [
    ("lemma1.2", {"alpha": 1.5}, _ref_lemma12),
    ("lemma1.2", {"alpha": 1.001}, _ref_lemma12),
    ("thm2.5", {"a": -0.5, "b": 0.2, "c": -0.3}, _ref_thm25),
    ("thm2.6", {"a": 1.5}, _ref_thm26),
    ("thm2.6", {"a": 4.0}, _ref_thm26),
    ("thm3.2", {"a": 0.5, "b": 1.0, "c": 0.75}, _ref_thm32),
    ("thm3.2", {"a": 0.5, "b": 1.0, "c": 0.5}, _ref_thm32),
    ("thm3.4", {"alpha": -0.5}, _ref_thm34),
    ("thm3.4", {"alpha": 0.0}, _ref_thm34),
    ("thm3.4", {"alpha": 0.5}, _ref_thm34),
]


@pytest.mark.parametrize("kid,params,ref", _LARGE_T_REFERENCES)
def test_large_t_values_are_finite_exactly_where_the_true_value_is(kid, params, ref):
    # through the overflow thresholds of e^{ct} and t^2, up to t = 1e160; the
    # dense stretches cover the bands where an intermediate overflows first
    t = np.concatenate([np.geomspace(1e-3, 1e4, 150), np.linspace(1380.0, 3000.0, 163),
                        np.geomspace(6e5, 1e6, 101), np.geomspace(1e4, 1e160, 60)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = K.KERNELS[kid].fn(t=t, **params)
    top = mp.mpf(np.finfo(float).max)
    for ti, wi in zip(t, w):
        want = ref(mp.mpf(ti), *(mp.mpf(v) for v in params.values()))
        if abs(want) > top * (1 + mp.mpf(1e-12)):
            assert wi == (math.inf if want > 0 else -math.inf), (ti, wi)
        elif abs(want) < top * (1 - mp.mpf(1e-12)):
            assert abs(wi - want) <= 1e-12 * max(1, abs(want)), (ti, wi, want)


_DEFAULT_RANGE_REFERENCES = [
    ("lemma1.2", {"alpha": 0.01}, _ref_lemma12),
    ("lemma1.2", {"alpha": 0.9}, _ref_lemma12),
    ("lemma1.2", {"alpha": 3.0}, _ref_lemma12),
    ("thm2.5", {"a": 0.2, "b": 1.0, "c": 0.1}, _ref_thm25),
    ("thm2.5", {"a": -0.5, "b": 0.3, "c": 0.2}, _ref_thm25),
    ("thm2.5", {"a": 0.2, "b": 1.0, "c": -0.1}, _ref_thm25),
    ("thm2.6", {"a": 1.0001}, _ref_thm26),
    ("thm2.6", {"a": 4.0}, _ref_thm26),
    ("thm3.2", {"a": 0.5, "b": 1.0, "c": 0.6}, _ref_thm32),
    ("thm3.2", {"a": 0.1, "b": 2.0, "c": 0.3}, _ref_thm32),
    ("thm3.4", {"alpha": -0.5}, _ref_thm34),
    ("thm3.4", {"alpha": 2.0}, _ref_thm34),
]


@pytest.mark.parametrize("kid,params,ref", _DEFAULT_RANGE_REFERENCES)
def test_factored_kernels_match_high_precision_on_the_default_grid(kid, params, ref):
    # the five kernels written with their growing factor taken out, against 40 digits on [1e-4, 50]
    t = K.default_t_grid()
    w = K.KERNELS[kid].fn(t=t, **params)
    for ti, wi in zip(t, w):
        want = ref(mp.mpf(ti), *(mp.mpf(v) for v in params.values()))
        assert abs(wi - want) <= 3e-13 * max(1, abs(want)), (ti, wi, want)


def test_exp_times_scales_without_overflow():
    rng = np.random.default_rng(3)
    bracket = rng.uniform(-2.0, 2.0, 2000) * 10.0 ** rng.uniform(-300, 300, 2000)
    assert np.array_equal(K._exp_times(0.0, bracket), bracket)
    scale = rng.uniform(-1400.0, 1400.0, 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = K._exp_times(scale, bracket)
    top = mp.mpf(np.finfo(float).max)
    for s, b, g in zip(scale, bracket, got):
        want = mp.mpf(b) * mp.e ** mp.mpf(s)
        if abs(want) > top * (1 + mp.mpf(1e-15)):
            assert g == (math.inf if want > 0 else -math.inf), (s, b, g)
        elif abs(want) >= mp.mpf(np.finfo(float).tiny):
            assert abs(g - want) <= 4e-16 * abs(want), (s, b, g, want)
    # an intermediate e^s or bracket * e^s would overflow; the product does not
    assert math.isfinite(K._exp_times(1400.0, 1e-300)) and K._exp_times(-0.5, 1.5e308) < 1.5e308
