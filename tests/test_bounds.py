"""Sandwich-bound oracles, seeded admissible sweeps, and complex-plane checks."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgamma import bounds as B
from qgamma.cli import main
from qgamma.special import DomainError

SQRT_PI = math.sqrt(math.pi)


def test_gautschi_worked_triple():
    t = B.gautschi_bounds(1, 0.5)
    assert abs(t.value - 1.1283791670955126) <= 1e-12
    assert t.lower == 1.0
    assert abs(t.upper - 1.2353967425875235) <= 1e-12
    assert t.lower_margin > 0 and t.upper_margin > 0


def test_gautschi_degenerate_limit():
    t = B.gautschi_bounds(3, 1.0 - 1e-9)
    assert abs(t.lower - 1.0) < 1e-8 and abs(t.value - 1.0) < 1e-8 and abs(t.upper - 1.0) < 1e-8


def test_gautschi_domain():
    with pytest.raises(DomainError):
        B.gautschi_bounds(0, 0.5)
    with pytest.raises(DomainError):
        B.gautschi_bounds(2, 1.0)
    # n is an integer order: 2.5 is named, not truncated to 2
    with pytest.raises(DomainError, match=r"^gautschi_bounds requires integer n >= 1, got n=2\.5, s=0\.5$"):
        B.gautschi_bounds(2.5, 0.5)


def test_kershaw_psi_worked_triple():
    t = B.kershaw_psi_bounds(1.0, 0.5)
    assert abs(t.value - 1.1283791670955126) <= 1e-12
    assert abs(t.lower - 1.1130288606258867) <= 1e-11
    assert abs(t.upper - 1.1317173148976381) <= 1e-11
    assert t.lower_margin > 0 and t.upper_margin > 0
    t = B.kershaw_psi_bounds(0.1, 0.9)
    assert t.lower_margin > 0 and t.upper_margin > 0


def test_kershaw_power_worked_triple():
    t = B.kershaw_power_bounds(1.0, 0.5)
    assert abs(t.lower - 1.118034) <= 1e-6
    assert abs(t.value - 1.128379) <= 1e-6
    assert abs(t.upper - 1.168771) <= 1e-6


def test_kershaw_power_tightens_at_large_x():
    t = B.kershaw_power_bounds(10.0, 0.3)
    assert t.lower_margin > 0 and t.upper_margin > 0
    assert t.upper_margin / t.value < 0.01


@given(
    st.floats(min_value=0.05, max_value=30.0),
    st.floats(min_value=0.02, max_value=0.98),
)
def test_kershaw_sandwiches_hold(x, s):
    t = B.kershaw_power_bounds(x, s)
    assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0
    t = B.kershaw_psi_bounds(x, s)
    assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0


def test_q_sandwich_reduces_to_classical_at_q_one():
    for x, s in [(1.0, 0.5), (0.3, 0.2), (7.0, 0.9)]:
        t = B.q_sandwich(x, s, 1.0)
        assert abs(t.lower - B.kershaw_power_bounds(x, s).lower) <= 1e-10
        assert abs(t.upper - B.kershaw_psi_bounds(x, s).upper) <= 1e-10
        assert abs(t.value - B.kershaw_power_bounds(x, s).value) <= 1e-10


def test_q_sandwich_margins_and_limit():
    t = B.q_sandwich(1.0, 0.5, 0.5)
    assert t.lower_margin > 0 and t.upper_margin > 0
    # as x grows the ratio approaches (1-q)^{s-1} and the lower margin closes
    t = B.q_sandwich(50.0, 0.5, 0.5)
    assert abs(t.value - (1.0 - 0.5) ** -0.5) <= 1e-9
    assert 0.0 <= t.lower_margin <= 1e-10


def test_q_sandwich_negative_x_region():
    # the sandwich extends left of zero down to -s/2
    t = B.q_sandwich(-0.2, 0.5, 0.5)
    assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0
    with pytest.raises(DomainError):
        B.q_sandwich(-0.25, 0.5, 0.5)


def test_monotone_ratio_decreases_to_one():
    for q in (0.5, 0.9, 1.0):
        s = 0.5
        xs = np.linspace(-s / 2 + 0.05, 40.0, 250)
        ratios = []
        for x in xs:
            t = B.q_sandwich(float(x), s, q)
            ratios.append(t.value / t.lower)
        assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(ratios, ratios[1:])), q
        assert all(r >= 1.0 - 1e-12 for r in ratios)
        assert ratios[-1] == pytest.approx(1.0, abs=1e-4)


def test_rademacher_examples():
    modulus, bound = B.rademacher_ratio_bound(2.0 + 0j, 0.5)
    assert abs(modulus - 1.329340388179137) <= 1e-12
    assert modulus <= bound == pytest.approx(math.sqrt(2.0))
    modulus, bound = B.rademacher_ratio_bound(0.7 + 2j, 0.0)
    assert modulus == 1.0 and bound == 1.0
    modulus, bound = B.rademacher_ratio_bound(1 + 3j, 1.0)
    assert modulus == bound == abs(1 + 3j)


def test_rademacher_hypothesis_errors():
    with pytest.raises(DomainError):
        B.rademacher_ratio_bound(0.1 + 1j, 0.5)  # Re(s) < (1-c)/2
    with pytest.raises(DomainError):
        B.rademacher_ratio_bound(1.0 + 0j, 1.5)
    with pytest.raises(DomainError):
        B.rademacher_ratio_bound(0.0 + 0j, 1.0)


def test_rademacher_bound_holds_on_grid():
    for c in (0.25, 0.5, 0.75, 1.0):
        for sigma in np.linspace((1.0 - c) / 2.0 + 0.01, 4.0, 8):
            for tau in (-15.0, -2.0, 0.0, 1.0, 20.0):
                s = complex(float(sigma), float(tau))
                modulus, bound = B.rademacher_ratio_bound(s, c)
                assert modulus <= bound + 1e-10, (s, c)


def test_beta_ratio_examples():
    modulus, bound = B.beta_ratio_modulus(1.0 + 0j, 0.5, 0.5)
    assert abs(modulus - math.pi / 4.0) <= 1e-12 and bound == 1.0
    modulus, _ = B.beta_ratio_modulus(2.3 + 7j, 0.0, 5.0)
    assert modulus == 1.0  # trivial at a = 0
    modulus, _ = B.beta_ratio_modulus(0.3 + 5j, 0.8, 0.6)
    assert modulus <= 1.0 + 1e-10


def test_beta_ratio_recurrence_continuation():
    # a=1, b=2 collapses to |s/(s+2)| which is reachable only through the
    # recurrence for Re(s) < 0
    s = -0.9 + 2.105j
    modulus, _ = B.beta_ratio_modulus(s, 1.0, 2.0)
    assert abs(modulus - abs(s / (s + 2.0))) <= 1e-12


def test_beta_ratio_hypothesis_errors():
    with pytest.raises(DomainError):
        B.beta_ratio_modulus(-0.2 + 1j, 0.5, 0.5)
    with pytest.raises(DomainError):
        B.beta_ratio_modulus(1.0 + 0j, 1.5, 0.0)
    with pytest.raises(DomainError):
        B.beta_ratio_modulus(1.0 + 0j, 0.5, -0.1)


def test_margin_clamping():
    assert B.BoundTriple(1.0, 1.0 + 5e-13, 1.0 + 1e-12).lower_margin == 0.0
    assert B.BoundTriple(1.0, 2.0, 3.0).lower_margin == 1.0


def test_seeded_admissible_sweeps():
    rng = np.random.default_rng(20240809)
    for _ in range(200):
        n = int(rng.integers(1, 41))
        s = float(rng.uniform(0.02, 0.98))
        t = B.gautschi_bounds(n, s)
        assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0
    for _ in range(200):
        x = float(np.exp(rng.uniform(math.log(0.05), math.log(40.0))))
        s = float(rng.uniform(0.02, 0.98))
        for fn in (B.kershaw_psi_bounds, B.kershaw_power_bounds):
            t = fn(x, s)
            assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0
    for _ in range(200):
        s = float(rng.uniform(0.02, 0.98))
        q = float(rng.uniform(0.05, 0.95))
        x = float(rng.uniform(-s / 2.0 + 0.05, 20.0))
        t = B.q_sandwich(x, s, q)
        assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0, (x, s, q)


# ---------------------------------------------------------------------------
# array-native complex bounds
# ---------------------------------------------------------------------------


def _mesh(sigmas, taus) -> np.ndarray:
    s = np.empty((len(sigmas), len(taus)), dtype=complex)
    s.real = np.asarray(sigmas, dtype=float)[:, None]
    s.imag = np.asarray(taus, dtype=float)[None, :]
    return s


def _seeded_grid(rng, sig_lo, sig_hi, n_sig=9, n_tau=11) -> np.ndarray:
    # the grid's lowest sigma sits at sig_lo, where the recurrence goes deepest
    sigmas = np.concatenate([[sig_lo], np.sort(rng.uniform(sig_lo, sig_hi, n_sig - 1))])
    taus = np.sort(rng.uniform(-25.0, 25.0, n_tau))
    return _mesh(sigmas, taus)


def _mp_modulus(num, den) -> float:
    with mp.workdps(40):
        lg = mp.fsum(mp.loggamma(mp.mpc(z)) for z in num) - mp.fsum(
            mp.loggamma(mp.mpc(z)) for z in den
        )
        return float(mp.exp(mp.re(lg)))


# (a, b) pairs; a = 1, b = 2 puts Re s down to -1 and every argument's shift k at
# up to 2, so the recurrence continuation is covered
BETA_PARAMS = ((0.5, 0.5), (0.3, 0.9), (1.0, 2.0), (0.8, 3.5))


@pytest.mark.parametrize("a,b", BETA_PARAMS)
def test_beta_ratio_array_matches_mpmath(a, b):
    rng = np.random.default_rng(int(1000 * a + 10 * b))
    lo = (1.0 - a - b) / 2.0
    s = _seeded_grid(rng, lo + 0.01, lo + 6.0)
    modulus, bound = B.beta_ratio_modulus(s, a, b)
    assert modulus.shape == bound.shape == s.shape and np.all(bound == 1.0)
    for z, m in zip(s.ravel().tolist(), modulus.ravel().tolist()):
        ref = _mp_modulus((z + a, z + b), (z, z + a + b))
        assert abs(m - ref) <= 1e-12 * ref, (z, a, b, m, ref)


@pytest.mark.parametrize("c", (0.1, 0.5, 0.93))
def test_rademacher_array_matches_mpmath(c):
    rng = np.random.default_rng(int(100 * c))
    lo = (1.0 - c) / 2.0
    s = _seeded_grid(rng, lo, lo + 6.0)
    modulus, bound = B.rademacher_ratio_bound(s, c)
    for z, m, bv in zip(s.ravel().tolist(), modulus.ravel().tolist(), bound.ravel().tolist()):
        ref = _mp_modulus((z + c,), (z,))
        assert abs(m - ref) <= 1e-12 * ref, (z, c, m, ref)
        assert bv == pytest.approx(abs(z) ** c, rel=1e-15)


def test_beta_recurrence_reaches_shift_two():
    # Re(s) in (-1, -1/2) with a = 1, b = 2: Gamma(s) needs two recurrence steps
    s = np.array([-0.9 + 0.3j, -0.6 - 4.0j, -0.99 + 0.0j])
    modulus, _ = B.beta_ratio_modulus(s, 1.0, 2.0)
    np.testing.assert_allclose(modulus, np.abs(s / (s + 2.0)), rtol=1e-13)


@pytest.mark.parametrize(
    "fn,args",
    [
        (B.beta_ratio_modulus, (0.5, 0.5)),
        (B.beta_ratio_modulus, (1.0, 2.0)),
        (B.beta_ratio_modulus, (0.0, 2.0)),
        (B.rademacher_ratio_bound, (0.37,)),
        (B.rademacher_ratio_bound, (0.0,)),
        (B.rademacher_ratio_bound, (1.0,)),
    ],
)
def test_array_call_equals_scalar_calls_bitwise(fn, args):
    s = _mesh(np.linspace(0.55, 4.0, 7), np.linspace(-12.0, 12.0, 9))
    modulus, bound = fn(s, *args)
    assert isinstance(modulus, np.ndarray) and modulus.shape == s.shape
    for idx in np.ndindex(s.shape):
        m, bv = fn(complex(s[idx]), *args)
        assert type(m) is float and type(bv) is float
        assert m == modulus[idx] and bv == bound[idx], (idx, m, modulus[idx])


def test_complex_bounds_exact_cases_elementwise():
    s = _mesh([0.5, 1.0, 3.0], [-2.0, 0.0, 7.0])
    modulus, bound = B.beta_ratio_modulus(s, 0.0, 5.0)
    assert np.all(modulus == 1.0) and np.all(bound == 1.0)
    modulus, bound = B.rademacher_ratio_bound(s, 0.0)
    assert np.all(modulus == 1.0) and np.all(bound == 1.0)
    modulus, bound = B.rademacher_ratio_bound(s, 1.0)
    assert np.array_equal(modulus, np.abs(s)) and np.array_equal(bound, np.abs(s))


def test_hypothesis_violation_names_first_s_in_row_order():
    s = _mesh([-0.3, -0.1, 1.0], [2.0, -5.0])
    with pytest.raises(DomainError, match=r"s=\(-0\.3\+2j\)"):
        B.beta_ratio_modulus(s, 0.5, 0.5)
    s = _mesh([1.0, 0.1, 0.05], [-1.0, 3.0])
    with pytest.raises(DomainError, match=r"s=\(0\.1-1j\)"):
        B.rademacher_ratio_bound(s, 0.5)


@pytest.mark.parametrize("bad", [complex("nan+1j"), complex(1.0, math.inf), complex(math.inf, 0.0)])
def test_non_finite_grid_raises(bad):
    s = _mesh([1.0, 2.0], [0.0, 1.0])
    s[1, 0] = bad
    with pytest.raises(DomainError):
        B.beta_ratio_modulus(s, 0.5, 0.5)
    with pytest.raises(DomainError):
        B.rademacher_ratio_bound(s, 0.5)
    with pytest.raises(DomainError):
        B.beta_ratio_modulus(bad, 0.5, 0.5)


def test_pole_in_grid_raises():
    # a = 1, b = 2 admits Re s > -1, so s = 0 and s = -1/2 + 0j are allowed; Gamma(s)
    # has a pole at 0
    s = _mesh([-0.5, 0.0, 0.5], [0.0])
    with pytest.raises(DomainError, match="pole"):
        B.beta_ratio_modulus(s, 1.0, 2.0)
    with pytest.raises(DomainError, match="pole"):
        B.beta_ratio_modulus(-1.0 + 0j, 1.0, 3.0)  # Gamma(s) pole at -1, two steps down
    with pytest.raises(DomainError):
        B.beta_ratio_modulus(1.0 + 0j, 0.5, math.inf)
    with pytest.raises(DomainError, match="recurrence steps"):
        B.beta_ratio_modulus(-1e200 + 1j, 1.0, 1e300)  # admissible, but 1e200 steps down


_EPS = 2.0 ** -52


def _far_grid(rng, n=60) -> np.ndarray:
    # Re s from -1.7 (shift depths k = 1..3 for s, s + 1) out to |s| ~ 1e6, |tau| up to 1e3
    re = np.concatenate([rng.uniform(-1.7, 0.5, n), rng.uniform(0.5, 50.0, n), 10.0 ** rng.uniform(2.0, 6.0, n)])
    im = rng.uniform(-1e3, 1e3, 3 * n) * rng.choice([1e-3, 1.0], 3 * n)
    return re + 1j * im


def test_log_abs_gamma_matches_mpmath():
    # log|Gamma| sums terms up to |z| log|z| in size, so its error is measured against that scale
    z = _far_grid(np.random.default_rng(20))
    lg = B._log_abs_gamma(z)
    assert lg.dtype == float
    with mp.workdps(40):
        for zz, v in zip(z.tolist(), lg.tolist()):
            ref = mp.re(mp.loggamma(mp.mpc(zz)))
            assert abs(v - ref) <= 32 * _EPS * (1.0 + abs(zz) * math.log(abs(zz) + 11.0)), (zz, v, ref)


def test_beta_modulus_far_out_matches_mpmath():
    # a = 1, b = 3.5: the modulus is |s/(s+3.5)|.  It is exp of a sum of four log|Gamma| values,
    # so beyond 1e-12 relative its error is counted in ulps of the largest of them (ROADMAP item 10)
    a, b = 1.0, 3.5
    s = _far_grid(np.random.default_rng(21))
    modulus, _ = B.beta_ratio_modulus(s, a, b)
    with mp.workdps(40):
        for z, m in zip(s.tolist(), modulus.tolist()):
            zz = mp.mpc(z)
            ref = abs(zz / (zz + b))
            largest = max(abs(mp.re(mp.loggamma(zz + d))) for d in (0.0, a, b, a + b))
            assert abs(m - ref) <= max(1e-12, 16 * _EPS * largest) * ref, (z, m, ref)
    near = s[np.abs(s) <= 30.0]
    modulus, _ = B.beta_ratio_modulus(near, a, b)
    np.testing.assert_allclose(modulus, np.abs(near / (near + b)), rtol=1e-12)


@pytest.mark.parametrize("s", [1e300 + 1j, 1e-300 + 1e300j, 1e200 - 1e200j, 1e16 + 1e16j])
def test_huge_s_gives_finite_moduli(s):
    # the shift's product of ten |u + j|^2 would overflow from |s| ~ 1e15; normalised by |w| it cannot
    for a, b in ((0.5, 0.5), (1.0, 3.5)):
        modulus, _ = B.beta_ratio_modulus(s, a, b)
        assert abs(modulus - 1.0) <= 1e-12, (s, a, b, modulus)
    if s.real >= 0.25:
        modulus, _ = B.rademacher_ratio_bound(s, 0.5)
        assert math.isfinite(modulus)


def test_beta_complex_at_sigma_1e300_exits_0(capsys):
    code = main(["bounds", "beta-complex", "--a", "0.5", "--b", "0.5", "--sigma", "1e300", "--tau", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1] == "beta-complex,a=0.5;b=0.5,1.0000000000000001e+300,1,1,1,0"


@pytest.mark.xfail(strict=True, reason="two log-gamma values near 3.6e17 cancel (ROADMAP item 10)")
def test_rademacher_ratio_without_cancellation_at_1e16():
    modulus, bound = B.rademacher_ratio_bound(1e16 + 0j, 0.5)
    assert bound == 1e8
    assert modulus == pytest.approx(1e8, rel=1e-8)


@pytest.mark.parametrize(
    "argv",
    [
        ("beta-complex", "--a", "1", "--b", "2", "--sigma-grid", "-0.5:0.5:3", "--tau", "0"),
        ("beta-complex", "--a", "0.5", "--b", "0.5", "--sigma", "nan", "--tau-grid", "0:1:3"),
        ("beta-complex", "--a", "0.5", "--b", "0.5", "--sigma-grid", "1:2:3", "--tau", "inf"),
        ("rademacher", "--c", "0.5", "--sigma", "inf", "--tau", "1"),
        ("rademacher", "--c", "0.5", "--sigma-grid", "1:2:3", "--tau", "-inf"),
    ],
)
def test_cli_bad_complex_grid_exits_2_without_output(capsys, tmp_path, argv):
    out_path = tmp_path / "never.csv"
    code = main(["bounds", *argv, "--output", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out_path.exists()
