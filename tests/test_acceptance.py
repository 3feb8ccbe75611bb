"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math

import numpy as np
import pytest

from qgamma import bounds as B
from qgamma import cmcheck as cm
from qgamma import kernels as K
from qgamma import special as sp
from qgamma import theorems as T
from qgamma.cli import main as cli_main

PI2_OVER_6 = 1.6449340668482264


def _ok(num: int, desc: str):
    print(f"[acceptance] criterion {num:2d} PASS: {desc}")


def test_criterion_01_q_gamma_correctness():
    for q in (0.1, 0.5, 0.9):
        assert abs(sp.gamma_q(2.0, q).value - 1.0) <= 1e-12
        assert abs(sp.gamma_q(3.0, q).value - (1.0 + q)) <= 1e-12 * (1.0 + q)
        lq = math.log(q)
        for x in np.linspace(0.1, 20.0, 50):
            x = float(x)
            left = sp.gamma_q(x + 1.0, q).value
            right = -math.expm1(x * lq) / (1.0 - q) * sp.gamma_q(x, q).value
            assert abs(left - right) <= 1e-10 * left, (x, q)
    _ok(1, "Gamma_q special values and recurrence residual <= 1e-10 on 50-point grids")


def test_criterion_02_representation_identities():
    # discrete-mass sums against the closed forms; the sum is carried to at
    # least 60 masses and extended until its own geometric tail bound is below
    # 1e-12, so the oracle is sound at the 1e-10 comparison for every (x, q)
    max_terms_used = 0
    for x in (0.5, 1.0, 2.0):
        for q in (0.3, 0.5, 0.8):
            lq = math.log(q)
            terms = 60
            while (-lq) * q ** ((terms + 1) * x) / -math.expm1(x * lq) > 1e-12:
                terms *= 2
            max_terms_used = max(max_terms_used, terms)
            k = np.arange(1, terms + 1, dtype=float)
            sum_moment = float(np.sum(-lq * q ** (k * x)))
            sum_over_t = float(np.sum(q ** (k * x) / k))
            assert abs(sp.measure_moment(x, q) - sum_moment) <= 1e-10, (x, q)
            assert abs(sp.measure_moment_over_t(x, q) - sum_over_t) <= 1e-10, (x, q)
    _ok(2, f"moment identities match tail-certified mass sums to 1e-10 "
           f"(<= {max_terms_used} masses)")


def test_criterion_03_classical_limit():
    for x in (0.5, 1.5, 2.5):
        gx = sp.gamma(x).value
        errs = [abs(sp.gamma_q(x, q).value - gx) for q in (0.9, 0.99, 0.999)]
        assert errs[0] > errs[1] > errs[2], (x, errs)
    _ok(3, "|Gamma_q - Gamma| strictly decreases along q = 0.9, 0.99, 0.999")


def test_criterion_04_sinh_ratio_sandwich():
    rng = np.random.default_rng(42)
    alpha = rng.uniform(1e-4, 1.0 - 1e-4, 10_000)
    t = rng.uniform(1e-4, 50.0, 10_000)
    for a, tt in zip(alpha, t):
        r = K.sinh_ratio(a, tt)
        lo, up = K.sinh_ratio_bounds(a, tt)
        assert up - r > 0.0 and r - lo > 0.0, (a, tt)
    alpha = rng.uniform(1.0 + 1e-4, 3.0, 1_000)
    t = rng.uniform(1e-4, 50.0, 1_000)
    for a, tt in zip(alpha, t):
        r = K.sinh_ratio(a, tt)
        lo, up = K.sinh_ratio_bounds(a, tt)
        assert r - up > 0.0 and lo - r > 0.0, (a, tt)
    _ok(4, "strict sandwich on 10^4 samples in (0,1)x(0,50], reversed on 10^3 with alpha in (1,3]")


def test_criterion_05_kernel_sign_regimes():
    _, _, rep = K.scan_kernel("thm2.1", {"alpha": 0.5})
    assert rep.min_value >= -1e-12 and rep.verdict == "match"
    _, _, rep = K.scan_kernel("thm2.1", {"alpha": 1.0})
    assert rep.max_value <= 1e-12 and rep.verdict == "match"
    _, _, rep = K.scan_kernel("thm2.1", {"alpha": 0.75})
    assert rep.sign_change_count == 1
    lo, hi = 3.0, 4.0
    assert K.kernel_thm21(0.75, lo) < 0.0 < K.kernel_thm21(0.75, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if K.kernel_thm21(0.75, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert 3.0 < root < 4.0
    _, _, rep = K.scan_kernel("thm3.4", {"alpha": 0.5})
    assert rep.min_value > 0.0
    _, _, rep = K.scan_kernel("thm3.4", {"alpha": 0.0})
    assert rep.max_value < 0.0
    for c, expected, changes in ((0.75, "positive", 0), (0.5, "negative", 0), (0.6, "one-sign-change", 1)):
        _, _, rep = K.scan_kernel("thm3.2", {"a": 0.5, "b": 1.0, "c": c})
        assert rep.expected_sign == expected and rep.sign_change_count == changes
        assert rep.verdict == "match"
    _ok(5, f"thm2.1/thm3.4/thm3.2 kernel regimes confirmed; thm2.1 root at t = {root:.6f} in (3, 4)")


def test_criterion_06_cm_verdict_sweep(tmp_path):
    out = tmp_path / "verify_all.csv"
    code = cli_main(["verify", "all", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    # every registered branch present, "neither" branches with double witnesses
    for cid in T.registry_ids():
        assert f"\n{cid}," in text
    for neither_id in ("thm2.1-neither", "cor2.4", "thm3.2-neither", "cor3.5-neither", "cor3.6-neither"):
        rows = [ln for ln in text.splitlines() if ln.startswith(neither_id + ",")]
        assert sum(",worst-violation[" in r and r.endswith(",violates-CM") for r in rows) == 2, neither_id
    _ok(6, "verify all exits 0; every theorem branch reproduces its expected verdict")


def test_criterion_07_psi_prime_complete_monotonicity():
    grid = cm.GridSpec(0.1, 20.0, 25, "geometric", (0.125, 0.5, 1.0), 8)
    rep = cm.check_cm(lambda x: sp.psi_n(1, x).value, grid, tol_abs=1e-9, tol_rel=1e-9)
    assert rep.verdict == cm.CONSISTENT
    assert max(rep.per_order_worst) == 8
    assert abs(sp.psi_n(1, 1.0).value - PI2_OVER_6) <= 1e-10
    _ok(7, "psi' passes alternating differences to order 8 on (0.1, 20); psi'(1) = pi^2/6")


def test_criterion_08_bounds_sandwiches():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 41))
        s = float(rng.uniform(0.02, 0.98))
        t = B.gautschi_bounds(n, s)
        assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0, ("gautschi", n, s)
    for _ in range(1000):
        x = float(np.exp(rng.uniform(math.log(0.05), math.log(40.0))))
        s = float(rng.uniform(0.02, 0.98))
        t = B.kershaw_psi_bounds(x, s)
        assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0, ("kershaw-psi", x, s)
    for _ in range(1000):
        x = float(np.exp(rng.uniform(math.log(0.05), math.log(40.0))))
        s = float(rng.uniform(0.02, 0.98))
        t = B.kershaw_power_bounds(x, s)
        assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0, ("kershaw-power", x, s)
    for _ in range(1000):
        s = float(rng.uniform(0.02, 0.98))
        q = float(rng.uniform(0.05, 0.95))
        x = float(rng.uniform(-s / 2.0 + 0.05, 20.0))
        t = B.q_sandwich(x, s, q)
        assert t.lower_margin >= 0.0 and t.upper_margin >= 0.0, ("q-sandwich", x, s, q)
    t = B.kershaw_power_bounds(1.0, 0.5)
    assert abs(t.lower - 1.118034) <= 1e-6
    assert abs(t.value - 1.128379) <= 1e-6
    assert abs(t.upper - 1.168771) <= 1e-6
    _ok(8, "all four sandwiches hold on 10^3 seeded samples each; worked triple reproduced")


def test_criterion_09_complex_bounds():
    for a, b in ((0.5, 0.5), (1.0, 2.0), (0.3, 0.0)):
        sigma_lo = (1.0 - a - b) / 2.0 + 0.01
        for sigma in np.linspace(sigma_lo, 5.0, 20):
            for tau in np.linspace(-20.0, 20.0, 20):
                modulus, _ = B.beta_ratio_modulus(complex(sigma, tau), a, b)
                assert modulus <= 1.0 + 1e-10, (a, b, sigma, tau)
    for s in (1 + 3j, 2.5 - 7j, 0.2 + 0.5j):
        modulus, bound = B.rademacher_ratio_bound(s, 1.0)
        assert modulus == bound  # equality detected exactly at c = 1
    for s in (2.0 + 0j, 1 + 3j, 4 - 2j):
        modulus, bound = B.rademacher_ratio_bound(s, 0.5)
        assert modulus <= bound
    for q in (0.5, 1.0):
        s = 0.5
        xs = np.linspace(-s / 2 + 0.05, 40.0, 200)
        ratios = []
        for x in xs:
            t = B.q_sandwich(float(x), s, q)
            ratios.append(t.value / t.lower)
        assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(ratios, ratios[1:]))
        assert all(r >= 1.0 - 1e-12 for r in ratios)
        assert abs(ratios[-1] - 1.0) < 1e-4
    _ok(9, "beta-ratio modulus <= 1 on 20x20 grids; c=1 equality; monotone ratio decreases to 1")


def test_criterion_10_algebraic_identity_and_sum_margin():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        z = rng.uniform(0.0, 1.0 - 1e-12, n)
        lhs, rhs = K.identity_47(z)
        assert abs(lhs - rhs) <= 1e-14 * n, (z, lhs, rhs)
    margins = {}
    for n in range(1, 9):
        margins[n] = cm.gautschi_sum_check(n, 100_000, seed=42)
        assert margins[n] >= -1e-12, (n, margins[n])
    _ok(10, f"identity to 1e-14*n on 10^4 tuples; inverse-gamma sum margins "
            f">= 0 for n <= 8 (min {min(margins.values()):.3e})")


def test_criterion_11_determinism(tmp_path):
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(["verify", "all", "--output", str(p1)]) == 0
    assert cli_main(["verify", "all", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    _ok(11, "two runs of verify all produce byte-identical CSV")
