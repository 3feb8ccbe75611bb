#!/usr/bin/env python3
"""Evaluating the q-gamma family with honest truncation-error bounds.

Walks through Gamma_q, psi_q and their derivatives, shows what the returned
error bounds mean, and watches Gamma_q converge to Gamma as q increases to 1.
"""

import math

from qgamma import (
    EvalConfig,
    dilog_F,
    gamma,
    gamma_q,
    log_gamma_q,
    psi,
    psi_q,
    psi_q_n,
)

print("=" * 72)
print("q-gamma basics")
print("=" * 72)

# Gamma_q(x) at integer x telescopes to q-factorials:
#   Gamma_q(2) = 1, Gamma_q(3) = 1 + q, Gamma_q(4) = (1+q)(1+q+q^2)
for q in (0.1, 0.5, 0.9):
    r = gamma_q(4.0, q)
    exact = (1 + q) * (1 + q + q * q)
    print(f"Gamma_q(4) at q={q}: {r.value:.15f} (exact {exact:.15f}, "
          f"bound {r.abs_error_bound:.1e}, {r.terms_used} terms)")

# every result carries a bound on its whole error; the q-series sum a fixed
# number of terms, so tightening the tolerance changes neither the value nor
# the work, only whether the bound is certified against it
loose = log_gamma_q(0.7, 0.9, EvalConfig(rel_tol=1e-8))
tight = log_gamma_q(0.7, 0.9, EvalConfig(rel_tol=1e-14))
print(f"\nlog Gamma_q(0.7, q=0.9) at rel_tol 1e-8 : {loose.value:.15f} "
      f"+/- {loose.abs_error_bound:.1e}")
print(f"log Gamma_q(0.7, q=0.9) at rel_tol 1e-14: {tight.value:.15f} "
      f"+/- {tight.abs_error_bound:.1e}")
print(f"observed shift {abs(loose.value - tight.value):.2e} "
      f"<= promised bound {loose.abs_error_bound:.2e}")

# the classical limit: |Gamma_q(x) - Gamma(x)| shrinks as q -> 1^-
print("\nclassical limit at x = 2.5:")
gx = gamma(2.5).value
for q in (0.9, 0.99, 0.999):
    err = abs(gamma_q(2.5, q).value - gx)
    print(f"  q = {q:<6}: |Gamma_q - Gamma| = {err:.3e}")

# psi_q and its derivatives; psi_q' > 0 everywhere (it is completely monotonic)
print("\npsi_q at q = 0.5:")
for x in (0.5, 1.0, 2.0, 5.0):
    v = psi_q(x, 0.5)
    d = psi_q_n(1, x, 0.5)
    print(f"  psi_q({x}) = {v.value:+.12f}   psi_q'({x}) = {d.value:.12f}")

# the q -> 1 route is explicit: q = 1 dispatches to the classical functions
print(f"\npsi_q(2, q=1) = {psi_q(2.0, 1.0).value:.15f} "
      f"(classical psi(2) = {psi(2.0).value:.15f})")

# the dilogarithm-type series F(x) = sum x^n / n^2 backs the q-Stirling factor
r = dilog_F(1.0)
print(f"\nF(1) = {r.value:.10f} with rounding bound {r.abs_error_bound:.1e} "
      f"(pi^2/6 = {math.pi ** 2 / 6:.10f}); converged={r.converged}")
