"""High-precision reference values (mpmath, 30 digits) for values the CLI emits.

The q-series references use forms independent of the library's: the q-gamma
function as one infinite product ``prod (1-q^{n+1})/(1-q^{n+x})`` whose log is
taken once, and the q-polygamma functions through the dual Lambert series
``sum_m Li_{-n}(q^{m+x})``, whose terms decay like q^m instead of q^{kx}.

A value passes when ``|value - ref| <= 1e-12 * max(1, |ref|)``, the relative
measure the library's own ``rel_tol`` uses.  ``bound_violations`` counts the
separate, stricter question whether ``|value - ref|`` exceeds the
``abs_error_bound`` the CLI printed next to the value.
"""

from __future__ import annotations

import math
import random

import mpmath as mp

REL_LIMIT = 1e-12
_DPS = 30


def _eps():
    return mp.mpf(10) ** (-_DPS - 2)


def log_gamma_q(x, q):
    x, q = mp.mpf(x), mp.mpf(q)
    a, b, prod = q, q ** x, mp.mpf(1)
    tol = _eps() * (1 - q)
    while True:
        r = (1 - a) / (1 - b)
        prod *= r
        if abs(r - 1) < tol:
            break
        a *= q
        b *= q
    return (1 - x) * mp.log1p(-q) + mp.log(prod)


def _eulerian(n: int) -> list[int]:
    """Coefficients of the Eulerian polynomial A_n, so Li_{-n}(u) = u A_n(u)/(1-u)^{n+1}."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0) + (m - k) * (row[k - 1] if k >= 1 else 0)
            for k in range(m)
        ]
    return row


def psi_q_n(n: int, x, q):
    """n-th derivative of psi_q (n = 0 gives psi_q itself)."""
    x, q = mp.mpf(x), mp.mpf(q)
    coef = _eulerian(n) if n else []
    u, total = q ** x, mp.mpf(0)
    tol = _eps() * (1 - q)
    while True:
        if n == 0:
            term = u / (1 - u)
        else:
            poly = mp.mpf(0)
            for c in reversed(coef):
                poly = poly * u + c
            term = u * poly / (1 - u) ** (n + 1)
        total += term
        if term <= tol * abs(total):
            break
        u *= q
    lq = mp.log(q)
    base = -mp.log1p(-q) if n == 0 else 0
    return base + lq ** (n + 1) * total


def eval_reference(fn: str, x: float, q: float | None, n: int | None):
    x = mp.mpf(x)
    if fn == "log-gamma":
        return mp.loggamma(x)
    if fn == "gamma":
        return mp.gamma(x)
    if fn == "psi":
        return mp.digamma(x)
    if fn == "psi-n":
        return mp.psi(n, x)
    if fn == "gamma-q":
        return mp.exp(log_gamma_q(x, q))
    if fn == "psi-q":
        return psi_q_n(0, x, q)
    if fn == "psi-q-n":
        return psi_q_n(n, x, q)
    if fn == "dilog-F":
        return mp.polylog(2, x)
    raise ValueError(f"no reference for {fn!r}")


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _complex_log_ratio(s, plus, minus):
    return sum(mp.loggamma(s + d) for d in plus) - sum(mp.loggamma(s + d) for d in minus)


def row_samples(argv: tuple[str, ...], out: str, count: int, rng: random.Random):
    """(label, emitted value, reference) for ``count`` seeded rows of one output."""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    picks = [rows[rng.randrange(len(rows))] for _ in range(count)]
    samples = []
    for r in picks:
        if argv[0] == "q-limit-table":
            x, q = float(r[0]), float(r[1])
            samples.append((f"gamma_q@q={q}", float(r[2]), mp.exp(log_gamma_q(x, q))))
            samples.append(("gamma", float(r[3]), mp.gamma(mp.mpf(x))))
        elif argv[1] == "beta-complex":
            a, b = float(_flag(argv, "--a")), float(_flag(argv, "--b"))
            s = mp.mpc(float(r[2]), float(r[3]))
            ref = mp.exp(mp.re(_complex_log_ratio(s, (a, b), (0, a + b))))
            samples.append(("beta-complex", float(r[4]), ref))
        elif argv[1] == "rademacher":
            c = float(_flag(argv, "--c"))
            s = mp.mpc(float(r[2]), float(r[3]))
            ref = mp.exp(mp.re(_complex_log_ratio(s, (c,), (0,))))
            samples.append(("rademacher", float(r[4]), ref))
        elif argv[1] == "q-sandwich":
            params = dict(p.split("=") for p in r[1].split(";"))
            x, s, q = float(params["x"]), float(params["s"]), float(params["q"])
            value = mp.exp(log_gamma_q(x + 1, q) - log_gamma_q(x + s, q))
            upper = mp.exp((1 - mp.mpf(s)) * psi_q_n(0, x + (s + 1) / 2, q))
            samples.append(("q-sandwich.value", float(r[3]), value))
            samples.append(("q-sandwich.upper", float(r[4]), upper))
        else:
            raise ValueError(f"no row oracle for {argv[:2]}")
    return samples


class Tally:
    """Oracle outcome: sample count, failures, bound violations, worst error."""

    def __init__(self):
        self.samples = 0
        self.failures = 0
        self.bound_violations = 0
        self.max_rel_err = 0.0
        self.worst = ""

    def add(self, label: str, value: float, ref, bound: float | None = None) -> bool:
        with mp.workdps(_DPS):
            err = float(abs(mp.mpf(value) - ref))
            rel = err / max(1.0, float(abs(ref)))
        self.samples += 1
        if bound is not None and err > bound:
            self.bound_violations += 1
        if rel > self.max_rel_err or math.isnan(rel):
            self.max_rel_err = rel
            self.worst = label
        ok = rel <= REL_LIMIT
        if not ok:
            self.failures += 1
        return ok


def check_eval(argv: tuple[str, ...], out: str, tally: Tally) -> bool:
    """Compare one ``qgamma eval`` output line pair with its reference."""
    words = out.split()
    value, bound = float(words[1]), float(words[3])
    fn = argv[1]
    q = _flag(argv, "--q")
    n = _flag(argv, "--n")
    with mp.workdps(_DPS):
        ref = eval_reference(fn, float(_flag(argv, "--x")),
                             float(q) if q else None, int(n) if n else None)
    return tally.add(fn, value, ref, bound)


def check_rows(argv, out: str, count: int, rng: random.Random, tally: Tally) -> bool:
    with mp.workdps(_DPS):
        samples = row_samples(argv, out, count, rng)
    return all([tally.add(label, v, ref) for label, v, ref in samples])
