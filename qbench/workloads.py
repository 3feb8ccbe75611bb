"""Seeded command streams for the qgamma benchmark and the checks on their output.

A workload is one pass of CLI argv lists.  The stream runner repeats the pass
in a freshly permuted order until the run's time is used up, so every command
after the first pass is also a repeat whose CSV must be byte-identical to the
first.  Everything here is derived from the benchmark seed; the program under
test receives only the generated argv.

The case and kernel ids are fixed here rather than read from the library, so a
change that drops a registered branch shows as lost work instead of silently
shrinking the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

CORPUS_IDS = (
    "thm2.1", "thm2.1-pos", "thm2.1-neither", "thm2.2", "thm2.2-pos", "thm2.3",
    "thm2.3-pos", "cor2.4", "cor2.4-neg", "cor2.4-pos", "thm2.5", "thm2.5-pos",
    "thm2.6", "thm3.1", "thm3.2", "thm3.2-pos", "thm3.2-neither", "thm3.4",
    "thm3.4-low", "cor3.5", "cor3.5-low", "cor3.5-neither", "cor3.6", "cor3.6-low",
    "cor3.6-neither", "thm4.1-mean", "thm4.1-split", "psi-prime",
)

# the branches whose registered parameters include q
Q_IDS = (
    "thm2.2", "thm2.2-pos", "thm2.3", "thm2.3-pos", "thm2.5", "thm2.5-pos",
    "thm2.6", "thm3.1", "thm3.2", "thm3.2-pos", "thm3.2-neither", "thm3.4",
    "thm3.4-low", "cor3.5", "cor3.5-low", "cor3.5-neither", "thm4.1-mean",
    "thm4.1-split",
)

KERNEL_IDS = (
    "lemma1.2", "thm2.1", "thm2.5", "thm2.6", "thm3.1", "thm3.2", "thm3.4",
    "thm4.1-mean", "thm4.1-split",
)

WORKLOADS = ("corpus", "deep-q", "grids")

FRONTIER_Q = 0.999
ORACLE_REL_TOL = "1e-14"  # the corpus evaluates its primitives at this tolerance


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what a correct answer must contain.

    ``kind`` selects the output check; ``size`` is the number of branches,
    grid points or table rows the output must hold.
    """

    argv: tuple[str, ...]
    kind: str  # verify | bounds-real | bounds-complex | scan | q-limit | eval
    size: int


@dataclass
class Workload:
    name: str
    work_unit: str  # what work_per_s counts: "branches" or "points"
    commands: list[Command]
    # attempted once per run outside the timed stream: inputs that fail today
    frontier: list[Command] = field(default_factory=list)
    oracle_evals: list[Command] = field(default_factory=list)
    # stream commands whose first output is kept for the oracle, with rows to sample
    oracle_rows: dict[tuple[str, ...], int] = field(default_factory=dict)


def _g(v: float) -> str:
    return repr(float(v))


def _grid(lo: float, hi: float, n: int) -> str:
    return f"{_g(lo)}:{_g(hi)}:{n}"


# ---------------------------------------------------------------------------
# corpus: one verify per registered branch
# ---------------------------------------------------------------------------


def _corpus(rng: random.Random, tiny: bool) -> Workload:
    ids = CORPUS_IDS[:3] if tiny else CORPUS_IDS
    cmds = [Command(("verify", cid), "verify", 1) for cid in ids]
    evals = _eval_sample(rng, 6 if tiny else 24, qs=(0.5,), classical=True)
    return Workload("corpus", "branches", cmds, oracle_evals=evals)


# ---------------------------------------------------------------------------
# deep-q: the q-bearing branches close to q = 1
# ---------------------------------------------------------------------------


def _deep_q(rng: random.Random, tiny: bool) -> Workload:
    ids = Q_IDS[:2] if tiny else Q_IDS
    cmds = [
        Command(("verify", cid, "--q", q), "verify", 1)
        for q in ("0.9", "0.99")
        for cid in ids
    ]
    points, order = ("10", "4") if tiny else ("200", "12")
    cmds.append(
        Command(
            ("verify", "thm3.2", "--q", "0.99", "--points", points, "--max-order", order),
            "verify",
            1,
        )
    )
    qs = ("0.5", "0.9", "0.99", "0.995", "0.999")
    tables = []
    for _ in range(1 if tiny else 6):
        xs = sorted(round(rng.uniform(0.1, 5.0), 6) for _ in range(2))
        argv = ("q-limit-table", "--x", ",".join(_g(x) for x in xs), "--q", ",".join(qs))
        tables.append(Command(argv, "q-limit", len(xs) * len(qs)))
    cmds += tables
    frontier = [
        Command(("verify", cid, "--q", repr(FRONTIER_Q)), "verify", 1) for cid in ids
    ]
    evals = _eval_sample(rng, 4 if tiny else 8, qs=(0.9, 0.99), classical=False)
    rows = {rng.choice(tables).argv: 2}
    return Workload("deep-q", "branches", cmds, frontier, evals, rows)


# ---------------------------------------------------------------------------
# grids: complex bound tiles, full-range kernel scans, a real q-sandwich grid
# ---------------------------------------------------------------------------


def _complex_tiles(kind, params, sig_lo, sig_hi, tau_lo, tau_hi, n_sig, n_tau, tiles):
    """Cut an n_sig x n_tau grid into tiles[0] x tiles[1] commands on its own nodes."""
    ts, tt = tiles
    ks, kt = n_sig // ts, n_tau // tt
    sig = lambda i: sig_lo + (sig_hi - sig_lo) * i / (n_sig - 1)
    tau = lambda j: tau_lo + (tau_hi - tau_lo) * j / (n_tau - 1)
    out = []
    for i in range(ts):
        for j in range(tt):
            argv = ("bounds", kind, *params,
                    "--sigma-grid", _grid(sig(i * ks), sig(i * ks + ks - 1), ks),
                    "--tau-grid", _grid(tau(j * kt), tau(j * kt + kt - 1), kt))
            out.append(Command(argv, "bounds-complex", ks * kt))
    return out


def _kernel_params(kid: str, rng: random.Random) -> tuple[str, ...]:
    """Parameters inside one of the kernel's sign regimes, away from its boundaries.

    For the one-sign-change regimes the draw also keeps the root inside the
    default t range, so a full-range scan sees the change.
    """
    u = rng.uniform
    regime = rng.randrange(3)
    if kid == "lemma1.2":
        return ("--alpha", _g(u(0.15, 0.85) if regime else u(1.2, 2.0)))
    if kid == "thm2.1":
        return ("--alpha", _g((u(0.1, 0.4), u(0.6, 0.9), u(1.1, 1.5))[regime]))
    if kid == "thm2.5":
        a = u(0.2, 0.6)
        b = a + u(0.6, 1.0)
        lo = (a + b - 1.0) / 2.0
        c = (u(0.1, 0.8) * lo, lo + u(0.3, 0.7) * (a - lo), a + u(0.1, 0.5))[regime]
        return ("--a", _g(a), "--b", _g(b), "--c", _g(c))
    if kid == "thm2.6":
        return ("--a", _g(u(1.2, 2.5)))
    if kid == "thm3.1":
        return ("--alpha", _g(u(0.2, 0.8)))
    if kid == "thm3.2":
        a = u(0.2, 0.8)
        b = a + u(0.4, 1.0)
        mid = (a + b) / 2.0
        c = (mid + u(0.05, 0.5), a + u(0.3, 0.7) * (mid - a), a - u(0.05, 0.15))[regime]
        return ("--a", _g(a), "--b", _g(b), "--c", _g(c))
    if kid == "thm3.4":
        return ("--alpha", _g((u(0.6, 1.5), u(0.15, 0.35), u(-0.5, -0.1))[regime]))
    # thm4.1-mean / thm4.1-split
    a_list = sorted(u(0.2, 2.5) for _ in range(rng.choice((2, 3))))
    return ("--a-list", ",".join(_g(a) for a in a_list))


def _grids(rng: random.Random, tiny: bool) -> Workload:
    u = rng.uniform
    strips, n_sig, n_tau, tiles = (1, 8, 8, (2, 1)) if tiny else (10, 20, 200, (5, 1))
    # Each strip draws its own (a, b) and grid.  The cost of a complex log_gamma
    # depends on |s|, so a run's cost follows its draws; ten independent strips
    # keep it near the mean over seeds.  Every tile spans its strip's whole tau
    # range, so tile costs vary smoothly with sigma and the median latency does
    # not sit on a jump between cheap large-|tau| and dear small-|tau| tiles.
    # b <= 0.95: for a < 1 and b > 1 the modulus exceeds 1 near the real axis
    # although Re s > (1-a-b)/2 holds; the frontier probe below keeps that visible
    beta = []
    for _ in range(strips):
        a, b = u(0.2, 0.9), u(0.2, 0.95)
        sig_lo = (1.0 - a - b) / 2.0 + u(0.02, 0.2)
        tau_half, tau_off = u(15.0, 25.0), u(-2.0, 2.0)
        beta += _complex_tiles(
            "beta-complex", ("--a", _g(a), "--b", _g(b)), sig_lo, sig_lo + u(4.0, 6.0),
            tau_off - tau_half, tau_off + tau_half, n_sig, n_tau, tiles,
        )
    c = u(0.1, 0.9)
    rsig = (1.0 - c) / 2.0 + u(0.02, 0.2)
    tau_half = u(15.0, 25.0)
    r_sig, r_tau, r_tiles = (4, 8, (1, 1)) if tiny else (100, 40, (5, 1))
    rade = _complex_tiles(
        "rademacher", ("--c", _g(c)),
        rsig, rsig + u(4.0, 6.0), -tau_half, tau_half, r_sig, r_tau, r_tiles,
    )
    t_points = 2000 if tiny else 200_000
    kernels = KERNEL_IDS[:2] if tiny else KERNEL_IDS
    scans = [
        Command(("scan-kernel", kid, *_kernel_params(kid, rng), "--t-points", str(t_points)),
                "scan", t_points)
        for kid in kernels
    ]
    q = u(0.5, 0.95)
    x_lo, x_step = u(0.02, 0.3), u(2.0, 3.0)
    s_lo = u(0.02, 0.1)
    sandwich = []
    for k in range(1 if tiny else 2):
        x0 = x_lo + k * x_step
        argv = ("bounds", "q-sandwich", "--q", _g(q),
                "--x-grid", _grid(x0, x0 + 0.95 * x_step, 20),
                "--s-grid", _grid(s_lo, 1.0 - s_lo, 10))
        sandwich.append(Command(argv, "bounds-real", 200))
    cmds = beta + rade + scans + sandwich
    rows = {rng.choice(beta).argv: 4, rng.choice(beta).argv: 4,
            rng.choice(rade).argv: 2, rng.choice(sandwich).argv: 3}
    evals = [
        Command(("eval", fn, "--x", _g(u(0.1, 6.0)), "--q", _g(q), "--rel-tol", ORACLE_REL_TOL),
                "eval", 1)
        for fn in ("gamma-q", "psi-q", "gamma-q", "psi-q")
    ]
    pa, pb = u(0.2, 0.6), u(1.15, 1.4)
    p_lo = (1.0 - pa - pb) / 2.0
    probe = Command(("bounds", "beta-complex", "--a", _g(pa), "--b", _g(pb),
                     "--sigma-grid", _grid(p_lo + 0.02, p_lo + 0.1, 4),
                     "--tau-grid", "-0.5:0.5:5"), "bounds-complex", 20)
    return Workload("grids", "points", cmds, [probe], evals, rows)


# ---------------------------------------------------------------------------
# oracle sample of evaluator calls on the corpus lattice
# ---------------------------------------------------------------------------


def _lattice() -> list[float]:
    """Every positive x + j*h of the registered corpus stencils."""
    from qgamma import theorems

    pts = set()
    for cid in CORPUS_IDS:
        g = theorems.make_case(cid).grid
        for x in g.xs():
            for h in g.h_set:
                for j in range(g.max_order + 1):
                    pts.add(round(float(x) + j * h, 12))
    return sorted(p for p in pts if p > 0.0)


def _eval_sample(rng: random.Random, count: int, qs, classical: bool) -> list[Command]:
    lattice = _lattice()
    fns = ["gamma-q", "psi-q", "psi-q-n"]
    if classical:
        fns += ["log-gamma", "gamma", "psi", "psi-n", "dilog-F"]
    out = []
    for k in range(count):
        fn = fns[k % len(fns)]
        q = qs[rng.randrange(len(qs))]
        x = rng.choice(lattice)
        argv = ["eval", fn, "--x", _g(x)]
        if fn == "dilog-F":
            argv[3] = _g(q ** x)
        if fn.endswith("-q") or fn == "psi-q-n":
            argv += ["--q", _g(q)]
        if fn.endswith("-n"):
            argv += ["--n", str(rng.randint(1, 4))]
        argv += ["--rel-tol", ORACLE_REL_TOL]
        out.append(Command(tuple(argv), "eval", 1))
    return out


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "corpus":
        return _corpus(rng, tiny)
    if name == "deep-q":
        return _deep_q(rng, tiny)
    if name == "grids":
        return _grids(rng, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _rows(out: str, header: str) -> list[list[str]] | None:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def check(cmd: Command, rc, out: str) -> tuple[bool, int]:
    """(output is correct, units of work it verified).

    Exit code 0 is required everywhere; then every verify branch must read
    ``match``, every bound margin must be >= 0, a scan must end in
    ``verdict,match``, and each output must hold exactly ``cmd.size`` items.
    """
    if rc != 0:
        return False, 0
    if cmd.kind == "verify":
        rows = _rows(out, "case,params,metric,value,verdict")
        if rows is None:
            return False, 0
        verdicts = [r[4] for r in rows if len(r) == 5 and r[2] == "expected-verdict"]
        ok = len(verdicts) == cmd.size and all(v == "match" for v in verdicts)
        return ok, len(verdicts) if ok else 0
    if cmd.kind == "bounds-real":
        rows = _rows(out, "bound,params,lower,value,upper,lower_margin,upper_margin")
        ok = rows is not None and len(rows) == cmd.size and all(
            float(r[5]) >= 0.0 and float(r[6]) >= 0.0 for r in rows
        )
        return ok, cmd.size if ok else 0
    if cmd.kind == "bounds-complex":
        rows = _rows(out, "bound,params,s_re,s_im,modulus,bound_value,margin")
        ok = rows is not None and len(rows) == cmd.size and all(float(r[6]) >= 0.0 for r in rows)
        return ok, cmd.size if ok else 0
    if cmd.kind == "scan":
        # counted in place: splitting 200k rows would dominate the run's peak RSS
        ok = (
            out.startswith("row_type,key,value\n")
            and out.count("\npoint,") == cmd.size
            and out.endswith("\nsummary,verdict,match\n")
        )
        return ok, cmd.size if ok else 0
    if cmd.kind == "q-limit":
        rows = _rows(out, "x,q,gamma_q,gamma,abs_error")
        return rows is not None and len(rows) == cmd.size, 0
    if cmd.kind == "eval":
        lines = out.split()
        return len(lines) == 4 and lines[0] == "value" and lines[2] == "abs_error_bound", 0
    raise ValueError(f"unknown command kind {cmd.kind!r}")
