"""Metric names and units, shared by the runner, the tracer and the self-check.

BENCHMARK.json lists the same names; ``selfcheck.py`` fails if they drift apart.
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

SPECIAL_FNS = (
    "log_gamma", "gamma", "psi", "psi_n", "log_gamma_q", "gamma_q", "psi_q",
    "psi_q_n", "dilog_F",
)
Q_FNS = {"log_gamma_q": 1, "gamma_q": 1, "psi_q": 1, "psi_q_n": 2}  # position of q
Q_BUCKETS = ("q50", "q90", "q99", "q999")
BOUND_FNS = ("beta_ratio_modulus", "q_sandwich", "rademacher_ratio_bound")
LAYERS = ("special", "cmcheck", "theorems", "kernels", "bounds", "cli")

PER_LAYER_UNITS: dict[str, str] = {}
for _fn in SPECIAL_FNS:
    PER_LAYER_UNITS.update({
        f"special.{_fn}.calls": "count",
        f"special.{_fn}.self_ms": "ms",
        f"special.{_fn}.us_per_call": "us",
        f"special.{_fn}.terms_per_call": "count",
    })
for _fn in Q_FNS:
    for _b in Q_BUCKETS:
        PER_LAYER_UNITS[f"special.{_fn}.{_b}.us_per_call"] = "us"
        PER_LAYER_UNITS[f"special.{_fn}.{_b}.terms_per_call"] = "count"
PER_LAYER_UNITS.update({
    "special.errors": "count",
    "special.converged_share": "ratio",
    "special.oracle.samples": "count",
    "special.oracle.bound_violations": "count",
    "special.oracle.max_rel_err": "ratio",
        "cmcheck.check_cm.calls": "count",
    "cmcheck.check_cm.self_ms": "ms",
    "cmcheck.evaluations": "count",
    "cmcheck.stencil_lookups": "count",
    "cmcheck.reuse_ratio": "ratio",
    "cmcheck.evals_per_s": "1/s",
    "theorems.verify_case.calls": "count",
    "theorems.verify_case.self_ms": "ms",
    "theorems.make_case.self_ms": "ms",
    "theorems.deriv.calls": "count",
    "theorems.deriv.self_ms": "ms",
    "kernels.scan_kernel.calls": "count",
    "kernels.scan_kernel.self_ms": "ms",
    "kernels.scan_kernel.points": "count",
    "kernels.scan_kernel.points_per_s": "1/s",
})
for _fn in BOUND_FNS:
    PER_LAYER_UNITS[f"bounds.{_fn}.calls"] = "count"
    PER_LAYER_UNITS[f"bounds.{_fn}.self_ms"] = "ms"
PER_LAYER_UNITS.update({
    "bounds.points_per_s": "1/s",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "cli.bytes_out": "B",
    "cli.self_us_per_kb": "us/KB",
})
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.share"] = "ratio"
PER_LAYER_UNITS.update({
    "trace.overhead_share": "ratio",
    "run.fail_share": "ratio",
    "run.frontier.attempted": "count",
    "run.frontier.failed": "count",
})
