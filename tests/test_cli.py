"""CLI contract: exit codes, CSV shape and determinism, flag validation."""

import contextlib
import hashlib
import io
import math
import os
import shlex
import stat
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgamma
from qgamma import cli, special
from qgamma.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_gamma_q(capsys):
    code, out = run(capsys, "eval", "gamma-q", "--x", "3", "--q", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("value ") and lines[1].startswith("abs_error_bound ")
    assert float(lines[0].split()[1]) == pytest.approx(1.5, abs=1e-12)


def test_eval_psi_at_one(capsys):
    code, out = run(capsys, "eval", "psi", "--x", "1")
    assert code == 0
    assert float(out.splitlines()[0].split()[1]) == pytest.approx(-0.5772156649015329, abs=1e-13)


def test_eval_order_0_is_psi_and_psi_q(capsys):
    # order 0 of psi-n and psi-q-n prints the bytes of psi and psi-q
    assert run(capsys, "eval", "psi-n", "--n", "0", "--x", "1.3") == run(capsys, "eval", "psi", "--x", "1.3")
    assert (run(capsys, "eval", "psi-q-n", "--n", "0", "--x", "1.3", "--q", "0.5")
            == run(capsys, "eval", "psi-q", "--x", "1.3", "--q", "0.5"))
    assert run(capsys, "eval", "psi-n", "--n", "-1", "--x", "1.3")[0] == 2


def test_eval_psi_q_where_x_log_q_is_subnormal(capsys):
    # psi_q(5e-308, 0.9) ~ -1/x lies in float64, although q^x/(1-q^x) does not
    code, out = run(capsys, "eval", "psi-q", "--x", "5e-308", "--q", "0.9")
    assert code == 0
    assert float(out.splitlines()[0].split()[1]) == pytest.approx(-2e307, rel=1e-12)


def test_eval_dilog_zero(capsys):
    code, out = run(capsys, "eval", "dilog-F", "--x", "0")
    assert code == 0
    assert float(out.splitlines()[0].split()[1]) == 0.0


def test_eval_usage_errors(capsys):
    assert run(capsys, "eval", "psi")[0] == 2  # missing --x
    assert run(capsys, "eval", "psi", "--x", "abc")[0] == 2  # malformed number
    assert run(capsys, "eval", "nope", "--x", "1")[0] == 2  # unknown function
    assert run(capsys, "eval", "psi", "--x", "1", "--bogus", "3")[0] == 2
    assert run(capsys, "eval", "psi", "--x", "-2")[0] == 2  # domain error
    assert run(capsys, "eval", "gamma-q", "--x", "2")[0] == 2  # missing --q


# the flags each eval function reads besides --x and --rel-tol
EVAL_READS = {
    "gamma": (), "log-gamma": (), "psi": (), "psi-n": ("--n",), "gamma-q": ("--q",),
    "psi-q": ("--q",), "psi-q-n": ("--n", "--q"), "dilog-F": (),
}


@settings(max_examples=200)  # covers all 90 combinations
@given(
    fn=st.sampled_from(sorted(EVAL_READS)),
    x=st.sampled_from(("1e-300", "1e300", "inf", "-inf", "nan")),
    q=st.sampled_from(("0.5", repr(1.0 - 1e-6))),
    n=st.sampled_from(("1", "3")),
)
def test_eval_extreme_inputs_exit_cleanly(fn, x, q, n):
    # extreme or non-finite input is a value or a typed error (exit 2); never a
    # traceback (exit 1) or a NaN / infinity printed with exit 0
    # and no numpy RuntimeWarning (overflow, invalid) along the way
    # each function gets only the flags it reads, so no run stops at the flag check
    argv = ["eval", fn, "--x", x]
    argv += [tok for flag in EVAL_READS[fn] for tok in (flag, {"--q": q, "--n": n}[flag])]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (fn, x, q, n, runtime)
    assert code in (0, 2), (fn, x, q, n, err.getvalue())
    if code == 0:
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), out.getvalue()
        assert err.getvalue() == "", (fn, x, err.getvalue())
    else:
        assert err.getvalue().startswith("error: ")
        assert "selected by" not in err.getvalue()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_case(capsys, tmp_path):
    out_path = tmp_path / "thm31.csv"
    code, _ = run(capsys, "verify", "thm3.1", "--q", "0.5", "--alpha", "0.5",
                  "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "case,params,metric,value,verdict"
    assert any("consistent-with-CM" in ln for ln in lines)
    assert lines[-1] != ""


def test_verify_neither_confirmed(capsys):
    code, out = run(capsys, "verify", "cor2.4", "--alpha", "0.75")
    assert code == 0
    assert [ln.split(",")[-1] for ln in out.splitlines() if ",worst-violation[" in ln] == ["violates-CM"] * 2
    assert "match" in out


def test_verify_prefix_selector(capsys):
    code, out = run(capsys, "verify", "thm4.1")
    assert code == 0
    assert "thm4.1-mean" in out and "thm4.1-split" in out


def test_verify_mismatch_exits_one(capsys):
    # psi' is CM on its whole half-line, so forcing the expectation through a
    # non-CM interval is impossible; instead check a wrong-direction override:
    # thm2.1 at alpha=2 expects f' CM and passes, but alpha=0.75 through a
    # tiny max_order grid cannot exhibit both violations
    code, _ = run(capsys, "verify", "thm2.1-neither", "--max-order", "1",
                  "--points", "3", "--x-min", "5", "--x-max", "6")
    assert code == 1


@pytest.mark.parametrize("case_id", ["thm2.2", "thm3.2"])
def test_verify_near_q_one(capsys, case_id):
    code, out = run(capsys, "verify", case_id, "--q", "0.9999")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if ",expected-verdict," in ln]
    assert len(rows) == 1 and rows[0][-1] == "match"


@pytest.mark.parametrize("argv", [("psi-prime", "--max-order", "40"), ("cor3.5-neither", "--s", "0.5")])
def test_verify_high_order_rows_settle_what_stencils_could_not(capsys, argv):
    # psi' at order 40: a stencil's roundoff grew like 40!/x^41 past a fixed threshold, an
    # analytic row carries its own radius; cor3.5-neither at s = 0.5: the positive masses
    # near t = 15 weigh e^{-15x}, which only high-order rows resolve
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    assert [ln.split(",")[-1] for ln in out.splitlines() if ",expected-verdict," in ln] == ["match"]


def test_verify_reports_threshold_and_witness_next_to_each_worst_violation(capsys):
    code, out = run(capsys, "verify", "thm3.2-neither")
    assert code == 0
    rows = {ln.split(",")[2]: ln.split(",") for ln in out.splitlines()[1:]}
    assert sorted(rows) == ["expected-verdict", "threshold[-f']", "threshold[f']", "witness[-f']",
                            "witness[f']", "worst-violation[-f']", "worst-violation[f']"]
    for label in ("f'", "-f'"):
        worst, threshold = float(rows[f"worst-violation[{label}]"][3]), float(rows[f"threshold[{label}]"][3])
        x, n = rows[f"witness[{label}]"][3].split("|")
        assert worst < -threshold < 0.0 and 1 <= int(n) <= 8 and float(x) > -0.5
        assert {rows[f"{m}[{label}]"][4] for m in ("threshold", "witness", "worst-violation")} == {"violates-CM"}


def test_verify_unknown_selector(capsys):
    assert run(capsys, "verify", "thm9.9")[0] == 2


def test_verify_has_no_seed(capsys):
    # the sweep is deterministic; there is no seed to set
    assert run(capsys, "verify", "thm2.1", "--seed", "1") == (2, "")


@pytest.mark.parametrize(
    "case_id,alpha,verdict",
    [
        ("thm2.1", "0.5000000000001", "-f' CM"),
        ("thm2.2", "0.9999999999999", "f' CM"),
        ("thm3.4", "0.4999999999999", "-f' CM"),
        ("cor3.6", "1e-13", "f' CM"),
    ],
)
def test_verify_verdict_next_to_regime_boundary(capsys, case_id, alpha, verdict):
    # the expectation is the kernel's sign regime, the one scan-kernel reports
    code, out = run(capsys, "verify", case_id, "--alpha", alpha)
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if ",expected-verdict," in ln]
    assert [r[-2:] for r in rows] == [[verdict, "match"]]


@pytest.mark.parametrize(
    "argv",
    [
        ("thm2.5", "--a", "1", "--b", "0.5"),
        ("thm2.5", "--b", "1.5"),
        ("thm2.6", "--a", "0.5"),
        ("thm3.1", "--alpha", "0"),
        ("thm3.1", "--alpha", "1"),
        ("thm3.1", "--alpha", "1.5"),
        ("thm3.1", "--alpha", "1e-300"),
        ("thm3.2", "--a", "1", "--b", "0.5"),
        ("thm3.2", "--a", "0"),
        ("thm4.1-mean", "--a-list="),
        ("thm4.1-split", "--a-list="),
        ("thm4.1-split", "--a-list", "1,-1"),
        ("thm4.1", "--a-list", "0,1"),
    ],
)
def test_verify_outside_the_kernel_domain_exits_two(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_verify_thm31_names_the_q_whose_root_underflows(capsys):
    # q^(1/alpha) = 1e-400 underflows to 0: the error names thm3.1's own q and alpha
    code = main(["verify", "thm3.1", "--q", "1e-200"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "thm3.1 requires q^(1/alpha) > 0 in float64, got q=1e-200, alpha=0.5" in captured.err


@pytest.mark.parametrize(
    "argv,flags,accepted",
    [
        (("cor2.4", "--q", "0.5"), "--q", "--alpha, --a"),
        (("psi-prime", "--alpha", "3"), "--alpha", "no parameter flag"),
        (("psi-prime", "--alpha", "3", "--c", "9"), "--alpha, --c", "no parameter flag"),
        (("thm2.1-pos", "--s", "0.5"), "--s", "--alpha"),
        (("thm4.1", "--q", "0.9", "--c", "0.1"), "--c", "--a-list, --q"),
    ],
)
def test_verify_rejects_a_flag_no_selected_case_takes(capsys, argv, flags, accepted):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"takes {flags}; the selection accepts {accepted}" in captured.err


def test_verify_grid_flags_are_the_grid_spec_fields(capsys):
    # _build_parser lists them by hand, with --spacing's choices; _cmd_verify reads the fields
    # but h_set: the analytic rows take no difference steps, so --h-set is no flag of verify
    import dataclasses

    from qgamma.cmcheck import GridSpec

    verify = next(a for a in cli._build_parser()._actions if a.dest == "command").choices["verify"]
    flags = [a.option_strings[0] for a in verify._actions if a.option_strings]
    grid = [cli._flag(f.name) for f in dataclasses.fields(GridSpec) if f.name != "h_set"]
    assert [f for f in flags if f in grid] == grid == [cli._flag(f) for f in cli._VERIFY_GRID]
    assert "--h-set" not in flags
    code, out = run(capsys, "verify", "psi-prime", "--points", "3", "--max-order", "2",
                    "--spacing", "linear", "--x-min", "1", "--x-max", "2")
    assert code == 0 and out.count("match") == 1
    # a bad value, or the steps of a stencil verify no longer reads, exits 2 with nothing on stdout
    for argv in (("--spacing", "cubic"), ("--points", "2.5"), ("--x-min", "one"), ("--h-set", "0.5,1")):
        code = main(["verify", "psi-prime", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
    main(["verify", "psi-prime", "--spacing", "cubic"])
    assert "invalid choice: 'cubic'" in capsys.readouterr().err


def test_verify_flag_applies_to_the_selected_cases_that_take_it(capsys):
    code, out = run(capsys, "verify", "all", "--q", "0.9")
    assert code == 0
    params = {}
    for ln in out.splitlines():
        if ",expected-verdict," in ln:
            cid, p, _, _, verdict = ln.split(",")
            params[cid] = p
            assert verdict == "match", ln
    assert len(params) == 28
    assert params["thm2.2"] == "alpha=0.5;q=0.90000000000000002"
    assert params["cor2.4"] == "a=1;alpha=0.75" and params["psi-prime"] == ""
    code, out = run(capsys, "verify", "thm4.1", "--q", "0.9")
    assert code == 0 and out.count(";q=0.90000000000000002,expected-verdict,") == 2


# stdout of `verify all` at each q the CI checks: a refactor of the numeric
# core (such as special's one path for derivative orders) keeps every byte.
# Re-pinned when verify moved from difference stencils to analytic derivative
# rows with radii, and gained threshold and witness rows
_VERIFY_ALL_MD5 = [
    ("verify all", "9151ae718185dded146d7b6cfc9717da"),
    ("verify all --q 0.9", "47c4b982b54e5188c05aedd70e5b0d96"),
    ("verify all --q 0.99", "f7c295d4a181614d470b530b186a1456"),
    ("verify all --q 0.999", "f02eb4d3a9e918679cbea447d5f55f01"),
]


@pytest.mark.parametrize("argv, md5", _VERIFY_ALL_MD5)
def test_verify_all_keeps_its_bytes(capsys, argv, md5):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


# stdout of dense verifies: evaluator calls over several blocks of elements and
# derivative rows up to order 20, where term order decides the last bits;
# re-pinned with _VERIFY_ALL_MD5
_DENSE_VERIFY_MD5 = [
    ("verify thm3.2 --q 0.99 --points 400 --max-order 20", "07b5fbc4ed672def0646aa14eeac0e50"),
    ("verify thm2.2 --points 400 --max-order 20", "92fab2e0be9b3118c469e0041d325c38"),
    ("verify cor3.5 --q 0.9 --points 400 --max-order 20", "9062f2d3f32b4d508223c5ef77b8025d"),
]


@pytest.mark.parametrize("argv, md5", _DENSE_VERIFY_MD5)
def test_dense_verify_keeps_its_bytes(capsys, argv, md5):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


# stdout of high-order evals, whose Euler-Maclaurin orders n + 17 reach the
# Eulerian table's top (170) at n = 153; these pin the current bits, and a fix
# of psi_n's high-order bound (ROADMAP item 12) may re-pin them, saying why
_HIGH_ORDER_MD5 = [
    ("eval psi-q-n --n 40 --x 2 --q 0.9", "e74e438bfe911df4bce3e70f8567179d"),
    ("eval psi-q-n --n 150 --x 2 --q 0.5", "5462027f352f6427136120a839f824db"),
    ("eval psi-q-n --n 153 --x 2 --q 0.9", "f9b6294398285f4b01fa702b4475a736"),
    ("eval psi-q-n --n 12 --x 0.001 --q 0.999", "43467236dd47607e936775487e090b13"),
]


@pytest.mark.parametrize("argv, md5", _HIGH_ORDER_MD5)
def test_high_order_eval_keeps_its_bytes(capsys, argv, md5):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


def test_verify_all_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "verify", "thm2.2", "--output", str(p1))[0] == 0
    assert run(capsys, "verify", "thm2.2", "--output", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_output_onto_a_fifo_writes_into_it(capsys, tmp_path):
    # a target that is not a regular file is written in place, never replaced by one
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, "verify", "thm2.2", "--output", str(fifo)) == (0, "")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        got = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert got.decode() == run(capsys, "verify", "thm2.2")[1]
    assert os.listdir(tmp_path) == ["pipe"]


@pytest.mark.parametrize("argv, named", [
    ("verify thm2.2 --x-max inf", "inf"),
    ("verify thm2.2 --x-min -inf --spacing linear", "-inf"),
    ("bounds kershaw-psi --x-grid 0.1:inf:5 --s 0.5", "inf"),
    ("bounds rademacher --c 0.5 --sigma-grid 1:inf:3 --tau 0", "inf"),
    # finite endpoints whose distance overflows: linspace's step would be inf
    ("verify thm2.2 --x-min -1e308 --x-max 1e308 --spacing linear", "1e+308"),
    ("bounds kershaw-psi --x-grid -1e308:1e308:5 --s 0.5", "1e308"),
])
def test_grid_endpoints_must_be_a_finite_distance_apart(capsys, argv, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert named in captured.err and "nan" not in captured.err


# ---------------------------------------------------------------------------
# scan-kernel
# ---------------------------------------------------------------------------


def _summary(out):
    rows = {}
    for ln in out.splitlines():
        if ln.startswith("summary,"):
            _, key, value = ln.split(",", 2)
            rows[key] = value
    return rows


def test_scan_kernel_negative_regime(capsys):
    code, out = run(capsys, "scan-kernel", "thm2.1", "--alpha", "1.0")
    assert code == 0
    s = _summary(out)
    assert float(s["max"]) <= 0.0 and s["verdict"] == "match"


def test_scan_kernel_sign_change(capsys):
    code, out = run(capsys, "scan-kernel", "thm3.2", "--a", "0.5", "--b", "1", "--c", "0.6")
    assert code == 0
    assert _summary(out)["sign_changes"] == "1"


def test_scan_kernel_positive_min(capsys):
    code, out = run(capsys, "scan-kernel", "thm3.4", "--alpha", "0.5")
    assert code == 0
    assert float(_summary(out)["min"]) > 0.0


def test_scan_kernel_point_rows(capsys):
    code, out = run(capsys, "scan-kernel", "thm2.6", "--a", "1.5", "--t-points", "50")
    assert code == 0
    points = [ln for ln in out.splitlines() if ln.startswith("point,")]
    assert len(points) == 50


def test_scan_kernel_usage(capsys):
    assert run(capsys, "scan-kernel", "nope")[0] == 2
    assert run(capsys, "scan-kernel", "thm2.5", "--a", "1", "--b", "0.5", "--c", "0")[0] == 2


def test_scan_too_large_to_allocate_is_a_usage_error(capsys, monkeypatch):
    # 1e10 points would need about 80 GB for t: numpy refuses with MemoryError, which exits 2 (not 1)
    def refuse(**grid):
        raise MemoryError(f"Unable to allocate 74.5 GiB for {grid['points']} points")

    monkeypatch.setattr(cli.kernels, "default_t_grid", refuse)
    code = main(["scan-kernel", "thm2.1", "--t-points", "10000000000"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: out of memory: Unable to allocate")


@pytest.mark.parametrize(
    "argv",
    [
        ("scan-kernel", "thm2.1", "--q", "0.5"),
        ("scan-kernel", "thm2.1", "--s", "0.5"),
        ("scan-kernel", "thm2.1", "--s", "1"),  # a prefix of no scan-kernel flag
        ("scan-kernel", "thm2.1", "--a", "1"),
        ("scan-kernel", "thm2.5", "--alpha", "0.3"),
    ],
)
def test_scan_kernel_foreign_parameter_exits_two(capsys, argv):
    assert run(capsys, *argv) == (2, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "thm2.1", "--rel-tol", "0.5"),
        ("verify", "thm2.1", "--max-terms", "1"),
        ("scan-kernel", "thm2.1", "--rel-tol", "0.5"),
        ("scan-kernel", "thm2.1", "--max-terms", "1"),
        ("bounds", "rademacher", "--c", "0.5", "--sigma", "1", "--tau", "1", "--rel-tol", "1e-10"),
        ("bounds", "rademacher", "--c", "0.5", "--sigma", "1", "--tau", "1", "--max-terms", "50"),
        ("bounds", "beta-complex", "--a", "0.5", "--b", "0.5", "--sigma", "1", "--tau", "1",
         "--rel-tol", "1e-10"),
        ("bounds", "beta-complex", "--a", "0.5", "--b", "0.5", "--sigma", "1", "--tau", "1",
         "--max-terms", "50"),
    ],
)
def test_tolerance_flags_rejected_where_nothing_uses_them(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert argv[-2] in captured.err  # the message names the flag


def test_complex_bounds_accept_config_tolerances(capsys, tmp_path):
    cfg = tmp_path / "qgamma.cfg"
    cfg.write_text("rel_tol=1e-10\n")
    base = ("bounds", "rademacher", "--c", "0.5", "--sigma", "1", "--tau", "1")
    code, out = run(capsys, *base)
    assert code == 0
    assert run(capsys, "--config", str(cfg), *base) == (0, out)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_kershaw_power(capsys):
    code, out = run(capsys, "bounds", "kershaw-power", "--x", "1", "--s", "0.5")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(1.118034, abs=1e-6)
    assert float(row[3]) == pytest.approx(1.128379, abs=1e-6)
    assert float(row[4]) == pytest.approx(1.168771, abs=1e-6)


def test_bounds_q_sandwich_classical_reduction(capsys):
    code, out1 = run(capsys, "bounds", "q-sandwich", "--x", "1", "--s", "0.5", "--q", "1")
    assert code == 0
    code, out2 = run(capsys, "bounds", "kershaw-power", "--x", "1", "--s", "0.5")
    assert code == 0
    lower_q = float(out1.splitlines()[1].split(",")[2])
    lower_c = float(out2.splitlines()[1].split(",")[2])
    assert lower_q == pytest.approx(lower_c, abs=1e-10)


def test_bounds_beta_complex_grid(capsys):
    code, out = run(
        capsys, "bounds", "beta-complex", "--a", "0.5", "--b", "0.5",
        "--sigma-grid", "0.01:5:20", "--tau-grid", "-20:20:20",
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 400
    assert all(float(r.split(",")[4]) <= 1.0 + 1e-10 for r in rows)


def test_bounds_rademacher_equality(capsys):
    code, out = run(capsys, "bounds", "rademacher", "--c", "1", "--sigma", "1", "--tau", "3")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[6]) == 0.0


def test_bounds_usage_and_no_partial_file(capsys, tmp_path):
    out_path = tmp_path / "never.csv"
    code, _ = run(capsys, "bounds", "rademacher", "--c", "0.5", "--sigma", "0.1",
                  "--tau", "1", "--output", str(out_path))
    assert code == 2  # hypothesis Re(s) >= (1-c)/2 violated
    assert not out_path.exists()
    assert run(capsys, "bounds", "nope", "--x", "1", "--s", "0.5")[0] == 2
    assert run(capsys, "bounds", "kershaw-power", "--x", "1")[0] == 2


# ---------------------------------------------------------------------------
# one flag contract: a flag the selected target does not read exits 2
# ---------------------------------------------------------------------------

# a value for each parameter flag of eval and bounds
FLAG_VALUES = {
    "--x": "1", "--n": "3", "--q": "0.5", "--s": "0.5", "--c": "1", "--a": "0.5", "--b": "0.5",
    "--sigma": "1", "--tau": "3", "--rel-tol": "1e-10", "--x-grid": "1:2:3", "--s-grid": "0.2:0.8:4",
    "--sigma-grid": "1:2:3", "--tau-grid": "-1:1:3",
}
EVAL_FLAGS = ("--x", "--n", "--q", "--rel-tol")
BOUND_FLAGS = tuple(FLAG_VALUES)
_REAL = ("--x", "--x-grid", "--s", "--s-grid", "--rel-tol")
_COMPLEX = ("--sigma", "--sigma-grid", "--tau", "--tau-grid")
# the flags each bound reads, as the README's table states them
BOUND_READS = {
    "gautschi": ("--n", "--x-grid", "--s", "--s-grid", "--rel-tol"),
    "kershaw-psi": _REAL,
    "kershaw-power": _REAL,
    "q-sandwich": (*_REAL, "--q"),
    "rademacher": (*_COMPLEX, "--c"),
    "beta-complex": (*_COMPLEX, "--a", "--b"),
}
# a valid invocation of each target
VALID = {
    **{("eval", fn): ("--x", "0.5", *(tok for f in reads for tok in (f, FLAG_VALUES[f])))
       for fn, reads in EVAL_READS.items()},
    ("bounds", "gautschi"): ("--n", "3", "--s", "0.5"),
    ("bounds", "kershaw-psi"): ("--x", "1", "--s", "0.5"),
    ("bounds", "kershaw-power"): ("--x", "1", "--s", "0.5"),
    ("bounds", "q-sandwich"): ("--x", "1", "--s", "0.5"),
    ("bounds", "rademacher"): ("--c", "1", "--sigma", "1", "--tau", "3"),
    ("bounds", "beta-complex"): ("--a", "0.5", "--b", "0.5", "--sigma", "1", "--tau", "3"),
}
FOREIGN = [("eval", fn, flag) for fn, reads in EVAL_READS.items()
           for flag in EVAL_FLAGS if flag not in ("--x", "--rel-tol", *reads)]
FOREIGN += [("bounds", name, flag) for name, reads in BOUND_READS.items()
            for flag in BOUND_FLAGS if flag not in reads]


@pytest.mark.parametrize("command,target", sorted(VALID))
def test_every_target_runs_on_the_flags_it_reads(capsys, command, target):
    code, out = run(capsys, command, target, *VALID[command, target])
    assert code == 0 and out


@pytest.mark.parametrize("command,target,flag", FOREIGN)
def test_a_flag_the_target_does_not_read_exits_two(capsys, command, target, flag):
    code = main([command, target, *VALID[command, target], flag, FLAG_VALUES[flag]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"takes {flag}; " in captured.err  # the message names the flag


@pytest.mark.parametrize(
    "argv,missing",
    [
        (("eval", "psi"), "--x"),
        (("eval", "psi-q-n", "--x", "2", "--q", "0.5"), "--n"),
        (("eval", "gamma-q", "--x", "2"), "--q"),
        (("bounds", "gautschi", "--s", "0.5"), "--n (or --x-grid)"),
        (("bounds", "kershaw-power", "--x", "1"), "--s (or --s-grid)"),
        (("bounds", "rademacher", "--sigma", "1", "--tau", "3"), "--c"),
        (("bounds", "beta-complex", "--a", "1", "--sigma", "1", "--tau", "3"), "--b"),
    ],
)
def test_a_missing_required_flag_exits_two(capsys, argv, missing):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"requires {missing}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("kershaw-psi", "--x", "1", "--x-grid", "1:2:2", "--s", "0.5"),
        ("gautschi", "--n", "3", "--s", "0.5", "--s-grid", "0.2:0.8:4"),
        ("rademacher", "--c", "1", "--sigma", "1", "--sigma-grid", "1:2:3", "--tau", "3"),
    ],
)
def test_a_scalar_flag_with_its_grid_flag_exits_two(capsys, argv):
    code = main(["bounds", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "not both" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "gamma", "--x", "2"),
        ("eval", "log-gamma", "--x", "2"),
        ("eval", "psi", "--x", "2"),
        ("eval", "psi-n", "--n", "3", "--x", "2"),
        ("bounds", "gautschi", "--n", "3", "--s", "0.5"),
        ("bounds", "kershaw-psi", "--x", "1", "--s", "0.5"),
        ("bounds", "kershaw-power", "--x", "1", "--s", "0.5"),
    ],
)
def test_classical_targets_exit_two_when_a_series_misses_rel_tol(capsys, argv):
    code = main([*argv, "--rel-tol", "1e-300"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "misses rel_tol=1e-300" in captured.err


def test_gautschi_grid_nodes_must_be_integer_orders(capsys):
    code = main(["bounds", "gautschi", "--x-grid", "1:3:5", "--s", "0.5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "gautschi_bounds requires integer n >= 1, got n=1.5" in captured.err
    code, out = run(capsys, "bounds", "gautschi", "--x-grid", "1:3:3", "--s", "0.5")
    assert code == 0
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["n=1;s=0.5", "n=2;s=0.5", "n=3;s=0.5"]


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def _clear_parser_cache():
    cli._build_parser.cache_clear()
    cli._value_flags.cache_clear()


def test_repeated_main_calls_share_one_parser_and_leak_no_state(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    sequence = [
        ("verify", "thm3.1", "--q", "0.5", "--alpha", "0.5"),
        ("eval", "psi-q", "--x", "2", "--q", "0.9"),
        ("bounds", "beta-complex", "--a", "0.5", "--b", "0.5", "--sigma", "1", "--tau-grid", "-2:2:3"),
        ("scan-kernel", "thm2.6", "--a", "1.5", "--t-points", "20"),
        ("eval", "psi", "--x", "1", "--q", "0.5"),  # a flag the target does not read
        ("eval", "psi-q-n", "--x", "2", "--q", "0.5"),  # a missing flag
        ("eval", "psi", "--x", "1", "--bogus", "3"),  # a flag no command has
        ("--help",),
        ("verify", "--help"),
        ("verify", "thm3.1", "--q", "0.5", "--alpha", "0.5"),
    ]

    def outcome(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    _clear_parser_cache()
    shared = [outcome(argv) for argv in sequence]
    assert cli._build_parser.cache_info().misses == 1
    assert cli._value_flags.cache_info().misses == 1
    assert shared[-1] == shared[0]
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 2, 2, 0, 0, 0]
    for argv, got in zip(sequence, shared):
        _clear_parser_cache()
        assert outcome(argv) == got, argv


def test_importing_the_cli_builds_no_parser_and_imports_no_fractions():
    # nor the bulk-row formatter, which the first bulk rows import
    probe = (
        "import sys, qgamma.cli as cli; "
        "print(cli._build_parser.cache_info().currsize, cli._value_flags.cache_info().currsize, "
        "'fractions' in sys.modules, 'decimal' in sys.modules, 'qgamma._csvrows' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qgamma.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0", "False", "False", "False"]


# ---------------------------------------------------------------------------
# bulk rows: the bytes of value-by-value formatting
# ---------------------------------------------------------------------------

# stdout md5s recorded when every bulk row was formatted value by value with _fmt:
# each kernel's default scan and one grid of each bound form, a margin of 0
# (a = 0) and t below the array formatter's range (t-min 1e-300) included
_PINNED_STDOUT_MD5 = [
    ("scan-kernel lemma1.2", "45e50b0e108c9e59e84da73195199aaf"),
    ("scan-kernel thm2.1", "28fdab18546ff348750c78f3709da86f"),
    ("scan-kernel thm2.5", "17a28232fa2cf69d6d45eaf3e6fdb407"),
    ("scan-kernel thm2.6", "d1fcda0dd451db838ee8f43b2584d2c2"),
    ("scan-kernel thm3.1", "ca59514354ad924dc0b4e2cce704cd67"),
    ("scan-kernel thm3.2", "e070e39aa51686228015636097a132ae"),
    ("scan-kernel thm3.4", "557f5022c98b0f3dbb1951c5b7a703da"),
    ("scan-kernel thm4.1-mean", "fcb67b736348aaa39dff414998338988"),
    ("scan-kernel thm4.1-split", "681d8fc7a06937c9264f3f25caa30051"),
    ("bounds beta-complex --a 0.5 --b 0.5 --sigma-grid 0.01:5:20 --tau-grid -20:20:20", "e487d8af9dc38b501ab3b4e486bbefea"),
    ("bounds rademacher --c 1 --sigma-grid 0.5:4:15 --tau-grid -10:10:21", "5e83f9f13d7f8163efc34bdfb5adc44b"),
    ("bounds q-sandwich --q 0.5 --x-grid 0.5:20:30 --s-grid 0.05:0.95:10", "1169d2fe06231134789acac0cf4a4dd6"),
    ("bounds kershaw-psi --x-grid 0.001:50:200 --s-grid 0.05:0.95:10", "e127854c455999d09957e001c16e9eb0"),
    ("bounds kershaw-power --x-grid 0.001:50:50 --s-grid 0.05:0.95:10", "3e028bc8e26f448f24dde5dadb47f2dd"),
    ("bounds gautschi --x-grid 1:200:200 --s-grid 0.05:0.95:10", "72568fe9e9589b33026f397298e896e4"),
    ("bounds beta-complex --a 0 --b 0.5 --sigma-grid 0.3:5:20 --tau-grid -2:2:21", "710cacf32c8364de090ab0cfa002c659"),
    ("scan-kernel thm2.6 --a 1.5 --t-min 1e-300 --t-max 700 --t-points 5000", "9e04c9f049b260b02582392130f02da9"),
    # recorded when every element of a broadcast axis was formatted: a workload-shaped
    # tile (a != b, Re s < 0), c != 1, one-value columns (x = 2; s_re = 0.5 beside an
    # s_im of zeros, or of zeros but a last -0), and axes longer than a chunk
    ("bounds rademacher --c 0.5 --sigma-grid 0.3:5:4 --tau-grid -20:20:200", "1fd489d521a0405722037f108ea57180"),
    ("bounds beta-complex --a 0.67 --b 0.76 --sigma-grid -0.14:0.74:4 --tau-grid -21:18:200",
     "45d8eeb2e3e5392fcc2c06f8a1d7081c"),
    ("bounds kershaw-psi --x 2 --s-grid 0.05:0.95:10", "f4b502217c4df17afd4bb39f43b48580"),
    ("bounds beta-complex --a 0.5 --b 0.5 --sigma-grid 0.5:0.5:3 --tau-grid=-0:0:4", "8a0a8209c825c00b6ad962392f105498"),
    ("bounds beta-complex --a 0.5 --b 0.5 --sigma-grid 0.5:0.5:3 --tau-grid=-0:-0:4", "b51ffebb7401b77f0ef32bf43f3afa2e"),
    ("bounds rademacher --c 0.5 --sigma-grid 0.3:0.3:1 --tau-grid -20:20:5000", "60c41c737b50788813525861a3bd00f5"),
    ("bounds rademacher --c 0.5 --sigma-grid 0.3:5:5000 --tau-grid 7:7:1", "32d956f6fa532fcccca650ee33708b61"),
    ("bounds rademacher --c 0.5 --sigma-grid 0.3:0.6:2 --tau-grid -20:20:5000", "856c3675da3653764faed4b5a2686a0e"),
    ("bounds q-sandwich --q 0.7 --x-grid 0.05:20:200 --s-grid 0.05:0.95:10", "cfbe7d764ff38d22f4b70d7005b9f607"),
]


@pytest.mark.parametrize("argv, md5", _PINNED_STDOUT_MD5)
def test_bulk_rows_keep_the_bytes_of_value_by_value_formatting(capsys, tmp_path, argv, md5):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5
    path = tmp_path / "report.csv"
    assert main([*argv.split(), "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


# ---------------------------------------------------------------------------
# q-limit-table
# ---------------------------------------------------------------------------


def test_q_limit_table(capsys):
    code, out = run(capsys, "q-limit-table", "--x", "1,0.5,2.5", "--q", "0.9,0.99,0.999")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,q,gamma_q,gamma,abs_error"
    assert len(lines) == 10
    # errors for x = 2.5 strictly decrease down the q column
    errs = [float(ln.split(",")[4]) for ln in lines[1:] if ln.startswith("2.5,")]
    assert errs[0] > errs[1] > errs[2]
    # x = 1 sits at the roundoff floor
    errs1 = [float(ln.split(",")[4]) for ln in lines[1:] if ln.startswith("1,")]
    assert all(e <= 1e-14 for e in errs1)


def test_q_limit_table_near_q_one(capsys):
    qs = (0.9, 0.99, 0.999, 0.9999, 0.99999)
    code, out = run(capsys, "q-limit-table", "--x", "0.5,1.5,4", "--q", ",".join(map(str, qs)))
    assert code == 0  # |Gamma_q - Gamma| falls monotonically along every row
    assert len(out.splitlines()) == 1 + 3 * len(qs)


def test_q_limit_table_falls_like_one_minus_q(capsys):
    # |Gamma_q(x) - Gamma(x)| = (1-q) Gamma(x) |(x-1)(x-2)|/4 + O((1-q)^2), down to 1 - q = 1e-12
    qs = (0.999999, 0.999999999, 0.999999999999)
    code, out = run(capsys, "q-limit-table", "--x", "0.5,2.5", "--q", ",".join(map(str, qs)))
    assert code == 0
    for line in out.splitlines()[1:]:
        x, q, _, gamma, abs_error = map(float, line.split(","))
        rate = gamma * abs((x - 1.0) * (x - 2.0)) / 4.0
        assert abs_error / (1.0 - q) == pytest.approx(rate, rel=0.05), line


# (exit code, stdout md5, stderr) of q-limit tables, recorded when the table
# made one gamma_q call per q: the tables come from one call on the (x, q)
# mesh, and each element keeps the bits of its own scalar-q call.  q = 1 in the
# list, 1 - q down to 1e-12, x down to 1e-6, tables whose errors at the first
# two q both round to Gamma(x) (a tie, not growth: exit 0) and a bad x (exit 2).
_Q_LIMIT_MD5 = [
    ("q-limit-table --x 0.5,1.5,4 --q 0.9,0.999,1", 0, "9034cd6c69dda9c4772066a6c9451c64", ""),
    ("q-limit-table --x 0.5,2.5,7 --q 0.9,0.999999,0.999999999,0.999999999999", 0,
     "117b96e8f19a890522d93734707b5ebc", ""),
    ("q-limit-table --x 1e-06,0.001,0.3,3 --q 0.01,0.5,0.99", 0, "b402c5869d72f903dfdac367e91f5bfd", ""),
    ("q-limit-table --x 36 --q 0.65,0.75,0.99", 0, "2e1bbd78db1ef7f1a3f785566662ebbb", ""),
    ("q-limit-table --x 40 --q 0.01,0.5", 0, "c425434a1263f0eef8a3964fbd70b0ee", ""),
    ("q-limit-table --x 0.001,0.5,2.5,40 --q 0.01,0.5,0.999999,1", 0, "f717607012424898a3b378eb8e085b46", ""),
    ("q-limit-table --x 0.5,-1 --q 0.5,0.9", 2, "d41d8cd98f00b204e9800998ecf8427e",
     "error: log_gamma requires finite Re z in (0, inf), got -1.0 (element 1)\n"),
]


@pytest.mark.parametrize("argv, code, md5, err", _Q_LIMIT_MD5)
def test_q_limit_tables_keep_their_bytes(capsys, argv, code, md5, err):
    assert main(argv.split()) == code
    got = capsys.readouterr()
    assert (hashlib.md5(got.out.encode()).hexdigest(), got.err) == (md5, err)


@pytest.mark.parametrize("gq_last, code", [(1.0 - 2.0**-52, 0), (1.0 - 2.0**-51, 1), (0.5, 1)])
def test_q_limit_table_exits_one_when_the_error_grows_by_more_than_one_rounding(capsys, monkeypatch, gq_last, code):
    # no input found makes Gamma_q(x) move away from Gamma(x) as q rises, so the
    # table's values are made up: Gamma(x) = 2 and the errors are 1, then
    # 1 + 2**-52 (one rounding of 2: a tie), 1 + 2**-51 or 1.5
    monkeypatch.setattr(special, "gamma", lambda x, cfg: types.SimpleNamespace(value=np.array([2.0])))
    monkeypatch.setattr(special, "_gamma_q", lambda x, q, cfg: types.SimpleNamespace(value=np.array([[1.0, gq_last]])))
    assert main(["q-limit-table", "--x", "3", "--q", "0.5,0.9"]) == code
    assert capsys.readouterr().err == ""


def test_q_limit_table_names_a_bad_q_and_an_underflow_by_element(capsys):
    # q is checked as one array, and x log q underflows at element 3 of the (x, q) mesh
    assert main(["q-limit-table", "--x", "1", "--q", "0.9,1.5"]) == 2
    assert capsys.readouterr() == ("", "error: q must lie in (0, 1], got 1.5 (element 1)\n")
    assert main(["q-limit-table", "--x", "0.5,1e-308", "--q", "0.5,0.9999999999999999"]) == 2
    assert capsys.readouterr().err == "error: q-series term at t log q = -0.0 (element 3) exceeds the float64 range\n"


def test_q_limit_table_usage(capsys):
    assert run(capsys, "q-limit-table", "--x", "1", "--q", "0.999,0.9")[0] == 2
    assert run(capsys, "q-limit-table", "--x", "3", "--q", "0.5,0.5") == (2, "")  # not increasing
    assert run(capsys, "q-limit-table", "--x", "1,zz", "--q", "0.9")[0] == 2


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "qgamma.cfg"
    cfg.write_text("# defaults\nt_points=25\nt_min=1e-3\n")
    code, out = run(capsys, "--config", str(cfg), "scan-kernel", "thm2.6", "--a", "1.5")
    assert code == 0
    assert len([ln for ln in out.splitlines() if ln.startswith("point,")]) == 25
    code, out = run(capsys, "--config", str(cfg), "scan-kernel", "thm2.6", "--a", "1.5",
                    "--t-points", "10")
    assert code == 0
    assert len([ln for ln in out.splitlines() if ln.startswith("point,")]) == 10


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    assert run(capsys, "--config", str(cfg), "eval", "psi", "--x", "1")[0] == 2


# ---------------------------------------------------------------------------
# the README's examples are the contract
# ---------------------------------------------------------------------------

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _readme_block(heading, lang):
    """The first ```lang block after the README line ``heading``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    after = text[text.index(heading + "\n"):]
    start = after.index(f"```{lang}\n") + len(lang) + 4
    return after[start:after.index("```", start)]


def _readme_commands():
    lines = _readme_block("## Command line", "sh").splitlines()
    return [shlex.split(line.split("#")[0]) for line in lines if line.strip()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_readme_command_line_examples_run(capsys, tmp_path, argv):
    assert argv[0] == "qgamma"
    argv = argv[1:]
    if "--output" in argv:
        del argv[argv.index("--output"):argv.index("--output") + 2]
    code = main(argv + ["--output", str(tmp_path / "report.csv")])
    capsys.readouterr()
    assert code == 0, argv
    assert (tmp_path / "report.csv").stat().st_size > 0


def test_readme_library_quick_reference_runs():
    exec(compile(_readme_block("## Library quick reference", "python"), README, "exec"), {})
