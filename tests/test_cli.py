"""CLI contract: exit codes, CSV shape and determinism, flag validation."""

import contextlib
import io
import math
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


EVAL_FNS = ("gamma", "log-gamma", "psi", "psi-n", "gamma-q", "psi-q", "psi-q-n", "dilog-F")


@settings(max_examples=200)  # covers all 160 combinations
@given(
    fn=st.sampled_from(EVAL_FNS),
    x=st.sampled_from(("1e-300", "1e300", "inf", "-inf", "nan")),
    q=st.sampled_from(("0.5", repr(1.0 - 1e-6))),
    n=st.sampled_from(("1", "3")),
)
def test_eval_extreme_inputs_exit_cleanly(fn, x, q, n):
    # extreme or non-finite input is a value or a typed error (exit 2); never a
    # traceback (exit 1) or a NaN / infinity printed with exit 0
    # and no numpy RuntimeWarning (overflow, invalid) along the way
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", fn, "--x", x, "--q", q, "--n", n])
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (fn, x, q, n, runtime)
    assert code in (0, 2), (fn, x, q, n, err.getvalue())
    if code == 0:
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), out.getvalue()
        assert err.getvalue() == "", (fn, x, err.getvalue())
    else:
        assert err.getvalue().startswith("error: ")


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
    assert out.count("violates-CM") == 2
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
                  "--h-set", "0.125", "--points", "3", "--x-min", "5", "--x-max", "6")
    assert code == 1


@pytest.mark.parametrize("case_id", ["thm2.2", "thm3.2"])
def test_verify_near_q_one(capsys, case_id):
    code, out = run(capsys, "verify", case_id, "--q", "0.9999")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if ",expected-verdict," in ln]
    assert len(rows) == 1 and rows[0][-1] == "match"


def test_verify_unknown_selector(capsys):
    assert run(capsys, "verify", "thm9.9")[0] == 2


def test_verify_all_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "verify", "thm2.2", "--seed", "42", "--output", str(p1))[0] == 0
    assert run(capsys, "verify", "thm2.2", "--seed", "42", "--output", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


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


def test_q_limit_table_usage(capsys):
    assert run(capsys, "q-limit-table", "--x", "1", "--q", "0.999,0.9")[0] == 2
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
