"""Command-line front end: evaluate functions, verify the theorem corpus,
scan kernels, check ratio bounds, and emit CSV reports.

Exit codes: 0 = all expectations met, 1 = a mathematical expectation was
violated, 2 = usage or domain error.  CSV output uses a header row, comma
separators, LF line endings and 17 significant digits; rows are emitted in
deterministic sorted order, so identical invocations produce identical bytes.
Output is built in memory and written only on success, never partially: a
file goes through a temporary file in its directory and ``os.replace``, and a
write error exits 2.

An optional ``--config`` file supplies ``key=value`` defaults (keys: seed,
rel_tol, max_terms, tol_abs, tol_rel, t_min, t_max, t_points); explicit flags
always override it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from . import bounds as bnd
from . import kernels, special, theorems
from .cmcheck import DEFAULT_TOL_ABS, DEFAULT_TOL_REL, GridSpec
from .special import ConvergenceError, DomainError, EvalConfig

__all__ = ["main", "entry"]

_CONFIG_KEYS = {
    "seed": int,
    "rel_tol": float,
    "max_terms": int,
    "tol_abs": float,
    "tol_rel": float,
    "t_min": float,
    "t_max": float,
    "t_points": int,
}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _fmt_params(params: dict) -> str:
    parts = []
    for k in sorted(params):
        v = params[k]
        if isinstance(v, (tuple, list)):
            parts.append(f"{k}=" + "|".join(_fmt(float(x)) for x in v))
        else:
            parts.append(f"{k}={_fmt(v)}")
    return ";".join(parts)


def _floats_csv(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError as e:
        raise DomainError(f"malformed number list {text!r}") from e


def _grid_triplet(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as e:
        raise DomainError(f"malformed grid {text!r}; expected lo:hi:count") from e
    if count < 1 or not hi >= lo:
        raise DomainError(f"bad grid {text!r}")
    return np.linspace(lo, hi, count)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(f"config line without '=': {line!r}")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise DomainError(f"unknown config key {key!r}")
                out[key] = _CONFIG_KEYS[key](val.strip())
    except OSError as e:
        raise DomainError(f"cannot read config {path!r}: {e}") from e
    except ValueError as e:
        raise DomainError(f"malformed config value in {path!r}: {e}") from e
    return out


def _pick(flag_value, config: dict, key: str, fallback):
    if flag_value is not None:
        return flag_value
    return config.get(key, fallback)


def _emit(lines: list[str], output: str | None):
    """Write the report to stdout, or to ``output`` through a temporary file and os.replace.

    The target is either left as it was or replaced whole, also if the
    process dies mid-write; a failed write removes the temporary file and
    raises OSError.
    """
    text = "\n".join(lines) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    head, tail = os.path.split(os.path.abspath(output))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except OSError as e:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise OSError(e.errno, f"cannot write {output!r}: {e.strerror}") from e


def _eval_cfg(args, config) -> EvalConfig:
    return EvalConfig(
        rel_tol=_pick(args.rel_tol, config, "rel_tol", 1e-12),
        max_terms=_pick(args.max_terms, config, "max_terms", 100_000),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args, config) -> int:
    cfg = _eval_cfg(args, config)
    fn = args.fn
    x = args.x
    if x is None:
        raise DomainError("eval requires --x")

    def need_q():
        if args.q is None:
            raise DomainError(f"eval {fn} requires --q")
        return args.q

    def need_n():
        if args.n is None:
            raise DomainError(f"eval {fn} requires --n")
        return args.n

    table = {
        "gamma": lambda: special.gamma(x, cfg),
        "log-gamma": lambda: special.log_gamma(x, cfg),
        "psi": lambda: special.psi(x, cfg),
        "psi-n": lambda: special.psi_n(need_n(), x, cfg),
        "gamma-q": lambda: special.gamma_q(x, need_q(), cfg),
        "psi-q": lambda: special.psi_q(x, need_q(), cfg),
        "psi-q-n": lambda: special.psi_q_n(need_n(), x, need_q(), cfg),
        "dilog-F": lambda: special.dilog_F(x, cfg),
    }
    if fn not in table:
        raise DomainError(f"unknown function {fn!r}; choose from {sorted(table)}")
    res = table[fn]()
    lines = [f"value {_fmt(res.value)}", f"abs_error_bound {_fmt(res.abs_error_bound)}"]
    _emit(lines, args.output)
    return 0


def _case_overrides(args) -> dict:
    out = {}
    for key in ("alpha", "a", "b", "c", "s", "q"):
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    if getattr(args, "a_list", None) is not None:
        out["a_list"] = tuple(_floats_csv(args.a_list))
    return out


def _grid_override(args, base: GridSpec) -> GridSpec:
    fields = {}
    if args.x_min is not None:
        fields["x_min"] = args.x_min
    if args.x_max is not None:
        fields["x_max"] = args.x_max
    if args.points is not None:
        fields["points"] = args.points
    if args.spacing is not None:
        fields["spacing"] = args.spacing
    if args.h_set is not None:
        fields["h_set"] = tuple(_floats_csv(args.h_set))
    if args.max_order is not None:
        fields["max_order"] = args.max_order
    if not fields:
        return base
    merged = {
        "x_min": base.x_min,
        "x_max": base.x_max,
        "points": base.points,
        "spacing": base.spacing,
        "h_set": base.h_set,
        "max_order": base.max_order,
    }
    merged.update(fields)
    return GridSpec(**merged)


def _cmd_verify(args, config) -> int:
    selector = args.selector
    ids = theorems.registry_ids()
    if selector == "all":
        selected = ids
    elif selector in ids:
        selected = [selector]
    else:
        selected = [cid for cid in ids if cid.startswith(selector + "-")]
        if not selected:
            raise DomainError(f"selector {selector!r} matches no registered case")
    overrides = _case_overrides(args)
    tol_abs = _pick(args.tol_abs, config, "tol_abs", DEFAULT_TOL_ABS)
    tol_rel = _pick(args.tol_rel, config, "tol_rel", DEFAULT_TOL_REL)
    # the seed is part of the reproducibility contract even though the sweep
    # itself is deterministic
    _ = _pick(args.seed, config, "seed", 0)

    rows = []
    all_match = True
    for cid in selected:
        accepted = set(theorems.case_default_params(cid))
        case = theorems.make_case(cid, **{k: v for k, v in overrides.items() if k in accepted})
        grid = _grid_override(args, case.grid)
        ver = theorems.verify_case(case, grid=grid, tol_abs=tol_abs, tol_rel=tol_rel)
        all_match = all_match and ver.matches
        params = _fmt_params(case.params)
        for label in sorted(ver.reports):
            rep = ver.reports[label]
            rows.append(
                (
                    case.id,
                    params,
                    f"worst-violation[{label}]",
                    _fmt(rep.worst_violation),
                    rep.verdict,
                )
            )
        rows.append((case.id, params, "expected-verdict", case.expected, "match" if ver.matches else "mismatch"))
    rows.sort(key=lambda r: (r[0], r[2]))
    lines = ["case,params,metric,value,verdict"]
    lines += [",".join(r) for r in rows]
    _emit(lines, args.output)
    return 0 if all_match else 1


def _cmd_scan_kernel(args, config) -> int:
    params = _case_overrides(args)
    t_min = _pick(args.t_min, config, "t_min", 1e-4)
    t_max = _pick(args.t_max, config, "t_max", 50.0)
    t_points = _pick(args.t_points, config, "t_points", 2000)
    grid = kernels.default_t_grid(t_min, t_max, t_points)
    t, w, report = kernels.scan_kernel(args.kernel, params or None, grid)
    lines = ["row_type,key,value"]
    for ti, wi in zip(t, w):
        lines.append(f"point,{_fmt(float(ti))},{_fmt(float(wi))}")
    lines.append(f"summary,t0_limit,{_fmt(report.t0_limit)}")
    lines.append(f"summary,min,{_fmt(report.min_value)}")
    lines.append(f"summary,max,{_fmt(report.max_value)}")
    lines.append(f"summary,sign_changes,{report.sign_change_count}")
    lines.append(f"summary,expected_sign,{report.expected_sign}")
    lines.append(f"summary,verdict,{report.verdict}")
    _emit(lines, args.output)
    return 0 if report.verdict == "match" else 1


def _cmd_bounds(args, config) -> int:
    name = args.bound
    lines: list[str]
    ok = True
    if name in ("gautschi", "kershaw-psi", "kershaw-power", "q-sandwich"):
        cfg = _eval_cfg(args, config)
        if name == "gautschi":
            xs = _grid_triplet(args.x_grid) if args.x_grid else [args.n if args.n is not None else args.x]
        else:
            xs = _grid_triplet(args.x_grid) if args.x_grid else [args.x]
        ss = _grid_triplet(args.s_grid) if args.s_grid else [args.s]
        if any(v is None for v in xs) or any(v is None for v in ss):
            flag = "--n" if name == "gautschi" else "--x"
            raise DomainError(f"bounds {name} requires {flag} and --s (or grids)")
        # x is the row axis, so row order is x-major, s-minor
        x, s = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ss, dtype=float), indexing="ij")
        extra = {}
        if name == "gautschi":
            x = np.rint(x)  # round half to even, as round() does
            t = bnd.gautschi_bounds(x, s, cfg)
        elif name == "kershaw-psi":
            t = bnd.kershaw_psi_bounds(x, s, cfg)
        elif name == "kershaw-power":
            t = bnd.kershaw_power_bounds(x, s, cfg)
        else:
            q = args.q if args.q is not None else 1.0
            extra = {"q": float(q)}
            t = bnd.q_sandwich(x, s, q, cfg)
        lower_margin, upper_margin = t.lower_margin, t.upper_margin
        # margins within bounds.EQUALITY_TOL of zero are already clamped to 0
        ok = bool((lower_margin >= 0.0).all() and (upper_margin >= 0.0).all())
        key = "n" if name == "gautschi" else "x"
        lines = ["bound,params,lower,value,upper,lower_margin,upper_margin"]
        columns = (x, s, t.lower, t.value, t.upper, lower_margin, upper_margin)
        for xv, sv, *vals in zip(*(c.ravel().tolist() for c in columns)):
            params = _fmt_params({key: xv, "s": sv, **extra})
            lines.append(f"{name},{params}," + ",".join(_fmt(v) for v in vals))
    elif name in ("rademacher", "beta-complex"):
        for flag, value in (("--rel-tol", args.rel_tol), ("--max-terms", args.max_terms)):
            if value is not None:
                raise DomainError(f"bounds {name} takes no {flag}; its cost is fixed")
        sigmas = _grid_triplet(args.sigma_grid) if args.sigma_grid else [args.sigma]
        taus = _grid_triplet(args.tau_grid) if args.tau_grid else [args.tau]
        if any(v is None for v in sigmas) or any(v is None for v in taus):
            raise DomainError(f"bounds {name} requires --sigma/--tau (or grids)")
        sigmas = np.asarray(sigmas, dtype=float)
        taus = np.asarray(taus, dtype=float)
        # sigma is the row axis, so row order is sigma-major, tau-minor
        s = np.empty((sigmas.size, taus.size), dtype=complex)
        s.real = sigmas[:, None]
        s.imag = taus[None, :]
        if name == "rademacher":
            if args.c is None:
                raise DomainError("bounds rademacher requires --c")
            params = {"c": float(args.c)}
            modulus, bound = bnd.rademacher_ratio_bound(s, args.c)
        else:
            if args.a is None or args.b is None:
                raise DomainError("bounds beta-complex requires --a and --b")
            params = {"a": float(args.a), "b": float(args.b)}
            modulus, bound = bnd.beta_ratio_modulus(s, args.a, args.b)
        margin = bnd._clamp(bound - modulus)
        ok = bool((margin >= 0.0).all())
        prefix = f"{name},{_fmt_params(params)},"
        lines = ["bound,params,s_re,s_im,modulus,bound_value,margin"]
        for sigma, mod_row, bound_row, margin_row in zip(
            sigmas.tolist(), modulus.tolist(), bound.tolist(), margin.tolist()
        ):
            head = prefix + _fmt(sigma) + ","
            for tau, m, bv, mg in zip(taus.tolist(), mod_row, bound_row, margin_row):
                lines.append(f"{head}{_fmt(tau)},{_fmt(m)},{_fmt(bv)},{_fmt(mg)}")
    else:
        raise DomainError(f"unknown bound name {name!r}")
    _emit(lines, args.output)
    return 0 if ok else 1


def _cmd_q_limit_table(args, config) -> int:
    cfg = _eval_cfg(args, config)
    xs = _floats_csv(args.x)
    qs = _floats_csv(args.q)
    if not xs or not qs:
        raise DomainError("q-limit-table requires nonempty --x and --q lists")
    if sorted(qs) != qs:
        raise DomainError("--q list must be increasing toward 1")
    lines = ["x,q,gamma_q,gamma,abs_error"]
    ok = True
    x = np.asarray(xs, dtype=float)
    gx = special.gamma(x, cfg).value
    gq = np.stack([special.gamma_q(x, q, cfg).value for q in qs], axis=1)  # (x, q)
    err = np.abs(gq - gx[:, None])
    floor = 1e-14 * np.maximum(1.0, np.abs(gx))
    for xv, gxv, gq_row, err_row, fl in zip(xs, gx.tolist(), gq.tolist(), err.tolist(), floor.tolist()):
        for q, gqv, e in zip(qs, gq_row, err_row):
            lines.append(f"{_fmt(xv)},{_fmt(q)},{_fmt(gqv)},{_fmt(gxv)},{_fmt(e)}")
        for e0, e1 in zip(err_row, err_row[1:]):
            if not (e1 < e0 or e1 <= fl):
                ok = False
    _emit(lines, args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgamma",
        description="Evaluate gamma/q-gamma functions and verify monotonicity "
        "and bound claims numerically.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key=value defaults file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    # full flag names only: a removed flag such as scan-kernel --s must not become --seed
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p_eval = add("eval", help="evaluate one function with an error bound")
    p_eval.add_argument("fn")
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--q", type=float)
    p_eval.add_argument("--n", type=int)

    p_verify = add("verify", help="run CM verification on registered cases")
    p_verify.add_argument("selector")
    for flag in ("--alpha", "--a", "--b", "--c", "--s", "--q"):
        p_verify.add_argument(flag, type=float)
    p_verify.add_argument("--a-list")
    p_verify.add_argument("--x-min", type=float)
    p_verify.add_argument("--x-max", type=float)
    p_verify.add_argument("--points", type=int)
    p_verify.add_argument("--spacing", choices=("linear", "geometric"))
    p_verify.add_argument("--h-set")
    p_verify.add_argument("--max-order", type=int)
    p_verify.add_argument("--tol-abs", type=float)
    p_verify.add_argument("--tol-rel", type=float)

    p_scan = add("scan-kernel", help="scan a proof kernel's sign on a t grid")
    p_scan.add_argument("kernel")
    for flag in ("--alpha", "--a", "--b", "--c"):
        p_scan.add_argument(flag, type=float)
    p_scan.add_argument("--a-list")
    p_scan.add_argument("--t-min", type=float)
    p_scan.add_argument("--t-max", type=float)
    p_scan.add_argument("--t-points", type=int)

    p_bounds = add("bounds", help="evaluate two-sided ratio bounds")
    p_bounds.add_argument("bound")
    p_bounds.add_argument("--x", type=float)
    p_bounds.add_argument("--s", type=float)
    p_bounds.add_argument("--q", type=float)
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--c", type=float)
    p_bounds.add_argument("--a", type=float)
    p_bounds.add_argument("--b", type=float)
    p_bounds.add_argument("--x-grid")
    p_bounds.add_argument("--s-grid")
    p_bounds.add_argument("--sigma", type=float)
    p_bounds.add_argument("--tau", type=float)
    p_bounds.add_argument("--sigma-grid")
    p_bounds.add_argument("--tau-grid")

    p_qlim = add("q-limit-table", help="|Gamma_q - Gamma| as q increases to 1")
    p_qlim.add_argument("--x", required=True)
    p_qlim.add_argument("--q", required=True)

    for p in (p_eval, p_verify, p_scan, p_bounds, p_qlim):
        p.add_argument("--output", "--csv", dest="output", default=None)
        p.add_argument("--seed", type=int, default=None)
    # only these commands evaluate series whose tolerance and term cap can be set
    for p in (p_eval, p_bounds, p_qlim):
        p.add_argument("--rel-tol", type=float, default=None)
        p.add_argument("--max-terms", type=int, default=None)
    return parser


_DISPATCH = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "scan-kernel": _cmd_scan_kernel,
    "bounds": _cmd_bounds,
    "q-limit-table": _cmd_q_limit_table,
}


def _value_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of the parser and its subcommands that takes a value."""
    flags: set[str] = set()
    parsers = [parser]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.option_strings and action.nargs != 0:
                flags.update(action.option_strings)
    return flags


def _join_negative_values(argv: list[str], value_flags: set[str]) -> list[str]:
    """Join "--flag -value" into "--flag=-value" for every value-taking flag.

    Values may begin with "-" (negative grid endpoints, shifted intervals,
    alpha <= 0 branches, -1e-13); argparse reads such a token as an option
    name unless it looks like a plain negative number.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in value_flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(list(argv), _value_flags(parser)))
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    try:
        config = _load_config(args.config)
        return _DISPATCH[args.command](args, config)
    except (DomainError, ConvergenceError, OverflowError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
