"""Command-line front end: evaluate functions, verify the theorem corpus,
scan kernels, check ratio bounds, and emit CSV reports.

Exit codes: 0 = all expectations met, 1 = a mathematical expectation was
violated, 2 = usage or domain error (an input too large to allocate
included).  CSV output uses a header row, comma separators, LF line endings
and 17 significant digits; rows are emitted in deterministic sorted order, so
identical invocations produce identical bytes.
Every number is ``_fmt``'s ``%.17g`` text.  The bulk rows of ``scan-kernel``
and ``bounds`` come from ``_csv_rows``, which formats whole float columns with
array operations (``qgamma._csvrows``) and gives the same bytes, passing to
``_fmt`` only what it cannot settle exactly.
Output is built in memory and written only on success, never partially: a
file goes through a temporary file in its directory and ``os.replace`` (a
device or a FIFO is written in place), and a write error exits 2.

An optional ``--config`` file supplies ``key=value`` defaults (keys: rel_tol,
tol_abs, tol_rel, t_min, t_max, t_points); explicit flags always override it.

Each target (eval function, bound, verify case, kernel) declares once which
parameter flags it reads; the parser and one check derive from that, and a
flag the selected target does not read, or a missing required one, exits 2.

``main(argv)`` may be called any number of times in one process: the parser
is built on the first call, never at import, and every later call reuses it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds as bnd
from . import kernels, special, theorems
from .cmcheck import DEFAULT_TOL_ABS, DEFAULT_TOL_REL
from .special import ConvergenceError, DomainError, EvalConfig

__all__ = ["main", "entry"]

_CONFIG_KEYS = {
    "rel_tol": float,
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


def _param_pieces(params: dict) -> list:
    """``params`` as ``k=v`` pieces joined by ``;`` in key order; a float column stays a column for _csv_rows."""
    pieces = []
    for k in sorted(params):
        v = params[k]
        if isinstance(v, np.ndarray):
            pieces += [f"{k}=", v]
        elif isinstance(v, (tuple, list)):
            pieces.append(f"{k}=" + "|".join(_fmt(float(x)) for x in v))
        else:
            pieces.append(f"{k}={_fmt(v)}")
        pieces.append(";")
    return pieces[:-1]


def _fmt_params(params: dict) -> str:
    return "".join(_param_pieces(params))


def _csv_rows(pieces) -> list[str]:
    """Rows whose text joins ``pieces``, every number as _fmt gives it: see ``qgamma._csvrows``.

    The formatter is imported on first use, so ``import qgamma.cli`` does not
    load it.
    """
    from . import _csvrows

    return _csvrows.csv_rows(pieces, _fmt)


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
    if count < 1 or not (lo <= hi and np.isfinite(hi - lo)):
        raise DomainError(f"bad grid {text!r}; expected lo <= hi a finite distance apart and count >= 1")
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

    Each of ``lines`` is one line or, from _csv_rows, a chunk of them; the
    report's text is built once, each line ended by a newline.  The target is
    either left as it was or replaced whole, also if the process dies
    mid-write; a failed write removes the temporary file and raises OSError.
    A target that exists and is not a regular file (a device, a FIFO) is
    written in place: replacing it would leave a regular file where it was.
    """
    text = "\n".join([*lines, ""])  # joining a trailing "" ends the last line without another copy
    if not output:
        sys.stdout.write(text)
        return
    in_place = os.path.exists(output) and not os.path.isfile(output)
    head, tail = os.path.split(os.path.abspath(output))
    tmp = output if in_place else os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w" if in_place else "x", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if not in_place:
            os.replace(tmp, output)
    except OSError as e:
        if not in_place:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise OSError(e.errno, f"cannot write {output!r}: {e.strerror}") from e


def _eval_cfg(args, config) -> EvalConfig:
    return EvalConfig(rel_tol=_pick(args.rel_tol, config, "rel_tol", EvalConfig.rel_tol))


# ---------------------------------------------------------------------------
# the flags each target reads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Target:
    """An eval function or a bound: its library call and the flags it reads.

    The call takes the ``axes`` values, the ``params`` in order, then an
    EvalConfig from --rel-tol when ``rel_tol``.  Of each (scalar, grid) axis
    pair exactly one flag must be set; a param without a default is required.
    """

    call: Callable
    params: tuple[str, ...] = ()
    axes: tuple[tuple[str, str], ...] = ()
    defaults: dict = field(default_factory=dict)
    rel_tol: bool = True

    @property
    def reads(self) -> tuple[str, ...]:
        axes = (flag for axis in self.axes for flag in axis)
        return (*axes, *self.params, *(("rel_tol",) if self.rel_tol else ()))

    @property
    def required(self) -> tuple[str, ...]:
        return tuple(k for k in self.params if k not in self.defaults)


_EVAL = {
    "gamma": _Target(special.gamma, ("x",)),
    "log-gamma": _Target(special.log_gamma, ("x",)),
    "psi": _Target(special.psi, ("x",)),
    "psi-n": _Target(special.psi_n, ("n", "x")),
    "gamma-q": _Target(special.gamma_q, ("x", "q")),
    "psi-q": _Target(special.psi_q, ("x", "q")),
    "psi-q-n": _Target(special.psi_q_n, ("n", "x", "q")),
    "dilog-F": _Target(special.dilog_F, ("x",)),
}

# the first axis is the row axis, so rows run x-major (sigma-major), s-minor (tau-minor)
_REAL_AXES = (("x", "x_grid"), ("s", "s_grid"))
_COMPLEX_AXES = (("sigma", "sigma_grid"), ("tau", "tau_grid"))
_BOUNDS = {
    "gautschi": _Target(bnd.gautschi_bounds, axes=(("n", "x_grid"), ("s", "s_grid"))),
    "kershaw-psi": _Target(bnd.kershaw_psi_bounds, axes=_REAL_AXES),
    "kershaw-power": _Target(bnd.kershaw_power_bounds, axes=_REAL_AXES),
    "q-sandwich": _Target(bnd.q_sandwich, ("q",), _REAL_AXES, defaults={"q": 1.0}),
    # the complex bounds have a fixed cost: no tolerance to set
    "rademacher": _Target(bnd.rademacher_ratio_bound, ("c",), _COMPLEX_AXES, rel_tol=False),
    "beta-complex": _Target(bnd.beta_ratio_modulus, ("a", "b"), _COMPLEX_AXES, rel_tol=False),
}


def _union(groups) -> tuple[str, ...]:
    return tuple(dict.fromkeys(key for group in groups for key in group))


# the parameter flags of each command: what at least one of its targets reads
_EVAL_FLAGS = _union(t.reads for t in _EVAL.values())
_BOUND_FLAGS = _union(t.reads for t in _BOUNDS.values())
_CASE_FLAGS = _union(theorems.case_default_params(cid) for cid in theorems.registry_ids())
_KERNEL_FLAGS = _union(k.defaults for k in kernels.KERNELS.values())


def _flag(key: str) -> str:
    """A parameter name as the flag that sets it: a_list -> --a-list."""
    return "--" + key.replace("_", "-")


def _flags(keys) -> str:
    return ", ".join(map(_flag, keys))


def _flag_type(key: str):
    """n is an order; a list or a lo:hi:count grid is parsed where it is read; the rest are floats."""
    if key == "n":
        return int
    return str if key == "a_list" or key.endswith("_grid") else float


def _select(table: dict, name: str, kind: str):
    if name not in table:
        raise DomainError(f"unknown {kind} {name!r}; choose from {', '.join(table)}")
    return table[name]


def _check_flags(args, kind: str, name: str, flags, reads, required=(), axes=()) -> None:
    """Raise DomainError (exit 2) unless the flags set among ``flags`` suit the target ``name``.

    Every set flag must be one the target ``reads``, every ``required`` flag
    must be set, and of each (scalar, grid) pair in ``axes`` exactly one.
    """
    foreign = [k for k in flags if k not in reads and getattr(args, k) is not None]
    if foreign:
        raise DomainError(
            f"no {kind} selected by {name!r} takes {_flags(foreign)}; "
            f"the selection accepts {_flags(reads) or 'no parameter flag'}"
        )
    missing = [_flag(k) for k in required if getattr(args, k) is None]
    for scalar, grid in axes:
        given = [k for k in (scalar, grid) if getattr(args, k) is not None]
        if len(given) == 2:
            raise DomainError(f"{args.command} {name} takes {_flag(scalar)} or {_flag(grid)}, not both")
        if not given:
            missing.append(f"{_flag(scalar)} (or {_flag(grid)})")
    if missing:
        raise DomainError(f"{args.command} {name} requires {' and '.join(missing)}")


def _params(args, keys) -> dict:
    """The flags among ``keys`` that are set, by name; --a-list as a tuple of floats."""
    out = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    if "a_list" in out:
        out["a_list"] = tuple(_floats_csv(out["a_list"]))
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args, config) -> int:
    target = _select(_EVAL, args.fn, "function")
    _check_flags(args, "function", args.fn, _EVAL_FLAGS, target.reads, target.required)
    res = target.call(*(getattr(args, k) for k in target.params), _eval_cfg(args, config))
    lines = [f"value {_fmt(res.value)}", f"abs_error_bound {_fmt(res.abs_error_bound)}"]
    _emit(lines, args.output)
    return 0


# the GridSpec fields verify reads: its analytic rows use no difference steps h
_VERIFY_GRID = ("x_min", "x_max", "points", "spacing", "max_order")


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
    accepted = {cid: theorems.case_default_params(cid) for cid in selected}
    # a flag applies to the selected cases that take it; one that none takes is an error
    _check_flags(args, "case", selector, _CASE_FLAGS, _union(accepted.values()))
    overrides = _params(args, _CASE_FLAGS)
    grid_fields = _params(args, _VERIFY_GRID)
    tol_abs = _pick(args.tol_abs, config, "tol_abs", DEFAULT_TOL_ABS)
    tol_rel = _pick(args.tol_rel, config, "tol_rel", DEFAULT_TOL_REL)

    rows = []
    all_match = True
    for cid in selected:
        case = theorems.make_case(cid, **{k: v for k, v in overrides.items() if k in accepted[cid]})
        grid = dataclasses.replace(case.grid, **grid_fields)
        ver = theorems.verify_case(case, grid=grid, tol_abs=tol_abs, tol_rel=tol_rel)
        all_match = all_match and ver.matches
        params = _fmt_params(case.params)
        for label, rep in sorted(ver.reports.items()):
            x, _, n = rep.witness
            rows.append((case.id, params, f"worst-violation[{label}]", _fmt(rep.worst_violation), rep.verdict))
            rows.append((case.id, params, f"threshold[{label}]", _fmt(rep.worst_threshold), rep.verdict))
            rows.append((case.id, params, f"witness[{label}]", f"{_fmt(x)}|{n}", rep.verdict))
        rows.append((case.id, params, "expected-verdict", case.expected, "match" if ver.matches else "mismatch"))
    rows.sort(key=lambda r: (r[0], r[2]))
    lines = ["case,params,metric,value,verdict"]
    lines += [",".join(r) for r in rows]
    _emit(lines, args.output)
    return 0 if all_match else 1


def _cmd_scan_kernel(args, config) -> int:
    kern = _select(kernels.KERNELS, args.kernel, "kernel")
    _check_flags(args, "kernel", args.kernel, _KERNEL_FLAGS, tuple(kern.defaults))
    params = _params(args, _KERNEL_FLAGS)
    # a bound left unset by flag and config keeps default_t_grid's own default
    picked = {
        "t_min": _pick(args.t_min, config, "t_min", None),
        "t_max": _pick(args.t_max, config, "t_max", None),
        "points": _pick(args.t_points, config, "t_points", None),
    }
    grid = kernels.default_t_grid(**{k: v for k, v in picked.items() if v is not None})
    t, w, report = kernels.scan_kernel(args.kernel, params or None, grid)
    lines = ["row_type,key,value", *_csv_rows(["point,", t, ",", w])]
    lines.append(f"summary,t0_limit,{_fmt(report.t0_limit)}")
    lines.append(f"summary,min,{_fmt(report.min_value)}")
    lines.append(f"summary,max,{_fmt(report.max_value)}")
    lines.append(f"summary,sign_changes,{report.sign_change_count}")
    lines.append(f"summary,expected_sign,{report.expected_sign}")
    lines.append(f"summary,verdict,{report.verdict}")
    _emit(lines, args.output)
    return 0 if report.verdict == "match" else 1


def _axis(args, scalar: str, grid: str) -> np.ndarray:
    text = getattr(args, grid)
    return _grid_triplet(text) if text is not None else np.array([getattr(args, scalar)], dtype=float)


def _cmd_bounds(args, config) -> int:
    name = args.bound
    target = _select(_BOUNDS, name, "bound")
    _check_flags(args, "bound", name, _BOUND_FLAGS, target.reads, target.required, target.axes)
    (row_key, _), _ = target.axes
    # the row axis as a column and the column axis as a row: they broadcast to the grid
    rows, cols = (_axis(args, *axis) for axis in target.axes)
    rows, cols = rows[:, None], cols[None, :]
    params = {k: float(_pick(getattr(args, k), target.defaults, k, None)) for k in target.params}
    if target.axes == _COMPLEX_AXES:
        s = np.empty((rows.size, cols.size), dtype=complex)
        s.real = rows
        s.imag = cols
        modulus, bound = target.call(s, *params.values())
        margin = bnd._clamp(bound - modulus)
        ok = bool((margin >= 0.0).all())
        header = "bound,params,s_re,s_im,modulus,bound_value,margin"
        head = [f"{name},{_fmt_params(params)},", rows, ",", cols]
        columns = (modulus, bound, margin)
    else:
        t = target.call(rows, cols, *params.values(), _eval_cfg(args, config))
        lower_margin, upper_margin = t.lower_margin, t.upper_margin
        # margins within bounds.EQUALITY_TOL of zero are already clamped to 0
        ok = bool((lower_margin >= 0.0).all() and (upper_margin >= 0.0).all())
        header = "bound,params,lower,value,upper,lower_margin,upper_margin"
        head = [f"{name},", *_param_pieces({row_key: rows, "s": cols, **params})]
        columns = (t.lower, t.value, t.upper, lower_margin, upper_margin)
    _emit([header, *_csv_rows([*head, *(p for c in columns for p in (",", c))])], args.output)
    return 0 if ok else 1


def _cmd_q_limit_table(args, config) -> int:
    cfg = _eval_cfg(args, config)
    xs = _floats_csv(args.x)
    qs = _floats_csv(args.q)
    if not xs or not qs:
        raise DomainError("q-limit-table requires nonempty --x and --q lists")
    if any(q1 <= q0 for q0, q1 in zip(qs, qs[1:])):
        raise DomainError("--q list must be strictly increasing toward 1")
    lines = ["x,q,gamma_q,gamma,abs_error"]
    x = np.asarray(xs, dtype=float)
    gx = special.gamma(x, cfg).value
    # one call on the (x, q) mesh, by the name qbench's tracer leaves alone (see special._gamma_q)
    gq = special._gamma_q(x[:, None], np.asarray(qs)[None, :], cfg).value
    err = np.abs(gq - gx[:, None])
    for xv, gxv, gq_row, err_row in zip(xs, gx.tolist(), gq.tolist(), err.tolist()):
        for q, gqv, e in zip(qs, gq_row, err_row):
            lines.append(f"{_fmt(xv)},{_fmt(q)},{_fmt(gqv)},{_fmt(gxv)},{_fmt(e)}")
    # the error grows from one q to the next where it rises above the roundoff
    # floor by more than one rounding of the largest Gamma or Gamma_q it is
    # formed from; a smaller rise is a tie (both errors may round to Gamma(x))
    floor = 1e-14 * np.maximum(1.0, np.abs(gx))[:, None]
    big = np.maximum(np.abs(gq), np.abs(gx)[:, None])
    tie = 2.0**-53 * np.maximum(big[:, 1:], big[:, :-1])
    grows = ~((err[:, 1:] - err[:, :-1] <= tie) | (err[:, 1:] <= floor))
    _emit(lines, args.output)
    return 1 if grows.any() else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="qgamma",
        description="Evaluate gamma/q-gamma functions and verify monotonicity "
        "and bound claims numerically.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key=value defaults file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, target: str | None, flags) -> argparse.ArgumentParser:
        # full flag names only: an abbreviation must not silently select a longer flag
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if target:
            p.add_argument(target)
        for key in flags:
            p.add_argument(_flag(key), type=_flag_type(key))
        p.add_argument("--output", "--csv", dest="output", default=None)
        return p

    add("eval", "evaluate one function with an error bound", "fn", _EVAL_FLAGS)

    p_verify = add("verify", "run CM verification on registered cases", "selector", _CASE_FLAGS)
    p_verify.add_argument("--x-min", type=float)
    p_verify.add_argument("--x-max", type=float)
    p_verify.add_argument("--points", type=int)
    p_verify.add_argument("--spacing", choices=("linear", "geometric"))
    p_verify.add_argument("--max-order", type=int)
    p_verify.add_argument("--tol-abs", type=float)
    p_verify.add_argument("--tol-rel", type=float)

    p_scan = add("scan-kernel", "scan a proof kernel's sign on a t grid", "kernel", _KERNEL_FLAGS)
    p_scan.add_argument("--t-min", type=float)
    p_scan.add_argument("--t-max", type=float)
    p_scan.add_argument("--t-points", type=int)

    add("bounds", "evaluate two-sided ratio bounds", "bound", _BOUND_FLAGS)

    p_qlim = add("q-limit-table", "|Gamma_q - Gamma| as q increases to 1", None, ("rel_tol",))
    p_qlim.add_argument("--x", required=True)
    p_qlim.add_argument("--q", required=True)
    return parser


_DISPATCH = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "scan-kernel": _cmd_scan_kernel,
    "bounds": _cmd_bounds,
    "q-limit-table": _cmd_q_limit_table,
}


@functools.cache
def _value_flags() -> frozenset[str]:
    """Every option string of the parser and its subcommands that takes a value."""
    flags: set[str] = set()
    parsers = [_build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.option_strings and action.nargs != 0:
                flags.update(action.option_strings)
    return frozenset(flags)


def _join_negative_values(argv: list[str], value_flags: frozenset[str]) -> list[str]:
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
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_join_negative_values(list(argv), _value_flags()))
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    try:
        config = _load_config(args.config)
        return _DISPATCH[args.command](args, config)
    except (DomainError, ConvergenceError, OverflowError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # an input too large for this host, such as a scan of 1e10 points
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
