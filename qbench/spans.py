"""Per-layer spans recorded from outside the library.

:class:`Tracer` wraps the public functions of each qgamma layer at the module
attribute their callers look up, so the library itself is not edited:

* ``special.*`` is patched in ``special`` (the CLI calls ``special.gamma`` and
  friends, and ``gamma`` / ``gamma_q`` call ``log_gamma`` / ``log_gamma_q``
  through the module), and again under the names ``theorems`` and ``bounds``
  imported;
* ``check_cm`` in ``cmcheck`` and in ``theorems``;
* ``theorems.make_case`` / ``verify_case``, whose returned case gets its
  ``deriv`` wrapped through ``dataclasses.replace``, so the theorem closures
  show apart from ``cmcheck``'s own stencil loop;
* ``kernels.scan_kernel``, the three ``bounds`` functions the CLI calls, and
  ``cli.main``.

Each call opens a span (name, start, end, parent).  A span's self time is its
duration minus the time its child spans cover.  Spans are folded into per-name
totals as they close, which keeps a 200k-call grid run small in memory.
``uninstall`` puts every original back and reports any attribute that is not.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter

from qgamma import bounds, cli, cmcheck, kernels, special, theorems

from names import BOUND_FNS, LAYERS, Q_BUCKETS, Q_FNS, SPECIAL_FNS


def q_bucket(q: float) -> str | None:
    if q >= 1.0:
        return None  # routed to the classical evaluator
    if q <= 0.75:
        return "q50"
    if q <= 0.95:
        return "q90"
    if q <= 0.995:
        return "q99"
    return "q999"


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "terms", "results", "converged", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.terms = 0
        self.results = 0
        self.converged = 0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self._top: Span | None = None
        self._saved: list[tuple[object, str, object]] = []
        self.unrestored: list[str] = []  # over every install/uninstall cycle

    # -- spans ------------------------------------------------------------

    def _close(self, span: Span, keys: tuple[str, ...]):
        span.end = perf_counter()
        dur = span.end - span.start
        self._top = span.parent
        if span.parent is not None:
            span.parent.child_time += dur
        self_s = dur - span.child_time
        for key in keys:
            st = self.stats[key]
            st.calls += 1
            st.self_s += self_s
            st.total_s += dur

    def wrap(self, name: str, fn, on_return=None, bucket_of=None):
        """Wrap ``fn`` in a span named ``name``.

        ``on_return(stat_keys, args, kwargs, result)`` adds counts; ``bucket_of``
        maps the call's arguments to an extra stat key (the q bucket).
        """

        def traced(*args, **kwargs):
            keys = (name,)
            if bucket_of is not None:
                b = bucket_of(args, kwargs)
                if b is not None:
                    keys = (name, f"{name}.{b}")
            span = Span(name, perf_counter(), self._top)
            self._top = span
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, keys)
                layer = name.split(".")[0] + "."
                if span.parent is None or not span.parent.name.startswith(layer):
                    self.stats[name].errors += 1  # count where it leaves the layer
                raise
            self._close(span, keys)
            if on_return is not None:
                on_return(keys, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-layer hooks ----------------------------------------------------

    def _series(self, keys, args, kwargs, res):
        for key in keys:
            st = self.stats[key]
            st.results += 1
            st.terms += res.terms_used
            st.converged += bool(res.converged)

    def _check_cm(self, keys, args, kwargs, report):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        zero = args[5] if len(args) > 5 else kwargs.get("include_order_zero", True)
        # one f value per stencil node: n + 1 per (x, h, n), plus f(x) for order 0
        p, h = grid.points, len(grid.h_set)
        lookups = p * h * sum(n + 1 for n in range(1, grid.max_order + 1)) + p * bool(zero)
        self.counters["cmcheck.stencil_lookups"] += lookups
        self.counters["cmcheck.evaluations"] += report.evaluations

    def _scan(self, keys, args, kwargs, result):
        self.counters["kernels.points"] += result[2].points

    # -- patching -----------------------------------------------------------

    def _set(self, module, attr: str, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for fn_name in SPECIAL_FNS:
            original = getattr(special, fn_name)
            pos = Q_FNS.get(fn_name)
            bucket = None
            if pos is not None:
                def bucket(args, kwargs, pos=pos):
                    q = args[pos] if len(args) > pos else kwargs["q"]
                    return q_bucket(getattr(q, "q", q))
            wrapped = self.wrap(f"special.{fn_name}", original, self._series, bucket)
            for module in (special, theorems, bounds):
                if getattr(module, fn_name, None) is original:
                    self._set(module, fn_name, wrapped)

        check_cm = self.wrap("cmcheck.check_cm", cmcheck.check_cm, self._check_cm)
        self._set(cmcheck, "check_cm", check_cm)
        self._set(theorems, "check_cm", check_cm)

        make_case = self.wrap("theorems.make_case", theorems.make_case)

        def traced_make_case(*args, **kwargs):
            case = make_case(*args, **kwargs)
            deriv = self.wrap("theorems.deriv", case.deriv)
            return dataclasses.replace(case, deriv=deriv)

        traced_make_case.__wrapped__ = make_case
        self._set(theorems, "make_case", traced_make_case)
        self._set(theorems, "verify_case", self.wrap("theorems.verify_case", theorems.verify_case))

        scan = self.wrap("kernels.scan_kernel", kernels.scan_kernel, self._scan)
        self._set(kernels, "scan_kernel", scan)
        for fn_name in BOUND_FNS:
            self._set(bounds, fn_name, self.wrap(f"bounds.{fn_name}", getattr(bounds, fn_name)))
        self._set(cli, "main", self.wrap("cli.main", cli.main))

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return the names left unrestored."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        bad = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._saved
            if getattr(module, attr) is not original
        ]
        self._saved = []
        return bad

    def patched(self) -> list[str]:
        return [f"{module.__name__}.{attr}" for module, attr, _ in self._saved]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.unrestored += self.uninstall()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, traced_s: float, bytes_out: int) -> dict[str, float]:
    """Per-layer values from one traced stream; ``traced_s`` is its summed command time.

    ``us_per_call`` is inclusive time per call (what a caller waits);
    ``self_ms`` excludes child spans.  ``terms_per_call`` is
    ``SeriesResult.terms_used`` exactly as the library reports it.
    """
    st = tr.stats
    m: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, s in st.items():
        if name.count(".") == 1:  # q-bucket keys repeat their function's time
            layer_self[name.split(".")[0]] += s.self_s
    results = converged = errors = 0
    for fn in SPECIAL_FNS:
        s = st.get(f"special.{fn}", Stat())
        m[f"special.{fn}.calls"] = s.calls
        m[f"special.{fn}.self_ms"] = s.self_s * 1e3
        m[f"special.{fn}.us_per_call"] = _div(s.total_s * 1e6, s.calls)
        m[f"special.{fn}.terms_per_call"] = _div(s.terms, s.results)
        results += s.results
        converged += s.converged
        errors += s.errors
    for fn in Q_FNS:
        for b in Q_BUCKETS:
            s = st.get(f"special.{fn}.{b}", Stat())
            m[f"special.{fn}.{b}.us_per_call"] = _div(s.total_s * 1e6, s.calls)
            m[f"special.{fn}.{b}.terms_per_call"] = _div(s.terms, s.results)
    m["special.errors"] = errors
    m["special.converged_share"] = _div(converged, results)

    cm = st.get("cmcheck.check_cm", Stat())
    evals = tr.counters["cmcheck.evaluations"]
    lookups = tr.counters["cmcheck.stencil_lookups"]
    m["cmcheck.check_cm.calls"] = cm.calls
    m["cmcheck.check_cm.self_ms"] = cm.self_s * 1e3
    m["cmcheck.evaluations"] = evals
    m["cmcheck.stencil_lookups"] = lookups
    m["cmcheck.reuse_ratio"] = _div(evals, lookups)
    m["cmcheck.evals_per_s"] = _div(evals, cm.total_s)

    for key in ("verify_case", "deriv"):
        s = st.get(f"theorems.{key}", Stat())
        m[f"theorems.{key}.calls"] = s.calls
        m[f"theorems.{key}.self_ms"] = s.self_s * 1e3
    m["theorems.make_case.self_ms"] = st.get("theorems.make_case", Stat()).self_s * 1e3

    sk = st.get("kernels.scan_kernel", Stat())
    points = tr.counters["kernels.points"]
    m["kernels.scan_kernel.calls"] = sk.calls
    m["kernels.scan_kernel.self_ms"] = sk.self_s * 1e3
    m["kernels.scan_kernel.points"] = points
    m["kernels.scan_kernel.points_per_s"] = _div(points, sk.self_s)

    b_calls = b_time = 0.0
    for fn in BOUND_FNS:
        s = st.get(f"bounds.{fn}", Stat())
        m[f"bounds.{fn}.calls"] = s.calls
        m[f"bounds.{fn}.self_ms"] = s.self_s * 1e3
        b_calls += s.calls
        b_time += s.total_s
    m["bounds.points_per_s"] = _div(b_calls, b_time)

    main = st.get("cli.main", Stat())
    m["cli.main.calls"] = main.calls
    m["cli.main.self_ms"] = main.self_s * 1e3
    m["cli.bytes_out"] = bytes_out
    m["cli.self_us_per_kb"] = _div(main.self_s * 1e6, bytes_out / 1024.0)
    for layer in LAYERS:
        m[f"{layer}.share"] = _div(layer_self[layer], traced_s)
    return m
