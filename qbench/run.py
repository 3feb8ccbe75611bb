"""qgamma benchmark: three seeded CLI workloads, end-to-end and per-layer metrics.

    python3 qbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from ``src``.
With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric in BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric, from a traced run compared with an untraced one.  Earlier
lines, prefixed ``#``, give the environment, each metric's sample count and
any failed check.  Workloads, metrics and the layer map are described in
BENCHMARK.json and qbench/layers.json.

The timed stream runs in a child process (``stream.py``) so that its peak
RSS covers that workload alone.  ``setup_s`` is the median wall time of fresh
interpreters that only ``import qgamma.cli``.

Every timing metric (``setup_s``, ``cmd_p50_ms``, ``cmd_p90_ms``,
``work_per_s``) is scaled to a nominal host speed by the reference loop timed
next to each operation (``hostspeed.py``): the shared host drifts by a third
over tens of seconds, which would otherwise swamp the program's own changes.
The raw wall-clock values are printed on the ``#`` lines beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REF_S, SETUP_REF_ARGS, SETUP_REF_S, normalise
from names import END_TO_END_UNITS, PER_LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 15
CHILD_TIMEOUT_S = 160


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _launch(args: list[str]) -> float:
    """Wall seconds of a fresh interpreter running ``args``."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=60)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} failed: {proc.stderr.strip()[-500:]}")
    return dt


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters importing qgamma.cli (after one untimed),
    and of the reference interpreter launched just before each."""
    times, refs = [], []
    for k in range(runs + 1):
        ref = _launch(SETUP_REF_ARGS)
        dt = _launch(["-c", "import qgamma.cli"])
        if k:
            times.append(dt)
            refs.append(ref)
    return times, refs


def run_child(args) -> dict:
    argv = [sys.executable, str(HERE / "stream.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"stream exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args, child: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        **child["environment"],
        "terms_per_call": "SeriesResult.terms_used as the library reports it",
    }


def timings(work: int, setup: list[float], lat: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "cmd_p50_ms": statistics.median(lat) * 1e3,
        "cmd_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "work_per_s": work / sum(lat),
    }


def end_to_end(rec: dict, setup: tuple[list[float], list[float]]):
    """name -> (value, sample count), and the raw wall-clock timings."""
    times, refs = setup
    lat = rec["latencies_s"]
    n = len(lat)
    raw = timings(rec["work"], times, lat)
    scaled = timings(rec["work"], normalise(times, refs, SETUP_REF_S, window=0),
                     normalise(lat, rec["refs_s"]))
    values = {k: (v, len(times) if k == "setup_s" else n) for k, v in scaled.items()}
    values["peak_rss_mb"] = (rec["peak_rss_kib"] / 1024.0, 1)
    return values, raw


def fail_share(rec: dict) -> tuple[float, int]:
    """Failed over attempted operations, the frontier attempts included."""
    front = rec["frontier"]
    attempted = rec["attempted"] + front["attempted"]
    return (rec["failed"] + front["failed"]) / attempted, attempted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="minimal inputs, for the self-check only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qgamma" / "cli.py").is_file():
        print(f"error: no qgamma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup = ([], []) if args.trace else measure_setup(2 if args.tiny else SETUP_RUNS)
        rec = run_child(args)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    share, attempted = fail_share(rec)
    front = rec["frontier"]
    correct = rec["failed"] == 0 and front["unexpected"] == 0 and not rec.get("unrestored")
    print("# env " + json.dumps(environment(args, rec)))
    if args.trace:
        values = dict(rec["layers"])
        values["special.oracle.samples"] = rec["oracle"]["samples"]
        values["special.oracle.bound_violations"] = rec["oracle"]["bound_violations"]
        values["special.oracle.max_rel_err"] = rec["oracle"]["max_rel_err"]
        values["run.frontier.attempted"] = front["attempted"]
        values["run.frontier.failed"] = front["failed"]
        values["run.fail_share"] = share
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        print(f"# traced passes={rec['passes']} patched attributes restored="
              f"{not rec['unrestored']}")
    else:
        e2e, raw = end_to_end(rec, setup)
        metrics = {k: {"value": e2e[k][0], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
        print(f"# host reference: loop median {statistics.median(rec['refs_s']) * 1e3:.4g} ms "
              f"over {len(rec['refs_s'])} samples, scaled to {REF_S * 1e3:g} ms; interpreter "
              f"median {statistics.median(setup[1]):.4g} s over {len(setup[1])}, scaled to "
              f"{SETUP_REF_S:g} s")
        for k, (v, n) in e2e.items():
            unit = f"{rec['work_unit']}/s" if k == "work_per_s" else END_TO_END_UNITS[k]
            note = f"  (raw {raw[k]:.6g})" if k in raw else ""
            print(f"# {k:<12} {v:>14.6g} {unit:<12} samples={n}{note}")
        print(f"# {'fail_share':<12} {share:>14.6g} {'ratio':<12} samples={attempted}"
              f"  (frontier: {front['failed']}/{front['attempted']} known-failing inputs "
              f"failed {' '.join(front['first'])})")
    print(f"# oracle samples={rec['oracle']['samples']} "
          f"bound_violations={rec['oracle']['bound_violations']} "
          f"max_rel_err={rec['oracle']['max_rel_err']:.3g} ({rec['oracle']['worst']})")
    for problem in rec["problems"]:
        print(f"# FAILED {problem}")
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
