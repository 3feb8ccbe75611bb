"""Self-check of the benchmark at a tiny size (about half a minute).

    python3 qbench/selfcheck.py

Checks that
* the metric names and units in BENCHMARK.json are the ones the code prints;
* one ``run.py`` command per workload prints every end-to-end metric, with its
  unit and sample count, and passes its output checks;
* a traced run prints every per-layer metric with its unit;
* installing and removing the tracer leaves every attribute of every qgamma
  module exactly as it was, and the tracer did patch what it claims;
* the host-speed scaling cancels a uniform slowdown of host and program;
* in a directory holding only BENCHMARK.json and qbench/, the benchmark
  exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from names import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "qbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == END_TO_END_UNITS, "BENCHMARK.json end_to_end matches the printed metrics")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == PER_LAYER_UNITS, "BENCHMARK.json per_layer matches the traced metrics")
    expect([w["name"] for w in spec["workloads"]] == ["corpus", "deep-q", "grids"],
           "BENCHMARK.json names the three workloads")


def check_result(proc, units: dict, label: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and bool(lines), f"{label}: exits 0 with output")
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:])
        return {}
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: result has exactly correct/attempted/failed/metrics")
    expect(result["correct"] is True and result["failed"] == 0, f"{label}: all checks pass")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units, f"{label}: every declared metric printed with its unit")
    expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
           f"{label}: every value is a number")
    return result


def check_runs():
    for workload in ("corpus", "deep-q", "grids"):
        proc = run_bench(workload, 0)
        check_result(proc, END_TO_END_UNITS, f"{workload} --trace 0")
        text = proc.stdout
        expect(all(f"# {k} " in text and "samples=" in text for k in [*END_TO_END_UNITS, "fail_share"]),
               f"{workload}: human-readable table names all six metrics with sample counts")
    proc = run_bench("deep-q", 1)
    check_result(proc, PER_LAYER_UNITS, "deep-q --trace 1")
    expect("restored=True" in proc.stdout, "traced run reports every patch restored")


def check_restore():
    from qgamma import bounds, cli, cmcheck, kernels, special, theorems

    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from stream import run_command

    modules = (special, cmcheck, theorems, kernels, bounds, cli)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    with Tracer() as tr:
        patched = tr.patched()
        changed = [key for key in before if getattr(sys.modules[key[0]], key[1]) is not before[key]]
        rc, *_ = run_command(["verify", "psi-prime", "--points", "4", "--max-order", "2"])
    expect(rc == 0 and sorted(set(changed)) == sorted(set(tuple(p.rsplit(".", 1)) for p in patched)),
           f"tracer patches exactly the {len(patched)} attributes it lists")
    expect(not tr.unrestored, "tracer reports nothing unrestored")
    after_diff = [k for k in before if vars(sys.modules[k[0]]).get(k[1]) is not before[k]]
    expect(not after_diff, "every module attribute is the original after uninstall")
    expect(tr.stats["cli.main"].calls == 1 and tr.stats["special.psi_n"].calls > 0,
           "spans were recorded while installed")


def check_hostspeed():
    from hostspeed import REF_S, normalise

    times, refs = [0.010, 0.030, 0.020, 0.050], [0.0016, 0.0020, 0.0018, 0.0024]
    fast = normalise(times, refs)
    slow = normalise([1.3 * t for t in times], [1.3 * r for r in refs])
    expect(all(abs(a - b) <= 1e-12 * a for a, b in zip(fast, slow)),
           "host-speed scaling cancels a slowdown shared by host and program")
    expect(normalise([0.5], [REF_S]) == [0.5], "at the nominal host speed a time is unchanged")


def check_bare_directory():
    bare = ROOT / ".bench_selfcheck"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "qbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench("corpus", 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"),
               "without the sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_declared()
    check_restore()
    check_hostspeed()
    check_runs()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
