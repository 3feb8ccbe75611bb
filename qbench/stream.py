"""Run one workload's command stream in-process and print its raw results as JSON.

One closed-loop client: a single thread calls ``qgamma.cli.main(argv)`` with
stdout and stderr captured, and sends the next command only after the
previous one returns.  Just before each command the host-speed reference
loop is timed (see ``hostspeed.py``), so that the parent can scale every
latency to a nominal host speed.  The parent ``run.py`` starts this script as a child
process, so that the child's ``ru_maxrss`` covers only this workload, and
turns the printed record into the benchmark's metrics.

    python qbench/stream.py --workload corpus --seed 1 --seconds 10 --trace 0

needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

from qgamma import cli

import workloads
from hostspeed import reference, time_reference
from workloads import Command, Workload

MIN_COMMANDS = 100  # so that at least ten samples lie beyond the p90


def run_command(argv) -> tuple[object, float, str, str]:
    """(exit code, seconds, stdout, stderr); an uncaught exception gives code None."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as e:  # an uncaught exception is a failed operation, not a crash
        rc = None
        err.write(f"{type(e).__name__}: {e}")
    return rc, perf_counter() - t0, out.getvalue(), err.getvalue()


def _digest(text: str) -> bytes:
    """sha256 of the UTF-8 text, encoded in 1 MiB slices to keep the copy small."""
    h = hashlib.sha256()
    for i in range(0, len(text), 1 << 20):
        h.update(text[i:i + (1 << 20)].encode())
    return h.digest()


class Stream:
    """Timed passes over a workload, with every output checked."""

    def __init__(self, wl: Workload, rng: random.Random):
        self.wl = wl
        self.rng = rng
        self.latencies: list[float] = []
        self.refs: list[float] = []  # reference-loop seconds, taken just before each command
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.digests: dict[tuple[str, ...], bytes] = {}
        self.kept: dict[tuple[str, ...], str] = {}  # first outputs the oracle samples
        self.problems: list[str] = []

    def order(self) -> list[Command]:
        """The next pass: every command once, in a seeded permutation."""
        return self.rng.sample(self.wl.commands, len(self.wl.commands))

    def run_pass(self, order: list[Command]):
        """Run the commands in order."""
        for cmd in order:
            self.run_one(cmd)

    def run_one(self, cmd: Command) -> float:
        """Run and check one command; return its latency in seconds."""
        self.refs.append(time_reference())
        rc, dt, out, err = run_command(cmd.argv)
        self.latencies.append(dt)
        self.bytes_out += len(out)
        ok, units = workloads.check(cmd, rc, out)
        digest = _digest(out)
        first = self.digests.setdefault(cmd.argv, digest)
        if first != digest:
            ok = False
            self.problems.append(f"output differs on repeat: {' '.join(cmd.argv)}")
        if ok and cmd.argv in self.wl.oracle_rows and cmd.argv not in self.kept:
            self.kept[cmd.argv] = out
        self.attempted += 1
        if ok:
            self.work += units
        else:
            self.failed += 1
            self.problems.append(f"rc={rc} {' '.join(cmd.argv)} {err.strip()[:200]}")
        return dt


def frontier(wl: Workload) -> dict:
    """Attempt the workload's known-failing inputs once, outside the timed stream.

    A failure reported through the exit code (1 or 2) is the known state and
    counts only in fail_share; an uncaught exception makes the run incorrect.
    """
    failed = unexpected = 0
    problems, seen = [], []
    for cmd in wl.frontier:
        rc, _, out, err = run_command(cmd.argv)
        ok, _ = workloads.check(cmd, rc, out)
        if ok:
            continue
        failed += 1
        seen.append(f"rc={rc}" + (f": {err.strip()[:120]}" if err.strip() else ""))
        if rc not in (1, 2):
            unexpected += 1
            problems.append(f"frontier rc={rc} {' '.join(cmd.argv)} {err.strip()[:200]}")
    return {"attempted": len(wl.frontier), "failed": failed, "unexpected": unexpected,
            "problems": problems, "first": seen[:1]}


def run_oracle(wl: Workload, stream: Stream, rng: random.Random) -> dict:
    import oracle  # mpmath is imported only after the timed stream

    tally = oracle.Tally()
    attempted = failed = 0
    problems = []
    for cmd in wl.oracle_evals:
        rc, _, out, err = run_command(cmd.argv)
        attempted += 1
        ok, _ = workloads.check(cmd, rc, out)
        if not (ok and oracle.check_eval(cmd.argv, out, tally)):
            failed += 1
            problems.append(f"oracle {' '.join(cmd.argv)} -> {out.strip()!r} {err.strip()[:200]}")
    for argv, count in wl.oracle_rows.items():
        out = stream.kept.get(argv)
        if out is None:
            continue  # the command failed its own check, which already counted it
        if not oracle.check_rows(argv, out, count, rng, tally):
            failed += 1
            problems.append(f"oracle rows of {' '.join(argv)} (worst {tally.worst})")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "samples": tally.samples, "bound_violations": tally.bound_violations,
            "max_rel_err": tally.max_rel_err, "worst": tally.worst}


def warm_up(wl: Workload):
    """One untimed call per command kind, so lazy imports and first-call costs are paid."""
    for _ in range(3):
        reference()
    seen = set()
    for cmd in wl.commands:
        if cmd.kind not in seen:
            seen.add(cmd.kind)
            run_command(cmd.argv)


def environment() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-check size")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    rng = random.Random(f"stream:{args.workload}:{args.seed}")  # pass orders
    min_commands = 1 if args.tiny else MIN_COMMANDS
    warm_up(wl)
    stream = Stream(wl, rng)
    record: dict = {"environment": environment(), "work_unit": wl.work_unit}

    if not args.trace:
        start = perf_counter()
        while perf_counter() - start < args.seconds or len(stream.latencies) < min_commands:
            stream.run_pass(stream.order())
        record["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["latencies_s"] = stream.latencies
        record["refs_s"] = stream.refs
    else:
        # each command runs untraced and then traced, so host drift hits both alike
        from spans import Tracer, layer_metrics

        tr = Tracer()
        untraced = traced = 0.0
        traced_bytes = passes = 0
        start = perf_counter()
        while perf_counter() - start < args.seconds or not passes:
            for cmd in stream.order():
                untraced += stream.run_one(cmd)
                before = stream.bytes_out
                with tr:
                    traced += stream.run_one(cmd)
                traced_bytes += stream.bytes_out - before
            passes += 1
        record["unrestored"] = tr.unrestored
        record["layers"] = layer_metrics(tr, traced, traced_bytes)
        record["layers"]["trace.overhead_share"] = (traced - untraced) / traced
        record["passes"] = passes

    front = frontier(wl)
    orc = run_oracle(wl, stream, random.Random(f"oracle:{args.workload}:{args.seed}"))
    record.update(
        attempted=stream.attempted + orc["attempted"],
        failed=stream.failed + orc["failed"],
        work=stream.work,
        frontier=front,
        oracle={k: v for k, v in orc.items() if k != "problems"},
        problems=(stream.problems + front["problems"] + orc["problems"])[:20],
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
