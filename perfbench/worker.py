"""One workload in its own process; started by run.py, never by hand.

Modes:
  setup  import the program, build the parser, the targets and the requests,
         print the moment the first operation would be issued, and exit;
  run    the timed, untraced closed loop: whole rounds until the run length
         is reached;
  trace  one round untraced, then the same round traced; per-layer metrics.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Optional

from orbiqrr import cli

import verify
import workloads

HERE = Path(__file__).resolve().parent
# Never start a round that would end this late in the run: run.py must exit
# within 180 s.
HARD_STOP_S = 140.0
# Every request is timed at least twice per run.
MIN_ROUNDS = 2
# Repetitions of the calibration kernel per sample; a sample is the fastest.
CALIBRATION_REPEATS = 3
# Inside a long operation, a calibration sample every this many seconds.
PROBE_INTERVAL_S = 0.1


def _calibration_kernel() -> Fraction:
    """A fixed amount of the arithmetic the program spends its time in:
    Fraction products and sums whose integers grow to a few hundred bits."""
    acc = Fraction(0)
    for i in range(1, 48):
        acc = acc * Fraction(i, i + 2) + Fraction(1, i)
    return acc


def calibration_s() -> float:
    """One sample of the machine's current speed: the kernel's best time.
    The kernel's objects hold no cycles, so collection stays off meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(CALIBRATION_REPEATS):
            start = time.perf_counter()
            _calibration_kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Calibration samples taken while an operation runs.

    The host's speed drifts by up to a factor of two within seconds, so one
    sample before and one after an operation of several seconds does not
    say how fast it ran.  While armed, a SIGALRM interval timer takes a
    sample every PROBE_INTERVAL_S; the time the handler spends is summed, so
    that it can be taken out of the operation's service time.
    """

    def __init__(self):
        self.active = False
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, _signum, _frame):
        if self.active:      # cleared before the operation's end is read
            start = time.perf_counter()
            self.samples.append(calibration_s())
            self.spent += time.perf_counter() - start

    def install(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def arm(self):
        self.samples, self.spent, self.active = [], 0.0, True
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


class Runner:
    """Executes operations and keeps what verification needs."""

    def __init__(self, workdir: Path, refs: dict, probe: Optional[SpeedProbe] = None):
        self.workdir = workdir
        self.refs = refs
        self.probe = probe
        # (round, rid, service time s, calibration s or None, digest or error text, raised)
        self.records = []
        self.outputs = {}          # (rid, digest) -> (op, output) for verification
        self.round_walls = []

    def execute(self, op, cache_dir, wrap=None) -> tuple:
        """(service time, digest or error text, raised) of one operation."""
        out, error = None, None
        probe = self.probe
        if probe:
            probe.arm()
        start = time.perf_counter()
        try:
            out = wrap(op.call, cache_dir) if wrap else op.call(cache_dir)
        except Exception as e:  # an operation that raises is a failed operation
            error = f"{type(e).__name__}: {e}"[:300]
        finally:
            if probe:
                probe.active = False
        latency = time.perf_counter() - start
        if probe:
            probe.disarm()
            latency -= probe.spent
        if error is not None:
            return latency, error, True
        digest = verify.sha256(out)
        self.outputs.setdefault((op.rid, digest), (op, out))
        return latency, digest, False

    def run_round(self, ops, wrap=None):
        """One round, against a fresh cache directory.  With a probe, a
        calibration sample is also taken before the first operation and
        after each one; an operation's calibration is the mean of the
        samples around and during it."""
        rnd = len(self.round_walls)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        before = calibration_s() if self.probe else None
        start = time.perf_counter()
        for op in ops:
            latency, result, raised = self.execute(op, cache_dir, wrap)
            cal = None
            if self.probe:
                after = calibration_s()
                around = [before, *self.probe.samples, after]
                cal = sum(around) / len(around)
                before = after
            self.records.append((rnd, op.rid, latency, cal, result, raised))
        self.round_walls.append(time.perf_counter() - start)

    def verify(self) -> dict:
        """Check every distinct output; returns failures and digest changes by rid."""
        bad, changed = {}, set()
        for (rid, digest), (op, out) in self.outputs.items():
            ok, reason, digest_changed = verify.check(op, out, digest, self.refs)
            if digest_changed:
                changed.add(rid)
            if not ok:
                bad[(rid, digest)] = reason
        return {"bad": bad, "changed": sorted(changed)}

    def summary(self) -> dict:
        checked = self.verify()
        failures, completed = [], []
        busy = [0.0] * len(self.round_walls)
        busy_cal = [0.0] * len(self.round_walls)   # service time in calibration units
        for rnd, rid, latency, cal, result, raised in self.records:
            busy[rnd] += latency
            busy_cal[rnd] += latency / cal if cal else 0.0
            if raised:
                failures.append({"rid": rid, "error": result})
            elif (rid, result) in checked["bad"]:
                failures.append({"rid": rid, "error": checked["bad"][(rid, result)]})
            else:
                completed.append((rnd, rid, latency, cal))
        pairs = sorted({f"{rid}\t{r}" for _n, rid, _l, _c, r, raised in self.records
                        if not raised})
        return {
            "attempted": len(self.records),
            "failed": len(failures),
            "failures": failures[:20],
            # (round, rid, service time, calibration) of every completed operation
            "completed": completed,
            "round_busy_s": busy,
            "round_busy_cal": busy_cal,
            "digest_changed": checked["changed"],
            "outputs_sha256": hashlib.sha256("\n".join(pairs).encode()).hexdigest(),
        }


def warm_up(plan, runner: Runner) -> list:
    warm = Runner(runner.workdir, runner.refs)
    warm.run_round(plan.warmup)
    return warm.summary()["failures"]


def timed_run(plan, runner: Runner, seconds: float) -> dict:
    start = time.perf_counter()
    while True:
        runner.run_round(plan.next_round())
        elapsed = time.perf_counter() - start
        rounds = len(runner.round_walls)
        per_round = elapsed / rounds
        # stop where the run ends closest to the requested length
        done = rounds >= MIN_ROUNDS and elapsed + per_round / 2 >= seconds
        if done or elapsed + per_round >= HARD_STOP_S:
            break
    return {"wall_s": time.perf_counter() - start, "rounds": len(runner.round_walls)}


def traced_run(plan, runner: Runner, key: str) -> dict:
    import tracing  # imported here, so that an untraced run never loads the wrappers

    ops = plan.next_round()
    start = time.perf_counter()
    runner.run_round(ops)
    untraced = time.perf_counter() - start
    plain = runner.summary()

    traced_runner = Runner(runner.workdir, runner.refs)
    tracer = tracing.Tracer()
    op_ids = iter(range(len(ops)))
    tracer.install()
    try:
        start = time.perf_counter()
        traced_runner.run_round(
            ops, wrap=lambda call, cache_dir: tracer.operation(next(op_ids), call, cache_dir))
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    summary = traced_runner.summary()
    metrics = tracer.metrics()
    counts = tracing.count_metrics(metrics)
    metrics["trace.overhead_ratio"] = traced / untraced

    problems = []
    if summary["outputs_sha256"] != plain["outputs_sha256"]:
        problems.append("traced outputs differ from untraced outputs")
    runs = HERE / ".runs"
    runs.mkdir(exist_ok=True)
    counts_file = runs / f"counts-{key}.json"
    if counts_file.exists():
        before = json.loads(counts_file.read_text())
        diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        if diff:
            problems.append(f"counts differ from an earlier traced run with this seed: {diff}")
    else:
        counts_file.write_text(json.dumps(counts, sort_keys=True))
    spans_file = runs / f"spans-{plan.workload}.jsonl"
    with open(spans_file, "w") as fh:
        for op, span, parent, name, s, e in tracer.spans:
            fh.write(json.dumps({"op": op, "span": span, "parent": parent, "name": name,
                                 "start": s, "end": e}) + "\n")
    summary["attempted"] += plain["attempted"]
    summary["failed"] += plain["failed"]
    summary["failures"] += plain["failures"]
    return {"summary": summary, "metrics": metrics, "problems": problems,
            "untraced_s": untraced, "traced_s": traced}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--references", default=str(verify.REFERENCES))
    p.add_argument("--trace-key", default="")
    args = p.parse_args()

    cli.build_parser()
    plan = workloads.Plan(args.workload, args.seed, args.tiny)
    ready = time.monotonic()
    # the speed the set-up ran at: the middle of three samples right after it
    calibration = sorted(calibration_s() for _ in range(3))[1]
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "calibration_s": calibration}))
        return 0

    refs = verify.load_references(args.references)
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        runner = Runner(workdir, refs, SpeedProbe() if args.mode == "run" else None)
        result = {"ready": ready, "calibration_s": calibration,
                  "warmup_failures": warm_up(plan, runner)}
        if args.mode == "run":
            runner.probe.install()
            try:
                result.update(timed_run(plan, runner, args.seconds))
            finally:
                runner.probe.uninstall()
            result["summary"] = runner.summary()
        else:
            result.update(traced_run(plan, runner, args.trace_key))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
