#!/usr/bin/env python3
"""The orbiqrr benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload {quintic,twisted,identities}
                           --seed N --seconds S --trace {0,1}

With --trace 0 it prints the end-to-end metrics of one timed run; with
--trace 1 it prints the per-layer metrics of one traced run.  The workload
runs in a fresh interpreter of its own (perfbench/worker.py) with the
program imported from ./src; set-up time is measured on separate fresh
interpreters as well.  Every time is converted to reference seconds through
calibration samples taken beside it (see reference_seconds).  A line of
details, with the times as measured, precedes the result, which is the last
line of standard output: a JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh-interpreter set-ups per run: this many probes before the timed worker
# and as many after it, plus the worker's own; the median is reported.
SETUP_PROBES = 4
# The calibration kernel's time (worker.calibration_s) on the reference
# machine: a 2-vCPU Xeon VM with CPython 3.11, where it reads 190-400 us as
# the shared host's load changes.  Every reported time is converted to it.
REFERENCE_CALIBRATION_S = 300e-6
DEADLINE_S = 175.0         # the whole command must end within 180 s

# latency_tail_s: a percentile with at least ten operations beyond it at the
# default run length (quintic: two 26-operation rounds; twisted: >= 290
# operations; identities: >= 220), placed where the per-round cost
# distribution is flat, so that noise in one operation cannot move it far.
TAIL_PERCENTILE = {"quintic": 80, "twisted": 95, "identities": 93}

# per-layer metric name ending -> unit; the rest are counts
LAYER_UNITS = (("_s", "s"), ("_ratio", "ratio"), ("bytes", "bytes"),
               ("bytes_written", "bytes"), ("_bits", "bits"),
               ("_lambda_degree", "degree"), ("_order", "order"))


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ORBIQRR_CACHE", None)         # never read a user's artifact cache
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"            # traced counts must repeat exactly
    return env


def run_worker(args, mode: str, timeout: float, extra=()) -> tuple:
    """Start one worker; returns (its result object, the spawn moment)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(timeout, 1.0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference_seconds(seconds: float, calibration: float) -> float:
    """A time measured while the calibration kernel took `calibration` s,
    as it would read on the reference machine."""
    return seconds * REFERENCE_CALIBRATION_S / calibration


def end_to_end(args, deadline: float, extra) -> tuple:
    def probe():
        ready, spawned = run_worker(args, "setup", deadline - time.monotonic(), extra)
        return ready["ready"] - spawned, ready["calibration_s"]

    setups = [probe() for _ in range(SETUP_PROBES)]
    res, spawned = run_worker(args, "run", deadline - time.monotonic(), extra)
    setups.append((res["ready"] - spawned, res["calibration_s"]))
    setups += [probe() for _ in range(SETUP_PROBES)]
    s = res["summary"]
    done = s["completed"]
    tail = TAIL_PERCENTILE[args.workload]
    completed = [0] * len(s["round_busy_cal"])
    for rnd, *_rest in done:
        completed[rnd] += 1

    def timings(lat, busy):
        lat = lat or [0.0]             # no completed operation: correct is false
        return {"throughput_ops_s": statistics.median(n / b for n, b in zip(completed, busy)),
                "latency_p50_s": statistics.median(lat),
                "latency_tail_s": percentile(lat, tail)}

    measured = timings([lat for _r, _rid, lat, _c in done], s["round_busy_s"])
    ref = timings([reference_seconds(lat, c) for _r, _rid, lat, c in done],
                  [REFERENCE_CALIBRATION_S * b for b in s["round_busy_cal"]])
    units = {"throughput_ops_s": "ops/s", "latency_p50_s": "s", "latency_tail_s": "s"}
    metrics = {name: (value, units[name]) for name, value in ref.items()}
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    metrics["setup_s"] = (statistics.median(reference_seconds(*x) for x in setups), "s")
    details = {
        "workload": args.workload, "seed": args.seed, "rounds": res["rounds"],
        "wall_s": res["wall_s"], "samples": len(done),
        "latency_tail_percentile": tail,
        "fail_ratio": {"value": s["failed"] / s["attempted"], "unit": "fraction"},
        "measured": {**measured, "setup_s": statistics.median(t for t, _c in setups)},
        "calibration_s": statistics.median(c for *_r, c in done) if done else None,
        "setup_samples_s": setups,
    }
    return res, s, metrics, details


def per_layer(args, deadline: float, extra) -> tuple:
    key = f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}-{source_fingerprint()}"
    res, _spawned = run_worker(args, "trace", deadline - time.monotonic(),
                               [*extra, "--trace-key", key])
    metrics = {name: (value, next((u for end, u in LAYER_UNITS if name.endswith(end)), "count"))
               for name, value in res["metrics"].items()}
    details = {"workload": args.workload, "seed": args.seed,
               "untraced_s": res["untraced_s"], "traced_s": res["traced_s"],
               "problems": res["problems"],
               "spans_file": f"perfbench/.runs/spans-{args.workload}.jsonl"}
    return res, res["summary"], metrics, details


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=tuple(TAIL_PERCENTILE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few cheap operations per round (self-test)")
    p.add_argument("--references", default=None,
                   help="reference outputs (default perfbench/references.json)")
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "orbiqrr" / "__init__.py").is_file():
        return fail(f"no program source at {ROOT / 'src' / 'orbiqrr'}")
    extra = (["--tiny"] if args.tiny else []) + (
        ["--references", str(Path(args.references).resolve())] if args.references else [])
    try:
        if args.trace:
            res, s, metrics, details = per_layer(args, deadline, extra)
        else:
            res, s, metrics, details = end_to_end(args, deadline, extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        return fail(f"workload {args.workload} did not complete: {e}")

    problems = list(details.pop("problems", []))
    if res["warmup_failures"]:
        problems.append(f"warm-up failed: {res['warmup_failures']}")
    correct = s["failed"] == 0 and not problems
    details.update({"correct": correct, "problems": problems, "failures": s["failures"],
                    "outputs_sha256": s["outputs_sha256"],
                    "digest_changed": s["digest_changed"]})
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": s["attempted"], "failed": s["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
