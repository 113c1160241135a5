#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute).

Usage (from the repository root):

  python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced (twice, same seed),
and asserts that each report names exactly the metrics BENCHMARK.json
declares, that outputs check out and that traced counts repeat.  Then two
negative controls: a corrupted reference value must be scored as a failed
operation, and a directory holding only BENCHMARK.json and perfbench/ must
make the benchmark exit nonzero without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quintic", "twisted", "identities")


def bench(*args, cwd=ROOT, references=None):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--tiny", *args]
    if references:
        cmd += ["--references", str(references)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(*args, **kw):
    code, lines = bench(*args, **kw)
    assert code == 0, f"benchmark exited {code}: {lines}"
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_names(res, declared, what):
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{what}: metrics {sorted(set(got) ^ set(want))} differ in name or unit"
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, sorted(res)
    assert res["attempted"] >= 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in WORKLOADS:
        details, res = result("--workload", w, "--trace", "0")
        check_names(res, spec["end_to_end"], w)
        assert res["correct"] and res["failed"] == 0, details
        assert details["fail_ratio"]["value"] == 0.0
        counts = []
        for _ in range(2):
            details, res = result("--workload", w, "--trace", "1")
            check_names(res, spec["per_layer"], f"{w} traced")
            assert res["correct"], details
            counts.append({k: v["value"] for k, v in res["metrics"].items()
                           if not k.endswith("_s") and k != "trace.overhead_ratio"})
        assert counts[0] == counts[1], f"{w}: traced counts differ between runs"
        print(f"ok  {w}: metrics named, outputs correct, traced counts repeat")

    # a value serialised another way is equal, not a failure: zeta_3 == zeta_6^2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from verify import same_value
    z3 = {"num": [{"zeta": 3, "c": ["0", "1"]}], "den": ["1"]}
    z6 = {"num": [{"zeta": 6, "c": ["-1", "1"]}], "den": ["1"]}
    assert same_value([z3, "1/2"], [z6, "2/4"]) and not same_value(z3, "1")
    assert not same_value({"num": [{"zeta": 6, "c": ["1", "1"]}], "den": ["1"]}, z3)
    print("ok  re-serialised values compare equal")

    # negative control 1: one corrupted reference value
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    refs = json.loads((HERE / "references.json").read_text())
    rid = "cli mirror-map --target P2 --bundle O3 --max-degree 2"
    rows = refs["references"][rid]["rows"]
    rows[-1]["coeff"] = "12345/7"
    corrupt = work / "corrupt-references.json"
    corrupt.write_text(json.dumps(refs))
    try:
        details, res = result("--workload", "quintic", "--trace", "0", references=corrupt)
    finally:
        corrupt.unlink()
    assert not res["correct"] and res["failed"] > 0, details
    assert details["fail_ratio"]["value"] > 0, details
    print(f"ok  corrupted reference: fail_ratio {details['fail_ratio']['value']:.3f}")

    # negative control 2: no program next to the benchmark
    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = bench("--workload", "quintic", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not lines, (code, lines)
    print(f"ok  without the program: exit {code}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
