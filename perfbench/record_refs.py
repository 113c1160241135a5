#!/usr/bin/env python3
"""Record the reference outputs that the benchmark compares against.

Usage (from the repository root):

  PYTHONPATH=src python3 perfbench/record_refs.py

Runs every operation that is checked against a reference, over every choice
a seed can make, and writes perfbench/references.json.  The references in
the repository were recorded with the code of the commit that added the
benchmark; re-record only when an output is meant to change.
"""

import json
import sys

import verify
import workloads


def main() -> int:
    refs = {}
    for op in workloads.reference_ops():
        out = op.call(None)
        refs[op.rid] = out
        print(f"{op.rid}: {verify.sha256(out)[:12]}", file=sys.stderr)
    with open(verify.REFERENCES, "w") as fh:
        json.dump({"references": refs}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
