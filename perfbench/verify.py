"""Correctness checks for benchmark outputs.

Reference outputs were recorded with ``record_refs.py``.  An output passes
when it is byte-identical to its reference, or else when every scalar in it
parses to a value equal (``==``) to the reference's, so that a change of
serialisation alone (say, a canonical cyclotomic form) is not a failure.  A
byte change is still reported, as a digest change.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

from orbiqrr.exactalg import parse_scalar

from workloads import canonical

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Genus-0 instanton numbers n_1..n_5 of the quintic threefold.
QUINTIC_N = (2875, 609250, 317206375, 242467530000, 229305888887625)

_RATIONAL = re.compile(r"-?\d+(/\d+)?\Z")


def sha256(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def load_references(path=REFERENCES) -> dict:
    """Request id -> (sha256 of the canonical output, output)."""
    with open(path) as fh:
        return {rid: (sha256(out), out) for rid, out in json.load(fh)["references"].items()}


def _is_scalar(x) -> bool:
    if isinstance(x, str):
        return bool(_RATIONAL.match(x))
    return isinstance(x, dict) and ("num" in x or "ell" in x)


def same_value(ref, got) -> bool:
    """Structural equality of two outputs, comparing scalars as values."""
    if _is_scalar(ref) or _is_scalar(got):
        if not (_is_scalar(ref) and _is_scalar(got)):
            return False
        return parse_scalar(ref) == parse_scalar(got)
    if isinstance(ref, dict) and isinstance(got, dict):
        return ref.keys() == got.keys() and all(same_value(ref[k], got[k]) for k in ref)
    if isinstance(ref, list) and isinstance(got, list):
        return len(ref) == len(got) and all(map(same_value, ref, got))
    return type(ref) is type(got) and ref == got


def _flags(out: dict, names) -> bool:
    return all(out.get(name) is True for name in names)


def check(op, out, digest: str, refs: dict) -> tuple:
    """(ok, reason, digest_changed) for one operation's output."""
    if op.check in ("ref", "quintic", "symplectic"):
        ref = refs.get(op.rid)
        if ref is None:
            return False, "no recorded reference", False
        changed = digest != ref[0]
        if changed and not same_value(ref[1], out):
            return False, "value differs from the recorded reference", True
        if op.check == "quintic":
            got = {row["d"]: Fraction(row["n"]) for row in out["rows"]}
            if [got.get(d) for d in range(1, len(got) + 1)] != list(QUINTIC_N[:len(got)]):
                return False, "instanton numbers differ from the known n_d", changed
        if op.check == "symplectic" and not _flags(
                out.get("symplectic_check", {}), ("symplectic", "log_residual_zero")):
            return False, "Delta is not a symplectomorphism", changed
        return True, "", changed
    if op.check == "flags":
        return (_flags(out, op.flags), f"flag {op.flags} not set", False)
    if op.check == "half":
        return (parse_scalar(out["value"]) == Fraction(-1, 2), "cocycle is not -1/2", False)
    if op.check == "none":
        return True, "", False
    raise ValueError(f"unknown check {op.check!r}")
