"""Content-addressed artifact cache for expensive series.

Artifacts are keyed by a SHA-256 of the canonical-JSON request (target,
bundle, s-values, truncations) plus the schema version and the package
version; files store the payload together with its own content hash.  A
hash mismatch on load raises CorruptCache; callers recompute and overwrite.
Bumping SCHEMA_VERSION or releasing a new ``orbiqrr.__version__``
invalidates every old entry (the key changes).  Entries are written to a
temp file in the cache directory and renamed into place.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Callable, Optional

from . import __version__
from .errors import CorruptCache

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def request_key(request: dict) -> str:
    doc = canonical_json({"version": SCHEMA_VERSION, "orbiqrr": __version__,
                          "request": request})
    return hashlib.sha256(doc.encode()).hexdigest()


def _payload_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


class ArtifactCache:
    def __init__(self, directory: Optional[str]):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def load(self, key: str):
        if not self.directory:
            return None
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            raise CorruptCache(f"unreadable cache entry {key}")
        if doc.get("version") != SCHEMA_VERSION:
            return None
        if _payload_hash(doc.get("payload")) != doc.get("sha256"):
            raise CorruptCache(f"hash mismatch for cache entry {key}")
        return doc["payload"]

    def store(self, key: str, payload):
        if not self.directory:
            return
        doc = {
            "version": SCHEMA_VERSION,
            "key": key,
            "sha256": _payload_hash(payload),
            "payload": payload,
        }
        # write a sibling temp file and rename it over the entry, so that a
        # crashed or concurrent writer never leaves a torn entry behind
        path = self._path(key)
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            with open(tmp, "x") as fh:
                fh.write(canonical_json(doc))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def get_or_compute(self, request: dict, compute: Callable[[], dict]):
        """Returns (payload, status) with status in {computed, cached, recomputed}."""
        key = request_key(request)
        if self.directory:
            try:
                hit = self.load(key)
            except CorruptCache:
                payload = compute()
                self.store(key, payload)
                return payload, "recomputed"
            if hit is not None:
                return hit, "cached"
        payload = compute()
        self.store(key, payload)
        return payload, "computed"
