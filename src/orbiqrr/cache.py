"""Content-addressed artifact cache for expensive series.

Artifacts are keyed by a SHA-256 of the canonical-JSON request (target,
bundle, s-values, truncations) plus the schema version and the package
version.  An entry is the canonical JSON of its document, which sorted keys
fix to the layout

    {"key":"<key>","payload":<P>,"sha256":"<64 hex>","version":<N>}

where P is the canonical JSON of the payload and the digest is its SHA-256.
A hit checks that layout, hashes the P bytes as read and parses them once;
the payload is never re-encoded.  An entry in any other layout (torn,
truncated, re-serialised, another version) or with a digest mismatch raises
CorruptCache; callers recompute and overwrite.  Bumping SCHEMA_VERSION or
releasing a new ``orbiqrr.__version__`` invalidates every old entry (the key
changes).  Entries are written to a temp file in the cache directory and
renamed into place.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Callable, Optional, Tuple

from . import __version__
from .errors import CorruptCache

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def request_key(request: dict) -> str:
    doc = canonical_json({"version": SCHEMA_VERSION, "orbiqrr": __version__,
                          "request": request})
    return hashlib.sha256(doc.encode()).hexdigest()


def _frame(key: str, digest: str) -> Tuple[str, str]:
    """The text of an entry before and after its payload."""
    return (f'{{"key":{json.dumps(key)},"payload":',
            f',"sha256":"{digest}","version":{SCHEMA_VERSION}}}')


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
        try:
            with open(self._path(key), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        except OSError:
            raise CorruptCache(f"unreadable cache entry {key}")
        head, tail = _frame(key, "0" * 64)
        body = data[len(head):len(data) - len(tail)]
        tail = _frame(key, hashlib.sha256(body).hexdigest())[1]
        if (len(head) + len(body) + len(tail) == len(data)
                and data.startswith(head.encode()) and data.endswith(tail.encode())):
            with contextlib.suppress(ValueError):
                return json.loads(body)
        raise CorruptCache(f"cache entry {key} fails its layout or hash check")

    def store(self, key: str, payload):
        if not self.directory:
            return
        text = canonical_json(payload)
        head, tail = _frame(key, hashlib.sha256(text.encode()).hexdigest())
        # write a sibling temp file and rename it over the entry, so that a
        # crashed or concurrent writer never leaves a torn entry behind
        path = self._path(key)
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            with open(tmp, "x") as fh:
                fh.write(head + text + tail)
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
