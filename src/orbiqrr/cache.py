"""Content-addressed artifact cache for expensive series.

Artifacts are keyed by a SHA-256 of the canonical-JSON request (target,
bundle, s-values, truncations) plus the schema version and the package
version.  An entry has the fixed layout

    {"key":"<key>","payload":<P>,"sha256":"<64 hex>","version":<N>}

where P is the text a hit prints: the payload with its status
"cache": "cached", encoded as the CLI's ``--format json`` encodes it; the
digest is the SHA-256 of P.  A hit checks that layout, hashes the P
bytes as read and parses them once, and returns P with that parse as a
``Hit``: the CLI prints P as it is, so a hit never encodes its payload
again.  An entry in any other layout (torn, truncated, re-serialised,
another version), with a digest mismatch or with a P that is not a JSON
object raises CorruptCache; callers recompute and overwrite.  Bumping
SCHEMA_VERSION or releasing a new ``orbiqrr.__version__`` invalidates every
old entry (the key changes).  Entries are written to a temp file in the
cache directory and renamed into place.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Callable, NamedTuple, Optional, Tuple

from . import __version__
from .errors import CorruptCache

SCHEMA_VERSION = 2


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def request_key(request: dict) -> str:
    doc = canonical_json({"version": SCHEMA_VERSION, "orbiqrr": __version__,
                          "request": request})
    return hashlib.sha256(doc.encode()).hexdigest()


class Hit(NamedTuple):
    """A verified entry: the text a hit prints, and its one parse."""
    text: str
    doc: dict


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

    def load(self, key: str) -> Optional[Hit]:
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
            with contextlib.suppress(ValueError):   # UnicodeDecodeError too
                text = body.decode()
                doc = json.loads(text)
                if isinstance(doc, dict):
                    return Hit(text, doc)
        raise CorruptCache(f"cache entry {key} fails its layout or hash check")

    def store(self, key: str, payload: dict):
        if not self.directory:
            return
        # P is what a hit prints: emit's --format json text of the hit's document
        text = json.dumps({**payload, "cache": "cached"}, sort_keys=True)
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
        """Returns (payload, status) with status in {computed, cached, recomputed};
        a cached payload is the entry's ``Hit``."""
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
