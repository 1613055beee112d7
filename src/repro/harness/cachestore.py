"""The blob stores behind the sweep result cache.

:class:`~repro.harness.parallel_runner.ResultCache` owns the envelope
format; its storage is a small :class:`CacheStore` protocol with two
implementations:

* :class:`DirStore` — the content-addressed directory layout
  (``<digest>.json`` files, hard-link first-writer-wins publishes).  A
  pre-existing ``.repro_cache/`` keeps working.
* :class:`MemoryStore` — an in-process dict store: the test double, and
  the lease domain of ``repro.tools sweep-bench``.

Every store keys blobs by the SHA-256 content addresses of
:func:`repro.harness.parallel_runner.cache_key`.  The code-version salt is
folded into each address, so entries recorded by other code are never
served; they are just never read again.

Stores also implement time-limited **in-flight leases** — the dedupe
primitive of the work-stealing scheduler (:mod:`.stealing`).  A lease
says "some worker is currently computing this key": sweep processes
sharing one cache directory defer leased cells instead of re-running
them, steal the lease when it expires, and publish results with
first-writer-wins semantics (:meth:`CacheStore.put` returns ``False`` to
the loser).  Leases are purely an optimization; correctness never
depends on them.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["LeaseInfo", "CacheStore", "DirStore", "MemoryStore"]


@dataclass(frozen=True)
class LeaseInfo:
    """Outcome of one lease acquisition attempt.

    ``acquired`` — this caller now holds the lease (possibly by stealing
    an expired one, flagged by ``stolen``).  When not acquired, ``owner``
    and ``deadline`` describe the live holder so the scheduler knows when
    stealing becomes legal.
    """

    acquired: bool
    owner: str
    deadline: float
    stolen: bool = False


class CacheStore:
    """Abstract keyed blob store with in-flight leases.

    Keys are content-address strings (hex digests); values are opaque
    ``bytes``.  Implementations must make :meth:`put` atomic and
    first-writer-wins: concurrent publishers of the same key never
    interleave bytes, and exactly one of them gets ``True`` back.
    """

    # ------------------------------------------------------------- blobs

    def get(self, key: str) -> bytes | None:
        raise NotImplementedError

    def put(self, key: str, data: bytes) -> bool:
        """Store ``data`` unless ``key`` already exists (first writer
        wins); returns True iff this call created the entry."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        raise NotImplementedError

    def quarantine(self, key: str, reason: str = "") -> None:
        """Put a corrupt entry aside so it is never served again; the
        default just deletes it."""
        self.delete(key)

    def keys(self) -> list[str]:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------- leases

    def acquire_lease(self, key: str, owner: str,
                      ttl_s: float) -> LeaseInfo:
        raise NotImplementedError

    def release_lease(self, key: str, owner: str) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------- directory

class DirStore(CacheStore):
    """The original content-addressed directory layout.

    Blobs live at ``<root>/<key>.json`` (the suffix is historical — the
    sweep cache always stored JSON envelopes and existing caches must
    remain readable).  Leases are ``<key>.lease`` files created with
    ``O_CREAT | O_EXCL``, so acquisition is atomic across processes.
    """

    _SUFFIX = ".json"

    def __init__(self, root: str | Path, *, clock=time.time):
        self.root = Path(root)
        self._clock = clock

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self._SUFFIX}"

    def get(self, key: str) -> bytes | None:
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, data: bytes) -> bool:
        path = self._path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(data)
        try:
            # Hard-link publish: succeeds for exactly one of any set of
            # concurrent writers (atomic first-writer-wins), unlike an
            # exists() pre-check which both racers could pass.
            os.link(tmp, path)
            created = True
        except FileExistsError:
            created = False
        except OSError:
            # Filesystem without hard links: degrade to replace (still
            # atomic content-wise; the race report is best-effort).
            created = not path.exists()
            os.replace(tmp, path)
            return created
        tmp.unlink(missing_ok=True)
        return created

    def delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
            return True
        except OSError:
            return False

    def quarantine(self, key: str, reason: str = "") -> None:
        path = self._path(key)
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass

    def keys(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(path.stem for path in self.root.glob(f"*{self._SUFFIX}"))

    # ------------------------------------------------------------- leases

    def _lease_path(self, key: str) -> Path:
        return self.root / f"{key}.lease"

    def acquire_lease(self, key: str, owner: str,
                      ttl_s: float) -> LeaseInfo:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._lease_path(key)
        now = self._clock()
        body = json.dumps({"owner": owner, "deadline": now + ttl_s})
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            with os.fdopen(fd, "w") as handle:
                handle.write(body)
            return LeaseInfo(True, owner, now + ttl_s)
        try:
            held = json.loads(path.read_text())
            holder, deadline = str(held["owner"]), float(held["deadline"])
        except (OSError, ValueError, KeyError):
            holder, deadline = "", 0.0      # torn lease file: steal it
        if deadline > now and holder != owner:
            return LeaseInfo(False, holder, deadline)
        # Expired (or our own): steal/refresh via atomic replace.
        tmp = path.with_suffix(f".lease.tmp.{os.getpid()}")
        tmp.write_text(body)
        os.replace(tmp, path)
        return LeaseInfo(True, owner, now + ttl_s,
                         stolen=bool(holder) and holder != owner)

    def release_lease(self, key: str, owner: str) -> None:
        path = self._lease_path(key)
        try:
            held = json.loads(path.read_text())
            if held.get("owner") == owner:
                path.unlink()
        except (OSError, ValueError):
            pass


# ------------------------------------------------------------------ memory

class MemoryStore(CacheStore):
    """Thread-safe in-process store (the test double)."""

    def __init__(self, *, clock=time.time):
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: dict[str, bytes] = {}
        self._leases: dict[str, tuple[str, float]] = {}

    def get(self, key: str) -> bytes | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, data: bytes) -> bool:
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = data
            return True

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def acquire_lease(self, key: str, owner: str,
                      ttl_s: float) -> LeaseInfo:
        now = self._clock()
        with self._lock:
            held = self._leases.get(key)
            if held is not None and held[1] > now and held[0] != owner:
                return LeaseInfo(False, held[0], held[1])
            self._leases[key] = (owner, now + ttl_s)
        stolen = held is not None and held[0] != owner
        return LeaseInfo(True, owner, now + ttl_s, stolen=stolen)

    def release_lease(self, key: str, owner: str) -> None:
        with self._lock:
            held = self._leases.get(key)
            if held is not None and held[0] == owner:
                del self._leases[key]
