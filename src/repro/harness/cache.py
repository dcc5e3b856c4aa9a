"""Persistent, content-addressed cache for experiment runs.

The evaluation grid re-runs the same (framework, app, dataset, machine,
#GPUs) cells across tables, figures, and repeated invocations.  Because
the DES engine is deterministic (same spec -> bit-identical result),
those runs are safe to memoize *across processes*: this module stores
pickled :class:`~repro.metrics.counters.RunResult` objects on disk,
keyed by a hash of the full run specification, the machine-config
constants it executed under, and the code version.

Safety properties the tests pin:

* **Atomic writes** — entries are written to a temp file in the cache
  directory and ``os.replace``\\ d into place, so a concurrent reader
  (or a crashed writer) never observes a partial entry.
* **Corruption detection** — every entry embeds a SHA-256 checksum of
  its payload; truncated, garbled, or unreadable entries are silently
  discarded and recomputed, never trusted or raised.
* **Key sensitivity** — any change to a spec field, a machine-config
  constant, or the package version changes the key, so mutated configs
  can never be served stale results.
* **Single flight** — within a process, concurrent writers of the same
  key serialize on a per-key lock, and :meth:`RunCache.single_flight`
  lets the first caller compute while same-key contemporaries wait and
  then read its entry instead of recomputing (the serving layer leans
  on this to coalesce identical concurrent requests).

Configuration is by environment variable so worker processes inherit
it: ``REPRO_CACHE_DIR`` overrides the cache directory and
``REPRO_CACHE=0`` disables persistence entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro._version import __version__

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_DISABLE_ENV",
    "RunCache",
    "cache_enabled",
    "canonical_fingerprint",
    "code_fingerprint",
    "default_cache_dir",
    "get_cache",
    "machine_fingerprint",
]

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Set to ``0`` to disable the persistent cache entirely.
CACHE_DISABLE_ENV = "REPRO_CACHE"

#: Entry format: magic line, 64 hex chars of payload SHA-256, newline,
#: pickled payload.  Bump the magic when the layout changes so old
#: entries are treated as corrupt and recomputed.
_MAGIC = b"repro-run-cache-v1\n"
_DIGEST_LEN = 64
_SUFFIX = ".run"


def default_cache_dir() -> Path:
    """Cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-atos``."""
    override = os.environ.get(CACHE_DIR_ENV, "")
    if override:
        return Path(override).expanduser()
    base = os.environ.get("XDG_CACHE_HOME", "") or "~/.cache"
    return Path(base).expanduser() / "repro-atos"


def cache_enabled() -> bool:
    """Persistent caching is on unless ``REPRO_CACHE`` says otherwise."""
    return os.environ.get(CACHE_DISABLE_ENV, "1").lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


# ------------------------------------------------------------ fingerprints
def _canon(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serializable canonical form.

    Dataclasses flatten to (class name, field map) so every config
    constant participates in the fingerprint; dict iteration order is
    normalized away; floats go through ``repr`` (exact, deterministic).
    """
    if is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__name__,
            {f.name: _canon(getattr(value, f.name)) for f in fields(value)},
        ]
    if isinstance(value, dict):
        return ["dict", sorted((repr(k), _canon(v)) for k, v in value.items())]
    if isinstance(value, (list, tuple)):
        return ["seq", [_canon(v) for v in value]]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return repr(value)
    return repr(value)


def canonical_fingerprint(value: Any) -> str:
    """SHA-256 over the canonical form of an arbitrary config value."""
    blob = json.dumps(_canon(value), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def machine_fingerprint(machine: Any) -> str:
    """Fingerprint of a MachineConfig, covering every nested constant.

    GPU spec, link specs, and cost-model constants all feed the hash, so
    two machines that differ in any simulated-cost knob never share
    cache entries (the ``lru_cache``-era bug class this replaces).
    """
    return canonical_fingerprint(machine)


_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Version tag for cache keys: package version + source content hash.

    Hashing the package's own ``*.py`` bytes means editing any model
    constant or algorithm invalidates old entries even without a
    version bump — stale-during-development is the worst failure mode a
    run cache can have.  Computed once per process (~half a megabyte of
    reads).
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode("utf-8"))
            h.update(b"\0")
            try:
                h.update(path.read_bytes())
            except OSError:  # pragma: no cover - racing editor
                pass
        _code_fingerprint = f"{__version__}+{h.hexdigest()[:16]}"
    return _code_fingerprint


# ------------------------------------------------------------------- cache
class RunCache:
    """On-disk store of pickled run results, one checksummed file each."""

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: single_flight callers who waited on a contemporary's compute
        #: and then read its fresh entry instead of recomputing.
        self.single_flight_waits = 0
        self._locks_guard = threading.Lock()
        self._key_locks: dict[str, threading.RLock] = {}

    def _key_lock(self, key: str) -> threading.RLock:
        """The per-key lock serializing same-key writers in-process."""
        with self._locks_guard:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.RLock()
            return lock

    # -- keys -----------------------------------------------------------
    @staticmethod
    def key(spec: dict[str, Any]) -> str:
        """Content key for a run spec dict (includes the code version)."""
        keyed = dict(spec)
        keyed.setdefault("code_version", code_fingerprint())
        return canonical_fingerprint(keyed)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_SUFFIX}"

    def __contains__(self, key: str) -> bool:
        """Whether an entry for ``key`` is on disk (not checksummed)."""
        return self._path(key).is_file()

    # -- IO -------------------------------------------------------------
    @staticmethod
    def _decode(blob: bytes) -> Any:
        """Checksum-verify and unpickle an entry; raises on any defect."""
        if not blob.startswith(_MAGIC):
            raise ValueError("bad magic")
        body = blob[len(_MAGIC):]
        digest, sep, payload = (
            body[:_DIGEST_LEN],
            body[_DIGEST_LEN:_DIGEST_LEN + 1],
            body[_DIGEST_LEN + 1:],
        )
        if sep != b"\n" or len(digest) != _DIGEST_LEN:
            raise ValueError("truncated header")
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            raise ValueError("payload checksum mismatch")
        return pickle.loads(payload)

    def load(self, key: str) -> Optional[Any]:
        """Fetch an entry, or None on miss *or* any corruption.

        A bad entry (truncated write, bit rot, format drift) is deleted
        so the next store can replace it; it is never propagated.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            value = self._decode(blob)
        except Exception:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                pass
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, key: str, value: Any) -> Path:
        """Atomically persist ``value`` under ``key``.

        Written via a temp file + ``os.replace`` in the same directory,
        so concurrent pool workers storing the same key race benignly.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        blob = _MAGIC + digest + b"\n" + payload
        self.directory.mkdir(parents=True, exist_ok=True)
        with self._key_lock(key):
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self.stores += 1
        return self._path(key)

    def single_flight(self, key: str, compute: "Callable[[], Any]") -> Any:
        """Resolve ``key``: load it, or compute-and-store exactly once.

        Concurrent same-key callers serialize on the per-key lock; the
        first one in computes and stores, the rest wake up, find the
        fresh entry, and load it — one execution, one disk entry, no
        matter how many threads ask at once.  Different keys do not
        contend.  (Cross-*process* races remain benign-but-duplicated:
        atomic replace keeps the entry intact either way.)
        """
        cached = self.load(key)
        if cached is not None:
            return cached
        with self._key_lock(key):
            cached = self.load(key)  # a contemporary may have won the lock
            if cached is not None:
                self.single_flight_waits += 1
                return cached
            value = compute()
            self.store(key, value)
            return value

    # -- maintenance ----------------------------------------------------
    def entries(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(
            p
            for p in self.directory.glob(f"*{_SUFFIX}")
            if not p.name.startswith(".tmp-")
        )

    def stats(self) -> dict[str, Any]:
        entry_paths = self.entries()
        total = 0
        for path in entry_paths:
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - racing unlink
                pass
        return {
            "directory": str(self.directory),
            "entries": len(entry_paths),
            "total_bytes": total,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "single_flight_waits": self.single_flight_waits,
            "enabled": cache_enabled(),
        }

    def clear(self) -> int:
        """Delete every entry (and stray temp files); returns the count."""
        removed = 0
        if not self.directory.is_dir():
            return 0
        for path in self.directory.glob(f"*{_SUFFIX}"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing unlink
                pass
        for path in self.directory.glob(f".tmp-*{_SUFFIX}"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                pass
        return removed

    def verify(self) -> tuple[int, int]:
        """Re-checksum every entry; drop bad ones.  Returns (ok, removed)."""
        ok = removed = 0
        for path in self.entries():
            try:
                self._decode(path.read_bytes())
                ok += 1
            except Exception:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing unlink
                    pass
                removed += 1
        return ok, removed


_caches: dict[Path, RunCache] = {}


def get_cache() -> RunCache:
    """Process-wide cache for the configured directory.

    One :class:`RunCache` per directory, so hit/miss counters accumulate
    across the process while tests that point ``REPRO_CACHE_DIR`` at a
    temp dir get their own isolated instance.
    """
    directory = default_cache_dir()
    cache = _caches.get(directory)
    if cache is None:
        cache = _caches[directory] = RunCache(directory)
    return cache
