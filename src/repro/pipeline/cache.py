"""Content-addressed artifact cache for pipeline stage outputs.

Stage outputs are stored under a deterministic hexadecimal *key* computed
by :func:`stable_digest` from the stage's code-version tag, its parameters,
and the keys of its inputs (see :meth:`~repro.pipeline.runner.Pipeline`).
Because the key transitively covers everything that can change a stage's
output, a key hit is a correctness-preserving skip: the cached value *is*
the value the stage would recompute.

The cache is layered:

* an in-memory dict, always on, so repeated lookups within one process
  never touch the disk (and the cache works with no directory at all);
* an optional on-disk layer (``directory=...``) persisting pickled
  artifacts across processes, written atomically (``tmp`` + ``os.replace``)
  so a crash mid-write can never leave a truncated artifact behind.

Hit/miss/store/eviction counters make cache behaviour assertable in
tests and benchmarks; :meth:`ArtifactCache.stats` snapshots them (plus
the on-disk footprint) for the profile report, and binding a
:class:`repro.telemetry.Telemetry` via ``telemetry=`` (or letting
``Pipeline.run`` bind one for the duration of a traced run) mirrors the
counters into its ``cache.*`` metrics.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.atomic import atomic_write
from repro.errors import CacheError

__all__ = ["stable_digest", "ArtifactCache"]

#: Bump when the on-disk pickle layout changes incompatibly.
CACHE_FORMAT = "1"

_MISSING = object()


def _canonical(value: Any) -> Any:
    """Reduce *value* to a JSON-serializable canonical form.

    Mappings are key-sorted, sets are sorted, tuples become lists, paths
    become POSIX strings, and enums collapse to their value.  Anything
    else must already be a JSON scalar; otherwise the value cannot take
    part in a deterministic cache key and :class:`CacheError` is raised.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Path):
        return value.as_posix()
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Mapping):
        return {
            str(key): _canonical(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    raise CacheError(
        f"value of type {type(value).__name__!r} cannot take part in a "
        "deterministic cache key; use JSON-compatible parameters"
    )


def stable_digest(*parts: Any) -> str:
    """SHA-256 hex digest of *parts* under canonical JSON serialization.

    Deterministic across processes and platforms: mappings are key-sorted,
    containers normalized, and the JSON encoder emits no whitespace.

    >>> stable_digest({"b": 1, "a": 2}) == stable_digest({"a": 2, "b": 1})
    True
    >>> stable_digest("x") != stable_digest("y")
    True
    """
    payload = json.dumps(
        [_canonical(part) for part in parts],
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactCache:
    """A content-addressed artifact store with an optional disk layer.

    Parameters
    ----------
    directory:
        Directory for the persistent layer.  ``None`` (the default) keeps
        the cache purely in memory — still useful for intra-process reuse
        and for the deterministic fallback path.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; when bound, every
        hit/miss/store/eviction (and the bytes written to disk) is also
        counted into its ``cache.*`` metrics.  ``Pipeline.run`` binds an
        unbound cache to its own telemetry for the duration of a traced
        run.

    Examples
    --------
    >>> cache = ArtifactCache()
    >>> key = stable_digest("stage", {"seed": 1})
    >>> cache.store(key, [1, 2, 3])
    >>> cache.load(key)
    [1, 2, 3]
    >>> cache.hits, cache.misses, cache.stores
    (1, 0, 1)
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        telemetry=None,
    ) -> None:
        self._memory: dict[str, Any] = {}
        self._directory: Path | None = None
        if directory is not None:
            self._directory = Path(directory)
            self._directory.mkdir(parents=True, exist_ok=True)
        self.telemetry = telemetry
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def _count(self, metric: str, amount: int = 1) -> None:
        """Mirror an internal counter into the bound telemetry, if any."""
        if self.telemetry is not None:
            self.telemetry.metrics.counter(f"cache.{metric}").inc(amount)

    # -- layout -----------------------------------------------------------------

    @property
    def directory(self) -> Path | None:
        """The persistent layer's directory (``None`` if memory-only)."""
        return self._directory

    def _path(self, key: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{key}.v{CACHE_FORMAT}.pkl"

    # -- queries ----------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self._directory is not None and self._path(key).exists()

    def __len__(self) -> int:
        return len(set(self.keys()))

    def keys(self) -> Iterator[str]:
        """Every key present in either layer (may yield duplicates' union)."""
        seen = set(self._memory)
        yield from seen
        if self._directory is not None:
            for path in self._directory.glob(f"*.v{CACHE_FORMAT}.pkl"):
                key = path.name.split(".", 1)[0]
                if key not in seen:
                    yield key

    # -- access -----------------------------------------------------------------

    def load(self, key: str) -> Any:
        """Return the artifact stored under *key* (counts a hit or miss).

        Raises :class:`~repro.errors.CacheError` on a miss or if the
        on-disk artifact cannot be unpickled (corruption is reported, not
        silently treated as a miss, so callers can decide to purge).
        """
        if key in self._memory:
            self.hits += 1
            self._count("hits")
            return self._memory[key]
        if self._directory is not None:
            path = self._path(key)
            if path.exists():
                try:
                    with path.open("rb") as handle:
                        value = pickle.load(handle)
                except Exception as exc:
                    # Unpickling corrupt bytes can raise nearly anything
                    # (ValueError, AttributeError, ImportError, ...).
                    if self.telemetry is not None:
                        self.telemetry.log.warning(
                            "cache.corrupt", key=key[:12],
                            path=path.name, reason=str(exc),
                        )
                    raise CacheError(
                        f"cache artifact {path.name} is unreadable: {exc}"
                    ) from exc
                self._memory[key] = value
                self.hits += 1
                self._count("hits")
                return value
        self.misses += 1
        self._count("misses")
        raise CacheError(f"cache miss for key {key[:12]}…")

    def get(self, key: str, default: Any = None) -> Any:
        """Like :meth:`load` but returning *default* on a miss."""
        try:
            return self.load(key)
        except CacheError:
            return default

    def store(self, key: str, value: Any) -> None:
        """Persist *value* under *key* in every layer, atomically on disk."""
        self._memory[key] = value
        self.stores += 1
        self._count("stores")
        if self._directory is None:
            return
        with atomic_write(self._path(key), "wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            written = handle.tell()
        self._count("bytes_written", written)

    def evict(self, key: str) -> None:
        """Drop *key* from every layer (a no-op if absent).

        Counts an eviction when something was actually dropped — e.g.
        the runner purging a corrupt on-disk artifact before recomputing
        the stage — so :meth:`stats` exposes how often cache rot (or
        explicit invalidation) occurred.
        """
        dropped = self._memory.pop(key, _MISSING) is not _MISSING
        if self._directory is not None:
            try:
                self._path(key).unlink()
                dropped = True
            except FileNotFoundError:
                pass
        if dropped:
            self.evictions += 1
            self._count("evictions")
            if self.telemetry is not None:
                self.telemetry.log.warning("cache.evict", key=key[:12])

    def clear(self) -> None:
        """Drop every artifact and reset the counters."""
        for key in list(self.keys()):
            self.evict(key)
        self._memory.clear()
        self.hits = self.misses = self.stores = self.evictions = 0

    # -- introspection -----------------------------------------------------------

    def disk_bytes(self) -> int:
        """Total size of the on-disk artifacts, in bytes (0 if memory-only)."""
        if self._directory is None:
            return 0
        return sum(
            path.stat().st_size
            for path in self._directory.glob(f"*.v{CACHE_FORMAT}.pkl")
        )

    def stats(self) -> dict[str, Any]:
        """A snapshot of cache behaviour for reports and tests.

        Keys: ``hits``, ``misses``, ``stores``, ``evictions`` (lifetime
        counters), ``entries`` (distinct keys currently present),
        ``disk_bytes`` (on-disk footprint), and ``directory`` (the
        persistent layer's path, or ``None``).
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "entries": len(self),
            "disk_bytes": self.disk_bytes(),
            "directory": (
                str(self._directory) if self._directory is not None else None
            ),
        }
