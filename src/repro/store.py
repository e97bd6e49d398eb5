"""The on-disk entry store behind the trace and result caches.

:class:`~repro.workloads.trace_cache.TraceCache` and
:class:`~repro.results.ResultCache` each hold one :class:`EntryStore`
and keep only their keys and sidecar codecs.  An entry is two files named
by its content key:

``<prefix><key>.npy``
    One little-endian ``int64`` column, written as a standard NPY v1.0
    file.  The header is hand-rolled (:func:`_npy_header`) so the bytes are
    identical whether or not NumPy is installed.
``<prefix><key>.json``
    The sidecar: the owning cache's fields plus ``format``, ``version`` and
    ``total`` (the column length), which the store stamps and checks.

Invariants the caches rely on:

* **Atomic publication.**  Each file goes through a temporary file and
  :func:`os.replace` (atomic on POSIX), the column before the sidecar, so
  a visible sidecar always has its column.  Writers of one key write
  identical bytes, so racing publications cannot corrupt each other.
* **The sidecar is the entry.**  Removal unlinks it first, so an entry
  disappears before its column does.  Column files without a sidecar (a
  crash between the two writes, or a half-failed removal) are listed as
  entries of their own, so the byte cap sees and eventually reclaims them.
* **LRU byte cap.**  After every publication the oldest entries (by
  sidecar mtime; a hit touches both files) are removed until the directory
  fits ``max_bytes``, which is resolved from the explicit argument, then
  the cache's environment variable, then its default (``0`` = no cap).
* **Stale-version pruning.**  Opening a store deletes the files whose
  names match the cache's name pattern with a version older than the
  current one; they can never be requested again.  Newer versions stay: a
  newer checkout sharing the directory still needs them.
* **Tolerance.**  Every maintenance pass tolerates files that a concurrent
  worker already deleted, any read problem is a miss, and a write the
  filesystem refuses is skipped: an entry is an optimization only.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Pattern, Tuple, TypeVar

from .envvars import EnvVar
from .errors import ConfigurationError, ReproError

T = TypeVar("T")

#: NPY v1.0 magic + version, shared by the hand-rolled writer and parser.
_NPY_MAGIC = b"\x93NUMPY\x01\x00"


def _npy_header(count: int) -> bytes:
    """A standard NPY v1.0 header for a 1-D little-endian ``int64`` array.

    Hand-rolled (rather than ``np.lib.format``) so the on-disk bytes do not
    depend on NumPy's presence or version: the header dict text is fixed and
    padded with spaces to the usual 64-byte alignment.
    """
    header = "{'descr': '<i8', 'fortran_order': False, 'shape': (%d,), }" % count
    raw = header.encode("latin1")
    pad = -(len(_NPY_MAGIC) + 2 + len(raw) + 1) % 64
    raw += b" " * pad + b"\n"
    return _NPY_MAGIC + len(raw).to_bytes(2, "little") + raw


def _parse_npy_header(blob: bytes) -> Tuple[int, int]:
    """Return ``(data_offset, count)`` of a v1.0 int64 NPY file, or raise."""
    if blob[: len(_NPY_MAGIC)] != _NPY_MAGIC:
        raise ValueError("not an NPY v1.0 file")
    header_len = int.from_bytes(blob[len(_NPY_MAGIC) : len(_NPY_MAGIC) + 2], "little")
    start = len(_NPY_MAGIC) + 2
    info = ast.literal_eval(blob[start : start + header_len].decode("latin1"))
    if info.get("descr") != "<i8" or info.get("fortran_order"):
        raise ValueError(f"unsupported NPY layout: {info!r}")
    shape = info.get("shape")
    if not (isinstance(shape, tuple) and len(shape) == 1):
        raise ValueError(f"expected a 1-D column, got shape {shape!r}")
    return start + header_len, int(shape[0])


def read_column(path: Path, total: int) -> array:
    """An entry's column read eagerly into an ``array('q')``; raises unless
    the file holds exactly ``total`` values."""
    blob = path.read_bytes()
    offset, count = _parse_npy_header(blob)
    if count != total or len(blob) - offset != 8 * total:
        raise ValueError("column file does not match its sidecar")
    column = array("q")
    column.frombytes(blob[offset:])
    if sys.byteorder == "big":  # pragma: no cover - BE hosts
        column.byteswap()
    return column


def int64_bytes(values: Iterable[int]) -> bytes:
    """The little-endian ``int64`` bytes of an integer sequence."""
    column = array("q", values)
    if sys.byteorder == "big":  # pragma: no cover - BE hosts
        column.byteswap()
    return column.tobytes()


def _resolve_max_bytes(explicit: Optional[int], var: EnvVar, default: int) -> int:
    """Effective cap: explicit argument > environment > default."""
    if explicit is not None:
        if explicit < 0:
            raise ConfigurationError(f"max_bytes cannot be negative, got {explicit}")
        return explicit
    raw = var.read()
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{var.name} must be an integer byte count, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(f"{var.name} cannot be negative")
    return value


class EntryStore:
    """One directory of two-file entries and their upkeep.

    ``prefix`` names current-version files (``v3-``, ``r1-``);
    ``sidecar_format`` and ``version`` are stamped into every sidecar and
    required on load; ``names`` matches every file name the owning cache
    has ever written, with the format version as group 1 (a name without
    it counts as version 0) — pruning touches nothing else, since the
    directory may hold other stores' files.
    """

    def __init__(
        self,
        directory: "str | Path",
        *,
        prefix: str,
        sidecar_format: str,
        version: int,
        names: Pattern[str],
        max_bytes: Optional[int],
        max_bytes_var: EnvVar,
        default_max_bytes: int,
    ) -> None:
        self.directory = Path(directory)
        self.max_bytes = _resolve_max_bytes(max_bytes, max_bytes_var, default_max_bytes)
        self._prefix = prefix
        self._format = sidecar_format
        self._version = version
        self._prune_stale_versions(names)

    def column_path(self, key: str) -> Path:
        return self.directory / f"{self._prefix}{key}.npy"

    def sidecar_path(self, key: str) -> Path:
        return self.directory / f"{self._prefix}{key}.json"

    def _prune_stale_versions(self, names: Pattern[str]) -> None:
        try:
            paths = list(self.directory.iterdir())
        except OSError:
            return
        for path in paths:
            match = names.match(path.name)
            if match is None or int(match.group(1) or 0) >= self._version:
                continue
            try:
                path.unlink()
            except OSError:  # already pruned by a sibling worker, or EPERM
                pass

    def entries_by_age(self) -> List[Tuple[float, int, str]]:
        """Current-version entries as (mtime, total size, key), oldest first.

        An entry's size is its sidecar's plus its column's; an orphan
        column is an entry of its own.  Files deleted by a concurrent
        worker mid-listing are skipped.
        """
        entries: List[Tuple[float, int, str]] = []
        seen_keys = set()
        try:
            sidecars = list(self.directory.glob(f"{self._prefix}*.json"))
            columns = list(self.directory.glob(f"{self._prefix}*.npy"))
        except OSError:
            return entries
        for sidecar in sidecars:
            key = sidecar.name[len(self._prefix) : -len(".json")]
            try:
                stat = sidecar.stat()
            except OSError:  # vanished between glob and stat
                continue
            seen_keys.add(key)
            size = stat.st_size
            try:
                size += self.column_path(key).stat().st_size
            except OSError:
                pass
            entries.append((stat.st_mtime, size, key))
        for column in columns:
            key = column.name[len(self._prefix) : -len(".npy")]
            if key in seen_keys:
                continue
            try:
                stat = column.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, key))
        entries.sort()
        return entries

    def remove(self, key: str) -> bool:
        """Delete one entry, sidecar first.  True if this process removed
        any of its files; a concurrent worker winning the race counts as
        already removed."""
        removed = False
        for path in (self.sidecar_path(key), self.column_path(key)):
            try:
                path.unlink()
                removed = True
            except OSError:
                continue
        return removed

    def enforce_cap(self) -> int:
        """Remove the oldest entries until the directory fits the cap;
        return how many of them this process removed."""
        if not self.max_bytes:
            return 0
        entries = self.entries_by_age()
        total = sum(size for _mtime, size, _key in entries)
        evicted = 0
        for _mtime, size, key in entries:
            if total <= self.max_bytes:
                break
            # Whether this worker or a concurrent one deleted the files,
            # the bytes are gone: count them against the total either way.
            evicted += self.remove(key)
            total -= size
        return evicted

    def load(self, key: str, decode: Callable[[Dict, Path], T]) -> Optional[T]:
        """``decode(sidecar, column_path)`` for the entry under ``key``, or
        None on a miss.

        Any problem (missing or truncated files, corrupt JSON, another
        format or version, or ``decode`` raising on damaged contents) is a
        miss, never an error.  A hit touches both files, which protects hot
        entries from eviction.
        """
        sidecar_path = self.sidecar_path(key)
        column_path = self.column_path(key)
        try:
            header = json.loads(sidecar_path.read_text())
            if (
                not isinstance(header, dict)
                or header.get("format") != self._format
                or header.get("version") != self._version
            ):
                raise ValueError("unrecognized sidecar")
            value = decode(header, column_path)
        except (OSError, ValueError, KeyError, TypeError, SyntaxError, ReproError):
            # ReproError covers model validation rejecting a parseable but
            # damaged sidecar (e.g. a zeroed instructions_per_block).
            return None
        for path in (sidecar_path, column_path):
            try:
                os.utime(path)
            except OSError:
                pass
        return value

    def publish(self, key: str, header: Dict, chunks: Iterable) -> Optional[int]:
        """Atomically write the entry under ``key``, then enforce the cap.

        ``chunks`` are the column's little-endian ``int64`` bytes in order;
        ``header`` is the sidecar without the fields the store stamps.
        Returns how many entries the cap pass removed, or None when the
        filesystem refused the write: a read-only or full disk must not
        fail the run.
        """
        chunks = [memoryview(chunk) for chunk in chunks]
        total = sum(chunk.nbytes for chunk in chunks) // 8
        sidecar = {**header, "format": self._format, "version": self._version, "total": total}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._replace(key, self.column_path(key), [_npy_header(total), *chunks])
            self._replace(
                key,
                self.sidecar_path(key),
                [json.dumps(sidecar, sort_keys=True, separators=(",", ":")).encode()],
            )
        except OSError:
            return None
        return self.enforce_cap()

    def _replace(self, key: str, destination: Path, blobs: List) -> None:
        fd, tmp_name = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                for blob in blobs:
                    handle.write(blob)
            os.replace(tmp_name, destination)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


__all__ = ["EntryStore", "int64_bytes", "read_column"]
