"""Content-addressed on-disk store for completed campaign trials.

Layout: ``<root>/<fp[:2]>/<fp>.json`` — one JSON document per trial,
keyed by the trial's fingerprint (:class:`repro.campaign.spec.TrialSpec`).
Two-level fan-out keeps directories small for multi-thousand-trial
campaigns.

Durability and integrity are first-class (the ground-segment analog of
the flight stack's no-silent-escape invariant):

* **Atomic writes, durable by the end of each round.**
  :meth:`TrialStore.put` writes a temp file and ``os.replace``\\ s it
  into place, so a reader never sees a partial entry; it does not
  ``fsync``. :meth:`TrialStore.barrier` makes every entry written
  before it started durable: it ``fsync``\\ s each of those files, then
  each of their directories once; an entry ``put`` meanwhile (a
  barrier may run on a worker pool's I/O thread) stays pending. The
  round executor calls it at the end of every round, also when the
  round raises, and while a pooled round's workers compute, after each
  landing, one barrier at a time; ``put`` calls it
  once 256 entries are pending, so a long round (a static grid is one
  round) has a durability point every 256 trials. An entry a power cut
  tears or loses before its barrier fails its checksum (or is absent)
  on resume and is re-run, so a cut costs re-execution, never a wrong
  result. Host disk faults with a clear operator action
  (``ENOSPC``/``EACCES``/``EROFS``/``EDQUOT``), from a write or a
  barrier, raise :class:`~repro.errors.StoreWriteError` instead of a
  bare ``OSError``.
* **Checksummed entries, verified on read.** Every entry embeds a
  SHA-256 over its own canonical JSON; :meth:`TrialStore.get` verifies
  it. Corrupt, truncated, or stale-schema entries are **counted**
  (:attr:`TrialStore.counters`), **quarantined** to
  ``<root>/.quarantine/`` for post-mortem, and reported once via a
  one-line warning — never silently treated as absent. The engine then
  re-runs the trial, so a rotting store degrades to extra work, not
  wrong results.
* **Audit tooling.** :meth:`verify` (read-only), :meth:`scrub`
  (verify + quarantine), and :meth:`stats` back the ``repro store``
  CLI subcommands.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import threading
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import StoreWriteError

__all__ = [
    "STORE_SCHEMA",
    "StoreVerifyReport",
    "TrialStore",
    "entry_checksum",
]

#: Entry schema version; entries with a different schema are ignored.
#: v2 added the embedded content checksum (older entries re-run).
STORE_SCHEMA = 2

#: :meth:`TrialStore.put` runs a :meth:`TrialStore.barrier` once this
#: many entries are pending, so a power cut inside a long round (a
#: static grid is one round) loses at most this many trials.
_BARRIER_EVERY = 256

#: ``OSError`` errnos with an unambiguous operator action; ``put``
#: translates these into :class:`~repro.errors.StoreWriteError`.
_TERMINAL_ERRNOS = frozenset(
    e
    for e in (
        errno.ENOSPC,
        errno.EACCES,
        errno.EROFS,
        getattr(errno, "EDQUOT", None),
    )
    if e is not None
)


def entry_checksum(entry: dict) -> str:
    """SHA-256 over the entry's canonical JSON, ``checksum`` excluded.

    Canonical form (sorted keys, compact separators) matches what
    :meth:`TrialStore.put` writes, so the digest covers exactly the
    bytes on disk minus the checksum field itself.
    """
    material = json.dumps(
        {k: v for k, v in entry.items() if k != "checksum"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _fsync_path(path) -> None:
    """``fsync`` one file or directory. A path that cannot be opened (an
    entry quarantined since it was written, or a platform without
    directory fds) has nothing left to sync."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class StoreVerifyReport:
    """What a full-store integrity walk found."""

    total: int = 0
    ok: int = 0
    corrupt: "list[str]" = field(default_factory=list)  # fingerprints
    stale: "list[str]" = field(default_factory=list)  # wrong schema
    quarantined: int = 0  # moved this walk (scrub only)

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.stale

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "ok": self.ok,
            "corrupt": list(self.corrupt),
            "stale": list(self.stale),
            "quarantined": self.quarantined,
        }


class TrialStore:
    """Directory of fingerprint-addressed trial results."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Integrity accounting for this handle: ``corrupt`` (bad
        #: JSON / bad checksum / truncated / non-dict), ``stale``
        #: (well-formed, wrong schema), ``quarantined`` (files moved
        #: aside), ``unreadable`` (I/O errors other than absence).
        self.counters: "Counter[str]" = Counter()
        #: Entries written and not yet synced, in write order, each
        #: mapped to its write's ordinal. A barrier may run on another
        #: thread (an early barrier on a worker pool's I/O thread), so
        #: both sides touch this map only under ``_lock``.
        self._unsynced: "dict[Path, int]" = {}
        self._writes = 0
        self._lock = threading.Lock()

    @classmethod
    def coerce(cls, store) -> "TrialStore | None":
        """Accept a TrialStore, a path, or None."""
        if store is None or isinstance(store, cls):
            return store
        return cls(store)

    def path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / ".quarantine"

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def _load(self, path: Path) -> "tuple[dict | None, str | None]":
        """Parse + validate one entry file.

        Returns ``(entry, None)`` for a good entry, ``(None, reason)``
        otherwise, where ``reason`` is ``"absent"`` (no file — the only
        non-defect case), ``"unreadable"``, ``"corrupt"``, or
        ``"stale"``. Never mutates the store.
        """
        try:
            with path.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None, "absent"
        except OSError:
            return None, "unreadable"
        except ValueError:
            return None, "corrupt"
        if not isinstance(entry, dict):
            return None, "corrupt"
        if entry.get("schema") != STORE_SCHEMA:
            return None, "stale"
        stored = entry.get("checksum")
        if not isinstance(stored, str) or stored != entry_checksum(entry):
            return None, "corrupt"
        return entry, None

    def _quarantine(self, path: Path) -> bool:
        """Move a bad entry to ``.quarantine/`` for post-mortem."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            return False  # already moved by a peer, or unmovable
        self.counters["quarantined"] += 1
        return True

    def get(self, fingerprint: str) -> "dict | None":
        """The stored entry, or None if absent.

        Defective entries — truncated or corrupt JSON, a checksum
        mismatch, a stale schema, an unreadable file — are counted,
        quarantined to ``.quarantine/``, and reported with a one-line
        warning, then treated as absent so the engine re-runs the
        trial. A bad entry is never served.
        """
        path = self.path(fingerprint)
        entry, reason = self._load(path)
        if entry is not None:
            return entry
        if reason == "absent":
            return None
        self.counters[reason] += 1
        self._quarantine(path)
        warnings.warn(
            f"trial store {self.root}: {reason} entry {fingerprint[:12]}… "
            f"quarantined to {self.quarantine_dir.name}/ and scheduled "
            "for re-run",
            RuntimeWarning,
            stacklevel=2,
        )
        return None

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def _write_entry(self, path: Path, entry: dict) -> None:
        """Atomic write: tmp file → rename; :meth:`barrier` makes it
        durable.

        Separated out so tests can substitute a failing write at
        exactly this seam: ``test_enospc_becomes_store_write_error``,
        ``test_other_oserrors_pass_through`` and the store machine
        (``tests/test_store_machine.py``).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.stem[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # One string, one write: ``json.dump`` streams through
                # the pure-Python encoder in small chunks.
                fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _raise_disk_fault(self, exc: OSError, what: str) -> None:
        """Raise ``exc`` as a :class:`~repro.errors.StoreWriteError` when
        its errno names an operator action; return otherwise."""
        if exc.errno in _TERMINAL_ERRNOS:
            raise StoreWriteError(
                f"trial store {self.root}: {what}: {exc.strerror or exc} "
                f"(errno {exc.errno}); completed work up to this point is "
                "on disk — free space / fix permissions and resume"
            ) from exc

    def put(self, fingerprint: str, entry: dict) -> None:
        """Atomically persist one trial entry, durable at the next
        :meth:`barrier` (which ``put`` itself runs once
        ``_BARRIER_EVERY`` entries are pending).

        The entry is stamped with its content checksum. Disk faults
        the operator must act on (full disk, permissions, read-only
        mount, quota) raise :class:`~repro.errors.StoreWriteError`.
        """
        entry = dict(entry)
        entry["checksum"] = entry_checksum(entry)
        path = self.path(fingerprint)
        try:
            self._write_entry(path, entry)
        except OSError as exc:
            self._raise_disk_fault(
                exc, f"cannot persist trial {fingerprint[:12]}…"
            )
            raise
        with self._lock:
            self._writes += 1
            self._unsynced[path] = self._writes
            full = len(self._unsynced) >= _BARRIER_EVERY
        if full:
            self.barrier()

    def barrier(self) -> None:
        """Make every entry written before the call durable.

        ``fsync``\\ s each of those files, then each of their
        directories once, and then marks synced only those writes: an
        entry ``put`` (or rewritten) while the barrier runs stays
        pending for the next one. A failed ``fsync`` leaves them all
        pending and raises (as :class:`~repro.errors.StoreWriteError`
        for the disk faults :meth:`put` maps).
        """
        with self._lock:
            pending = dict(self._unsynced)
        try:
            for path in pending:
                _fsync_path(path)
            for directory in dict.fromkeys(p.parent for p in pending):
                _fsync_path(directory)
        except OSError as exc:
            self._raise_disk_fault(
                exc, f"cannot make {len(pending)} entries durable"
            )
            raise
        with self._lock:
            for path, write in pending.items():
                if self._unsynced.get(path) == write:
                    del self._unsynced[path]

    # ------------------------------------------------------------------
    # audit tooling (the `repro store` CLI)
    # ------------------------------------------------------------------
    def _walk(self, quarantine: bool) -> StoreVerifyReport:
        report = StoreVerifyReport()
        for path in sorted(self.root.glob("??/*.json")):
            report.total += 1
            entry, reason = self._load(path)
            if entry is not None:
                report.ok += 1
                continue
            bucket = report.stale if reason == "stale" else report.corrupt
            bucket.append(path.stem)
            if quarantine:
                self.counters[reason] += 1
                if self._quarantine(path):
                    report.quarantined += 1
        return report

    def verify(self) -> StoreVerifyReport:
        """Read-only integrity walk over every entry."""
        return self._walk(quarantine=False)

    def scrub(self) -> StoreVerifyReport:
        """Integrity walk that quarantines every defective entry."""
        return self._walk(quarantine=True)

    def stats(self) -> dict:
        """Occupancy and integrity accounting, JSON-safe."""
        entries = 0
        size = 0
        campaigns: "Counter[str]" = Counter()
        for path in self.root.glob("??/*.json"):
            entries += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
            entry, _ = self._load(path)
            if entry is not None:
                campaigns[str(entry.get("campaign", "?"))] += 1
        quarantined = len(list(self.quarantine_dir.glob("*.json")))
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": size,
            "quarantined": quarantined,
            "campaigns": {k: campaigns[k] for k in sorted(campaigns)},
            "counters": {k: int(v) for k, v in sorted(self.counters.items())},
        }

    # ------------------------------------------------------------------
    def contains(self, fingerprint: str) -> bool:
        """Cheap existence probe: one ``stat``, no read, no checksum.

        A ``True`` answer means *a file is present*, not that its
        content is sound — defective entries still show as present
        until something reads them (:meth:`get`, :meth:`scrub`). This
        is the right trade for ``status --fast`` progress counting
        over multi-thousand-trial grids; anything that will *trust*
        the stored value (``execute``'s hit path) goes through
        :meth:`get`, which verifies the checksum.
        """
        return self.path(fingerprint).exists()

    def __contains__(self, fingerprint: str) -> bool:
        return self.contains(fingerprint)

    def fingerprints(self) -> "list[str]":
        """Every fingerprint currently stored (sorted)."""
        return sorted(p.stem for p in self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self.fingerprints())
