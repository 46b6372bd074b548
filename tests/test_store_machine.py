"""The trial store under host faults, as a state machine.

:class:`StoreMachine` drives one :class:`~repro.campaign.TrialStore`
through puts, barriers (one of them with a put landing while it
syncs), reads, reopens, rot of a synced entry, power cuts and a disk
that fills, and checks it against a model: the value each entry must
hold, and which entries the store has promised durable. A simulated
disk records the ``fsync`` calls the store makes; a power cut keeps,
truncates, flips or deletes every entry whose file or directory was
not synced since its write. The invariants:

* ``get`` never returns a wrong value;
* an entry the store calls durable has been synced, so it survives a
  cut unless it rots;
* the defect counters equal the corruptions ``get`` detected;
* a put on a full disk raises a :class:`~repro.errors.StoreWriteError`
  that says how to resume, and every earlier entry stays readable;
* the store never holds a full ``_BARRIER_EVERY`` entries unsynced.

The campaign tests below keep the same faults end to end: a rotted
entry is re-run alone, and a run that fills the disk stops and resumes.
"""

import errno
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.campaign import STORE_SCHEMA, Campaign, Trial, TrialStore, execute, status
from repro.campaign import store as store_module
from repro.errors import StoreWriteError
from repro.ground import GroundPolicy
from repro.obs import MetricsRegistry

#: ``put`` runs a barrier once this many entries are pending: 256 in
#: the store, lowered here so a short run crosses it.
PENDING_BOUND = 4
#: Eight fingerprints over three fan-out directories.
KEYS = [f"{k % 3:02x}{k:062x}" for k in range(8)]
ROT = ("flip", "truncate")
FATES = ("keep", "truncate", "flip", "delete")
DEFECTS = ("corrupt", "stale", "unreadable")


def _damage(path: Path, kind: str, offset: int) -> None:
    """Truncate ``path`` at ``offset``, or flip the low bit of the byte
    there. Any prefix of a JSON object and any one-bit flip of compact
    JSON break the parse, the schema or the checksum."""
    raw = bytearray(path.read_bytes())
    if kind == "truncate":
        del raw[offset:]
    else:
        raw[offset] ^= 0x01
    path.write_bytes(bytes(raw))


class _Disk:
    """The medium under the store: which entries still wait for a file
    or directory ``fsync`` since their write, and how many writes fit
    before it is full (``None``: never)."""

    def __init__(self) -> None:
        self.unsynced: "dict[Path, set[str]]" = {}
        self.space: "int | None" = None
        #: Called once, right after the next ``fsync``.
        self.hook = None

    def fsync(self, path: Path) -> None:
        for entry, parts in list(self.unsynced.items()):
            if entry == path:
                parts.discard("file")
            elif entry.parent == path:
                parts.discard("dir")
            if not parts:
                del self.unsynced[entry]
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()


class _DiskStore(TrialStore):
    """A store whose entry writes land on a :class:`_Disk`."""

    def __init__(self, root, disk: _Disk) -> None:
        super().__init__(root)
        self.disk = disk

    def _write_entry(self, path, entry) -> None:
        if self.disk.space == 0:
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        super()._write_entry(path, entry)
        if self.disk.space is not None:
            self.disk.space -= 1
        self.disk.unsynced[path] = {"file", "dir"}


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="store-machine-"))
        self.disk = _Disk()
        self.patches = [
            mock.patch.object(store_module, "_fsync_path", self.disk.fsync),
            mock.patch.object(store_module, "_BARRIER_EVERY", PENDING_BOUND),
        ]
        for patch in self.patches:
            patch.start()
        self.store = _DiskStore(self.root, self.disk)
        #: The model: each entry's value, the entries rotted on disk,
        #: the entries the store has promised durable, and this
        #: handle's pending writes (entry -> write ordinal).
        self.values: "dict[str, int]" = {}
        self.rotted: "set[str]" = set()
        self.durable: "set[str]" = set()
        self.pending: "dict[str, int]" = {}
        self.writes = 0
        self.defects = 0

    def teardown(self) -> None:
        for patch in self.patches:
            patch.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    def _get(self, key: str):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return self.store.get(key)

    def _put(self, key: str, value: int) -> None:
        entry = {"schema": STORE_SCHEMA, "value": value}
        if self.disk.space == 0:
            with pytest.raises(StoreWriteError, match="resume"):
                self.store.put(key, entry)
            for held in sorted(self.values.keys() - self.rotted):
                assert self._get(held)["value"] == self.values[held]
            return
        self.store.put(key, entry)
        self.values[key] = value
        self.rotted.discard(key)
        self.durable.discard(key)
        self.writes += 1
        self.pending[key] = self.writes
        if len(self.pending) >= PENDING_BOUND:
            self.durable.update(self.pending)
            self.pending.clear()

    @rule(key=st.sampled_from(KEYS), value=st.integers(-10**6, 10**6))
    def put(self, key, value):
        self._put(key, value)

    @rule(during=st.none() | st.sampled_from(KEYS), value=st.integers(0, 99))
    def barrier(self, during, value):
        """A barrier makes what was pending at its start durable; a put
        landing while it syncs (``during``) stays pending."""
        if during is not None:
            self.disk.hook = lambda: self._put(during, value)
        started = dict(self.pending)
        self.store.barrier()
        self.disk.hook = None
        for key, write in started.items():
            if self.pending.get(key) == write:
                del self.pending[key]
                self.durable.add(key)

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        entry = self._get(key)
        if key in self.rotted:
            assert entry is None
            assert (self.store.quarantine_dir / f"{key}.json").exists()
            self.defects += 1
            self.rotted.discard(key)
            del self.values[key]
        elif key in self.values:
            assert entry is not None and entry["value"] == self.values[key]
        else:
            assert entry is None

    @rule()
    def reopen(self):
        """A restart without a cut: the new handle has nothing pending,
        and what the old one left pending is not durable."""
        self.store = _DiskStore(self.root, self.disk)
        self.pending.clear()
        self.defects = 0

    @precondition(lambda self: self.durable)
    @rule(data=st.data(), kind=st.sampled_from(ROT))
    def rot(self, data, kind):
        key = data.draw(st.sampled_from(sorted(self.durable)))
        path = self.store.path(key)
        _damage(path, kind, data.draw(st.integers(0, path.stat().st_size - 1)))
        self.durable.discard(key)
        self.rotted.add(key)

    @rule(data=st.data())
    def power_cut(self, data):
        """Every entry not yet synced is kept, torn, flipped or lost;
        then the store is reopened."""
        for path in sorted(self.disk.unsynced):
            key = path.stem
            assert key not in self.durable, f"durable entry {key[:8]} was never synced"
            fate = data.draw(st.sampled_from(FATES))
            if fate == "delete":
                path.unlink()
                del self.values[key]
            elif fate != "keep":
                _damage(path, fate, data.draw(st.integers(0, path.stat().st_size - 1)))
                self.rotted.add(key)
        self.disk.unsynced.clear()
        self.durable = self.values.keys() - self.rotted
        self.reopen()
        for key in sorted(self.durable):
            assert self._get(key)["value"] == self.values[key]

    @precondition(lambda self: self.disk.space is None)
    @rule(writes=st.integers(0, 4))
    def fill_disk(self, writes):
        """The disk fills after ``writes`` more entries."""
        self.disk.space = writes

    @invariant()
    def durable_entries_are_synced(self):
        for key in self.durable:
            assert self.store.path(key) not in self.disk.unsynced

    @invariant()
    def defects_are_counted(self):
        counters = self.store.counters
        assert sum(counters[reason] for reason in DEFECTS) == self.defects
        assert counters["quarantined"] == self.defects

    @invariant()
    def pending_is_bounded(self):
        assert len(self.store._unsynced) < PENDING_BOUND


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None, derandomize=True
)


@pytest.mark.slow
def test_store_machine_long():
    run_state_machine_as_test(
        StoreMachine,
        settings=settings(max_examples=400, stateful_step_count=50, deadline=None),
    )


# ----------------------------------------------------------------------
# the same faults under a campaign
# ----------------------------------------------------------------------
FAST = GroundPolicy(backoff_base_seconds=0.01, backoff_max_seconds=0.05)


def _draw(item, rng, tracer=None):
    return int(rng.integers(0, 10_000)) + 100 * item


def _campaign():
    return Campaign(
        name="store-faults",
        trial_fn=_draw,
        trials=[Trial(params={"i": i}, item=i) for i in range(6)],
        seed=3,
    )


@pytest.mark.parametrize("kind", ROT, ids=["store-bitflip", "store-truncate"])
def test_rotted_entry_alone_is_rerun(tmp_path, kind):
    campaign = _campaign()
    baseline = execute(campaign)
    store = TrialStore(tmp_path)
    execute(campaign, store=store)
    victim = store.path(campaign.specs()[3].fingerprint)
    _damage(victim, kind, victim.stat().st_size // 2)
    metrics = MetricsRegistry()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = execute(
            campaign, workers=2, store=store, supervision=FAST, metrics=metrics
        )
    assert result.values == baseline.values
    assert (result.executed, result.store_hits) == (1, 5)
    assert metrics.snapshot()["counters"]["campaign.store.corrupt"] == 1
    assert [p.name for p in store.quarantine_dir.glob("*.json")] == [victim.name]
    assert status(campaign, store).completed == 6


def test_full_disk_stops_the_run_and_a_healthy_rerun_resumes(tmp_path):
    campaign = _campaign()
    baseline = execute(campaign)
    disk = _Disk()
    disk.space = 2
    with pytest.raises(StoreWriteError, match="resume"):
        execute(
            campaign, workers=2, store=_DiskStore(tmp_path, disk), supervision=FAST
        )
    assert len(TrialStore(tmp_path)) == 2
    result = execute(campaign, workers=2, store=TrialStore(tmp_path), supervision=FAST)
    assert result.store_hits == 2
    assert result.values == baseline.values
