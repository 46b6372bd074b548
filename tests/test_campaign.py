"""The campaign engine: fingerprints, the trial store, and resume.

The load-bearing property is byte-identity: a campaign resumed from a
partially (or fully) populated store must aggregate to exactly the
result of an uninterrupted run, because the engine canonicalises every
value — fresh or replayed — through the same encode -> JSON -> decode
round-trip and every trial's RNG is pinned by ``(seed_root,
seed_index)`` rather than by which trials happen to run.
"""

import errno
import hashlib
import json
import os
import pickle
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.report import Series, Table
from repro.campaign import (
    STORE_SCHEMA,
    Campaign,
    Trial,
    TrialStore,
    canonical_json,
    decode_report,
    encode_report,
    execute,
    jsonify,
    status,
    trial_rng,
)
from repro.campaign import store as store_module
from repro.errors import ConfigurationError, StoreWriteError
from repro.obs import MetricsRegistry


def _seeded_trial(item, rng, tracer=None):
    """Deterministic per-seed payload: scaled draw plus the item."""
    return {"draw": float(rng.random()), "scale": item}


def _plain_trial(item, rng, tracer=None):
    assert rng is None
    return item * 2


def _tuple_trial(item, rng, tracer=None):
    return (item, [item, item + 1])


def _opaque_trial(item, rng, tracer=None):
    return object()


def _traced_trial(item, rng, tracer=None):
    if tracer is not None:
        tracer.span("trial", t=0.0, dur=1.0, item=item)
        tracer.event("work", t=0.5, item=item)
    return item


def _raise_on_two(item, rng, tracer=None):
    if item == 2:
        raise ConfigurationError("trial 2 failed")
    return item


def _late_raise(item, rng, tracer=None):
    """Trial 1 fails after trial 0 has landed and been synced ahead."""
    if item == 1:
        time.sleep(0.5)
        raise ConfigurationError("trial 1 failed")
    return item


def _crash_once(item, rng, tracer=None):
    """Trial 1's first attempt kills its worker; trials 2+ take long
    enough that the lost worker needs a replacement."""
    index, marker_dir = item
    marker = Path(marker_dir) / "crashed"
    if index == 1 and not marker.exists():
        marker.write_text("once")
        time.sleep(0.1)
        os._exit(1)
    if index >= 2:
        time.sleep(0.2)
    return index


def _store_bytes(store: TrialStore) -> "dict[str, bytes]":
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in sorted(store.root.glob("??/*.json"))
    }


def _grid(n=4, seed=7, **kwargs) -> Campaign:
    return Campaign(
        name="unit-grid",
        trial_fn=_seeded_trial,
        trials=[Trial(params={"i": i}, item=i) for i in range(n)],
        seed=seed,
        context={"flavour": "unit"},
        **kwargs,
    )


class TestFingerprints:
    def test_stable_across_resolutions(self):
        a = [s.fingerprint for s in _grid().specs()]
        b = [s.fingerprint for s in _grid().specs()]
        assert a == b

    def test_param_change_diverges(self):
        camp = _grid()
        moved = _grid()
        moved.trials[2].params = {"i": 2, "variant": "x"}
        assert camp.specs()[2].fingerprint != moved.specs()[2].fingerprint
        # Untouched trials keep their fingerprints.
        assert camp.specs()[1].fingerprint == moved.specs()[1].fingerprint

    def test_context_seed_and_salt_all_count(self):
        base = _grid().specs()[0].fingerprint
        assert _grid(seed=8).specs()[0].fingerprint != base
        assert _grid(salt="v2").specs()[0].fingerprint != base
        shifted = _grid()
        shifted.context["flavour"] = "other"
        assert shifted.specs()[0].fingerprint != base

    def test_duplicate_fingerprints_rejected(self):
        camp = Campaign(
            name="dup",
            trial_fn=_plain_trial,
            trials=[Trial(params={"i": 0}), Trial(params={"i": 0})],
        )
        with pytest.raises(ConfigurationError, match="identical fingerprints"):
            camp.specs()

    def test_pinned_seed_index_makes_duplicates_distinct(self):
        camp = Campaign(
            name="pinned",
            trial_fn=_seeded_trial,
            trials=[
                Trial(params={"i": 0}, seed_root=3, seed_index=0),
                Trial(params={"i": 0}, seed_root=4, seed_index=0),
            ],
        )
        roots = [s.seed_root for s in camp.specs()]
        assert roots == [3, 4]


class TestTrialRng:
    def test_spawn_identity(self):
        # SeedSequence(root, spawn_key=(i,)) == SeedSequence(root).spawn(n)[i]
        root = 1234
        children = np.random.SeedSequence(root).spawn(6)
        for i in (0, 3, 5):
            expected = np.random.default_rng(children[i]).random(4)
            got = trial_rng(root, i).random(4)
            assert got.tolist() == expected.tolist()

    def test_none_root_means_no_rng(self):
        assert trial_rng(None, 0) is None

    def test_independent_of_grid_size(self):
        # The stream for index 2 is the same whether the grid holds 3
        # trials or 300 — the resume guarantee in miniature.
        assert (
            trial_rng(9, 2).random(3).tolist()
            == trial_rng(9, 2).random(3).tolist()
        )


class TestJsonify:
    def test_numpy_scalars_keep_their_kind(self):
        out = jsonify({"i": np.int64(1234), "f": np.float64(0.5)})
        assert out == {"i": 1234, "f": 0.5}
        assert isinstance(out["i"], int)
        assert isinstance(out["f"], float)

    def test_tuples_and_arrays_become_lists(self):
        assert jsonify((1, np.arange(3))) == [1, [0, 1, 2]]

    def test_unencodable_raises(self):
        with pytest.raises(ConfigurationError, match="encode/decode hooks"):
            jsonify(object())

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestTrialStore:
    def test_put_get_round_trip(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        fp = "ab" + "0" * 62
        entry = {"schema": STORE_SCHEMA, "result": [1, 2.5, "x"]}
        store.put(fp, entry)
        got = store.get(fp)
        # put stamps the content checksum; everything else round-trips.
        assert got is not None and "checksum" in got
        assert {k: v for k, v in got.items() if k != "checksum"} == entry
        assert fp in store
        assert len(store) == 1
        assert store.fingerprints() == [fp]

    def test_entry_file_is_one_compact_sorted_dump(self, tmp_path):
        store = TrialStore(tmp_path)
        fp = "ef" + "2" * 62
        store.put(fp, {"schema": STORE_SCHEMA, "result": {"b": [1.5, "é"], "a": None}})
        entry = store.get(fp)
        assert store.path(fp).read_text(encoding="utf-8") == json.dumps(
            entry, sort_keys=True, separators=(",", ":")
        )

    def test_absent_and_corrupt_and_stale_are_none(self, tmp_path):
        store = TrialStore(tmp_path)
        fp = "cd" + "1" * 62
        assert store.get(fp) is None
        path = store.path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{truncated")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get(fp) is None
        path.write_text(json.dumps({"schema": 999, "result": 1}))
        with pytest.warns(RuntimeWarning, match="stale"):
            assert store.get(fp) is None
        assert store.counters["corrupt"] == 1
        assert store.counters["stale"] == 1

    def test_coerce(self, tmp_path):
        store = TrialStore(tmp_path)
        assert TrialStore.coerce(store) is store
        assert TrialStore.coerce(None) is None
        assert isinstance(TrialStore.coerce(str(tmp_path)), TrialStore)


class TestExecute:
    def test_values_in_grid_order_at_any_workers(self):
        serial = execute(_grid(), workers=1).values
        fanned = execute(_grid(), workers=2, force_pool=True).values
        assert serial == fanned
        assert [v["scale"] for v in serial] == [0, 1, 2, 3]

    def test_canonicalisation_applies_without_a_store(self):
        # Tuples become lists even in-memory: the engine always feeds
        # the aggregate the exact object a store replay would.
        camp = Campaign(
            name="tuples", trial_fn=_tuple_trial,
            trials=[Trial(params={"i": i}, item=i) for i in range(2)],
        )
        assert execute(camp).values == [[0, [0, 1]], [1, [1, 2]]]

    def test_cold_then_warm_store(self, tmp_path):
        store = TrialStore(tmp_path)
        cold_metrics = MetricsRegistry()
        cold = execute(_grid(), store=store, metrics=cold_metrics)
        warm_metrics = MetricsRegistry()
        warm = execute(_grid(), store=store, metrics=warm_metrics)

        assert warm.values == cold.values
        assert cold.executed == 4 and cold.store_hits == 0
        assert warm.executed == 0 and warm.store_hits == 4

        counters = cold_metrics.snapshot()["counters"]
        assert counters["campaign.trials.total"] == 4
        assert counters["campaign.trials.executed"] == 4
        assert counters["campaign.store.misses"] == 4
        counters = warm_metrics.snapshot()["counters"]
        assert counters["campaign.trials.executed"] == 0
        assert counters["campaign.store.hits"] == 4

    def test_partial_store_resume_matches_uninterrupted(self, tmp_path):
        # "Kill it halfway": run only the first two trials, then the
        # full grid against the same store.
        store = TrialStore(tmp_path)
        half = _grid()
        half.trials = half.trials[:2]
        execute(half, store=store)
        assert len(store) == 2

        resumed = execute(_grid(), store=store)
        uninterrupted = execute(_grid())
        assert resumed.values == uninterrupted.values
        assert resumed.executed == 2 and resumed.store_hits == 2

    def test_encode_decode_hooks(self, tmp_path):
        camp = Campaign(
            name="hooks",
            trial_fn=_plain_trial,
            trials=[Trial(params={"i": i}, item=i) for i in range(3)],
            encode=lambda v: {"doubled": v},
            decode=lambda d: d["doubled"],
        )
        store = TrialStore(tmp_path)
        assert execute(camp, store=store).values == [0, 2, 4]
        assert execute(camp, store=store).values == [0, 2, 4]
        entry = store.get(camp.specs()[1].fingerprint)
        assert entry["result"] == {"doubled": 2}

    def test_unsafe_result_without_hooks_raises(self):
        camp = Campaign(
            name="unsafe",
            trial_fn=_opaque_trial,
            trials=[Trial(params={"i": 0})],
        )
        with pytest.raises(ConfigurationError, match="encode/decode hooks"):
            execute(camp)

    def test_trace_resumes_byte_identically(self, tmp_path):
        camp = Campaign(
            name="traced",
            trial_fn=_traced_trial,
            trials=[Trial(params={"i": i}, item=i) for i in range(3)],
        )
        store = TrialStore(tmp_path / "store")
        cold_trace = tmp_path / "cold.jsonl"
        warm_trace = tmp_path / "warm.jsonl"
        execute(camp, store=store, trace_path=str(cold_trace))
        warm = execute(camp, store=store, trace_path=str(warm_trace))
        assert warm.executed == 0
        assert warm_trace.read_bytes() == cold_trace.read_bytes()

    def test_status_counts_completed(self, tmp_path):
        store = TrialStore(tmp_path)
        st = status(_grid(), store)
        assert (st.total, st.completed, st.pending) == (4, 0, 4)
        half = _grid()
        half.trials = half.trials[:3]
        execute(half, store=store)
        st = status(_grid(), store)
        assert (st.total, st.completed, st.pending) == (4, 3, 1)

    def test_contains_is_presence_only(self, tmp_path):
        store = TrialStore(tmp_path)
        camp = _grid()
        execute(camp, store=store)
        fp = camp.specs()[0].fingerprint
        assert store.contains(fp)
        assert fp in store
        assert not store.contains("0" * 64)
        # contains() is one stat: it does NOT checksum, so a corrupted
        # entry still reports present (get() is the verifying read).
        path = tmp_path / fp[:2] / f"{fp}.json"
        path.write_text("{garbage")
        assert store.contains(fp)
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            assert store.get(fp) is None

    def test_status_fast_skips_verification(self, tmp_path):
        store = TrialStore(tmp_path)
        execute(_grid(), store=store)
        fp = _grid().specs()[1].fingerprint
        (tmp_path / fp[:2] / f"{fp}.json").write_text("{garbage")

        fast = status(_grid(), store, fast=True)
        # The fast scan is presence-only: the defective entry still
        # counts as completed and nothing is quarantined.
        assert (fast.completed, fast.corrupt) == (4, 0)
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            full = status(_grid(), store)
        assert (full.completed, full.corrupt, full.pending) == (3, 1, 1)
        # The full scan quarantined the defect; fast now sees 3.
        assert status(_grid(), store, fast=True).completed == 3


class TestTrialSpecCache:
    def test_cached_fingerprint_is_the_fresh_digest_and_pickles(self):
        spec = _grid().specs()[1]
        material = canonical_json(
            {
                "campaign": spec.campaign,
                "salt": spec.salt,
                "context": spec.context_json,
                "params": spec.params_json,
                "seed_root": spec.seed_root,
                "seed_index": spec.seed_index,
            }
        )
        fresh = hashlib.sha256(material.encode("utf-8")).hexdigest()
        assert spec.fingerprint == fresh
        # Computed once: every access returns the same objects.
        assert spec.fingerprint is spec.fingerprint
        assert spec.params is spec.params
        assert spec.params == {"i": 1}
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec)
        assert clone.fingerprint == fresh
        assert clone.params == {"i": 1}


class TestDurabilityBarrier:
    def test_put_defers_fsync_and_barrier_syncs_files_then_dirs(
        self, tmp_path, monkeypatch
    ):
        synced = []
        monkeypatch.setattr(store_module, "_fsync_path", synced.append)
        store = TrialStore(tmp_path)
        fps = ["ab" + "0" * 62, "cd" + "1" * 62, "ab" + "2" * 62]
        for fp in fps:
            store.put(fp, {"schema": STORE_SCHEMA, "result": fp[:4]})
        assert synced == []
        store.barrier()
        assert synced == [store.path(fp) for fp in fps] + [
            tmp_path / "ab", tmp_path / "cd",
        ]
        synced.clear()
        store.barrier()  # nothing written since the last barrier
        assert synced == []

    def test_enospc_from_barrier_fsync_is_store_write_error(
        self, tmp_path, monkeypatch
    ):
        store = TrialStore(tmp_path)
        fp = "ab" + "0" * 62
        store.put(fp, {"schema": STORE_SCHEMA, "result": 1})

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(StoreWriteError, match="durable.*resume"):
            store.barrier()
        monkeypatch.undo()
        # The failed barrier left the entry pending; the next one syncs it.
        synced = []
        monkeypatch.setattr(store_module, "_fsync_path", synced.append)
        store.barrier()
        assert synced == [store.path(fp), tmp_path / "ab"]

    def test_barrier_runs_when_a_trial_raises_mid_round(
        self, tmp_path, monkeypatch
    ):
        barriers = []
        original = TrialStore.barrier

        def recording(self):
            barriers.append(sorted(p.stem for p in self._unsynced))
            original(self)

        monkeypatch.setattr(TrialStore, "barrier", recording)
        camp = Campaign(
            name="raises",
            trial_fn=_raise_on_two,
            trials=[Trial(params={"i": i}, item=i) for i in range(4)],
        )
        store = TrialStore(tmp_path)
        with pytest.raises(ConfigurationError, match="trial 2 failed"):
            execute(camp, store=store)
        written = sorted(spec.fingerprint for spec in camp.specs()[:2])
        assert barriers == [written]
        assert store.fingerprints() == written
        assert not store._unsynced

    def test_put_runs_a_barrier_every_n_pending_entries(
        self, tmp_path, monkeypatch
    ):
        synced = []
        monkeypatch.setattr(store_module, "_fsync_path", synced.append)
        monkeypatch.setattr(store_module, "_BARRIER_EVERY", 3)
        store = TrialStore(tmp_path)
        fps = [f"{k:02d}" + "0" * 62 for k in range(7)]
        for fp in fps:
            store.put(fp, {"schema": STORE_SCHEMA, "result": fp[:2]})
        files = [p for p in synced if p.suffix == ".json"]
        assert files == [store.path(fp) for fp in fps[:6]]
        assert list(store._unsynced) == [store.path(fps[6])]

    def test_failing_barrier_keeps_the_rounds_own_exception(
        self, tmp_path, monkeypatch
    ):
        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        camp = Campaign(
            name="raises",
            trial_fn=_raise_on_two,
            trials=[Trial(params={"i": i}, item=i) for i in range(4)],
        )
        store = TrialStore(tmp_path)
        with pytest.raises(ConfigurationError, match="trial 2 failed"):
            execute(camp, store=store)
        # The failed barrier left both finished entries pending.
        assert len(store._unsynced) == 2

    def test_power_cut_before_barrier_is_detected_and_rerun(
        self, tmp_path, monkeypatch
    ):
        """Write a round whose barrier never runs (the power cut), tear
        a seeded random subset of its entries, and resume."""
        cold_store = TrialStore(tmp_path / "cold")
        cold = execute(_grid(n=16), store=cold_store)

        unsynced = []
        monkeypatch.setattr(
            TrialStore, "barrier", lambda self: unsynced.extend(self._unsynced)
        )
        execute(_grid(n=16), store=tmp_path / "cut")
        monkeypatch.undo()
        assert len(unsynced) == 16

        rng = np.random.default_rng(2026)
        damaged = sorted(rng.choice(16, size=7, replace=False).tolist())
        defective = 0
        for k, index in enumerate(damaged):
            path = unsynced[index]
            data = path.read_bytes()
            how = ("truncate", "flip", "delete")[k % 3]
            if how == "truncate":
                path.write_bytes(data[: int(rng.integers(0, len(data)))])
            elif how == "flip":
                at = int(rng.integers(0, len(data)))
                # The low bit never maps a compact JSON byte onto an
                # equivalent one ('e' -> 'd', ',' -> '-', '1' -> '0').
                path.write_bytes(
                    data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]
                )
            else:
                path.unlink()
            defective += how != "delete"

        metrics = MetricsRegistry()
        resumed_store = TrialStore(tmp_path / "cut")
        with pytest.warns(RuntimeWarning):
            resumed = execute(_grid(n=16), store=resumed_store, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.store.corrupt"] == defective
        assert resumed.executed == len(damaged)
        assert resumed.store_hits == 16 - len(damaged)
        assert resumed.values == cold.values
        assert _store_bytes(resumed_store) == _store_bytes(cold_store)


class TestEarlyBarrier:
    """A pooled round syncs landed entries on the pool's I/O thread
    while the workers compute."""

    def test_entry_put_during_a_barrier_stays_pending(
        self, tmp_path, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        synced = []

        def blocking(path):
            entered.set()
            release.wait(10.0)
            synced.append(path)

        monkeypatch.setattr(store_module, "_fsync_path", blocking)
        store = TrialStore(tmp_path)
        first, second = "ab" + "0" * 62, "cd" + "1" * 62
        store.put(first, {"schema": STORE_SCHEMA, "result": 1})
        barrier = threading.Thread(target=store.barrier)
        barrier.start()
        assert entered.wait(10.0)
        store.put(second, {"schema": STORE_SCHEMA, "result": 2})
        store.put(first, {"schema": STORE_SCHEMA, "result": 3})  # rewritten
        release.set()
        barrier.join(10.0)
        assert synced == [store.path(first), tmp_path / "ab"]
        assert list(store._unsynced) == [store.path(first), store.path(second)]
        synced.clear()
        store.barrier()
        assert synced == [
            store.path(first), store.path(second), tmp_path / "ab", tmp_path / "cd",
        ]
        assert not store._unsynced

    @staticmethod
    def _full_disk(monkeypatch) -> "list[str]":
        """Every ``fsync`` fails with ENOSPC; the names of the threads
        that tried."""
        threads = []

        def full_disk(fd):
            threads.append(threading.current_thread().name)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        return threads

    def test_enospc_from_an_early_barrier_is_store_write_error(
        self, tmp_path, monkeypatch
    ):
        threads = self._full_disk(monkeypatch)
        store = TrialStore(tmp_path)
        with pytest.raises(StoreWriteError, match="durable.*resume"):
            execute(_grid(n=6), store=store, workers=2, force_pool=True)
        assert any(name.startswith("pool-io") for name in threads)
        # Nothing was synced: every entry the round wrote stays pending.
        assert store._unsynced
        assert set(store._unsynced) == set(store.root.glob("??/*.json"))

    def test_failing_early_barrier_keeps_the_rounds_own_exception(
        self, tmp_path, monkeypatch
    ):
        threads = self._full_disk(monkeypatch)
        camp = Campaign(
            name="late-raise",
            trial_fn=_late_raise,
            trials=[Trial(params={"i": i}, item=i) for i in range(2)],
        )
        store = TrialStore(tmp_path)
        with pytest.raises(ConfigurationError, match="trial 1 failed"):
            execute(camp, store=store, workers=2, force_pool=True)
        assert any(name.startswith("pool-io") for name in threads)
        assert list(store._unsynced) == [store.path(camp.specs()[0].fingerprint)]

    def test_lost_worker_is_not_replaced_during_an_early_barrier(
        self, tmp_path, monkeypatch
    ):
        from repro import parallel
        from repro.ground import GroundPolicy

        busy = []
        forks = []
        barrier = TrialStore.barrier
        spawn = parallel._Worker.__init__

        def slow_fsync(path):
            time.sleep(0.2)

        def recording_barrier(self):
            busy.append(True)
            try:
                barrier(self)
            finally:
                busy.pop()

        def recording_spawn(self, ctx):
            forks.append(bool(busy))
            spawn(self, ctx)

        monkeypatch.setattr(store_module, "_fsync_path", slow_fsync)
        monkeypatch.setattr(TrialStore, "barrier", recording_barrier)
        monkeypatch.setattr(parallel._Worker, "__init__", recording_spawn)
        markers = tmp_path / "markers"
        markers.mkdir()
        camp = Campaign(
            name="crash-once",
            trial_fn=_crash_once,
            trials=[
                Trial(params={"i": i}, item=(i, str(markers))) for i in range(5)
            ],
        )
        result = execute(
            camp, store=tmp_path / "store", workers=2,
            supervision=GroundPolicy(backoff_base_seconds=0.0),
        )
        assert result.values == [0, 1, 2, 3, 4]
        assert result.report.worker_losses == 1
        assert forks == [False, False, False]  # two workers, one replacement


class TestReportCodec:
    def test_table_render_round_trips(self):
        table = Table(
            title="T", columns=["name", "n", "x"], notes="note",
        )
        table.add_row("alpha", 1234, 1234.0)
        table.add_row("beta", 0, 0.00042)
        thawed = decode_report(json.loads(json.dumps(encode_report(table))))
        assert thawed.render() == table.render()
        # int 1234 and float 1234.0 render differently — the codec must
        # not coerce, or a replayed table changes bytes.
        assert "1234" in table.render() and "1.23e+03" in table.render()

    def test_series_render_round_trips(self):
        series = Series(title="S", x_label="x", y_label="y")
        series.add("a", [1, 2, 3], [0.5, 1.5, 2.5])
        thawed = decode_report(json.loads(json.dumps(encode_report(series))))
        assert thawed.render() == series.render()

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_report(42)
        with pytest.raises(ConfigurationError):
            decode_report({"kind": "chart"})


@pytest.mark.slow
class TestTable7ResumeByteIdentity:
    def test_interrupted_campaign_matches_cold(self, tmp_path):
        """The acceptance criterion end-to-end: run part of the Table 7
        grid, resume against the same store, and require the rendered
        table to equal a storeless cold run byte-for-byte."""
        from repro.experiments import run_experiment
        from repro.experiments import table7_fault_injection as t7

        cold = run_experiment(t7.campaign(runs_per_scheme=3, seed=3))[1].render()

        store = TrialStore(tmp_path)
        camp = t7.campaign(runs_per_scheme=3, seed=3)
        partial = Campaign(
            name=camp.name, trial_fn=camp.trial_fn,
            trials=camp.trials[: len(camp.trials) // 2],
            seed=camp.seed, context=camp.context, salt=camp.salt,
            encode=camp.encode, decode=camp.decode,
        )
        execute(partial, store=store)

        resumed = execute(camp, store=store, workers=2)
        assert resumed.store_hits == len(camp.trials) // 2
        assert camp.aggregate(resumed.values, metrics=None).render() == cold
