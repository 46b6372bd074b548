"""Ground-segment hardening: supervision, store integrity, host faults.

Three claims under test (``docs/ground.md``):

1. the supervised executor keeps the determinism contract — a batch
   that suffers crashes, hangs, or transient trial errors produces
   byte-identical values to an undisturbed one, with poison tasks
   quarantined instead of killing the run;
2. the trial store never serves a defective entry — truncation,
   corruption, stale schemas, and unreadable files are counted,
   quarantined, and re-run, and writes are atomic under concurrency
   and loud (:class:`~repro.errors.StoreWriteError`) on terminal disk
   faults;
3. a supervised campaign survives each host worker fault (a crashed
   worker, a hung worker, a transient error, a poison trial, a lost
   pool) with the fault-free run's values and store bytes, and every
   fault shows in its exact ``ground.*`` counters. The store's host
   faults (rot, power cuts, a full disk) are the rules of
   ``tests/test_store_machine.py``.
"""

import errno
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench.workloads import store_listing
from repro.campaign import (
    STORE_SCHEMA,
    Campaign,
    Trial,
    TrialStore,
    execute,
    status,
)
from repro.campaign.store import entry_checksum
from repro.errors import ConfigurationError, StoreWriteError
from repro.ground import (
    GroundPolicy,
    QuarantinedTrial,
    quarantine_manifest,
)
from repro.obs import MetricsRegistry, read_trace
from repro.obs.summarize import has_incident_chain, summarize_records
from repro.parallel import pmap_report

# A tight policy so retry/backoff paths run in milliseconds.
FAST = dict(backoff_base_seconds=0.01, backoff_max_seconds=0.05)


def _draw(item, rng, tracer=None):
    """The undisturbed task: one deterministic draw per index."""
    return int(rng.integers(0, 10_000)) + 100 * item["i"]


def _faulty(item, rng, tracer=None):
    """Fault ``item['bad']`` for its first ``item['fail']`` attempts.

    Attempts are counted in a marker file (in-memory state dies with a
    crashed worker); the fault fires *before* the RNG is touched, so a
    surviving retry draws exactly what a first-try success would.
    """
    marker = Path(item["marker_dir"]) / f"{item['i']}.attempts"
    attempt = int(marker.read_text()) + 1 if marker.exists() else 1
    marker.write_text(str(attempt))
    if item["i"] == item["bad"] and attempt <= item["fail"]:
        kind = item["kind"]
        if kind == "crash":
            os._exit(9)
        if kind == "hang":
            time.sleep(60.0)
        raise RuntimeError(f"injected fault, attempt {attempt}")
    return _draw(item, rng)


def _seeded_draw(item):
    """``_draw`` as a pool task: the item carries its own seed."""
    return _draw(item, np.random.default_rng(item["seed"]))


def _seeded_faulty(item):
    """``_faulty`` as a pool task: the item carries its own seed."""
    return _faulty(item, np.random.default_rng(item["seed"]))


def _items(n, tmp_path, *, seed=0, bad=-1, fail=0, kind="error"):
    return [
        {
            "i": i,
            "seed": (seed, i),
            "bad": bad,
            "fail": fail,
            "kind": kind,
            "marker_dir": str(tmp_path),
        }
        for i in range(n)
    ]


def _faulty_campaign(items, trial_fn=_faulty):
    """``_faulty`` (or ``trial_fn``) over ``items`` as a campaign, one
    trial per item."""
    return Campaign(
        name="ground-trace",
        trial_fn=trial_fn,
        trials=[Trial(params={"i": item["i"]}, item=item) for item in items],
        seed=2,
    )


class TestGroundPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            GroundPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            GroundPolicy(timeout_seconds=0.0)
        with pytest.raises(ConfigurationError):
            GroundPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            GroundPolicy(max_worker_losses=-1)

    def test_backoff_grows_and_caps(self):
        policy = GroundPolicy(
            backoff_base_seconds=0.1, backoff_factor=2.0,
            backoff_max_seconds=0.3,
        )
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(5) == pytest.approx(0.3)


class TestSupervisedPmap:
    def test_matches_plain_pmap_without_faults(self, tmp_path):
        items = _items(5, tmp_path, seed=11)
        plain = pmap_report(_seeded_draw, items, workers=1)
        supervised = pmap_report(
            _seeded_draw, items, workers=2,
            supervision=GroundPolicy(**FAST),
        )
        assert supervised.values == plain.values
        assert supervised.mode in ("ground-pool", "ground-serial")
        assert not supervised.quarantined

    def test_crashed_worker_is_replaced_and_retried(self, tmp_path):
        items = _items(4, tmp_path, seed=3, bad=1, fail=1, kind="crash")
        baseline = pmap_report(_seeded_draw, items, workers=1)
        metrics = MetricsRegistry()
        report = pmap_report(
            _seeded_faulty, items, workers=2,
            supervision=GroundPolicy(**FAST), metrics=metrics,
        )
        # Byte-identical despite the crash: the retry reuses the seed.
        assert report.values == baseline.values
        assert report.retries == 1 and report.worker_losses == 1
        counters = metrics.snapshot()["counters"]
        assert counters["ground.worker_crashes"] == 1
        assert counters["ground.retries"] == 1

    def test_transient_errors_retried_to_success(self, tmp_path):
        items = _items(4, tmp_path, seed=5, bad=2, fail=2, kind="error")
        baseline = pmap_report(_seeded_draw, items, workers=1)
        report = pmap_report(
            _seeded_faulty, items, workers=2,
            supervision=GroundPolicy(max_attempts=3, **FAST),
        )
        assert report.values == baseline.values
        assert report.retries == 2 and not report.quarantined

    def test_hung_worker_killed_by_timeout(self, tmp_path):
        items = _items(3, tmp_path, seed=7, bad=0, fail=1, kind="hang")
        baseline = pmap_report(_seeded_draw, items, workers=1)
        report = pmap_report(
            _seeded_faulty, items, workers=2,
            supervision=GroundPolicy(timeout_seconds=0.5, **FAST),
        )
        assert report.values == baseline.values
        assert report.timeouts == 1 and report.worker_losses == 1

    def test_poison_task_quarantined_not_fatal(self, tmp_path):
        items = _items(4, tmp_path, seed=9, bad=3, fail=99, kind="error")
        baseline = pmap_report(_seeded_draw, items, workers=1)
        metrics = MetricsRegistry()
        report = pmap_report(
            _seeded_faulty, items, workers=2,
            supervision=GroundPolicy(max_attempts=2, **FAST),
            metrics=metrics,
        )
        assert [report.values[i] for i in (0, 1, 2)] == [
            baseline.values[i] for i in (0, 1, 2)
        ]
        assert report.values[3] is None
        assert len(report.quarantined) == 1
        q = report.quarantined[0]
        assert q.index == 3 and q.attempts == 2
        assert "injected fault" in q.error
        assert metrics.snapshot()["counters"]["ground.quarantined"] == 1

    def test_pool_loss_degrades_to_serial(self, tmp_path):
        # Three crashes against a budget of two: attempts 1-3 die in
        # the pool, the serial drain completes attempt 4 in-process.
        items = _items(4, tmp_path, seed=13, bad=1, fail=3, kind="crash")
        baseline = pmap_report(_seeded_draw, items, workers=1)
        report = pmap_report(
            _seeded_faulty, items, workers=2,
            supervision=GroundPolicy(
                max_attempts=6, max_worker_losses=2, **FAST
            ),
        )
        assert report.serial_fallback
        assert report.worker_losses == 3
        assert report.values == baseline.values

    def test_on_result_streams_by_index(self, tmp_path):
        landed = {}
        items = _items(4, tmp_path, seed=1, bad=0, fail=1, kind="error")
        pmap_report(
            _seeded_faulty, items, workers=2,
            supervision=GroundPolicy(**FAST),
            on_result=lambda i, value: landed.__setitem__(i, value),
        )
        assert sorted(landed) == [0, 1, 2, 3]

    def test_ground_events_ride_into_the_trace(self, tmp_path):
        items = _items(3, tmp_path, bad=1, fail=1, kind="error")
        trace = tmp_path / "ground.jsonl"
        report = execute(
            _faulty_campaign(items), workers=2,
            supervision=GroundPolicy(**FAST), trace_path=str(trace),
        ).report
        names = [r.name for r in report.ground_events[1]]
        assert names == ["ground.trial_error", "ground.retry"]
        recorded = [r for r in read_trace(str(trace)) if r.task == 1]
        assert [r.name for r in recorded[:2]] == names


#: The host worker faults a supervised campaign must survive, each
#: fired at trial 2 of six: the fault, how many attempts it fails, the
#: policy's knobs, the quarantined indices, whether the pool degrades
#: to serial, and the nonzero ``ground.*`` counters the run records.
WORKER_FAULTS = [
    pytest.param(
        "crash", 1, {}, [], False,
        {"retries": 1, "worker_crashes": 1, "worker_losses": 1},
        id="worker-crash",
    ),
    pytest.param(
        "hang", 1, {"timeout_seconds": 0.75}, [], False,
        {"retries": 1, "timeouts": 1, "worker_losses": 1},
        id="worker-hang",
    ),
    pytest.param(
        "error", 2, {}, [], False,
        {"retries": 2, "trial_errors": 2},
        id="transient-error",
    ),
    pytest.param(
        "error", 99, {}, [2], False,
        {"quarantined": 1, "retries": 2, "trial_errors": 3},
        id="poison-trial",
    ),
    # Three crashes against a loss budget of two: the serial drain
    # completes attempt 4 in-process.
    pytest.param(
        "crash", 3, {"max_attempts": 6, "max_worker_losses": 2}, [], True,
        {"retries": 3, "serial_fallback": 1, "worker_crashes": 3,
         "worker_losses": 3},
        id="pool-loss",
    ),
]


class TestSupervisedCampaign:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "kind, fail, knobs, quarantined, fallback, counters", WORKER_FAULTS
    )
    def test_survives_host_worker_fault(
        self, tmp_path, workers, kind, fail, knobs, quarantined, fallback,
        counters,
    ):
        items = _items(6, tmp_path, bad=2, fail=fail, kind=kind)
        clean = TrialStore(tmp_path / "clean")
        baseline = execute(_faulty_campaign(items, _draw), store=clean)
        store = TrialStore(tmp_path / "faulted")
        metrics = MetricsRegistry()
        policy = GroundPolicy(**{"timeout_seconds": 10.0, **knobs}, **FAST)
        result = execute(
            _faulty_campaign(items), workers=workers, store=store,
            supervision=policy, metrics=metrics,
        )
        # The survivors' values and store bytes are the fault-free
        # run's; a quarantined trial is None and never stored.
        assert result.values == [
            None if i in quarantined else value
            for i, value in enumerate(baseline.values)
        ]
        lost = {f"{baseline.specs[i].fingerprint}.json" for i in quarantined}
        assert store_listing(store.root) == [
            entry for entry in store_listing(clean.root) if entry[0] not in lost
        ]
        assert [q.index for q in result.quarantined] == quarantined
        assert result.report.serial_fallback is fallback
        recorded = {
            name.removeprefix("ground."): int(value)
            for name, value in metrics.snapshot()["counters"].items()
            if name.startswith("ground.") and name != "ground.tasks" and value
        }
        assert recorded == counters

    def _baseline(self, tmp_path):
        camp = Campaign(
            name="ground-exec",
            trial_fn=_draw,
            trials=[
                Trial(params={"i": i}, item={"i": i}) for i in range(4)
            ],
            seed=21,
        )
        return execute(camp, workers=1)

    def test_quarantine_carries_campaign_identity(self, tmp_path):
        camp = Campaign(
            name="ground-exec",
            trial_fn=_faulty,
            trials=[
                Trial(
                    params={"i": i},
                    item=_items(4, tmp_path, bad=2, fail=99)[i],
                )
                for i in range(4)
            ],
            seed=21,
        )
        store = TrialStore(tmp_path / "store")
        metrics = MetricsRegistry()
        result = execute(
            camp, workers=2, store=store, metrics=metrics,
            supervision=GroundPolicy(max_attempts=2, **FAST),
        )
        baseline = self._baseline(tmp_path)
        assert len(result.quarantined) == 1
        q = result.quarantined[0]
        assert isinstance(q, QuarantinedTrial)
        assert q.index == 2 and q.params == {"i": 2}
        assert q.fingerprint == result.specs[2].fingerprint
        assert result.values[2] is None
        assert [result.values[i] for i in (0, 1, 3)] == [
            baseline.values[i] for i in (0, 1, 3)
        ]
        # The quarantined trial is NOT in the store: a later healthy
        # run re-executes it rather than trusting a missing result.
        assert store.get(q.fingerprint) is None
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.trials.quarantined"] == 1
        manifest = quarantine_manifest(result)
        assert manifest["campaign"] == "ground-exec"
        assert manifest["quarantined"][0]["index"] == 2

    def test_healthy_rerun_completes_the_quarantined_trial(self, tmp_path):
        faulted = Campaign(
            name="ground-exec",
            trial_fn=_faulty,
            trials=[
                Trial(
                    params={"i": i},
                    item=_items(4, tmp_path, bad=2, fail=99)[i],
                )
                for i in range(4)
            ],
            seed=21,
        )
        store = TrialStore(tmp_path / "store")
        execute(
            faulted, workers=2, store=store,
            supervision=GroundPolicy(max_attempts=2, **FAST),
        )
        clean = Campaign(
            name="ground-exec",
            trial_fn=_draw,
            trials=[
                Trial(params={"i": i}, item={"i": i}) for i in range(4)
            ],
            seed=21,
        )
        resumed = execute(clean, workers=1, store=store)
        assert resumed.store_hits == 3 and resumed.executed == 1
        assert resumed.values == self._baseline(tmp_path).values
        assert not resumed.quarantined


# ----------------------------------------------------------------------
# store integrity
# ----------------------------------------------------------------------
FP = "ab" + "0" * 62


def _entry(result=1) -> dict:
    return {"schema": STORE_SCHEMA, "fingerprint": FP, "result": result}


class TestStoreIntegrity:
    def test_put_stamps_a_valid_checksum(self, tmp_path):
        store = TrialStore(tmp_path)
        store.put(FP, _entry())
        on_disk = json.loads(store.path(FP).read_text())
        assert on_disk["checksum"] == entry_checksum(on_disk)

    def test_truncated_entry_quarantined_and_counted(self, tmp_path):
        store = TrialStore(tmp_path)
        store.put(FP, _entry())
        path = store.path(FP)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get(FP) is None
        assert store.counters["corrupt"] == 1
        assert store.counters["quarantined"] == 1
        assert list(store.quarantine_dir.glob("*.json"))
        assert not path.exists()  # moved aside, not left to rot

    def test_flipped_byte_fails_the_checksum(self, tmp_path):
        store = TrialStore(tmp_path)
        store.put(FP, _entry(result=[1, 2, 3]))
        path = store.path(FP)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning):
            assert store.get(FP) is None
        assert store.counters["corrupt"] == 1

    def test_wrong_schema_is_stale(self, tmp_path):
        store = TrialStore(tmp_path)
        path = store.path(FP)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": 1, "result": 1}))
        with pytest.warns(RuntimeWarning, match="stale"):
            assert store.get(FP) is None
        assert store.counters["stale"] == 1

    def test_non_dict_payload_is_corrupt(self, tmp_path):
        store = TrialStore(tmp_path)
        path = store.path(FP)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get(FP) is None
        assert store.counters["corrupt"] == 1

    def test_unreadable_entry_counted_not_crashed(self, tmp_path, monkeypatch):
        store = TrialStore(tmp_path)
        store.put(FP, _entry())
        target = store.path(FP)
        real_open = Path.open

        def deny(self, *args, **kwargs):
            if self == target:
                raise OSError(errno.EACCES, "Permission denied")
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", deny)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert store.get(FP) is None
        assert store.counters["unreadable"] == 1

    def test_concurrent_puts_leave_one_complete_entry(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            pool.map(
                _concurrent_put, [(str(tmp_path), i) for i in range(12)]
            )
        store = TrialStore(tmp_path)
        entry = store.get(FP)
        # Whatever write won, the surviving file is complete and
        # checksum-valid — atomic rename forbids interleaving.
        assert entry is not None
        assert entry["checksum"] == entry_checksum(entry)
        assert not list(tmp_path.glob("??/.*.tmp"))

    def test_enospc_becomes_store_write_error(self, tmp_path, monkeypatch):
        store = TrialStore(tmp_path)

        def full_disk(path, entry):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store, "_write_entry", full_disk)
        with pytest.raises(StoreWriteError, match="resume"):
            store.put(FP, _entry())

    def test_other_oserrors_pass_through(self, tmp_path, monkeypatch):
        store = TrialStore(tmp_path)

        def io_error(path, entry):
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setattr(store, "_write_entry", io_error)
        with pytest.raises(OSError) as excinfo:
            store.put(FP, _entry())
        assert not isinstance(excinfo.value, StoreWriteError)

    def test_verify_scrub_and_stats(self, tmp_path):
        store = TrialStore(tmp_path)
        good_fp = "cd" + "2" * 62
        store.put(FP, _entry())
        store.put(good_fp, {"schema": STORE_SCHEMA, "campaign": "x", "result": 2})
        bad = store.path(FP)
        bad.write_text(bad.read_text()[:-4])

        verify = store.verify()
        assert verify.total == 2 and verify.ok == 1
        assert verify.corrupt == [FP] and not verify.clean
        assert bad.exists()  # verify is read-only

        scrub = store.scrub()
        assert scrub.quarantined == 1 and not bad.exists()

        stats = store.stats()
        assert stats["entries"] == 1 and stats["quarantined"] == 1
        assert stats["campaigns"] == {"x": 1}
        assert stats["counters"]["corrupt"] == 1

    def test_status_surfaces_corruption_as_pending(self, tmp_path):
        camp = Campaign(
            name="rot",
            trial_fn=_draw,
            trials=[Trial(params={"i": i}, item={"i": i}) for i in range(3)],
            seed=4,
        )
        store = TrialStore(tmp_path)
        baseline = execute(camp, workers=1, store=store)
        victim = store.path(baseline.specs[1].fingerprint)
        victim.write_text("{torn")
        with pytest.warns(RuntimeWarning):
            st = status(camp, store)
        assert st.completed == 2 and st.corrupt == 1 and st.pending == 1
        # The re-run executes exactly the rotten trial, byte-identically.
        resumed = execute(camp, workers=1, store=store)
        assert resumed.executed == 1 and resumed.store_hits == 2
        assert resumed.values == baseline.values


def _concurrent_put(args):
    root, payload = args
    TrialStore(root).put(
        FP, {"schema": STORE_SCHEMA, "fingerprint": FP, "result": payload}
    )
    return True


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestGroundObservability:
    def test_ground_events_open_an_incident_chain(self, tmp_path):
        items = _items(3, tmp_path, bad=1, fail=1, kind="error")
        trace = tmp_path / "t.jsonl"
        execute(
            _faulty_campaign(items), workers=2,
            supervision=GroundPolicy(**FAST), trace_path=str(trace),
        )
        records = [r for r in read_trace(str(trace)) if r.task == 1]
        assert has_incident_chain(records)
        rendered = summarize_records(records, source="t.jsonl")
        assert "ground.trial_error" in rendered
        assert "ground.retry" in rendered
        assert "! detect" in rendered and "✓ recover" in rendered
