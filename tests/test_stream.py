"""Round-based trial streams: the adaptive-campaign execution core.

The properties that keep streams safe to build on:

* **Grid equivalence** — a static grid drained through the stream
  core (``GridSource``) is byte-identical to the one-shot executor,
  down to the serialized store entries (hypothesis-checked).
* **Path independence** — a multi-round source whose every round
  depends on the previous round's outcome digest produces identical
  results serial, pooled, and resumed from a partial store — even a
  store truncated mid-round.
* **Quarantine interplay** — a poison trial quarantined mid-stream
  still yields a deterministic digest (the slot participates as
  ``null``), and the stream stamps the round ordinal on the
  quarantine record.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    Campaign,
    Diverged,
    GridSource,
    StreamHistory,
    Trial,
    TrialStore,
    canonical_json,
    execute,
    execute_stream,
    replay_round,
    round_seed,
    status,
    stream_status,
    trial_rng,
    values_digest,
)
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry


def _seeded_trial(item, rng, tracer=None):
    return {"draw": float(rng.random()), "scale": item}


def _grid(n=4, seed=7, name="stream-grid") -> Campaign:
    return Campaign(
        name=name,
        trial_fn=_seeded_trial,
        trials=[Trial(params={"i": i}, item=i) for i in range(n)],
        seed=seed,
        context={"flavour": "stream"},
    )


def _store_bytes(store: TrialStore) -> "dict[str, bytes]":
    root = store.root
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.glob("??/*.json"))
    }


class TestDigests:
    def test_values_digest_is_canonical(self):
        a = values_digest([{"x": 1, "y": 2}, None])
        b = values_digest([{"y": 2, "x": 1}, None])
        assert a == b
        assert a != values_digest([{"x": 1, "y": 3}, None])

    def test_round_seed_mixes_everything(self):
        base = round_seed(7, 0, "d0")
        assert round_seed(7, 0, "d0") == base
        assert round_seed(8, 0, "d0") != base
        assert round_seed(7, 1, "d0") != base
        assert round_seed(7, 0, "d1") != base
        assert 0 <= base < 1 << 64

    def test_empty_history_digest_is_uniform(self):
        assert StreamHistory().digest == values_digest([])


class TestGridEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_stream_matches_one_shot_executor(self, n, seed, tmp_path_factory):
        camp = _grid(n=n, seed=seed)
        legacy = execute(_grid(n=n, seed=seed))
        stream = execute_stream(GridSource(camp))
        assert stream.exhausted and len(stream.rounds) == 1
        assert stream.values == legacy.values
        fps = [s.fingerprint for s in stream.specs]
        assert fps == [s.fingerprint for s in legacy.specs]

        # Same bytes on disk, file for file.
        tmp = tmp_path_factory.mktemp("grid-eq")
        legacy_store = TrialStore(tmp / "legacy")
        stream_store = TrialStore(tmp / "stream")
        execute(_grid(n=n, seed=seed), store=legacy_store)
        execute_stream(GridSource(_grid(n=n, seed=seed)), store=stream_store)
        assert _store_bytes(stream_store) == _store_bytes(legacy_store)

    def test_grid_source_emits_exactly_one_round(self):
        src = GridSource(_grid())
        first = src.next_round(StreamHistory())
        assert first is src.campaign
        history = StreamHistory()
        result = execute_stream(src)
        history.rounds.extend(result.rounds)
        assert src.next_round(history) is None

    def test_rounds_counter_increments(self):
        metrics = MetricsRegistry()
        execute_stream(GridSource(_grid()), metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.rounds"] == 1


def _chained_trial(item, rng, tracer=None):
    """Payload depends on the trial's pinned rng and the item, which
    itself carries the previous round's digest — so any divergence
    anywhere in the stream cascades into every later value."""
    return {"draw": float(rng.random()), "parent": item}


def _traced_chain(item, rng, tracer=None):
    if tracer is not None:
        tracer.span("trial", t=0.0, dur=1.0, parent=item)
    return {"draw": float(rng.random()), "parent": item}


class ChainedSource:
    """A scripted multi-round source: round k's params embed round
    k-1's digest, the strictest possible dependence on history."""

    def __init__(self, rounds=3, width=4, seed=11, name="chained",
                 trial_fn=_chained_trial):
        self.rounds = rounds
        self.width = width
        self.seed = seed
        self.name = name
        self.trial_fn = trial_fn

    def next_round(self, history: StreamHistory) -> "Campaign | None":
        k = len(history.rounds)
        if k >= self.rounds:
            return None
        rseed = round_seed(self.seed, k, history.digest)
        parent = history.digest[:12]
        return Campaign(
            name=f"{self.name}/round{k:03d}",
            trial_fn=self.trial_fn,
            trials=[
                Trial(params={"round": k, "i": i, "parent": parent},
                      item=parent)
                for i in range(self.width)
            ],
            seed=rseed,
        )


class TestMultiRoundDeterminism:
    def test_round_seeds_descend_from_outcomes(self):
        result = execute_stream(ChainedSource())
        seeds = [r.result.specs[0].seed_root for r in result.rounds]
        assert len(set(seeds)) == len(seeds)
        # Re-derive each round's seed from the prefix digests.
        history = StreamHistory()
        for k, rnd in enumerate(result.rounds):
            assert seeds[k] == round_seed(11, k, history.digest)
            history.rounds.append(rnd)

    def test_serial_pooled_resumed_identical(self, tmp_path):
        serial = execute_stream(ChainedSource())
        pooled = execute_stream(ChainedSource(), workers=2, force_pool=True)
        assert pooled.digest == serial.digest
        assert pooled.values == serial.values

        store = TrialStore(tmp_path / "store")
        first = execute_stream(ChainedSource(), store=store)
        assert first.digest == serial.digest
        # Truncate mid-round: drop the last few entries so the resumed
        # run must finish a round someone else started.
        paths = sorted((tmp_path / "store").glob("??/*.json"))
        for path in paths[-3:]:
            path.unlink()
        resumed = execute_stream(ChainedSource(), store=store)
        assert resumed.digest == serial.digest
        assert resumed.values == serial.values
        assert resumed.executed == 3
        assert resumed.store_hits == serial.trials - 3

    def test_max_rounds_caps_the_drain(self):
        capped = execute_stream(ChainedSource(rounds=3), max_rounds=2)
        assert len(capped.rounds) == 2
        assert not capped.exhausted
        full = execute_stream(ChainedSource(rounds=3))
        assert [r.digest for r in full.rounds[:2]] == \
            [r.digest for r in capped.rounds]

    def test_bad_max_rounds_rejected(self):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            execute_stream(ChainedSource(), max_rounds=0)

    def test_on_round_fires_in_order(self):
        seen = []
        execute_stream(ChainedSource(), on_round=lambda r: seen.append(r.index))
        assert seen == [0, 1, 2]


class TestStreamStatus:
    def test_cold_store(self, tmp_path):
        st_ = stream_status(ChainedSource(), TrialStore(tmp_path))
        assert st_.rounds_complete == 0
        assert st_.trials_stored == 0
        assert st_.current is not None and st_.current.completed == 0
        assert not st_.exhausted

    def test_partial_round_counted(self, tmp_path):
        store = TrialStore(tmp_path)
        result = execute_stream(ChainedSource(), store=store)
        # Drop two entries from the *last* round: the earlier rounds
        # still replay, the final one reports per-trial progress.
        for spec in result.rounds[-1].result.specs[-2:]:
            fp = spec.fingerprint
            (tmp_path / fp[:2] / f"{fp}.json").unlink()
        for fast in (False, True):
            st_ = stream_status(ChainedSource(), store, fast=fast)
            assert not st_.exhausted
            assert st_.rounds_complete == len(result.rounds) - 1
            assert st_.trials_stored == result.trials - 2
            assert st_.current is not None
            assert st_.current.completed == st_.current.total - 2
            assert st_.current.pending == 2

    def test_exhausted_stream(self, tmp_path):
        store = TrialStore(tmp_path)
        result = execute_stream(ChainedSource(), store=store)
        st_ = stream_status(ChainedSource(), store)
        assert st_.exhausted
        assert st_.rounds_complete == len(result.rounds)
        assert st_.trials_stored == result.trials
        assert st_.current is None

    def test_replay_round_requires_full_round(self, tmp_path):
        store = TrialStore(tmp_path)
        camp = _grid()
        assert replay_round(camp, store) is None
        assert replay_round(camp, None) is None
        executed = execute(_grid(), store=store)
        replayed = replay_round(camp, store)
        assert replayed is not None
        result, canonical = replayed
        assert result.values == executed.values
        assert result.executed == 0 and result.store_hits == len(canonical)

    def test_status_replay_matches_live_digests(self, tmp_path):
        store = TrialStore(tmp_path)
        live = execute_stream(ChainedSource(), store=store)
        # stream_status must walk the same round chain the live drain
        # did; a single divergent digest would derail it into a round
        # whose fingerprints the store has never seen.
        st_ = stream_status(ChainedSource(), store)
        assert st_.rounds_complete == len(live.rounds)
        assert st_.exhausted


def _poison_trial(item, rng, tracer=None):
    if item == "poison":
        raise ValueError("planted failure")
    return {"ok": item}


class PoisonSource:
    """Round 0 contains one poison trial; round 1's params embed the
    digest round 0 reached *with the quarantined slot as null*."""

    name = "poison-stream"

    def next_round(self, history: StreamHistory) -> "Campaign | None":
        k = len(history.rounds)
        if k >= 2:
            return None
        items = ["a", "poison", "b"] if k == 0 else ["c", "d"]
        return Campaign(
            name=f"{self.name}/round{k:03d}",
            trial_fn=_poison_trial,
            trials=[
                Trial(params={"round": k, "i": i, "parent": history.digest[:8]},
                      item=item)
                for i, item in enumerate(items)
            ],
            seed=round_seed(3, k, history.digest),
        )


def _odd_lanes_diverge(items, rngs):
    """Lockstep stand-in for ``_seeded_trial``: even lanes draw in the
    batch, odd lanes peel back to the scalar path."""
    return [
        Diverged("odd") if item % 2 else
        {"draw": float(rng.random()), "scale": item}
        for item, rng in zip(items, rngs)
    ]


def _poison_lanes_diverge(items, rngs):
    """Lockstep stand-in for ``_poison_trial``: the poison lane peels
    back to the scalar path, which raises."""
    return [
        Diverged("poison") if item == "poison" else {"ok": item}
        for item in items
    ]


class TestQuarantineInterplay:
    def test_quarantined_slot_digests_as_null(self):
        from repro.ground import GroundPolicy

        policy = GroundPolicy(max_attempts=1)
        result = execute_stream(PoisonSource(), supervision=policy)
        assert result.exhausted and len(result.rounds) == 2
        assert [q.index for q in result.quarantined] == [1]
        assert [q.round for q in result.quarantined] == [0]
        assert "planted failure" in result.quarantined[0].error
        values = result.values
        assert values[1] is None
        assert [v for v in values if v is not None] == [
            {"ok": "a"}, {"ok": "b"}, {"ok": "c"}, {"ok": "d"},
        ]
        # Same quarantine pattern => same digests, any worker count.
        pooled = execute_stream(
            PoisonSource(), supervision=policy, workers=2, force_pool=True
        )
        assert pooled.digest == result.digest

    def test_quarantine_round_stamp_survives_to_dict(self):
        from repro.ground import GroundPolicy

        result = execute_stream(
            PoisonSource(), supervision=GroundPolicy(max_attempts=1)
        )
        record = result.quarantined[0].to_dict()
        assert record["round"] == 0
        # Single-round campaign results keep the historical manifest
        # shape: no round key unless a stream stamped one.
        raw = result.rounds[0].result.quarantined[0].to_dict()
        assert "round" not in raw

    def test_batched_supervised_matches_batched(self, tmp_path):
        from repro.ground import GroundPolicy

        plain = TrialStore(tmp_path / "plain")
        supervised = TrialStore(tmp_path / "supervised")
        batched = replace(_grid(), batch_fn=_odd_lanes_diverge)
        a = execute(batched, store=plain)
        b = execute(batched, store=supervised, supervision=GroundPolicy())
        assert a.values == b.values == execute(_grid()).values
        assert _store_bytes(plain) == _store_bytes(supervised)
        assert len(b.report.timings) == 3  # the group, then two diverged lanes

    def test_poison_diverged_lane_quarantined_under_grid_index(self):
        from repro.ground import GroundPolicy

        camp = Campaign(
            name="poison-batch",
            trial_fn=_poison_trial,
            trials=[
                Trial(params={"i": i}, item=item)
                for i, item in enumerate(["a", "b", "poison", "c"])
            ],
            seed=3,
            batch_fn=_poison_lanes_diverge,
        )
        result = execute(camp, supervision=GroundPolicy(max_attempts=1))
        assert [q.index for q in result.quarantined] == [2]
        assert result.quarantined[0].params == {"i": 2}
        assert result.values == [{"ok": "a"}, {"ok": "b"}, None, {"ok": "c"}]
        assert result.executed == 3

    def test_traced_run_calls_trial_fn_per_trial(self, tmp_path):
        calls = []

        def counted(item, rng, tracer=None):
            calls.append(item)
            if tracer is not None:
                tracer.span("trial", t=0.0, dur=1.0, item=item)
            return _seeded_trial(item, rng, tracer)

        def batch_fn(items, rngs):
            raise AssertionError("a traced round ran the batch function")

        camp = replace(_grid(), trial_fn=counted, batch_fn=batch_fn)
        declared = TrialStore(tmp_path / "declared")
        traced = execute(
            camp, store=declared, trace_path=str(tmp_path / "declared.jsonl")
        )
        assert calls == [0, 1, 2, 3]
        scalar = TrialStore(tmp_path / "scalar")
        reference = execute(
            replace(camp, batch_fn=None), store=scalar,
            trace_path=str(tmp_path / "scalar.jsonl"),
        )
        assert traced.values == reference.values
        assert _store_bytes(declared) == _store_bytes(scalar)
        assert (tmp_path / "declared.jsonl").read_bytes() == (
            tmp_path / "scalar.jsonl"
        ).read_bytes()


class TestTraceThroughStream:
    def test_one_merged_trace_across_rounds(self, tmp_path):
        trace = tmp_path / "stream.jsonl"
        result = execute_stream(
            ChainedSource(trial_fn=_traced_chain), trace_path=str(trace)
        )
        from repro.obs import read_trace

        records = read_trace(str(trace))
        # One span per trial, merged across every round into one file.
        assert len(records) == result.trials

    def test_grid_trace_matches_one_shot(self, tmp_path):
        def traced(item, rng, tracer=None):
            if tracer is not None:
                tracer.span("trial", t=0.0, dur=1.0, item=item)
            return item

        camp_a = Campaign(
            name="traced", trial_fn=traced,
            trials=[Trial(params={"i": i}, item=i) for i in range(3)],
        )
        camp_b = Campaign(
            name="traced", trial_fn=traced,
            trials=[Trial(params={"i": i}, item=i) for i in range(3)],
        )
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        execute(camp_a, trace_path=str(a))
        execute_stream(GridSource(camp_b), trace_path=str(b))
        assert a.read_bytes() == b.read_bytes()
