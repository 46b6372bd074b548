"""Tests for ``repro.obs``: tracing, metrics, incident summaries."""

import pytest

from repro.campaign import Campaign, Trial, execute
from repro.errors import ConfigurationError
from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    Observability,
    TraceRecord,
    TraceRecorder,
    merge_task_records,
    read_trace,
    summarize_records,
    write_records,
)
from repro.obs.metrics import Histogram
from repro.obs.summarize import has_incident_chain


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


class TestTraceRecord:
    def test_span_needs_duration(self):
        with pytest.raises(ConfigurationError):
            TraceRecord(t=0.0, kind="span", name="x")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceRecord(t=0.0, kind="blip", name="x")

    def test_to_dict_omits_absent_fields(self):
        record = TraceRecord(t=1.0, kind="event", name="a.b")
        assert record.to_dict() == {"t": 1.0, "kind": "event", "name": "a.b"}

    def test_json_roundtrip(self):
        import json

        record = TraceRecord(
            t=2.5, kind="span", name="emr.run", dur=0.25,
            attrs={"scheme": "emr", "jobs": 9}, task=3,
        )
        assert TraceRecord.from_dict(json.loads(record.json_line())) == record

    def test_json_line_is_sorted_and_compact(self):
        line = TraceRecord(t=1.0, kind="event", name="z",
                           attrs={"b": 1, "a": 2}).json_line()
        assert line.index('"kind"') < line.index('"name"') < line.index('"t"')
        assert ": " not in line


class TestTraceRecorder:
    def test_event_and_span_order(self):
        tracer = TraceRecorder()
        tracer.event("inject.seu", t=1.0, bits=1)
        tracer.span("emr.run", t=0.0, dur=2.0)
        kinds = [(r.kind, r.name) for r in tracer.records()]
        assert kinds == [("event", "inject.seu"), ("span", "emr.run")]
        assert tracer.emitted == 2

    def test_clock_supplies_default_timestamp(self):
        tracer = TraceRecorder(clock=_Clock(7.25))
        tracer.event("sel.detection")
        assert tracer.records()[0].t == 7.25

    def test_ring_wraparound_keeps_newest(self):
        tracer = TraceRecorder(ring_size=4)
        for i in range(10):
            tracer.event("tick", t=float(i))
        kept = [r.t for r in tracer.records()]
        assert kept == [6.0, 7.0, 8.0, 9.0]
        assert tracer.emitted == 10  # eviction doesn't lose the count

    def test_invalid_ring_size(self):
        with pytest.raises(ConfigurationError):
            TraceRecorder(ring_size=0)

    def test_disabled_recorder_is_noop(self):
        tracer = TraceRecorder(enabled=False)
        tracer.event("x", t=0.0)
        tracer.span("y", t=0.0, dur=1.0)
        with tracer.measure("z"):
            pass
        assert tracer.records() == ()
        assert tracer.emitted == 0

    def test_null_obs_is_disabled(self):
        assert not NULL_OBS.enabled
        assert Observability.off() is NULL_OBS
        assert Observability.on().enabled

    def test_measure_spans_clock_advance(self):
        clock = _Clock(10.0)
        tracer = TraceRecorder(clock=clock)
        with tracer.measure("emr.run", scheme="emr"):
            clock.now = 12.5
        (record,) = tracer.records()
        assert record.kind == "span"
        assert record.t == 10.0
        assert record.dur == 2.5
        assert record.attrs == {"scheme": "emr"}

    def test_sink_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(sink=path) as tracer:
            tracer.event("inject.seu", t=0.5, target="dram")
            tracer.span("emr.run", t=0.0, dur=1.5)
        loaded = read_trace(path)
        assert [r.name for r in loaded] == ["inject.seu", "emr.run"]
        assert loaded[0].attrs == {"target": "dram"}

    def test_read_trace_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0.0, "kind": "event", "name": "ok"}\nnot json\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
            read_trace(path)


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("emr.votes")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1.0)
        gauge.set(0.25)
        assert gauge.value == 0.25

    def test_histogram_bucket_edges(self):
        # Prometheus `le` semantics: a value on a bound lands in that
        # bound's bucket; above the last bound is the overflow bucket.
        histogram = Histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 2.5):
            histogram.observe(value)
        assert histogram.counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.min == 0.5 and histogram.max == 2.5
        assert histogram.mean == pytest.approx(7.5 / 5)

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=())

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert "a" in registry and len(registry) == 1

    def test_registry_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")

    def test_histogram_bound_conflict(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h", bounds=(1.0, 3.0))

    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2.0)
        registry.gauge("g").set(0.5)
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        assert list(snapshot["counters"]) == ["a", "b"]  # sorted
        assert snapshot["histograms"]["h"]["counts"] == [1, 0]
        import json

        json.dumps(snapshot)  # JSON-safe by contract


def _chain_records():
    return [
        TraceRecord(t=0.01, kind="event", name="inject.seu",
                    attrs={"target": "l2-cache", "bits": 1}, task=0),
        TraceRecord(t=0.01, kind="event", name="emr.corruption",
                    attrs={"ds": 2}, task=0),
        TraceRecord(t=0.03, kind="event", name="emr.vote",
                    attrs={"ds": 2, "status": "corrected"}, task=0),
        TraceRecord(t=0.04, kind="event", name="campaign.outcome",
                    attrs={"scheme": "emr", "outcome": "corrected"}, task=0),
    ]


class TestSummarize:
    def test_chain_detected(self):
        assert has_incident_chain(_chain_records())

    def test_injection_without_detection_is_not_a_chain(self):
        records = [_chain_records()[0]]
        assert not has_incident_chain(records)

    def test_detection_before_injection_is_not_a_chain(self):
        records = list(reversed(_chain_records()))
        assert not has_incident_chain(records)

    def test_render_shows_stages_and_scheme(self):
        text = summarize_records(_chain_records(), source="t.jsonl")
        assert "incident chains (injection → detection): 1 of 1" in text
        assert "scheme=emr" in text
        assert "⚡ inject" in text and "✓ recover" in text and "= outcome" in text

    def test_render_without_chains(self):
        records = [TraceRecord(t=0.0, kind="event", name="emr.vote",
                               attrs={"status": "unanimous"})]
        text = summarize_records(records)
        assert "no injection→detection chains" in text

    def test_max_tasks_elides(self):
        records = []
        for task in range(5):
            records.extend(r.with_task(task) for r in _chain_records())
        text = summarize_records(records, max_tasks=2)
        assert "3 more chain(s) elided" in text

    def test_supervised_recovery_names_classify_as_recovery(self):
        from repro.obs.summarize import RECOVERY_NAMES, _stage

        for name in (
            "watchdog.reboot",
            "recovery.rollback",
            "recovery.replay",
            "emr.degrade",
            "sel.power_cycle",
        ):
            assert name in RECOVERY_NAMES
            record = TraceRecord(t=0.0, kind="event", name=name)
            assert _stage(record) == "recovery", name

    def test_supervised_chain_renders_recovery_stages(self):
        records = [
            TraceRecord(t=0.0, kind="event", name="inject.sel",
                        attrs={"delta_amps": 0.1}, task=0),
            TraceRecord(t=2.0, kind="event", name="ild.detection",
                        attrs={}, task=0),
            TraceRecord(t=3.0, kind="event", name="sel.power_cycle",
                        attrs={"attempt": 1}, task=0),
            TraceRecord(t=4.0, kind="event", name="recovery.rollback",
                        attrs={}, task=0),
            TraceRecord(t=5.0, kind="event", name="recovery.replay",
                        attrs={"ok": True}, task=0),
        ]
        assert has_incident_chain(records)
        text = summarize_records(records)
        assert "! detect" in text and "✓ recover" in text


def _traced_task(item, rng, tracer):
    """Toy traced task: deterministic function of (item, rng stream)."""
    draw = round(float(rng.random()), 9)
    tracer.event("toy.draw", t=float(item), value=draw)
    tracer.span("toy.work", t=float(item), dur=0.5, item=int(item))
    return draw


class TestMergeDeterminism:
    def test_merge_stamps_task_indices(self, tmp_path):
        path = tmp_path / "merged.jsonl"
        lists = [
            [TraceRecord(t=0.0, kind="event", name="a")],
            [],
            [TraceRecord(t=1.0, kind="event", name="b")],
        ]
        assert merge_task_records(lists, path) == 2
        loaded = read_trace(path)
        assert [(r.name, r.task) for r in loaded] == [("a", 0), ("b", 2)]

    def test_trace_bytes_identical_across_workers(self, tmp_path):
        camp = Campaign(
            name="obs-trace",
            trial_fn=_traced_task,
            trials=[Trial(params={"i": i}, item=i) for i in range(12)],
            seed=5,
        )
        serial_path = tmp_path / "serial.jsonl"
        pooled_path = tmp_path / "pooled.jsonl"
        serial = execute(camp, workers=1, trace_path=str(serial_path))
        pooled = execute(camp, workers=2, force_pool=True,
                         trace_path=str(pooled_path))
        assert serial.values == pooled.values
        assert serial_path.read_bytes() == pooled_path.read_bytes()
        assert {r.task for r in read_trace(serial_path)} == set(range(12))

    def test_write_records_counts(self, tmp_path):
        path = tmp_path / "w.jsonl"
        assert write_records(_chain_records(), path) == 4


@pytest.mark.slow
class TestCampaignTraceDeterminism:
    def test_table7_trace_identical_at_any_worker_count(self, tmp_path):
        from repro.experiments import run_experiment
        from repro.experiments.table7_fault_injection import campaign
        from repro.obs.summarize import has_incident_chain
        from repro.workloads import ImageProcessingWorkload

        workload = ImageProcessingWorkload(
            map_size=48, template_size=16, stride=16
        )
        paths = {}
        for workers in (1, 4):
            path = tmp_path / f"w{workers}.jsonl"
            run_experiment(
                campaign(runs_per_scheme=4, workload=workload),
                workers=workers, trace_path=str(path),
            )
            paths[workers] = path.read_bytes()
        assert paths[1] == paths[4]

        records = read_trace(tmp_path / "w1.jsonl")
        tasks = {}
        for record in records:
            tasks.setdefault(record.task, []).append(record)
        assert any(has_incident_chain(recs) for recs in tasks.values())
