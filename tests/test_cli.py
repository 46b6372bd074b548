"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json

import pytest

from repro.__main__ import build_parser, main
from repro.campaign import STORE_SCHEMA, TrialStore
from repro.ground import GroundPolicy


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig11" in out and "ablation:" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "table4"]) == 0
        out = capsys.readouterr().out
        assert "75%" in out

    def test_run_to_file(self, tmp_path):
        target = tmp_path / "out.txt"
        assert main(["run", "table5", "--out", str(target)]) == 0
        assert "Replicate key" in target.read_text()

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_unknown_environment(self):
        with pytest.raises(SystemExit):
            main(["mission", "--environment", "venus"])

    def test_run_writes_a_trace_for_any_experiment(self, tmp_path, capsys):
        from repro.obs import read_trace

        path = tmp_path / "t.jsonl"
        assert main(["run", "table4", "--trace", str(path)]) == 0
        assert f"wrote trace: {path}" in capsys.readouterr().out
        assert path.exists() and read_trace(path) == []

    def test_module_name_alias_resolves(self, capsys):
        assert main(["run", "table4_protected_area"]) == 0
        assert "75%" in capsys.readouterr().out

    def test_trace_summarize(self, capsys, tmp_path):
        from repro.obs import TraceRecord, write_records

        path = tmp_path / "t.jsonl"
        write_records(
            [
                TraceRecord(t=0.01, kind="event", name="inject.seu",
                            attrs={"target": "dram", "bits": 1}, task=0),
                TraceRecord(t=0.02, kind="event", name="emr.fault",
                            attrs={"ds": 1, "scheme": "emr"}, task=0),
                TraceRecord(t=0.05, kind="event", name="toy.noise", task=1),
            ],
            path,
        )
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "incident chains (injection → detection): 1 of 2" in out
        assert "inject.seu" in out

        assert main(["trace", "summarize", str(path), "--task", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 task(s)" in out

        with pytest.raises(SystemExit, match="no records for task"):
            main(["trace", "summarize", str(path), "--task", "7"])

    def test_mission_smoke(self, capsys, tmp_path):
        csv_path = tmp_path / "log.csv"
        code = main([
            "mission", "--days", "0.05", "--environment", "sea-level",
            "--csv", str(csv_path),
        ])
        assert code == 0
        assert "survived: True" in capsys.readouterr().out
        assert csv_path.read_text().startswith("mission_time_s")


# Every leaf command's options: flag (or positional dest) ->
# (default, required, choices, type name). Walks the real parser, so
# any drift in the declared surface shows up here.
SURFACE = {
    "adaptive run": {
        "--epsilon": (None, False, None, "float"),
        "--json": (False, False, None, None),
        "--max-rounds": (None, False, None, "int"),
        "--seed": (0, False, None, "int"),
        "--store": (None, False, None, None),
        "--surface": ("smoke", False, ("smoke", "table7"), None),
        "--target-width": (None, False, None, "float"),
        "--trace": (None, False, None, None),
        "--uniform": (False, False, None, None),
        "--wave": (None, False, None, "int"),
        "--workers": (None, False, None, "_worker_count"),
    },
    "adaptive status": {
        "--epsilon": (None, False, None, "float"),
        "--fast": (False, False, None, None),
        "--json": (False, False, None, None),
        "--max-rounds": (None, False, None, "int"),
        "--seed": (0, False, None, "int"),
        "--store": (None, True, None, None),
        "--surface": ("smoke", False, ("smoke", "table7"), None),
        "--target-width": (None, False, None, "float"),
        "--uniform": (False, False, None, None),
        "--wave": (None, False, None, "int"),
    },
    "campaign resume": {
        "--max-attempts": (3, False, None, "int"),
        "--metrics": (False, False, None, None),
        "--out": (None, False, None, None),
        "--store": (None, True, None, None),
        "--supervised": (False, False, None, None),
        "--timeout": (None, False, None, "float"),
        "--trace": (None, False, None, None),
        "--workers": (None, False, None, "_worker_count"),
        "campaign": (None, True, None, None),
    },
    "campaign run": {
        "--max-attempts": (3, False, None, "int"),
        "--metrics": (False, False, None, None),
        "--out": (None, False, None, None),
        "--store": (None, True, None, None),
        "--supervised": (False, False, None, None),
        "--timeout": (None, False, None, "float"),
        "--trace": (None, False, None, None),
        "--workers": (None, False, None, "_worker_count"),
        "campaign": (None, True, None, None),
    },
    "campaign status": {
        "--fast": (False, False, None, None),
        "--store": (None, True, None, None),
        "campaign": (None, True, None, None),
    },
    "chaos list": {},
    "chaos run": {
        "--scenario": (None, False, None, None),
        "--seed": (0, False, None, "int"),
        "--store": (None, False, None, None),
        "--trace": (None, False, None, None),
        "--workers": (None, False, None, "_worker_count"),
    },
    "faults census": {
        "--json": (False, False, None, None),
        "--seed": (0, False, None, "int"),
        "--warm": (False, False, None, None),
    },
    "fleet bench": {
        "--dt": (1.0, False, None, "float"),
        "--machines": (1000, False, None, "int"),
        "--seed": (0, False, None, "int"),
        "--ticks": (3600, False, None, "int"),
        "--utilization": (0.5, False, None, "float"),
    },
    "fleet presets": {},
    "fleet report": {
        "--report": (None, False, None, None),
        "--spec": (None, True, None, None),
        "--store": (None, True, None, None),
    },
    "fleet run": {
        "--metrics": (False, False, None, None),
        "--no-batch": (False, False, None, None),
        "--report": (None, False, None, None),
        "--spec": (None, True, None, None),
        "--store": (None, False, None, None),
        "--supervised": (False, False, None, None),
        "--timeout": (None, False, None, "float"),
        "--workers": (None, False, None, "_worker_count"),
    },
    "fleet status": {
        "--spec": (None, True, None, None),
        "--store": (None, True, None, None),
    },
    "hmr modes": {},
    "hmr sweep": {
        "--json": (False, False, None, None),
        "--out": (None, False, None, None),
        "--scale": (1, False, None, "int"),
        "--seed": (7, False, None, "int"),
        "--store": (None, False, None, None),
        "--verify": (False, False, None, None),
        "--workers": (1, False, None, "_worker_count"),
    },
    "list": {},
    "mission": {
        "--csv": (None, False, None, None),
        "--days": (1.0, False, None, "float"),
        "--environment": ("low-earth-orbit", False, None, None),
        "--no-emr": (False, False, None, None),
        "--no-ild": (False, False, None, None),
        "--seed": (0, False, None, "int"),
        "--supervised": (False, False, None, None),
    },
    "run": {
        "--metrics": (False, False, None, None),
        "--out": (None, False, None, None),
        "--store": (None, False, None, None),
        "--trace": (None, False, None, None),
        "--workers": (None, False, None, "_worker_count"),
        "experiment": (None, True, None, None),
    },
    "run-all": {
        "--metrics": (False, False, None, None),
        "--no-ablations": (False, False, None, None),
        "--out-dir": (None, False, None, None),
        "--store": (None, False, None, None),
        "--trace-dir": (None, False, None, None),
        "--workers": (None, False, None, "_worker_count"),
    },
    "store scrub": {
        "--store": (None, True, None, None),
    },
    "store stats": {
        "--store": (None, True, None, None),
    },
    "store verify": {
        "--store": (None, True, None, None),
    },
    "trace summarize": {
        "--max-tasks": (20, False, None, "int"),
        "--task": (None, False, None, "int"),
        "file": (None, True, None, None),
    },
}


def _surface(parser) -> dict:
    leaves = {}

    def walk(p, path):
        subs = [a for a in p._actions
                if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            leaves[path] = {
                "/".join(a.option_strings) or a.dest: (
                    a.default, a.required,
                    None if a.choices is None else tuple(a.choices),
                    getattr(a.type, "__name__", None),
                )
                for a in p._actions if not isinstance(a, argparse._HelpAction)
            }
        for action in subs:
            for name, child in action.choices.items():
                walk(child, f"{path} {name}".strip())

    walk(parser, "")
    return leaves


class TestOneRegistry:
    """`run`, `run-all` and `campaign` drive the same registered grids."""

    @pytest.mark.parametrize("name", ["table7", "table2"])
    def test_run_store_is_the_campaign_store(
        self, name, monkeypatch, tmp_path, capsys
    ):
        from repro import experiments
        from repro.experiments import table2_ild_accuracy, table7_fault_injection
        from repro.experiments.common import SelBenchConfig

        small = {
            "table7": lambda: table7_fault_injection.campaign(runs_per_scheme=1),
            "table2": lambda: table2_ild_accuracy.campaign(SelBenchConfig(
                tick=8e-3, episode_seconds=420.0, n_episodes=2,
                training_seconds=700.0,
            )),
        }
        monkeypatch.setattr(experiments, "CAMPAIGNS", {name: small[name]})
        store = str(tmp_path / "store")
        assert main(["run", name, "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", name, "--store", store]) == 0
        total = {"table7": 4, "table2": 2}[name]
        assert f": {total}/{total} trials complete, 0 pending" in (
            capsys.readouterr().out
        )

    def test_run_all_traces_and_meters_ablations_and_extensions(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro import experiments

        monkeypatch.setattr(experiments, "CAMPAIGNS", {
            name: experiments.CAMPAIGNS[name]
            for name in ("table4", "ablation:bubble_cadence",
                         "extension:physics_rates")
        })
        traces = tmp_path / "traces"
        assert main([
            "run-all", "--trace-dir", str(traces), "--metrics",
            "--out-dir", str(tmp_path / "out"),
        ]) == 0
        assert sorted(p.name for p in traces.iterdir()) == [
            "ablation_bubble_cadence.jsonl", "extension_physics_rates.jsonl",
            "table4.jsonl",
        ]
        out = capsys.readouterr().out
        snapshot = json.loads(out[out.index("metrics:") + len("metrics:"):])
        assert snapshot["counters"]["campaign.trials.total"] == 3

    def test_campaign_run_prints_the_report(self, tmp_path, capsys):
        assert main(["campaign", "run", "fig1", "--store", str(tmp_path)]) == 0
        assert "Fig 1: cost of launching" in capsys.readouterr().out


class TestSurface:
    def test_every_leaf_command_is_pinned(self):
        assert _surface(build_parser()) == SURFACE

    @pytest.mark.parametrize(
        "leaf", sorted(leaf for leaf, opts in SURFACE.items() if "--workers" in opts)
    )
    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_workers_below_one_is_a_usage_error(self, leaf, value, capsys):
        # The leaf's required arguments, then the bad worker count.
        argv = leaf.split()
        for flag, (_, required, _, _) in SURFACE[leaf].items():
            if required:
                argv += ["x"] if not flag.startswith("-") else [flag, "x"]
        assert build_parser().parse_args([*argv, "--workers", "1"]).workers == 1
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--workers", value])
        assert exc.value.code == 2
        assert "argument --workers" in capsys.readouterr().err


class _Stop(Exception):
    pass


class TestHandlers:
    @pytest.mark.parametrize("argv", [
        ["adaptive", "run", "--epsilon", "5"],
        ["mission", "--days", "-1"],
        ["fleet", "bench", "--machines", "0"],
    ])
    def test_configuration_error_is_a_one_line_message(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, target, policy", [
        # fleet run takes no --max-attempts: its policy keeps the default.
        (["fleet", "run", "--spec", "smoke"], "repro.fleet.run_fleet",
         GroundPolicy(timeout_seconds=9.0, max_attempts=3)),
        (["campaign", "run", "table4", "--max-attempts", "5"],
         "repro.campaign.execute_stream",
         GroundPolicy(timeout_seconds=9.0, max_attempts=5)),
    ])
    def test_supervision_flags_reach_the_ground_policy(
        self, argv, target, policy, monkeypatch, tmp_path
    ):
        seen = []

        def fake(*args, **kwargs):
            seen.append(kwargs["supervision"])
            raise _Stop

        monkeypatch.setattr(target, fake)
        argv = [*argv, "--store", str(tmp_path)]
        for extra in ([], ["--supervised", "--timeout", "9"]):
            with pytest.raises(_Stop):
                main([*argv, *extra])
        assert seen == [None, policy]


class TestStoreCli:
    @pytest.mark.parametrize("verb", ["verify", "scrub", "stats"])
    def test_missing_store_is_an_error_and_creates_nothing(
        self, verb, tmp_path, capsys
    ):
        missing = tmp_path / "no-such-store"
        assert main(["store", verb, "--store", str(missing)]) == 2
        assert "error: no trial store at" in capsys.readouterr().err
        assert not missing.exists()

    def test_verify_scrub_stats(self, tmp_path, capsys):
        root = tmp_path / "store"
        store = TrialStore(root)
        good, bad = "ab" + "0" * 62, "cd" + "1" * 62
        for fp in (good, bad):
            store.put(fp, {"schema": STORE_SCHEMA, "fingerprint": fp})
        store.path(bad).write_text("{truncated")
        audit = ["--store", str(root)]

        assert main(["store", "verify", *audit]) == 1
        out = capsys.readouterr().out
        assert "1/2 entries intact, 1 corrupt, 0 stale" in out
        assert f"!! {bad}" in out
        assert main(["store", "scrub", *audit]) == 1
        assert "quarantined 1 defective entry" in capsys.readouterr().out
        assert main(["store", "verify", *audit]) == 0
        assert "1/1 entries intact" in capsys.readouterr().out
        assert main(["store", "stats", *audit]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["entries"], stats["quarantined"]) == (1, 1)
