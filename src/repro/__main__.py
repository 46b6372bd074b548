"""Command-line entry point.

Usage::

    python -m repro list
    python -m repro run table2 [--out results.txt] [--trace t.jsonl] [--metrics]
    python -m repro run-all [--out-dir results/] [--trace-dir traces/] [--store dir/]
    python -m repro campaign run table7 --store store/ [--workers 4]
    python -m repro campaign status table7 --store store/ [--fast]
    python -m repro campaign resume table7 --store store/
    python -m repro adaptive run --surface smoke --store store/ [--uniform]
    python -m repro adaptive status --surface smoke --store store/ [--fast]
    python -m repro mission --days 1 --environment deep-space [--csv log.csv]
    python -m repro mission --supervised --environment low-earth-orbit
    python -m repro fleet run --spec reference --store fleet-store/ [--workers 8]
    python -m repro fleet status --spec reference --store fleet-store/
    python -m repro fleet report --spec reference --store fleet-store/ [--report out.json]
    python -m repro fleet presets
    python -m repro fleet bench --machines 1000 --ticks 3600
    python -m repro trace summarize t.jsonl [--task 4]
    python -m repro chaos list
    python -m repro chaos run [--workers 4] [--store dir/] [--scenario NAME]
    python -m repro store verify --store dir/
    python -m repro store scrub --store dir/
    python -m repro store stats --store dir/
    python -m repro ground list
    python -m repro ground run [--workers 2] [--scenario NAME]
    python -m repro faults census [--json] [--warm] [--seed 0]
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path


def _runner_kwargs(runner, args: argparse.Namespace) -> dict:
    """Pass --workers / --trace / --metrics / --store through to
    runners that understand them (signature-sniffed)."""
    params = inspect.signature(runner).parameters
    kwargs = {}
    workers = getattr(args, "workers", None)
    if workers is not None and "workers" in params:
        kwargs["workers"] = workers
    trace = getattr(args, "trace", None)
    if trace is not None:
        if "trace" not in params:
            raise SystemExit(
                f"{args.experiment}: this experiment does not support --trace"
            )
        kwargs["trace"] = trace
    if getattr(args, "metrics", False) and "metrics" in params:
        from .obs import MetricsRegistry

        kwargs["metrics"] = MetricsRegistry()
    store = getattr(args, "store", None)
    if store is not None:
        if "store" not in params:
            raise SystemExit(
                f"{args.experiment}: this experiment does not support --store"
            )
        kwargs["store"] = store
    return kwargs


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments import ABLATIONS, EXPERIMENTS, EXTENSIONS

    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("ablations:")
    for name in ABLATIONS:
        print(f"  ablation:{name}")
    print("extensions:")
    for name in EXTENSIONS:
        print(f"  extension:{name}")
    print("missions: see `python -m repro mission --help`")
    return 0


def _resolve(name: str):
    from .experiments import ABLATIONS, EXPERIMENTS, EXTENSIONS

    if name in EXPERIMENTS:
        return EXPERIMENTS[name]
    # Module-style aliases: `table7_fault_injection` works as well as
    # `table7` (the runner's defining module names the long form).
    for runner in EXPERIMENTS.values():
        module = getattr(runner, "__module__", "").rsplit(".", 1)[-1]
        if name == module:
            return runner
    if name.startswith("ablation:") and name.split(":", 1)[1] in ABLATIONS:
        return ABLATIONS[name.split(":", 1)[1]]
    if name.startswith("extension:") and name.split(":", 1)[1] in EXTENSIONS:
        return EXTENSIONS[name.split(":", 1)[1]]
    known = ", ".join(
        [
            *EXPERIMENTS,
            *(f"ablation:{a}" for a in ABLATIONS),
            *(f"extension:{e}" for e in EXTENSIONS),
        ]
    )
    raise SystemExit(f"unknown experiment {name!r}; known: {known}")


def _cmd_run(args: argparse.Namespace) -> int:
    runner = _resolve(args.experiment)
    kwargs = _runner_kwargs(runner, args)
    rendered = runner(**kwargs).render()
    if args.out:
        Path(args.out).write_text(rendered + "\n")
        print(f"wrote {args.out}")
    else:
        print(rendered)
    if args.trace:
        print(f"wrote trace: {args.trace}")
    if "metrics" in kwargs:
        print("metrics:")
        print(json.dumps(kwargs["metrics"].snapshot(), indent=2))
    elif getattr(args, "metrics", False):
        print(f"({args.experiment}: no metrics instrumentation)")
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from .experiments import run_all

    metrics = None
    if args.metrics:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    results = run_all(
        include_ablations=not args.no_ablations, workers=args.workers,
        trace_dir=args.trace_dir, metrics=metrics, store=args.store,
    )
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        rendered = result.render()
        if out_dir:
            safe = name.replace(":", "_")
            (out_dir / f"{safe}.txt").write_text(rendered + "\n")
            print(f"wrote {out_dir / (safe + '.txt')}")
        else:
            print(rendered)
            print()
    if args.trace_dir:
        print(f"wrote traces under: {args.trace_dir}")
    if metrics is not None:
        print("metrics:")
        print(json.dumps(metrics.snapshot(), indent=2))
    return 0


def _resolve_campaign(name: str):
    from .experiments import CAMPAIGNS

    factory = CAMPAIGNS.get(name)
    if factory is None:
        raise SystemExit(
            f"unknown campaign {name!r}; known: {', '.join(sorted(CAMPAIGNS))}"
        )
    return factory()


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import TrialStore, execute, status
    from .obs import MetricsRegistry

    camp = _resolve_campaign(args.campaign)
    store = TrialStore(args.store)
    if args.campaign_command == "status":
        st = status(camp, store, fast=args.fast)
        print(
            f"{st.name}: {st.completed}/{st.total} trials complete, "
            f"{st.pending} pending (store: {args.store})"
        )
        if st.corrupt:
            print(
                f"warning: {st.corrupt} defective store entr"
                f"{'y' if st.corrupt == 1 else 'ies'} "
                f"(bad checksum / truncated / stale schema) quarantined "
                f"to {store.quarantine_dir} — counted as pending, will "
                "re-run"
            )
        return 0

    supervision = None
    if getattr(args, "supervised", False):
        from .ground import GroundPolicy

        supervision = GroundPolicy(
            timeout_seconds=args.timeout,
            max_attempts=args.max_attempts,
        )

    # `run` and `resume` are the same operation — the store makes every
    # run a resume. The two verbs exist so scripts read naturally.
    metrics = MetricsRegistry()
    result = execute(
        camp, workers=args.workers, store=store, trace_path=args.trace,
        metrics=metrics, supervision=supervision,
    )
    counters = metrics.snapshot()["counters"]
    print(
        f"{result.name}: {int(counters.get('campaign.trials.executed', 0))} "
        f"executed, {result.store_hits} replayed from store, "
        f"{len(result.specs)} total"
    )
    if counters.get("campaign.store.corrupt"):
        print(
            f"warning: {int(counters['campaign.store.corrupt'])} defective "
            f"store entries quarantined to {store.quarantine_dir} and re-run"
        )
    if result.quarantined:
        from .ground import quarantine_manifest

        print(
            f"warning: {len(result.quarantined)} trial(s) quarantined "
            "after exhausting retries:"
        )
        print(json.dumps(quarantine_manifest(result), indent=2))
    if camp.aggregate is not None:
        rendered = camp.aggregate(result.values, metrics=None).render()
    else:
        rendered = None
    if args.out and rendered is not None:
        Path(args.out).write_text(rendered + "\n")
        print(f"wrote {args.out}")
    elif rendered is not None:
        print(rendered)
    if args.trace:
        print(f"wrote trace: {args.trace}")
    if args.metrics:
        print("metrics:")
        print(json.dumps(metrics.snapshot(), indent=2))
    return 0


def _adaptive_payload(source, result, true_rate) -> dict:
    """Canonical JSON-able summary of one adaptive stream run.

    ``scripts/check_adaptive.py`` compares these payloads across
    serial / pooled / resumed executions — everything here must be a
    pure function of the stream outcome.
    """
    from .campaign.stream import StreamHistory

    history = StreamHistory()
    rounds = []
    for rnd in result.rounds:
        history.rounds.append(rnd)
        est = source.estimate(history)
        values = rnd.result.values
        rounds.append({
            "round": rnd.index,
            "trials": len(rnd.result.specs),
            "sdc": sum(
                1 for v in values if v is not None and source.label_fn(v)
            ),
            "quarantined": len(rnd.result.quarantined),
            "digest": rnd.digest,
            "estimate": est.estimate,
            "width": None if est.width == float("inf") else est.width,
        })
    final = source.estimate(history)
    return {
        "name": source.name,
        "rounds": rounds,
        "trials": final.n,
        "estimate": final.estimate,
        "se": final.se,
        "width": None if final.width == float("inf") else final.width,
        "confidence": source.config.confidence,
        "exhausted": result.exhausted,
        "digest": result.digest,
        "true_rate": true_rate,
    }


def _cmd_adaptive_run(args: argparse.Namespace) -> int:
    from .adaptive import build_source
    from .campaign import TrialStore
    from .campaign.stream import execute_stream

    source, true_rate = build_source(
        args.surface,
        seed=args.seed,
        uniform=args.uniform,
        wave_size=args.wave,
        max_rounds=args.max_rounds,
        target_width=args.target_width,
        epsilon=args.epsilon,
    )
    store = TrialStore(args.store) if args.store else None
    result = execute_stream(
        source, workers=args.workers, store=store, trace_path=args.trace,
    )
    payload = _adaptive_payload(source, result, true_rate)
    if args.json:
        from .campaign.spec import canonical_json

        print(canonical_json(payload))
        return 0
    print(f"{payload['name']} ({args.surface} surface):")
    for row in payload["rounds"]:
        width = "inf" if row["width"] is None else f"{row['width']:.4f}"
        quarantined = (
            f", {row['quarantined']} quarantined" if row["quarantined"] else ""
        )
        print(
            f"  round {row['round']}: {row['trials']} trials, "
            f"{row['sdc']} SDC{quarantined} -> "
            f"estimate {row['estimate']:.4f}, CI width {width}"
        )
    width = "inf" if payload["width"] is None else f"{payload['width']:.4f}"
    if not payload["exhausted"]:
        stopped = "interrupted"
    elif len(payload["rounds"]) >= source.config.max_rounds:
        stopped = "reached max rounds"
    else:
        stopped = "converged"
    print(
        f"{payload['trials']} trials over {len(payload['rounds'])} rounds "
        f"({stopped}): SDC rate {payload['estimate']:.4f} "
        f"+/- {width} ({payload['confidence']:.0%} CI, "
        "Horvitz-Thompson reweighted)"
    )
    if true_rate is not None:
        print(f"true flux-weighted rate: {true_rate:.4f}")
    print(f"stream digest: {payload['digest']}")
    if args.trace:
        print(f"wrote trace: {args.trace}")
    return 0


def _cmd_adaptive_status(args: argparse.Namespace) -> int:
    from .adaptive import build_source
    from .campaign import TrialStore
    from .campaign.stream import stream_status

    source, _ = build_source(
        args.surface,
        seed=args.seed,
        uniform=args.uniform,
        wave_size=args.wave,
        max_rounds=args.max_rounds,
        target_width=args.target_width,
        epsilon=args.epsilon,
    )
    st = stream_status(source, TrialStore(args.store), fast=args.fast)
    if args.json:
        from .campaign.spec import canonical_json

        print(canonical_json({
            "name": st.name,
            "rounds_complete": st.rounds_complete,
            "trials_stored": st.trials_stored,
            "current": None if st.current is None else {
                "completed": st.current.completed,
                "total": st.current.total,
                "corrupt": st.current.corrupt,
            },
            "exhausted": st.exhausted,
        }))
        return 0
    print(
        f"{st.name}: {st.rounds_complete} round(s) complete, "
        f"{st.trials_stored} trials stored (store: {args.store})"
    )
    if st.current is not None:
        print(
            f"  round {st.rounds_complete} in flight: "
            f"{st.current.completed}/{st.current.total} trials"
            + (f", {st.current.corrupt} defective entries quarantined"
               if st.current.corrupt else "")
        )
    print(
        "stream exhausted: the source plans no further rounds"
        if st.exhausted
        else "stream resumable: `repro adaptive run` continues from here"
    )
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .obs import read_trace, summarize_records

    records = read_trace(args.file)
    if args.task is not None:
        records = [r for r in records if r.task == args.task]
        if not records:
            raise SystemExit(f"{args.file}: no records for task {args.task}")
    print(summarize_records(records, source=args.file, max_tasks=args.max_tasks))
    return 0


def _cmd_mission(args: argparse.Namespace) -> int:
    from .missions import MissionConfig, MissionSimulator
    from .radiation import ENVIRONMENTS

    if args.environment not in ENVIRONMENTS:
        raise SystemExit(
            f"unknown environment {args.environment!r}; "
            f"known: {', '.join(ENVIRONMENTS)}"
        )
    config = MissionConfig(
        duration_days=args.days,
        environment=ENVIRONMENTS[args.environment],
        ild_enabled=not args.no_ild,
        emr_enabled=not args.no_emr,
        supervised=args.supervised,
        seed=args.seed,
    )
    report = MissionSimulator(config).run()
    print(report.summary())
    if args.csv:
        Path(args.csv).write_text(report.dataset.to_csv())
        print(f"wrote anomaly dataset: {args.csv}")
    return 0 if report.survived else 2


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .fleet import load_spec, render_report, report_json, run_fleet
    from .obs.metrics import MetricsRegistry

    try:
        spec = load_spec(args.spec)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = MetricsRegistry() if args.metrics else None
    supervision = None
    if args.supervised:
        from .ground import GroundPolicy

        supervision = GroundPolicy(timeout_seconds=args.timeout)
    result = run_fleet(
        spec,
        store=args.store,
        workers=args.workers,
        metrics=metrics,
        use_batch=not args.no_batch,
        supervision=supervision,
    )
    print(render_report(result.report))
    print(
        f"\ntrials executed: {result.executed}, "
        f"replayed from store: {result.store_hits}"
    )
    if result.quarantined:
        print(
            f"warning: {len(result.quarantined)} craft quarantined after "
            "exhausting retries; the report covers the survivors"
        )
        for q in result.quarantined:
            print(f"  !! trial {q.index} ({q.fingerprint[:12]}…): {q.error}")
    if args.report:
        Path(args.report).write_text(report_json(result.report))
        print(f"wrote report JSON: {args.report}")
    if metrics is not None:
        print(json.dumps(metrics.snapshot(), indent=2, sort_keys=True))
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .fleet import fleet_status, load_spec

    try:
        spec = load_spec(args.spec)
        statuses = fleet_status(spec, args.store)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pending = 0
    for name, st in statuses.items():
        pending += st.total - st.completed
        print(f"{name:12s} {st.completed}/{st.total} trials complete")
    print("fleet complete" if pending == 0 else f"{pending} trials pending")
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .fleet import fleet_status, load_spec, render_report, report_json, run_fleet

    try:
        spec = load_spec(args.spec)
        statuses = fleet_status(spec, args.store)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pending = sum(st.total - st.completed for st in statuses.values())
    if pending:
        print(
            f"error: {pending} trials still pending in {args.store}; "
            "run `repro fleet run` first",
            file=sys.stderr,
        )
        return 1
    # Every trial is stored, so this is a pure store replay.
    result = run_fleet(spec, store=args.store, workers=1)
    print(render_report(result.report))
    if args.report:
        Path(args.report).write_text(report_json(result.report))
        print(f"wrote report JSON: {args.report}")
    return 0


def _cmd_fleet_presets(args: argparse.Namespace) -> int:
    from .fleet import PRESETS, PROFILES

    print("orbit-band presets:")
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        env = preset.environment
        print(
            f"  {name:22s} SEU/day {env.seu_per_day:>10.2f}  "
            f"SEL/yr {env.sel_per_year:>6.2f}  "
            f"amps {env.sel_delta_amps_range[0]:.2f}-"
            f"{env.sel_delta_amps_range[1]:.2f}"
        )
        print(f"  {'':22s} {preset.rationale}")
    print("mission profiles:")
    for name in sorted(PROFILES):
        profile = PROFILES[name]
        print(f"  {name:22s} {profile.description}")
    return 0


def _cmd_fleet_bench(args: argparse.Namespace) -> int:
    import time

    from .sim import MachineSpec
    from .sim.batch import BatchMachines, TickConfig, TickProgram

    spec = MachineSpec(
        dram_size=1 << 16, l1_lines=8, l2_lines=16, flash_capacity=1 << 16
    )
    config = TickConfig(dt=args.dt)
    program = TickProgram.constant(
        args.utilization, args.ticks, n_cores=spec.n_cores
    )
    batch = BatchMachines.from_specs(
        spec, seeds=range(args.seed, args.seed + args.machines), config=config
    )
    start = time.perf_counter()
    report = batch.run(program)
    wall = time.perf_counter() - start
    total = args.machines * args.ticks
    print(
        f"{args.machines} machines x {args.ticks} ticks (dt={args.dt:g} s) "
        f"= {total * args.dt / 3600.0:.1f} simulated machine-hours"
    )
    print(
        f"wall {wall:.2f} s  ({total / wall:,.0f} machine-ticks/s); "
        f"alarms {len(report.alarms)}, deaths {len(report.deaths)}"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import default_scenarios, render_reports, run_chaos

    scenarios = default_scenarios()
    if args.chaos_command == "list":
        for scenario in scenarios:
            strikes = ",".join(scenario.control_strikes) or "-"
            print(
                f"{scenario.name:<24} seed={scenario.seed:<4} "
                f"level={scenario.start_level:<9} "
                f"sel/h={scenario.sel_per_hour:<4g} seu={scenario.seu_strikes} "
                f"control={strikes}"
            )
        return 0

    if args.scenario is not None:
        scenarios = tuple(s for s in scenarios if s.name == args.scenario)
        if not scenarios:
            raise SystemExit(f"unknown scenario {args.scenario!r}")
    reports, digest = run_chaos(
        scenarios,
        seed=args.seed,
        workers=args.workers,
        store=args.store,
        trace_path=args.trace,
    )
    print(render_reports(reports))
    if args.trace:
        print(f"wrote trace: {args.trace}")
    violations = sum(len(r.violations) for r in reports)
    return 0 if violations == 0 else 2


def _cmd_store(args: argparse.Namespace) -> int:
    from .campaign import TrialStore

    store = TrialStore(args.store)
    if args.store_command == "stats":
        print(json.dumps(store.stats(), indent=2))
        return 0
    report = (
        store.verify() if args.store_command == "verify" else store.scrub()
    )
    print(
        f"{store.root}: {report.ok}/{report.total} entries intact, "
        f"{len(report.corrupt)} corrupt, {len(report.stale)} stale"
    )
    for fingerprint in [*report.corrupt, *report.stale]:
        print(f"  !! {fingerprint}")
    if args.store_command == "scrub" and report.quarantined:
        print(
            f"quarantined {report.quarantined} defective entr"
            f"{'y' if report.quarantined == 1 else 'ies'} to "
            f"{store.quarantine_dir} — the next campaign run re-executes "
            "those trials"
        )
    return 0 if report.clean else 1


def _cmd_ground(args: argparse.Namespace) -> int:
    from .ground import (
        default_host_scenarios,
        render_host_reports,
        run_host_chaos,
    )

    scenarios = default_host_scenarios()
    if args.ground_command == "list":
        for scenario in scenarios:
            print(
                f"{scenario.name:<18} kind={scenario.kind:<14} "
                f"seed={scenario.seed:<4} trials={scenario.trials} "
                f"fail_attempts={scenario.fail_attempts}"
            )
        return 0
    if args.scenario is not None:
        scenarios = tuple(s for s in scenarios if s.name == args.scenario)
        if not scenarios:
            raise SystemExit(f"unknown scenario {args.scenario!r}")
    reports, _ = run_host_chaos(scenarios, workers=args.workers)
    print(render_host_reports(reports))
    violations = sum(len(r.violations) for r in reports)
    return 0 if violations == 0 else 2


def _cmd_hmr_modes(args: argparse.Namespace) -> int:
    from .hmr import MODES

    print("redundancy-mode lattice (weakest to strongest):")
    for mode in MODES:
        aliases = f" (alias: {', '.join(mode.aliases)})" if mode.aliases else ""
        print(
            f"  {mode.name:<18} executors={mode.n_executors} "
            f"replicas={mode.replicas} "
            f"threshold={mode.replication_threshold:<4g} "
            f"cost={mode.current_cost_amps:.2f} A "
            f"scheme={mode.scheme}{aliases}"
        )
    return 0


def _cmd_hmr_sweep(args: argparse.Namespace) -> int:
    from .experiments.fig_hmr_frontier import frontier_json, run

    table = run(
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        store=args.store,
        batched=args.batched,
    )
    canonical = frontier_json(table)
    if args.verify:
        # Every execution path must land on the same bytes: serial,
        # the worker pool, the batched engine, and a pure store replay
        # of whatever the first pass persisted.
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            paths = {
                "serial": run(scale=args.scale, seed=args.seed, workers=1),
                "workers": run(scale=args.scale, seed=args.seed, workers=2),
                "batched": run(
                    scale=args.scale, seed=args.seed, batched=True,
                    store=scratch,
                ),
                "store-replay": run(
                    scale=args.scale, seed=args.seed, store=scratch
                ),
            }
        for name, result in paths.items():
            if frontier_json(result) != canonical:
                print(f"error: {name} path diverged", file=sys.stderr)
                return 2
        print("verified: serial == workers == batched == store-replay")
    if args.json:
        print(canonical)
    else:
        print(table.render())
    if args.out:
        Path(args.out).write_text(canonical + "\n")
        print(f"wrote frontier JSON: {args.out}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .sim.faults import census_json, render_census
    from .sim.machine import Machine

    machine = Machine.rpi_zero2w(seed=args.seed)
    if args.warm:
        # Touch every tier so the census reports live bits, not an
        # idle machine: allocate and stream a buffer through each
        # core group's cache path, and stage one file onto flash so
        # both media and page cache hold state.
        payload = bytes(range(256)) * 16
        region = machine.memory.alloc(len(payload), label="census-warm")
        machine.memory.write_region(region, payload)
        for group in range(len(machine.caches.l1)):
            machine.read_via_cache(region.addr, len(payload), group)
        machine.storage.store("census-warm", payload)
        machine.storage.read("census-warm")
    entries = machine.fault_surface.census()
    if args.json:
        print(json.dumps(census_json(entries), indent=2))
    else:
        print(render_census(entries))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Radshield reproduction: experiments and missions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment")
    run.add_argument("--out", help="write rendered output to a file")
    run.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker processes for experiments that fan out "
             "(results are identical at any value; default serial)",
    )
    run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a JSONL trace of the experiment's spans/events "
             "(byte-identical at any --workers value)",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="print the experiment's metrics snapshot as JSON",
    )
    run.set_defaults(func=_cmd_run)

    run.add_argument(
        "--store", default=None, metavar="DIR",
        help="trial-store directory: completed trials are persisted "
             "there and skipped when the experiment reruns",
    )

    run_all_cmd = sub.add_parser("run-all", help="run every experiment")
    run_all_cmd.add_argument("--out-dir", help="write one file per experiment")
    run_all_cmd.add_argument("--no-ablations", action="store_true")
    run_all_cmd.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker processes for experiments that fan out",
    )
    run_all_cmd.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write one <experiment>.jsonl trace per tracing-capable "
             "experiment into this directory",
    )
    run_all_cmd.add_argument(
        "--metrics", action="store_true",
        help="print one merged metrics snapshot as JSON at the end",
    )
    run_all_cmd.add_argument(
        "--store", default=None, metavar="DIR",
        help="trial-store directory shared by every campaign-backed "
             "experiment; an interrupted run-all resumes from here",
    )
    run_all_cmd.set_defaults(func=_cmd_run_all)

    campaign = sub.add_parser(
        "campaign",
        help="drive an experiment's declarative trial grid against a store",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    for verb, help_text in (
        ("run", "execute the campaign (skips trials already in the store)"),
        ("resume", "alias of run: the store makes every run a resume"),
        ("status", "report completed vs. pending trials without running"),
    ):
        verb_parser = campaign_sub.add_parser(verb, help=help_text)
        verb_parser.add_argument("campaign")
        verb_parser.add_argument(
            "--store", required=True, metavar="DIR",
            help="trial-store directory (created if missing)",
        )
        if verb == "status":
            verb_parser.add_argument(
                "--fast", action="store_true",
                help="presence-only scan (one stat per trial, no "
                     "checksum verification or defect quarantine)",
            )
        else:
            verb_parser.add_argument(
                "--workers", type=int, default=None,
                help="parallel worker processes (results identical at any value)",
            )
            verb_parser.add_argument(
                "--trace", default=None, metavar="FILE",
                help="write the merged JSONL trace of this run",
            )
            verb_parser.add_argument("--out", help="write rendered output to a file")
            verb_parser.add_argument(
                "--metrics", action="store_true",
                help="print the campaign metrics snapshot as JSON",
            )
            verb_parser.add_argument(
                "--supervised", action="store_true",
                help="run under the fault-tolerant ground executor: "
                     "crashed/hung workers replaced, failing trials "
                     "retried with identical seeds, poison trials "
                     "quarantined instead of killing the run",
            )
            verb_parser.add_argument(
                "--timeout", type=float, default=None, metavar="SECONDS",
                help="per-trial wall-clock budget (with --supervised)",
            )
            verb_parser.add_argument(
                "--max-attempts", type=int, default=3,
                help="attempts per trial before quarantine "
                     "(with --supervised; default 3)",
            )
        verb_parser.set_defaults(func=_cmd_campaign)

    adaptive = sub.add_parser(
        "adaptive",
        help="ML importance-sampled fault campaigns (docs/adaptive.md)",
    )
    adaptive_sub = adaptive.add_subparsers(
        dest="adaptive_command", required=True
    )

    def _adaptive_source_args(p):
        from .adaptive import SURFACES

        p.add_argument(
            "--surface", default="smoke", choices=sorted(SURFACES),
            help="what the stream strikes: 'smoke' = synthetic census "
                 "with known sensitivities (CI-fast); 'table7' = pinned "
                 "strikes on the warmed machine (default: smoke)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--uniform", action="store_true",
            help="the baseline sampler: every wave flux-weighted "
                 "(epsilon=1.0, model never trains), stored under a "
                 "'-uniform' name so it never collides with the "
                 "adaptive stream",
        )
        p.add_argument(
            "--wave", type=int, default=None, metavar="N",
            help="trials per round (default: the surface's preset)",
        )
        p.add_argument(
            "--max-rounds", type=int, default=None, metavar="N",
            help="hard round cap (default: the surface's preset)",
        )
        p.add_argument(
            "--target-width", type=float, default=None, metavar="W",
            help="stop once the Horvitz-Thompson CI is narrower than "
                 "this full width; 0 disables the width stop "
                 "(default: the surface's preset)",
        )
        p.add_argument(
            "--epsilon", type=float, default=None,
            help="exploration share of each wave, in [0, 1] "
                 "(default: the surface's preset)",
        )
        p.add_argument(
            "--json", action="store_true",
            help="emit the canonical JSON summary instead of text",
        )

    adaptive_run = adaptive_sub.add_parser(
        "run",
        help="drain (or resume) an adaptive stream: model-guided "
             "strike waves until the CI converges",
    )
    _adaptive_source_args(adaptive_run)
    adaptive_run.add_argument(
        "--store", default=None, metavar="DIR",
        help="trial-store directory; an interrupted stream resumes "
             "from here byte-identically, even mid-round",
    )
    adaptive_run.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker processes (results identical at any value)",
    )
    adaptive_run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the merged JSONL trace of this run",
    )
    adaptive_run.set_defaults(func=_cmd_adaptive_run)

    adaptive_status = adaptive_sub.add_parser(
        "status",
        help="replay stored rounds and report stream progress "
             "without executing anything",
    )
    _adaptive_source_args(adaptive_status)
    adaptive_status.add_argument(
        "--store", required=True, metavar="DIR",
        help="trial-store directory to inspect",
    )
    adaptive_status.add_argument(
        "--fast", action="store_true",
        help="presence-only scan of the in-flight round (complete "
             "rounds still need reads: their digests seed the next "
             "round's plan)",
    )
    adaptive_status.set_defaults(func=_cmd_adaptive_status)

    trace = sub.add_parser("trace", help="inspect a recorded trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="render a trace as an incident timeline "
             "(injection → corruption → detection → recovery)",
    )
    summarize.add_argument("file")
    summarize.add_argument(
        "--task", type=int, default=None,
        help="show only this parallel task's records",
    )
    summarize.add_argument(
        "--max-tasks", type=int, default=20,
        help="cap on incident chains rendered (default 20)",
    )
    summarize.set_defaults(func=_cmd_trace_summarize)

    mission = sub.add_parser("mission", help="simulate a mission")
    mission.add_argument("--days", type=float, default=1.0)
    mission.add_argument("--environment", default="low-earth-orbit")
    mission.add_argument("--no-ild", action="store_true")
    mission.add_argument("--no-emr", action="store_true")
    mission.add_argument(
        "--supervised", action="store_true",
        help="route SEL alarms through the recovery supervisor "
             "(checkpoint/rollback/replay) and run the degradation policy",
    )
    mission.add_argument("--seed", type=int, default=0)
    mission.add_argument("--csv", help="write the anomaly dataset as CSV")
    mission.set_defaults(func=_cmd_mission)

    fleet = sub.add_parser(
        "fleet",
        help="simulate a constellation-scale fleet (docs/fleet.md)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def _fleet_spec_args(p, store_required=False):
        p.add_argument(
            "--spec", required=True, metavar="SPEC",
            help="fleet spec: a JSON file path, or a builtin name "
                 "('reference': 1,110 craft / 1M machine-hours; "
                 "'smoke': 64 craft)",
        )
        p.add_argument(
            "--store", default=None, required=store_required, metavar="DIR",
            help="trial-store directory; completed craft are skipped on "
                 "rerun and the aggregate report is byte-identical",
        )

    fleet_run = fleet_sub.add_parser(
        "run", help="simulate (or resume) the whole fleet"
    )
    _fleet_spec_args(fleet_run)
    fleet_run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for craft that leave batch lockstep "
             "(reports identical at any value)",
    )
    fleet_run.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the aggregate report as canonical JSON",
    )
    fleet_run.add_argument(
        "--no-batch", action="store_true",
        help="run every craft through the scalar path "
             "(results are byte-identical; this only changes wall time)",
    )
    fleet_run.add_argument(
        "--metrics", action="store_true",
        help="print the campaign metrics snapshot after the run",
    )
    fleet_run.add_argument(
        "--supervised", action="store_true",
        help="run pool craft under the fault-tolerant ground "
             "executor (worker replacement, retries, quarantine)",
    )
    fleet_run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-craft wall-clock budget (with --supervised)",
    )
    fleet_run.set_defaults(func=_cmd_fleet_run)

    fleet_status_cmd = fleet_sub.add_parser(
        "status", help="completed vs pending trials, without running"
    )
    _fleet_spec_args(fleet_status_cmd, store_required=True)
    fleet_status_cmd.set_defaults(func=_cmd_fleet_status)

    fleet_report = fleet_sub.add_parser(
        "report", help="rebuild the aggregate report from a complete store"
    )
    _fleet_spec_args(fleet_report, store_required=True)
    fleet_report.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the aggregate report as canonical JSON",
    )
    fleet_report.set_defaults(func=_cmd_fleet_report)

    fleet_sub.add_parser(
        "presets", help="list the orbit-band and mission-profile catalog"
    ).set_defaults(func=_cmd_fleet_presets)

    fleet_bench = fleet_sub.add_parser(
        "bench", help="raw SoA tick-engine throughput (no campaign layer)"
    )
    fleet_bench.add_argument("--machines", type=int, default=1000)
    fleet_bench.add_argument("--ticks", type=int, default=3600)
    fleet_bench.add_argument(
        "--dt", type=float, default=1.0,
        help="tick length in simulated seconds (default 1.0)",
    )
    fleet_bench.add_argument("--utilization", type=float, default=0.5)
    fleet_bench.add_argument("--seed", type=int, default=0)
    fleet_bench.set_defaults(func=_cmd_fleet_bench)

    chaos = sub.add_parser(
        "chaos", help="fuzz the whole protection stack with seeded faults"
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_sub.add_parser(
        "list", help="list the standing chaos scenarios"
    ).set_defaults(func=_cmd_chaos)
    chaos_run = chaos_sub.add_parser(
        "run", help="run the chaos matrix and check invariants"
    )
    chaos_run.add_argument(
        "--scenario", default=None,
        help="run only the scenario with this name",
    )
    chaos_run.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker processes (reports identical at any value)",
    )
    chaos_run.add_argument(
        "--store", default=None, metavar="DIR",
        help="trial-store directory; completed scenarios are skipped on rerun",
    )
    chaos_run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the merged JSONL trace of the run",
    )
    chaos_run.add_argument("--seed", type=int, default=0)
    chaos_run.set_defaults(func=_cmd_chaos)

    store_cmd = sub.add_parser(
        "store", help="audit a trial store's integrity (docs/ground.md)"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    for verb, help_text in (
        ("verify", "read-only integrity walk: checksum every entry"),
        ("scrub", "verify + quarantine defective entries to .quarantine/"),
        ("stats", "occupancy, per-campaign counts, integrity counters"),
    ):
        verb_parser = store_sub.add_parser(verb, help=help_text)
        verb_parser.add_argument(
            "--store", required=True, metavar="DIR",
            help="trial-store directory to audit",
        )
        verb_parser.set_defaults(func=_cmd_store)

    ground = sub.add_parser(
        "ground",
        help="host-fault chaos tier: break the ground segment, "
             "assert it holds (docs/ground.md)",
    )
    ground_sub = ground.add_subparsers(dest="ground_command", required=True)
    ground_sub.add_parser(
        "list", help="list the standing host-fault scenarios"
    ).set_defaults(func=_cmd_ground)
    ground_run = ground_sub.add_parser(
        "run", help="run the host-fault matrix and check invariants"
    )
    ground_run.add_argument(
        "--scenario", default=None,
        help="run only the scenario with this name",
    )
    ground_run.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for the faulted runs "
             "(reports identical at any value; default 2)",
    )
    ground_run.set_defaults(func=_cmd_ground)

    hmr = sub.add_parser(
        "hmr", help="hybrid modular redundancy: the mode lattice"
    )
    hmr_sub = hmr.add_subparsers(dest="hmr_command", required=True)
    hmr_sub.add_parser(
        "modes", help="list the redundancy-mode lattice"
    ).set_defaults(func=_cmd_hmr_modes)
    hmr_sweep = hmr_sub.add_parser(
        "sweep", help="sweep the throughput-vs-SDC-coverage frontier"
    )
    hmr_sweep.add_argument("--scale", type=int, default=1,
                           help="injections per mode = 8 * scale")
    hmr_sweep.add_argument("--seed", type=int, default=7)
    hmr_sweep.add_argument(
        "--workers", type=int, default=1,
        help="parallel worker processes (output identical at any value)",
    )
    hmr_sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="trial-store directory; completed trials are skipped on rerun",
    )
    hmr_sweep.add_argument(
        "--batched", action="store_true",
        help="run through the batched campaign engine",
    )
    hmr_sweep.add_argument(
        "--verify", action="store_true",
        help="run serial, worker-pool, batched, and store-replay paths "
             "and require byte-identical frontier JSON",
    )
    hmr_sweep.add_argument(
        "--json", action="store_true",
        help="emit the canonical frontier JSON instead of the table",
    )
    hmr_sweep.add_argument("--out", help="write the frontier JSON to a file")
    hmr_sweep.set_defaults(func=_cmd_hmr_sweep)

    faults = sub.add_parser(
        "faults", help="inspect the machine's addressable fault surface"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    census = faults_sub.add_parser(
        "census",
        help="print the machine-wide bit census "
             "(region, bits, protection class, ECC)",
    )
    census.add_argument(
        "--json", action="store_true",
        help="emit the census as JSON instead of a table",
    )
    census.add_argument(
        "--warm", action="store_true",
        help="stage data through DRAM, the caches, and flash first, so "
             "volatile regions report live bits instead of idle silicon",
    )
    census.add_argument("--seed", type=int, default=0)
    census.set_defaults(func=_cmd_faults)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
