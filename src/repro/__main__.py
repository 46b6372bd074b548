"""Command-line entry point.

Usage::

    python -m repro list
    python -m repro run table2 [--out results.txt] [--trace t.jsonl] [--metrics]
    python -m repro run-all [--out-dir results/] [--trace-dir traces/] [--store dir/]
    python -m repro campaign run table7 --store store/ [--workers 4] [--supervised]
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
    python -m repro hmr modes
    python -m repro hmr sweep [--verify] [--json] [--out frontier.json]
    python -m repro faults census [--json] [--warm] [--seed 0]

Every option is declared once, in ``OPTIONS``, keyed by its flag. Every
command is one row of ``COMMANDS``: its path, handler, help, and the
options it takes (a row may override an option's kwargs, e.g.
``required`` or ``default``).
``build_parser`` only walks those two tables. A ``ConfigurationError``
raised by a handler is reported by ``main`` as ``error: …``, exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adaptive import SURFACES
from .errors import ConfigurationError


def _worker_count(text: str) -> int:
    """``--workers`` type: an integer >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return int(text)


#: Flag (or positional name) -> its ``add_argument`` kwargs, each
#: declared once.
OPTIONS = {
    # -- shared ------------------------------------------------------
    "--store": dict(
        metavar="DIR",
        help="trial-store directory (created if missing); completed "
             "trials are skipped on rerun, so an interrupted run resumes",
    ),
    "--workers": dict(
        type=_worker_count,
        help="worker processes (results are identical at any value)",
    ),
    "--trace": dict(
        metavar="FILE",
        help="write the merged JSONL trace (identical at any --workers)",
    ),
    "--metrics": dict(
        action="store_true", help="print the metrics snapshot as JSON"
    ),
    "--out": dict(metavar="FILE", help="write the output to a file"),
    "--seed": dict(type=int, default=0),
    "--json": dict(action="store_true", help="emit JSON, not text"),
    "--fast": dict(
        action="store_true",
        help="presence-only scan: one stat per trial, no checksums, no "
             "quarantine",
    ),
    "--scenario": dict(help="run only this scenario"),
    "--spec": dict(
        required=True,
        help="fleet spec: a JSON file, 'reference' (1,110 craft, 1M "
             "machine-hours) or 'smoke' (64 craft)",
    ),
    "--report": dict(
        metavar="FILE", help="write the aggregate report as canonical JSON"
    ),
    # -- supervision: the GroundPolicy knobs -----------------------------
    "--supervised": dict(
        action="store_true",
        help="run under the fault-tolerant ground executor: crashed or "
             "hung workers replaced, failing trials retried with "
             "identical seeds, poison trials quarantined",
    ),
    "--timeout": dict(
        type=float, metavar="SECONDS",
        help="per-trial wall-clock budget (with --supervised)",
    ),
    "--max-attempts": dict(
        type=int, default=3,
        help="attempts per trial before quarantine (with --supervised; "
             "default 3)",
    ),
    # -- adaptive source: the build_source arguments ---------------------
    "--surface": dict(
        default="smoke", choices=sorted(SURFACES),
        help="; ".join(f"{k} = {v}" for k, v in sorted(SURFACES.items()))
        + ". --wave, --max-rounds, --target-width and --epsilon default "
          "to the surface's preset",
    ),
    "--uniform": dict(
        action="store_true",
        help="the flux-weighted baseline sampler (epsilon 1, no model), "
             "stored under a '-uniform' name so it never collides with "
             "the adaptive stream",
    ),
    "--wave": dict(type=int, metavar="N", help="trials per round"),
    "--max-rounds": dict(type=int, metavar="N", help="hard round cap"),
    "--target-width": dict(
        type=float, metavar="W",
        help="stop once the Horvitz-Thompson CI is narrower than this "
             "full width; 0 disables the width stop",
    ),
    "--epsilon": dict(
        type=float, help="exploration share of each wave, in [0, 1]"
    ),
    # -- single-command options ----------------------------------------
    "experiment": {},
    "campaign": {},
    "file": {},
    "--out-dir": dict(help="write one file per experiment"),
    "--no-ablations": dict(action="store_true"),
    "--trace-dir": dict(
        metavar="DIR",
        help="write one <experiment>.jsonl trace per experiment",
    ),
    "--task": dict(type=int, help="show only this parallel task's records"),
    "--max-tasks": dict(
        type=int, default=20, help="cap on incident chains rendered "
                                   "(default 20)",
    ),
    "--days": dict(type=float, default=1.0),
    "--environment": dict(default="low-earth-orbit"),
    "--no-ild": dict(action="store_true"),
    "--no-emr": dict(action="store_true"),
    "--csv": dict(help="write the anomaly dataset as CSV"),
    "--no-batch": dict(
        action="store_true",
        help="run every craft through the scalar path (byte-identical "
             "results; only the wall time changes)",
    ),
    "--machines": dict(type=int, default=1000),
    "--ticks": dict(type=int, default=3600),
    "--dt": dict(
        type=float, default=1.0, help="tick length in simulated seconds"
    ),
    "--utilization": dict(type=float, default=0.5),
    "--scale": dict(
        type=int, default=1, help="injections per mode = 8 * scale"
    ),
    "--verify": dict(
        action="store_true",
        help="require serial == workers == store-replay",
    ),
    "--warm": dict(
        action="store_true",
        help="stage data through DRAM, caches and flash first, so "
             "volatile regions report live bits, not idle silicon",
    ),
}

SOURCE = (
    "--surface", "--seed", "--uniform", "--wave", "--max-rounds",
    "--target-width", "--epsilon", "--json",
)
STORE_REQUIRED = ("--store", {"required": True})
STORE_AUDITED = (
    "--store", {"required": True, "help": "trial-store directory to audit; "
                                          "it must exist"},
)


# -- shared handler code ---------------------------------------------


def _write(path, text: str, what: str = "") -> None:
    Path(path).write_text(text)
    print(f"wrote {what}{path}")


def _emit(args: argparse.Namespace, rendered: str) -> None:
    """Write ``rendered`` to ``--out`` when given, else print it."""
    if args.out:
        _write(args.out, rendered + "\n")
    else:
        print(rendered)


def _epilogue(args: argparse.Namespace, metrics=None) -> None:
    """The trace path, then the metrics snapshot, when there are any."""
    if getattr(args, "trace", None):
        print(f"wrote trace: {args.trace}")
    if metrics is not None:
        print("metrics:")
        print(json.dumps(metrics.snapshot(), indent=2))


def _supervision(args: argparse.Namespace):
    """The ``GroundPolicy`` ``--supervised`` asks for, else ``None``."""
    if not args.supervised:
        return None
    from .ground import GroundPolicy

    return GroundPolicy(
        timeout_seconds=args.timeout,
        max_attempts=getattr(args, "max_attempts", GroundPolicy.max_attempts),
    )


def _adaptive_source(args: argparse.Namespace):
    from .adaptive import build_source

    return build_source(
        args.surface, seed=args.seed, uniform=args.uniform,
        wave_size=args.wave, max_rounds=args.max_rounds,
        target_width=args.target_width, epsilon=args.epsilon,
    )


def _scenarios(scenarios: tuple, args: argparse.Namespace) -> tuple:
    """The scenarios ``--scenario`` selects: all of them when unset."""
    if args.scenario is None:
        return scenarios
    picked = tuple(s for s in scenarios if s.name == args.scenario)
    if not picked:
        raise SystemExit(f"unknown scenario {args.scenario!r}")
    return picked


# -- handlers ----------------------------------------------------------


def _entry(name: str):
    """The registry entry ``name`` names: its id or, for a paper
    experiment, its module's name (``table7_fault_injection``)."""
    from .experiments import CAMPAIGNS

    factory = CAMPAIGNS.get(name)
    if factory is None:
        factory = next(
            (f for key, f in CAMPAIGNS.items() if ":" not in key
             and f.__module__.rsplit(".", 1)[-1] == name),
            None,
        )
    if factory is None:
        raise SystemExit(
            f"unknown experiment {name!r}; known: {', '.join(CAMPAIGNS)}"
        )
    return factory()


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments import CAMPAIGNS

    print("experiments:")
    for name in CAMPAIGNS:
        print(f"  {name}")
    print("missions: see `python -m repro mission --help`")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments import run_experiment
    from .obs import MetricsRegistry

    metrics = MetricsRegistry() if args.metrics else None
    _, report = run_experiment(
        _entry(args.experiment), workers=args.workers or 1, store=args.store,
        trace_path=args.trace, metrics=metrics,
    )
    _emit(args, report.render())
    _epilogue(args, metrics)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from .experiments import CAMPAIGNS, run_experiment
    from .obs import MetricsRegistry

    metrics = MetricsRegistry() if args.metrics else None
    out_dir = Path(args.out_dir) if args.out_dir else None
    for directory in (out_dir, args.trace_dir):
        if directory:
            Path(directory).mkdir(parents=True, exist_ok=True)
    for name, factory in CAMPAIGNS.items():
        if args.no_ablations and ":" in name:
            continue
        stem = name.replace(":", "_")
        trace = f"{args.trace_dir}/{stem}.jsonl" if args.trace_dir else None
        _, report = run_experiment(
            factory(), workers=args.workers or 1, store=args.store,
            trace_path=trace, metrics=metrics,
        )
        if out_dir:
            _write(out_dir / f"{stem}.txt", report.render() + "\n")
        else:
            print(report.render())
            print()
    if args.trace_dir:
        print(f"wrote traces under: {args.trace_dir}")
    _epilogue(args, metrics)
    return 0


def _print_stream_status(st, store, rerun: str) -> None:
    """The progress lines of a :class:`~repro.campaign.StreamStatus`;
    ``rerun`` is the command that continues the stream."""
    print(
        f"{st.name}: {st.rounds_complete} round(s) complete, "
        f"{st.trials_stored} trials stored (store: {store})"
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
        else f"stream resumable: `{rerun}` continues from here"
    )


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import Campaign, TrialStore, status, stream_status

    entry = _entry(args.campaign)
    store = TrialStore(args.store)
    if not isinstance(entry, Campaign):
        st = stream_status(entry, store, fast=args.fast)
        _print_stream_status(st, args.store, "repro campaign run")
        return 0
    st = status(entry, store, fast=args.fast)
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


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    # `run` and `resume` are the same operation — the store makes every
    # run a resume. The two verbs exist so scripts read naturally.
    from .campaign import TrialStore
    from .experiments import run_experiment
    from .obs import MetricsRegistry

    store = TrialStore(args.store)
    metrics = MetricsRegistry()
    result, report = run_experiment(
        _entry(args.campaign), workers=args.workers, store=store,
        trace_path=args.trace, metrics=metrics, supervision=_supervision(args),
    )
    counters = metrics.snapshot()["counters"]
    print(
        f"{result.name}: {int(counters.get('campaign.trials.executed', 0))} "
        f"executed, {result.store_hits} replayed from store, "
        f"{result.trials} total"
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
            "after exhausting retries; no report over the rest:"
        )
        print(json.dumps(quarantine_manifest(result), indent=2))
    else:
        _emit(args, report.render())
    _epilogue(args, metrics if args.metrics else None)
    return 0


def _adaptive_payload(source, result, true_rate) -> dict:
    """Canonical JSON-able summary of one adaptive stream run.

    Everything here must be a pure function of the stream outcome, so
    the payload is identical serial, pooled or resumed.
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
    from .campaign import TrialStore
    from .campaign.spec import canonical_json
    from .campaign.stream import execute_stream

    source, true_rate = _adaptive_source(args)
    store = TrialStore(args.store) if args.store else None
    result = execute_stream(
        source, workers=args.workers, store=store, trace_path=args.trace,
    )
    payload = _adaptive_payload(source, result, true_rate)
    if args.json:
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
    _epilogue(args)
    return 0


def _cmd_adaptive_status(args: argparse.Namespace) -> int:
    from .campaign import TrialStore
    from .campaign.spec import canonical_json
    from .campaign.stream import stream_status

    source, _ = _adaptive_source(args)
    st = stream_status(source, TrialStore(args.store), fast=args.fast)
    if args.json:
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
    _print_stream_status(st, args.store, "repro adaptive run")
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
        _write(args.csv, report.dataset.to_csv(), "anomaly dataset: ")
    return 0 if report.survived else 2


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from .fleet import load_spec, render_report, report_json, run_fleet
    from .obs.metrics import MetricsRegistry

    spec = load_spec(args.spec)
    metrics = MetricsRegistry() if args.metrics else None
    result = run_fleet(
        spec, store=args.store, workers=args.workers, metrics=metrics,
        use_batch=not args.no_batch, supervision=_supervision(args),
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
        _write(args.report, report_json(result.report), "report JSON: ")
    if metrics is not None:
        print(json.dumps(metrics.snapshot(), indent=2, sort_keys=True))
    return 0


def _fleet_statuses(args: argparse.Namespace):
    """``(spec, per-campaign status)`` for ``--spec`` in ``--store``."""
    from .fleet import fleet_status, load_spec

    spec = load_spec(args.spec)
    return spec, fleet_status(spec, args.store)


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    _, statuses = _fleet_statuses(args)
    pending = 0
    for name, st in statuses.items():
        pending += st.total - st.completed
        print(f"{name:12s} {st.completed}/{st.total} trials complete")
    print("fleet complete" if pending == 0 else f"{pending} trials pending")
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    from .fleet import render_report, report_json, run_fleet

    spec, statuses = _fleet_statuses(args)
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
        _write(args.report, report_json(result.report), "report JSON: ")
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


def _cmd_chaos_list(args: argparse.Namespace) -> int:
    from .chaos import default_scenarios

    for scenario in default_scenarios():
        strikes = ",".join(scenario.control_strikes) or "-"
        print(
            f"{scenario.name:<24} seed={scenario.seed:<4} "
            f"level={scenario.start_level:<9} "
            f"sel/h={scenario.sel_per_hour:<4g} seu={scenario.seu_strikes} "
            f"control={strikes}"
        )
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from .chaos import default_scenarios, render_reports, run_chaos

    reports, _ = run_chaos(
        _scenarios(default_scenarios(), args), seed=args.seed,
        workers=args.workers, store=args.store, trace_path=args.trace,
    )
    print(render_reports(reports))
    _epilogue(args)
    return 0 if not any(r.violations for r in reports) else 2


def _audited_store(args: argparse.Namespace):
    """The store to audit; a missing directory is an error, not empty."""
    from .campaign import TrialStore

    if not Path(args.store).is_dir():
        raise ConfigurationError(f"no trial store at {args.store}")
    return TrialStore(args.store)


def _cmd_store_verify(args: argparse.Namespace, scrub: bool = False) -> int:
    store = _audited_store(args)
    report = store.scrub() if scrub else store.verify()
    print(
        f"{store.root}: {report.ok}/{report.total} entries intact, "
        f"{len(report.corrupt)} corrupt, {len(report.stale)} stale"
    )
    for fingerprint in [*report.corrupt, *report.stale]:
        print(f"  !! {fingerprint}")
    if report.quarantined:
        print(
            f"quarantined {report.quarantined} defective entr"
            f"{'y' if report.quarantined == 1 else 'ies'} to "
            f"{store.quarantine_dir} — the next campaign run re-executes "
            "those trials"
        )
    return 0 if report.clean else 1


def _cmd_store_scrub(args: argparse.Namespace) -> int:
    return _cmd_store_verify(args, scrub=True)


def _cmd_store_stats(args: argparse.Namespace) -> int:
    print(json.dumps(_audited_store(args).stats(), indent=2))
    return 0


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
    from .experiments import run_experiment
    from .experiments.fig_hmr_frontier import campaign, frontier_json

    def sweep(**kwargs):
        grid = campaign(scale=args.scale, seed=args.seed)
        return run_experiment(grid, **kwargs)[1]

    table = sweep(workers=args.workers, store=args.store)
    canonical = frontier_json(table)
    if args.verify:
        # Every execution path must land on the same bytes: serial,
        # the worker pool, and a pure store replay of what the pool
        # persisted.
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            paths = {
                "serial": sweep(workers=1),
                "workers": sweep(workers=2, store=scratch),
                "store-replay": sweep(store=scratch),
            }
        for name, result in paths.items():
            if frontier_json(result) != canonical:
                print(f"error: {name} path diverged", file=sys.stderr)
                return 2
        print("verified: serial == workers == store-replay")
    print(canonical if args.json else table.render())
    if args.out:
        _write(args.out, canonical + "\n", "frontier JSON: ")
    return 0


def _cmd_faults_census(args: argparse.Namespace) -> int:
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


CAMPAIGN_RUN = (
    "campaign", STORE_REQUIRED, "--workers", "--trace", "--out", "--metrics",
    "--supervised", "--timeout", "--max-attempts",
)

#: (command path, handler, help, options). A row whose handler is
#: ``None`` is a command group; its subcommands follow it. An option
#: is a key of ``OPTIONS`` or ``(key, {kwarg overrides})``.
COMMANDS = (
    ("list", _cmd_list, "list available experiments", ()),
    ("run", _cmd_run, "run one experiment",
     ("experiment", "--out", "--workers", "--trace", "--metrics", "--store")),
    ("run-all", _cmd_run_all, "run every experiment",
     ("--out-dir", "--no-ablations", "--workers", "--trace-dir", "--metrics",
      "--store")),
    ("campaign", None,
     "drive an experiment's declarative trial grid against a store", ()),
    ("campaign run", _cmd_campaign_run,
     "execute the campaign (skips trials already in the store)",
     CAMPAIGN_RUN),
    ("campaign resume", _cmd_campaign_run,
     "alias of run: the store makes every run a resume", CAMPAIGN_RUN),
    ("campaign status", _cmd_campaign_status,
     "report completed vs. pending trials without running",
     ("campaign", STORE_REQUIRED, "--fast")),
    ("adaptive", None,
     "ML importance-sampled fault campaigns (docs/adaptive.md)", ()),
    ("adaptive run", _cmd_adaptive_run,
     "drain (or resume) an adaptive stream until the CI converges",
     (*SOURCE, "--store", "--workers", "--trace")),
    ("adaptive status", _cmd_adaptive_status,
     "replay stored rounds and report stream progress",
     (*SOURCE, STORE_REQUIRED,
      ("--fast", {"help": "presence-only scan of the in-flight round; "
                          "complete rounds are still read (their digests "
                          "seed the next round's plan) and defective "
                          "entries quarantined"}))),
    ("trace", None, "inspect a recorded trace", ()),
    ("trace summarize", _cmd_trace_summarize,
     "render a trace as incident timelines "
     "(injection → corruption → detection → recovery)",
     ("file", "--task", "--max-tasks")),
    ("mission", _cmd_mission, "simulate a mission",
     ("--days", "--environment", "--no-ild", "--no-emr",
      ("--supervised", {"help": "route SEL alarms through the recovery "
                                "supervisor (checkpoint/rollback/replay) "
                                "and run the degradation policy"}),
      "--seed", "--csv")),
    ("fleet", None, "simulate a constellation-scale fleet (docs/fleet.md)",
     ()),
    ("fleet run", _cmd_fleet_run, "simulate (or resume) the whole fleet",
     ("--spec", "--store",
      ("--workers", {"help": "worker processes for the lockstep band "
                             "groups and for craft that leave lockstep "
                             "(reports identical at any value)"}),
      "--report", "--no-batch", "--metrics", "--supervised", "--timeout")),
    ("fleet status", _cmd_fleet_status,
     "completed vs pending trials, without running",
     ("--spec", STORE_REQUIRED)),
    ("fleet report", _cmd_fleet_report,
     "rebuild the aggregate report from a complete store",
     ("--spec", STORE_REQUIRED, "--report")),
    ("fleet presets", _cmd_fleet_presets,
     "list the orbit-band and mission-profile catalog", ()),
    ("fleet bench", _cmd_fleet_bench,
     "raw SoA tick-engine throughput (no campaign layer)",
     ("--machines", "--ticks", "--dt", "--utilization", "--seed")),
    ("chaos", None, "fuzz the whole protection stack with seeded faults", ()),
    ("chaos list", _cmd_chaos_list, "list the standing chaos scenarios", ()),
    ("chaos run", _cmd_chaos_run, "run the chaos matrix and check invariants",
     ("--scenario", "--workers", "--store", "--trace", "--seed")),
    ("store", None, "audit a trial store's integrity (docs/ground.md)", ()),
    ("store verify", _cmd_store_verify,
     "read-only integrity walk: checksum every entry", (STORE_AUDITED,)),
    ("store scrub", _cmd_store_scrub,
     "verify + quarantine defective entries to .quarantine/",
     (STORE_AUDITED,)),
    ("store stats", _cmd_store_stats,
     "occupancy, per-campaign counts, integrity counters",
     (STORE_AUDITED,)),
    ("hmr", None, "hybrid modular redundancy: the mode lattice", ()),
    ("hmr modes", _cmd_hmr_modes, "list the redundancy-mode lattice", ()),
    ("hmr sweep", _cmd_hmr_sweep,
     "sweep the throughput-vs-SDC-coverage frontier",
     ("--scale", ("--seed", {"default": 7}), ("--workers", {"default": 1}),
      "--store", "--verify", "--json",
      ("--out", {"help": "write the frontier JSON to a file"}))),
    ("faults", None, "inspect the machine's addressable fault surface", ()),
    ("faults census", _cmd_faults_census,
     "print the machine-wide bit census (region, bits, protection, ECC)",
     ("--json", "--warm", "--seed")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Radshield reproduction: experiments and missions",
    )
    parsers = {"": parser}
    subparsers = {}
    for path, handler, help_text, options in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = parsers[group].add_subparsers(
                dest=f"{group}_command" if group else "command", required=True
            )
        sub = parsers[path] = subparsers[group].add_parser(name, help=help_text)
        for option in options:
            key, overrides = (option, {}) if isinstance(option, str) else option
            sub.add_argument(key, **{**OPTIONS[key], **overrides})
        if handler is not None:
            sub.set_defaults(func=handler)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
