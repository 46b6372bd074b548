"""Paper-scale experiment runs.

The registry defaults are minutes-scale simulations so all of
EXPERIMENTS.md regenerates in under a minute. The paper's headline campaigns are bigger;
this script runs the same registered campaigns at (or near) paper
scale, through ``repro.experiments.run_experiment``. Budget hours of
wall time for the full Table 2.

Usage::

    python scripts/run_paper_scale.py table2 [--hours 960] [--tick 1e-3] [--workers N]
    python scripts/run_paper_scale.py fig10 [--trials 30] [--workers N]
    python scripts/run_paper_scale.py table7 [--runs 20] [--workers N]

``--workers`` fans the campaign out over a deterministic process pool
(:mod:`repro.parallel`); results are bit-identical to a serial run, so
use every core you have. The default (unset) uses one worker per CPU.

``--trace FILE`` (table2, table7) records every span and event the
campaign emits into a JSONL trace — byte-identical at any worker
count — and ``--metrics`` prints a metrics snapshot; inspect traces
with ``python -m repro trace summarize FILE``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _metrics_registry(args: argparse.Namespace):
    if not getattr(args, "metrics", False):
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry()


def _report_obs(args: argparse.Namespace, metrics) -> None:
    if getattr(args, "trace", None):
        print(f"wrote trace: {args.trace}")
    if metrics is not None:
        print("metrics:")
        print(json.dumps(metrics.snapshot(), indent=2))


def _run(args: argparse.Namespace, grid, metrics=None):
    """The campaign's report, drained at ``--workers``."""
    from repro.experiments import run_experiment

    return run_experiment(
        grid, workers=args.workers, trace_path=getattr(args, "trace", None),
        metrics=metrics,
    )[1]


def run_table2(args: argparse.Namespace) -> None:
    from repro.experiments.common import SelBenchConfig
    from repro.experiments.table2_ild_accuracy import campaign

    episode_seconds = 1800.0  # the paper's 30-minute latchup cadence
    n_episodes = int(args.hours * 3600 / episode_seconds)
    config = SelBenchConfig(
        tick=args.tick,
        episode_seconds=episode_seconds,
        n_episodes=n_episodes,
        training_seconds=3600.0,
    )
    print(
        f"Table 2 at paper scale: {n_episodes} episodes x "
        f"{episode_seconds:.0f}s at {args.tick * 1e3:g} ms ticks "
        f"({args.hours:g} simulated hours, workers={args.workers or 'auto'})"
    )
    started = time.time()
    metrics = _metrics_registry(args)
    table = _run(args, campaign(config), metrics)
    print(table.render())
    print(f"wall time: {(time.time() - started) / 60:.1f} minutes")
    _report_obs(args, metrics)


def run_fig10(args: argparse.Namespace) -> None:
    from repro.experiments.fig10_misdetection import campaign

    print(f"Fig 10 with {args.trials} trials per current level")
    print(_run(args, campaign(trials_per_delta=args.trials)).render())


def run_table7(args: argparse.Namespace) -> None:
    from repro.experiments.table7_fault_injection import campaign

    print(f"Table 7 with {args.runs} injections per scheme")
    metrics = _metrics_registry(args)
    print(_run(args, campaign(runs_per_scheme=args.runs), metrics).render())
    _report_obs(args, metrics)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)

    table2 = sub.add_parser("table2")
    table2.add_argument("--hours", type=float, default=960.0)
    table2.add_argument("--tick", type=float, default=1e-3)
    table2.add_argument("--workers", type=int, default=None)
    table2.add_argument("--trace", default=None, metavar="FILE")
    table2.add_argument("--metrics", action="store_true")
    table2.set_defaults(func=run_table2)

    fig10 = sub.add_parser("fig10")
    fig10.add_argument("--trials", type=int, default=30)
    fig10.add_argument("--workers", type=int, default=None)
    fig10.set_defaults(func=run_fig10)

    table7 = sub.add_parser("table7")
    table7.add_argument("--runs", type=int, default=20)
    table7.add_argument("--workers", type=int, default=None)
    table7.add_argument("--trace", default=None, metavar="FILE")
    table7.add_argument("--metrics", action="store_true")
    table7.set_defaults(func=run_table7)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
