"""Equivalence matrix: every registered campaign through every execution
path, one digest per cell.

Rows are the subjects: each entry of ``repro.experiments.CAMPAIGNS``
(run by ``run_experiment``, as every entry point runs it), the
``smoke`` fleet, the adaptive ``smoke`` stream, the chaos matrix
and the host-fault row (one supervised six-trial campaign whose trials
crash a worker, fail transiently or fail every attempt; it must
quarantine the poison trial alone). Columns are the paths:

``serial``      ``workers=1`` into a fresh store: the reference.
``pool``        2 workers, ``force_pool`` where the entry point takes it.
``supervised``  ``GroundPolicy()`` at 2 workers.
``batched``     the row's other lockstep setting: for a campaign that
                declares a ``batch_fn`` (``table7``), its scalar
                ``trial_fn`` through
                ``dataclasses.replace(campaign, batch_fn=None)``; for
                the fleet, ``use_batch`` off (its default path is
                batched). A row whose campaign declares no
                ``batch_fn`` has one path only, so its cell is n/a.
``replay``      the serial cell's cold store run again: nothing executes.
``sigkill``     the row's ``python -m repro ... --store`` command killed
                once its store holds ``k`` trials, then resumed.
``rot``         a copy of the cold store with seeded entries truncated,
                bit-flipped or deleted, then resumed; the store's defect
                counter must equal the truncated plus flipped entries.

Every cell runs against its own store and is one digest,
``perfbench.workloads.sha256_json`` over the row's canonical values
plus ``store_listing`` of that store, so a cell matches the reference
only if it reproduced both the values and the store bytes. Pool and
supervised cells must also prove that a pool ran: ``check_pool`` must
accept one of the ``ParallelReport``\\ s that ``pool_reports`` captured.
A cell is ``n/a`` only where the row makes the path impossible, and
records the row's reason.

``k`` and the rot victims and offsets come from ``random.Random``
seeded with ``--seed``, the row and the column; they are written into
the JSON report, which names every failing cell as ``row × column``
(and every failed row check as ``row × check``). The script then exits
1. The stores, the SIGKILL subprocesses' stderr and the host-fault
row's quarantine manifest land in the artifacts directory, whose
``stores/`` subdirectory is rebuilt on every run.

Usage::

    PYTHONPATH=src python scripts/check_equivalence.py [--seed 0]
        [--out equivalence.json] [--artifacts equivalence-artifacts]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from perfbench.workloads import (  # noqa: E402
    PoolFallback,
    check_pool,
    pool_reports,
    sha256_json,
    store_listing,
)
from repro.campaign import TrialStore  # noqa: E402
from repro.campaign.stream import GridSource, execute_stream  # noqa: E402
from repro.experiments import run_experiment  # noqa: E402
from repro.ground import GroundPolicy  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402

WORKERS = 2
COLUMNS = ("serial", "pool", "supervised", "batched", "replay", "sigkill", "rot")
ROT_KINDS = ("truncate", "flip", "delete")
#: Entries a rot cell damages (fewer when the store holds fewer).
ROT_VICTIMS = 3
#: Wall-clock bound on one SIGKILL subprocess reaching its ``k``.
KILL_TIMEOUT_S = 900.0
NO_BATCH_FN = "the row has no batch_fn"


@dataclass
class Outcome:
    """What one run of a row produced."""

    canonical: object  # JSON-safe values the cell digest covers
    values: object  # what the row's checks read
    total: int  # trials (store entries) in a complete run


@dataclass
class Row:
    """One subject of the matrix.

    ``run(store=, workers=1, metrics=None, force_pool=False,
    supervision=None, switch_batch=False)`` executes the row against
    ``store`` and returns an :class:`Outcome`; ``switch_batch`` runs
    the row's other lockstep setting. ``command`` is the row's
    ``python -m repro`` argv without ``--store``. ``na`` maps a column
    to the reason the row makes that path impossible. ``check(outcome,
    artifacts)`` returns the row's own violations.
    """

    name: str
    run: object
    command: "tuple[str, ...] | None" = None
    na: "dict[str, str]" = field(default_factory=dict)
    check: object = None


# ----------------------------------------------------------------------
# rows
# ----------------------------------------------------------------------

def stream_row(name, make_source, command, *, check=None,
               registered=False) -> Row:
    """A row that drains a :class:`~repro.campaign.stream.TrialSource`,
    or a ``registered`` experiment through ``run_experiment``. Its
    canonical values are the per-round values digests, plus a
    registered experiment's rendered report. A row whose source is a
    campaign that declares a ``batch_fn`` has a batched column, which
    runs the campaign without it."""

    def run(*, store, workers=1, metrics=None, force_pool=False,
            supervision=None, switch_batch=False):
        kwargs = dict(
            store=store, workers=workers, metrics=metrics,
            force_pool=force_pool, supervision=supervision,
        )
        source = make_source()
        if switch_batch:
            source = replace(source, batch_fn=None)
        reports = []
        if registered:
            result, report = run_experiment(source, **kwargs)
            reports.append(report.render())
        else:
            result = execute_stream(source, **kwargs)
        canonical = [rnd.digest for rnd in result.rounds] + reports
        return Outcome(canonical, result.values, result.trials)

    declared = getattr(make_source(), "batch_fn", None) is not None
    na = {} if declared else {"batched": NO_BATCH_FN}
    return Row(name, run, command, na, check)


def fleet_row() -> Row:
    from repro.fleet import fleet_status, load_spec, report_json, run_fleet

    spec = load_spec("smoke")

    def run(*, store, workers=1, metrics=None, force_pool=False,
            supervision=None, switch_batch=False):
        result = run_fleet(
            spec, store=store, workers=workers, metrics=metrics,
            use_batch=not switch_batch, supervision=supervision,
            force_pool=force_pool,
        )
        total = sum(st.total for st in fleet_status(spec, store).values())
        return Outcome(json.loads(report_json(result.report)), result.report, total)

    def check(outcome, artifacts):
        report = outcome.values
        problems = []
        if not report["machine_hours"] > 0:
            problems.append("the fleet flew no machine-hours")
        if not report["totals"]["sel_total"] > 0:
            problems.append("no latchups sampled: the scalar shard never ran")
        return problems

    return Row("fleet", run, ("fleet", "run", "--spec", "smoke"), check=check)


#: The host-fault row's lanes: trial index -> (fault, failed attempts).
#: A crash and a transient error are retried to success; the poison
#: trial fails every attempt and is quarantined.
HOST_FAULTS = {1: ("crash", 1), 3: ("error", 2), 5: ("error", 99)}
HOST_TRIALS = 6
HOST_POLICY = GroundPolicy(backoff_base_seconds=0.01, backoff_max_seconds=0.05)


def _host_trial(item, rng, tracer=None):
    """Fire the item's fault for its first attempts (counted in a
    marker file: a crashed worker keeps no memory), then draw. The
    fault fires before the RNG is touched, so a retried success draws
    what a first try would."""
    if item["fault"] is not None:
        kind, fail = item["fault"]
        marker = Path(item["marker_dir"]) / f"{item['i']}.attempts"
        attempt = int(marker.read_text()) + 1 if marker.exists() else 1
        marker.write_text(str(attempt))
        if attempt <= fail:
            if kind == "crash":
                os._exit(9)
            raise RuntimeError(f"injected fault, attempt {attempt}")
    return int(rng.integers(0, 2**32))


def host_fault_row() -> Row:
    """One supervised campaign with a crash, a transient and a poison
    lane. It runs without a store, so the cell digest covers its values
    and its quarantine manifest."""
    import tempfile

    from repro.campaign import Campaign, Trial, execute
    from repro.ground import quarantine_manifest

    def run(*, workers=1, metrics=None, **_):
        with tempfile.TemporaryDirectory(prefix="host-fault-") as markers:
            trials = [
                Trial(params={"i": i}, item={
                    "i": i, "fault": HOST_FAULTS.get(i), "marker_dir": markers,
                })
                for i in range(HOST_TRIALS)
            ]
            result = execute(
                Campaign(name="host-fault", trial_fn=_host_trial, trials=trials, seed=0),
                workers=workers, metrics=metrics, supervision=HOST_POLICY,
            )
        canonical = {"values": result.values, "manifest": quarantine_manifest(result)}
        return Outcome(canonical, result, HOST_TRIALS)

    def check(outcome, artifacts):
        return quarantine_drill(outcome.values, artifacts / "quarantine-manifest.json")

    no_store = "the row keeps no store"
    return Row(
        "host-fault",
        run,
        na={
            "supervised": "the row always runs under its own GroundPolicy",
            "batched": NO_BATCH_FN,
            "replay": f"{no_store}; a quarantined trial is never stored, "
                      "so a replay would re-run it",
            "sigkill": no_store,
            "rot": no_store,
        },
        check=check,
    )


def quarantine_drill(result, manifest_path: Path) -> "list[str]":
    """The host-fault run must complete with the poison trial, and only
    it, in its manifest, which is written to ``manifest_path``."""
    from repro.ground import quarantine_manifest

    manifest = quarantine_manifest(result)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    quarantined = [q["index"] for q in manifest["quarantined"]]
    attempts = HOST_POLICY.max_attempts
    poison = [i for i, (_, fail) in HOST_FAULTS.items() if fail >= attempts]
    retries = sum(min(fail, attempts - 1) for _, fail in HOST_FAULTS.values())
    problems = []
    if result.report.retries != retries:
        problems.append(f"{result.report.retries} retries recorded, expected {retries}")
    if quarantined != poison:
        problems.append(f"quarantine manifest names {quarantined}, expected {poison}")
    if not all(q["fingerprint"] and q["error"] for q in manifest["quarantined"]):
        problems.append("a quarantined trial lacks its fingerprint or error")
    healthy = sum(v is not None for v in result.values)
    if healthy != HOST_TRIALS - len(quarantined):
        problems.append(f"the host-fault campaign lost healthy trials ({healthy} left)")
    return problems


def registered_rows() -> "list[Row]":
    """Every CAMPAIGNS entry, then the fleet, adaptive, chaos and
    host-fault rows."""
    from repro.adaptive import build_source
    from repro.chaos import chaos_campaign
    from repro.experiments import CAMPAIGNS

    rows = [
        stream_row(name, factory, ("campaign", "run", name), registered=True)
        for name, factory in CAMPAIGNS.items()
    ]
    rows.append(fleet_row())
    rows.append(stream_row(
        "adaptive",
        lambda: build_source("smoke", seed=0)[0],
        ("adaptive", "run", "--surface", "smoke", "--seed", "0"),
    ))
    rows.append(stream_row(
        "chaos",
        lambda: GridSource(chaos_campaign(seed=0)),
        ("chaos", "run", "--seed", "0"),
        check=lambda outcome, artifacts: [
            f"{r.scenario}: {v}" for r in outcome.values for v in r.violations
        ],
    ))
    rows.append(host_fault_row())
    return rows


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------

def _entries(root: Path) -> "list[Path]":
    return sorted(Path(root).glob("??/*.json"))


def _counter(metrics: MetricsRegistry, name: str) -> int:
    return int(metrics.snapshot()["counters"].get(name, 0))


def _execute(row: Row, store: TrialStore, **kwargs):
    """Run ``row`` into ``store``: ``(outcome, cell digest, reports)``."""
    with pool_reports() as reports:
        outcome = row.run(store=store, **kwargs)
    digest = sha256_json({"values": outcome.canonical, "store": store_listing(store.root)})
    return outcome, digest, reports


def _pooled(report) -> bool:
    try:
        check_pool(report, min(WORKERS, len(report.timings)))
    except PoolFallback:
        return False
    return True


def pooled_cell(row: Row, store_dir: Path, **kwargs) -> dict:
    """A pool or supervised cell: its digest, and the captured reports
    as evidence that at least one of them really ran in a pool."""
    _, digest, reports = _execute(row, TrialStore(store_dir), workers=WORKERS, **kwargs)
    seen = [
        {"mode": r.mode, "workers": r.workers, "tasks": len(r.timings)}
        for r in reports
    ]
    record = {"digest": digest, "pool": seen}
    if not any(_pooled(r) for r in reports):
        record["errors"] = ["no captured ParallelReport ran in a pool"]
    return record


def replay_cell(row: Row, cold_dir: Path) -> dict:
    metrics = MetricsRegistry()
    _, digest, _ = _execute(row, TrialStore(cold_dir), metrics=metrics)
    executed = _counter(metrics, "campaign.trials.executed")
    record = {"digest": digest, "executed": executed}
    if executed:
        record["errors"] = [f"replay of the cold store executed {executed} trials"]
    return record


def resume_checks(record: dict, metrics, stored: int, total: int) -> None:
    """Resuming a store that held ``stored`` of ``total`` good entries
    replays exactly those and executes exactly the rest."""
    hits = _counter(metrics, "campaign.store.hits")
    executed = _counter(metrics, "campaign.trials.executed")
    record.update(hits=hits, executed=executed)
    if hits != stored:
        record["errors"].append(f"resume replayed {hits} entries, expected {stored}")
    if executed != total - stored:
        record["errors"].append(f"resume executed {executed} trials, expected {total - stored}")


def sigkill_cell(row: Row, total: int, store_dir: Path, rng: random.Random) -> dict:
    """Kill the row's CLI run once its store holds ``k`` trials (its
    whole process group, pool workers included), then resume."""
    k = rng.randint(1, total - 1)
    store_dir.mkdir(parents=True)
    argv = [sys.executable, "-m", "repro", *row.command, "--store", str(store_dir)]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    with open(store_dir.parent / "sigkill.stderr", "wb") as stderr:
        proc = subprocess.Popen(
            argv, cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
            start_new_session=True,
        )
        deadline = time.monotonic() + KILL_TIMEOUT_S
        try:
            while (proc.poll() is None and len(_entries(store_dir)) < k
                   and time.monotonic() < deadline):
                time.sleep(0.02)
        finally:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait()
    stored = len(_entries(store_dir))
    record = {"k": k, "stored_at_kill": stored, "returncode": proc.returncode, "errors": []}
    if stored == 0:
        record["errors"].append("the subprocess stored no trials; see sigkill.stderr")
        return record
    if stored >= total:
        # The run finished before the kill: trim back to k so the
        # resume still has work to do.
        for path in _entries(store_dir)[k:]:
            path.unlink()
        stored = record["trimmed_to"] = k
    metrics = MetricsRegistry()
    _, record["digest"], _ = _execute(row, TrialStore(store_dir), metrics=metrics)
    resume_checks(record, metrics, stored, total)
    return record


def rot_cell(row: Row, total: int, cold_dir: Path, store_dir: Path,
             rng: random.Random) -> dict:
    """Damage seeded entries of a copy of the cold store, then resume."""
    shutil.copytree(cold_dir, store_dir)
    entries = _entries(store_dir)
    victims = rng.sample(entries, min(ROT_VICTIMS, len(entries)))
    first = rng.randrange(len(ROT_KINDS))
    plan = []
    for i, path in enumerate(victims):
        kind = ROT_KINDS[(first + i) % len(ROT_KINDS)]
        damage = {"entry": path.name, "kind": kind}
        if kind == "delete":
            path.unlink()
        else:
            # Truncation leaves an unterminated document; flipping the
            # low bit of any byte of compact JSON breaks the parse or
            # the checksum. Either way the entry is a defect.
            raw = bytearray(path.read_bytes())
            damage["offset"] = offset = rng.randrange(len(raw))
            if kind == "truncate":
                del raw[offset:]
            else:
                raw[offset] ^= 0x01
            path.write_bytes(bytes(raw))
        plan.append(damage)
    store = TrialStore(store_dir)
    metrics = MetricsRegistry()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, digest, _ = _execute(row, store, metrics=metrics)
    defects = sum(store.counters[k] for k in ("corrupt", "stale", "unreadable"))
    expected = sum(d["kind"] != "delete" for d in plan)
    record = {"digest": digest, "damage": plan, "defects": defects, "errors": []}
    if defects != expected:
        record["errors"].append(
            f"store counted {defects} defects, expected {expected} "
            "(truncated plus flipped entries)"
        )
    resume_checks(record, metrics, total - len(plan), total)
    return record


def na_reason(row: Row, column: str, outcome: "Outcome | None") -> "str | None":
    if column in row.na:
        return row.na[column]
    if outcome is not None and outcome.total < 2:
        if column == "pool":
            return "a one-trial grid cannot fan out to 2 workers"
        if column == "sigkill":
            return "a one-trial grid cannot be killed mid-grid"
    if column == "sigkill" and row.command is None:
        return "the row has no `python -m repro ... --store` command"
    return None


def run_cell(fn, reference: "str | None") -> dict:
    """One cell's record. A path that raises is a failing cell, not a
    dead harness."""
    started = time.perf_counter()
    try:
        record = fn()
    except Exception as exc:  # noqa: BLE001 - reported in the artifact
        record = {"errors": [f"{type(exc).__name__}: {exc}"]}
    errors = record.pop("errors", None) or []
    if reference is not None and record.get("digest") not in (None, reference):
        errors.insert(0, "digest differs from the serial cell")
    record["status"] = "fail" if errors else "pass"
    if errors:
        record["errors"] = errors
    record["seconds"] = round(time.perf_counter() - started, 2)
    return record


def path_cell(row: Row, column: str, total: int, root: Path,
              rng: random.Random) -> dict:
    """Run ``row`` down one path other than the reference; the cell's
    record."""
    store_dir, cold_dir = root / column, root / "serial"
    if column == "pool":
        return pooled_cell(row, store_dir, force_pool=True)
    if column == "supervised":
        return pooled_cell(row, store_dir, supervision=GroundPolicy())
    if column == "batched":
        return {"digest": _execute(row, TrialStore(store_dir), switch_batch=True)[1]}
    if column == "replay":
        return replay_cell(row, cold_dir)
    if column == "sigkill":
        return sigkill_cell(row, total, store_dir, rng)
    return rot_cell(row, total, cold_dir, store_dir, rng)


def check_row(row: Row, *, seed: int, root: Path, artifacts: Path) -> dict:
    """Every column of one row, then the row's own checks."""
    cells = {}
    outcome = None
    cold_dir = root / "serial"

    def serial():
        nonlocal outcome
        outcome, digest, _ = _execute(row, TrialStore(cold_dir))
        return {"digest": digest, "total": outcome.total}

    cells["serial"] = run_cell(serial, None)
    reference = cells["serial"].get("digest")
    _print_cell(row.name, "serial", cells["serial"])
    for column in COLUMNS[1:]:
        reason = na_reason(row, column, outcome)
        if reason is not None:
            cells[column] = {"status": "n/a", "reason": reason}
        elif outcome is None:
            cells[column] = {"status": "fail", "errors": ["no reference: the serial cell failed"]}
        else:
            rng = random.Random(f"{seed}/{row.name}/{column}")
            cells[column] = run_cell(
                lambda: path_cell(row, column, outcome.total, root, rng), reference,
            )
        _print_cell(row.name, column, cells[column])
    checks = []
    if outcome is not None and row.check is not None:
        try:
            checks = row.check(outcome, artifacts)
        except Exception as exc:  # noqa: BLE001 - reported in the artifact
            checks = [f"{type(exc).__name__}: {exc}"]
    return {"cells": cells, "checks": checks}


def _print_cell(row: str, column: str, cell: dict) -> None:
    detail = cell.get("reason") or "; ".join(cell.get("errors", ()))
    seconds = f"{cell['seconds']:7.2f}s" if "seconds" in cell else " " * 8
    print(f"{row:<32} {column:<10} {cell['status']:<4} {seconds} {detail}", flush=True)


def run_matrix(rows: "list[Row]", *, seed: int, artifacts: Path) -> dict:
    """Run every row through every column; the JSON report."""
    stores = artifacts / "stores"
    shutil.rmtree(stores, ignore_errors=True)
    started = time.perf_counter()
    report = {"seed": seed, "columns": list(COLUMNS), "rows": {}, "failures": []}
    for row in rows:
        record = check_row(
            row, seed=seed, root=stores / row.name.replace(":", "-"), artifacts=artifacts,
        )
        report["rows"][row.name] = record
        report["failures"] += [
            f"{row.name} × {column}: {'; '.join(cell['errors'])}"
            for column, cell in record["cells"].items()
            if cell["status"] == "fail"
        ]
        report["failures"] += [f"{row.name} × check: {c}" for c in record["checks"]]
    report["wall_seconds"] = round(time.perf_counter() - started, 1)
    return report


def main(argv: "list[str] | None" = None, rows: "list[Row] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds k and the rot victims and offsets")
    parser.add_argument("--out", default="equivalence.json", help="the JSON report")
    parser.add_argument("--artifacts", default="equivalence-artifacts",
                        help="directory for stores, stderr logs and the manifest")
    args = parser.parse_args(argv)

    artifacts = Path(args.artifacts).resolve()
    artifacts.mkdir(parents=True, exist_ok=True)
    report = run_matrix(
        registered_rows() if rows is None else rows, seed=args.seed, artifacts=artifacts,
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    cells = [c for r in report["rows"].values() for c in r["cells"].values()]
    counts = {s: sum(c["status"] == s for c in cells) for s in ("pass", "fail", "n/a")}
    print(
        f"{len(report['rows'])} rows, {counts['pass']} cells pass, "
        f"{counts['fail']} fail, {counts['n/a']} n/a in {report['wall_seconds']} s; "
        f"report at {args.out}"
    )
    for failure in report["failures"]:
        print(f"FAIL {failure}")
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
