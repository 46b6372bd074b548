"""Host-fault chaos tier: break the ground segment, assert it holds.

PR 4's chaos harness (:mod:`repro.chaos`) storms the *simulated
spacecraft*; this tier storms the *host* that runs the campaigns.
Each :class:`HostFaultScenario` executes a real (small) campaign while
deterministically injecting ground-segment faults — worker crashes
(``os._exit``), hung workers, transient trial exceptions, store
bit-flips and truncations, fill-disk write failures — and asserts the
ground-segment invariants:

* **Always terminates.** No injected fault may hang or abort the
  campaign run (disk faults terminate it with a *clear, typed* error,
  which counts as terminating).
* **No silent escape.** Every injected fault is visible afterwards:
  as a ``ground.*`` counter, a quarantine manifest entry, a store
  integrity counter, or a raised :class:`~repro.errors.StoreWriteError`
  — never as silently wrong or silently missing results.
* **Byte-identical reports.** The surviving results of a faulted run
  — and the completed results after recovery/resume — are
  byte-identical to the fault-free baseline, at any worker count.

Fault injection is deterministic without being fingerprinted: the
fault plan rides in each trial's *item* (the picklable payload), never
in its *params* (the fingerprint material), so a faulted campaign
shares its fingerprints — and therefore its store entries and its
results — with the fault-free one. Attempt counting crosses process
boundaries via marker files (a crashed worker cannot carry an
in-memory counter to its replacement), and every fault fires *before*
the trial consumes its RNG, so a retried success is byte-identical to
a first-try success.
"""

from __future__ import annotations

import errno
import hashlib
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..campaign import Campaign, Trial, canonical_json, execute, status
from ..campaign.store import TrialStore
from ..errors import StoreWriteError
from ..obs import MetricsRegistry
from ..workloads.aes import AesWorkload
from .supervision import GroundPolicy

__all__ = [
    "HostChaosReport",
    "HostFaultScenario",
    "default_host_scenarios",
    "host_reports_digest",
    "render_host_reports",
    "run_host_chaos",
    "run_host_scenario",
]

#: Scenario kinds that inject inside the worker (vs. into the store).
_WORKER_KINDS = frozenset({"crash", "hang", "transient"})
_STORE_KINDS = frozenset({"store-bitflip", "store-truncate", "disk-full"})


@dataclass(frozen=True)
class HostFaultScenario:
    """One deterministic ground-fault injection plan.

    ``kind`` picks the fault: ``crash`` (``os._exit`` mid-trial),
    ``hang`` (sleep past the attempt timeout), ``transient`` (a trial
    exception), ``store-bitflip`` / ``store-truncate`` (corrupt a
    stored entry between runs), ``disk-full`` (``ENOSPC`` on put).
    Worker faults fire on the trials in ``fault_trials`` for their
    first ``fail_attempts`` attempts, then stop — so
    ``fail_attempts >= max_attempts`` makes a poison trial. The
    remaining fields mirror :class:`~repro.ground.GroundPolicy`.
    """

    name: str
    kind: str
    trials: int = 6
    seed: int = 0
    fault_trials: "tuple[int, ...]" = (2,)
    fail_attempts: int = 1
    timeout_seconds: "float | None" = 10.0
    max_attempts: int = 3
    max_worker_losses: int = 8
    expect_quarantined: "tuple[int, ...]" = ()
    expect_serial_fallback: bool = False

    def policy(self) -> GroundPolicy:
        return GroundPolicy(
            timeout_seconds=self.timeout_seconds,
            max_attempts=self.max_attempts,
            backoff_base_seconds=0.01,
            backoff_max_seconds=0.1,
            max_worker_losses=self.max_worker_losses,
        )


def default_host_scenarios() -> "tuple[HostFaultScenario, ...]":
    """The CI matrix: every fault class the ground layer must survive."""
    return (
        # A worker hard-crashes mid-trial once; the replacement worker
        # retries with the same seed and succeeds.
        HostFaultScenario(name="worker-crash", kind="crash", seed=101),
        # A worker wedges; the deadline kills it and the retry lands.
        HostFaultScenario(
            name="worker-hang", kind="hang", seed=102, timeout_seconds=0.75
        ),
        # A trial throws twice, then succeeds on the third attempt.
        HostFaultScenario(
            name="transient-error", kind="transient", seed=103, fail_attempts=2
        ),
        # A trial that never stops failing: quarantined after
        # max_attempts, the campaign still completes.
        HostFaultScenario(
            name="poison-trial",
            kind="transient",
            seed=104,
            fail_attempts=99,
            expect_quarantined=(2,),
        ),
        # The pool dies three times (budget: two) — the run degrades to
        # serial and the fourth attempt succeeds in-process.
        HostFaultScenario(
            name="pool-loss",
            kind="crash",
            seed=105,
            fail_attempts=3,
            max_attempts=6,
            max_worker_losses=2,
            expect_serial_fallback=True,
        ),
        # A stored entry rots on disk (single flipped byte); resume
        # must detect, quarantine, and re-run it.
        HostFaultScenario(name="store-bitflip", kind="store-bitflip", seed=106),
        # A stored entry is truncated (torn write / lost tail).
        HostFaultScenario(
            name="store-truncate", kind="store-truncate", seed=107
        ),
        # The disk fills mid-campaign; the run dies with a typed error
        # and a later run on a healthy disk resumes what was persisted.
        HostFaultScenario(name="disk-full", kind="disk-full", seed=108),
    )


# ----------------------------------------------------------------------
# the campaign under test
# ----------------------------------------------------------------------
def _inject_host_fault(index: int, fault: dict) -> None:
    """Fire the planned fault for attempt N of trial ``index``.

    Attempts are counted in marker files under the scenario's scratch
    directory — in-memory counters die with the crashed worker, the
    filesystem does not. Fires strictly before the trial touches its
    RNG, so surviving attempts are byte-identical to fault-free ones.
    """
    if index not in fault["trials"]:
        return
    marker = Path(fault["marker_dir"]) / f"trial-{index}.attempts"
    attempt = int(marker.read_text()) + 1 if marker.exists() else 1
    marker.write_text(str(attempt))
    if attempt > fault["fail_attempts"]:
        return
    kind = fault["kind"]
    if kind == "crash":
        os._exit(23)  # hard death: no exception, no cleanup, broken pipe
    if kind == "hang":
        time.sleep(3600.0)  # the supervisor's deadline must bite first
    if kind == "transient":
        raise RuntimeError(f"injected transient host fault (attempt {attempt})")


def _host_trial(item: dict, rng, tracer=None) -> dict:
    """One small real trial: build an AES workload, digest its outputs.

    The result depends only on ``rng`` (pinned by the campaign seed and
    the trial index), never on the fault plan — that is the property
    every byte-identity assertion below leans on.
    """
    fault = item.get("fault")
    if fault is not None:
        _inject_host_fault(item["i"], fault)
    workload = AesWorkload(chunk_bytes=32, chunks=2)
    spec = workload.build(rng)
    material = b"".join(workload.reference_outputs(spec))
    return {
        "i": item["i"],
        "digest": hashlib.sha256(material).hexdigest(),
    }


def _host_campaign(
    scenario: HostFaultScenario, fault: "dict | None" = None
) -> Campaign:
    """The scenario's campaign. ``fault`` rides in the items only —
    params (and so fingerprints) are identical with and without it."""
    trials = []
    for i in range(scenario.trials):
        item: dict = {"i": i}
        if fault is not None:
            item["fault"] = fault
        trials.append(Trial(params={"i": i}, item=item))
    return Campaign(
        name=f"ground-chaos-{scenario.name}",
        trial_fn=_host_trial,
        trials=trials,
        seed=scenario.seed,
    )


def _values_digest(values: "list") -> str:
    """SHA-256 over the canonical JSON of the values, grid order.
    Quarantined slots are ``None`` and hash as such."""
    material = canonical_json(values)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class _FullDiskStore(TrialStore):
    """A store whose disk fills after ``capacity`` entries.

    Overrides the write seam only: the first ``capacity`` puts land
    normally, every later one fails with ``ENOSPC`` — exactly what a
    filling volume does — which :meth:`TrialStore.put` must translate
    into a :class:`~repro.errors.StoreWriteError`.
    """

    def __init__(self, root, capacity: int) -> None:
        super().__init__(root)
        self.capacity = capacity
        self.writes = 0

    def _write_entry(self, path, entry) -> None:
        if self.writes >= self.capacity:
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        super()._write_entry(path, entry)
        self.writes += 1


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@dataclass
class HostChaosReport:
    """What one host-fault scenario proved (or failed to prove).

    Deliberately excludes the worker count and any host path, so the
    digest over a matrix run is comparable across worker counts and
    reruns — the cross-run witness ``scripts/check_equivalence.py`` uses.
    """

    scenario: str
    kind: str
    seed: int
    counters: "dict[str, int]" = field(default_factory=dict)
    quarantined: "list[int]" = field(default_factory=list)
    serial_fallback: bool = False
    values_digest: str = ""
    violations: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "seed": self.seed,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "quarantined": list(self.quarantined),
            "serial_fallback": self.serial_fallback,
            "values_digest": self.values_digest,
            "violations": list(self.violations),
        }


def host_reports_digest(reports: "list[HostChaosReport]") -> str:
    """SHA-256 over every report's canonical encoding, in order."""
    material = canonical_json([r.to_dict() for r in reports])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def render_host_reports(reports: "list[HostChaosReport]") -> str:
    """Human-readable matrix summary (mirrors ``repro chaos run``)."""
    lines = []
    total = 0
    for report in reports:
        verdict = "ok" if report.ok else f"{len(report.violations)} VIOLATION(S)"
        total += len(report.violations)
        interesting = " ".join(
            f"{k.removeprefix('ground.')}={v}"
            for k, v in sorted(report.counters.items())
            if v
        )
        extras = []
        if report.quarantined:
            extras.append(f"quarantined={report.quarantined}")
        if report.serial_fallback:
            extras.append("serial-fallback")
        lines.append(
            f"{report.scenario:<18} {verdict:<16} "
            f"{' '.join([interesting, *extras]).strip()}"
        )
        for violation in report.violations:
            lines.append(f"    !! {violation}")
    lines.append(
        f"{len(reports)} scenario(s), {total} violation(s), "
        f"digest {host_reports_digest(reports)[:16]}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# scenario runners
# ----------------------------------------------------------------------
_GROUND_COUNTERS = (
    "ground.worker_crashes",
    "ground.timeouts",
    "ground.trial_errors",
    "ground.retries",
    "ground.worker_losses",
    "ground.quarantined",
    "ground.serial_fallback",
)


def _ground_counters(metrics: MetricsRegistry) -> "dict[str, int]":
    counters = metrics.snapshot()["counters"]
    return {
        name: int(counters[name])
        for name in _GROUND_COUNTERS
        if counters.get(name)
    }


def _run_worker_fault(
    scenario: HostFaultScenario,
    report: HostChaosReport,
    baseline_values: "list",
    workers: int,
    scratch: Path,
) -> None:
    """Crash / hang / transient / poison / pool-loss scenarios."""
    fault = {
        "kind": scenario.kind,
        "trials": list(scenario.fault_trials),
        "fail_attempts": scenario.fail_attempts,
        "marker_dir": str(scratch / "markers"),
    }
    (scratch / "markers").mkdir(parents=True, exist_ok=True)
    metrics = MetricsRegistry()
    result = execute(
        _host_campaign(scenario, fault=fault),
        workers=workers,
        supervision=scenario.policy(),
        metrics=metrics,
    )
    report.counters = _ground_counters(metrics)
    report.quarantined = sorted(q.index for q in result.quarantined)
    report.serial_fallback = bool(result.report.serial_fallback)

    expected = [
        None if i in scenario.expect_quarantined else baseline_values[i]
        for i in range(scenario.trials)
    ]
    if result.values != expected:
        report.violations.append(
            "surviving results diverged from the fault-free baseline"
        )
    if report.quarantined != sorted(scenario.expect_quarantined):
        report.violations.append(
            f"quarantine manifest {report.quarantined} != expected "
            f"{sorted(scenario.expect_quarantined)}"
        )
    if report.serial_fallback != scenario.expect_serial_fallback:
        report.violations.append(
            f"serial_fallback={report.serial_fallback}, expected "
            f"{scenario.expect_serial_fallback}"
        )
    # No silent escape: every injected fault shows up in the counters.
    if scenario.fault_trials and not report.counters:
        report.violations.append(
            "faults were injected but no ground.* counter recorded them"
        )


def _run_store_rot(
    scenario: HostFaultScenario,
    report: HostChaosReport,
    baseline_values: "list",
    workers: int,
    scratch: Path,
) -> None:
    """store-bitflip / store-truncate: corrupt one entry, resume."""
    store = TrialStore(scratch / "store")
    campaign = _host_campaign(scenario)
    execute(campaign, workers=1, store=store)

    fingerprints = store.fingerprints()
    victim = store.path(fingerprints[scenario.seed % len(fingerprints)])
    raw = victim.read_bytes()
    if scenario.kind == "store-truncate":
        victim.write_bytes(raw[: len(raw) // 2])
    else:
        middle = len(raw) // 2
        victim.write_bytes(raw[:middle] + bytes([raw[middle] ^ 0xFF]) + raw[middle + 1 :])

    metrics = MetricsRegistry()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = execute(
            campaign,
            workers=workers,
            store=store,
            supervision=scenario.policy(),
            metrics=metrics,
        )
    counters = metrics.snapshot()["counters"]
    report.counters = {
        "store.corrupt": int(counters.get("campaign.store.corrupt", 0)),
        "store.reexecuted": result.executed,
    }
    if result.values != baseline_values:
        report.violations.append(
            "resumed results diverged from the fault-free baseline"
        )
    if counters.get("campaign.store.corrupt", 0) != 1:
        report.violations.append(
            "corrupted entry was not counted as a store defect"
        )
    if result.executed != 1 or result.store_hits != scenario.trials - 1:
        report.violations.append(
            f"expected exactly the corrupted trial to re-run, got "
            f"executed={result.executed} hits={result.store_hits}"
        )
    if not list(store.quarantine_dir.glob("*.json")):
        report.violations.append("corrupted entry never reached .quarantine/")
    if not status(campaign, store).completed == scenario.trials:
        report.violations.append("store incomplete after recovery re-run")


def _run_disk_full(
    scenario: HostFaultScenario,
    report: HostChaosReport,
    baseline_values: "list",
    workers: int,
    scratch: Path,
) -> None:
    """disk-full: ENOSPC mid-campaign must terminate with a typed
    error, then a healthy-disk rerun resumes what was persisted."""
    root = scratch / "store"
    capacity = 2
    flaky = _FullDiskStore(root, capacity=capacity)
    campaign = _host_campaign(scenario)
    try:
        execute(
            campaign,
            workers=workers,
            store=flaky,
            supervision=scenario.policy(),
        )
        report.violations.append(
            "campaign survived a full disk without raising StoreWriteError"
        )
    except StoreWriteError as exc:
        if "resume" not in str(exc):
            report.violations.append(
                "StoreWriteError carries no operator guidance"
            )
    persisted = len(TrialStore(root))
    report.counters = {"store.persisted_before_failure": persisted}
    if persisted != capacity:
        report.violations.append(
            f"{persisted} entries on disk after failure, expected {capacity}"
        )

    # The disk is "freed": a plain store at the same root resumes.
    healthy = TrialStore(root)
    result = execute(
        campaign,
        workers=workers,
        store=healthy,
        supervision=scenario.policy(),
    )
    report.counters["store.resumed_hits"] = result.store_hits
    if result.values != baseline_values:
        report.violations.append(
            "post-recovery results diverged from the fault-free baseline"
        )
    if result.store_hits != capacity:
        report.violations.append(
            f"resume re-ran persisted trials (hits={result.store_hits})"
        )


def run_host_scenario(
    scenario: HostFaultScenario, *, workers: int = 2
) -> HostChaosReport:
    """Run one scenario in a throwaway scratch directory.

    The report is a pure function of ``(scenario, workers)`` up to the
    invariants it checks — and contains nothing worker-count- or
    host-dependent, so matrix digests compare across worker counts.
    """
    report = HostChaosReport(
        scenario=scenario.name, kind=scenario.kind, seed=scenario.seed
    )
    baseline = execute(_host_campaign(scenario), workers=1)
    report.values_digest = _values_digest(baseline.values)

    with tempfile.TemporaryDirectory(prefix=f"ground-{scenario.name}-") as tmp:
        scratch = Path(tmp)
        try:
            if scenario.kind in _WORKER_KINDS:
                _run_worker_fault(
                    scenario, report, baseline.values, workers, scratch
                )
            elif scenario.kind in {"store-bitflip", "store-truncate"}:
                _run_store_rot(
                    scenario, report, baseline.values, workers, scratch
                )
            elif scenario.kind == "disk-full":
                _run_disk_full(
                    scenario, report, baseline.values, workers, scratch
                )
            else:
                report.violations.append(f"unknown scenario kind {scenario.kind!r}")
        except Exception as exc:  # noqa: BLE001 - invariant: always terminates
            report.violations.append(
                f"scenario escaped with {type(exc).__name__}: {exc}"
            )
    return report


def run_host_chaos(
    scenarios: "tuple[HostFaultScenario, ...] | None" = None,
    *,
    workers: int = 2,
) -> "tuple[list[HostChaosReport], str]":
    """Run the matrix; returns ``(reports, digest)``."""
    scenarios = scenarios if scenarios is not None else default_host_scenarios()
    reports = [run_host_scenario(s, workers=workers) for s in scenarios]
    return reports, host_reports_digest(reports)
