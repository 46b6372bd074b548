"""``repro.ground`` — fault tolerance for the *host* side of campaigns.

PRs 4–5 made the simulated spacecraft dependable on unreliable
hardware; this package applies the same discipline to the ground
segment that actually runs the campaigns. Two layers:

* :mod:`repro.ground.supervision` — the :class:`GroundPolicy` that
  turns the one worker pool underneath
  :func:`repro.parallel.pmap_report` and
  :func:`repro.campaign.execute` from fail-fast into supervised:
  per-trial wall-clock timeouts, bounded retry with **byte-identical
  reseeding** (a retried trial that succeeds is indistinguishable
  from a first-try success), crashed/hung-worker replacement,
  poison-trial quarantine (the campaign completes with a manifest
  instead of dying), and graceful degradation to serial execution
  when the pool is repeatedly lost.
* :mod:`repro.ground.chaos` — a deterministic host-fault chaos tier
  that proves the layer works: seeded scenarios inject worker crashes,
  hangs, transient exceptions, store bit-flips/truncations, and
  fill-disk write failures into real small campaigns and assert the
  PR-4-style invariants (always terminates, no silent escape,
  byte-identical final reports).

Store-side integrity (checksums, a per-round fsync barrier, quarantine) lives
with the store itself in :mod:`repro.campaign.store`.

See ``docs/ground.md``.
"""

from .chaos import (
    HostChaosReport,
    HostFaultScenario,
    default_host_scenarios,
    host_reports_digest,
    render_host_reports,
    run_host_chaos,
    run_host_scenario,
)
from .supervision import (
    GroundPolicy,
    QuarantinedTask,
    QuarantinedTrial,
    quarantine_manifest,
)

__all__ = [
    "GroundPolicy",
    "HostChaosReport",
    "HostFaultScenario",
    "QuarantinedTask",
    "QuarantinedTrial",
    "default_host_scenarios",
    "host_reports_digest",
    "quarantine_manifest",
    "render_host_reports",
    "run_host_chaos",
    "run_host_scenario",
]
