"""Constellation-scale fleet simulation.

Declare a fleet (:class:`FleetSpec`: orbit bands x redundancy schemes
x mission profiles), run it (:func:`run_fleet`: SoA batch lanes for
lockstep craft, the process pool for SEL-bearing craft, every
trial persisted through the :class:`~repro.campaign.TrialStore`), and
aggregate it (:func:`build_report`: SEL/SDC/recovery rates per orbit
band and scheme). See ``docs/fleet.md``.
"""

from .calibration import (
    OUTCOME_ORDER,
    calibrate_fleet,
    calibration_campaign,
    calibration_table,
)
from .engine import (
    CRAFT_SPEC,
    FleetRunResult,
    fleet_campaign,
    fleet_status,
    flight_campaign,
    run_fleet,
)
from .presets import (
    HMR_POLICIES,
    PRESETS,
    PROFILES,
    HMRPolicy,
    MissionProfile,
    OrbitBandPreset,
    build_utilization,
    get_hmr_policy,
    get_preset,
    get_profile,
    register_preset,
    storm_variant,
)
from .report import build_report, render_report, report_json
from .spec import (
    FLEET_SCHEMES,
    BandSpec,
    FleetSpec,
    fleet_mode,
    load_spec,
    normalize_scheme,
    reference_spec,
    smoke_spec,
)

__all__ = [
    "CRAFT_SPEC",
    "FLEET_SCHEMES",
    "HMR_POLICIES",
    "OUTCOME_ORDER",
    "PRESETS",
    "PROFILES",
    "BandSpec",
    "FleetRunResult",
    "FleetSpec",
    "HMRPolicy",
    "MissionProfile",
    "OrbitBandPreset",
    "build_report",
    "build_utilization",
    "calibrate_fleet",
    "calibration_campaign",
    "calibration_table",
    "fleet_campaign",
    "fleet_mode",
    "fleet_status",
    "flight_campaign",
    "get_hmr_policy",
    "get_preset",
    "get_profile",
    "load_spec",
    "normalize_scheme",
    "reference_spec",
    "register_preset",
    "render_report",
    "report_json",
    "run_fleet",
    "smoke_spec",
    "storm_variant",
]
