"""The fleet scenario catalog: orbit-band presets and mission profiles.

Each :class:`OrbitBandPreset` wraps a
:class:`~repro.radiation.environment.RadiationEnvironment` with a
one-line physical rationale, anchored to the repo's paper-calibrated
environments (``LOW_EARTH_ORBIT``, ``DEEP_SPACE``) and scaled by
well-known orbital features:

* the **South Atlantic Anomaly**, where the inner proton belt dips to
  LEO altitude and dominates equatorial upset counts;
* the **polar horns**, where the outer belt reaches down and the weak
  geomagnetic cutoff admits solar protons;
* **GEO**, outside most magnetospheric shielding, GCR-dominated;
* **solar energetic-particle storms**, which raise flux by roughly an
  order of magnitude for hours-to-days and appear here as ``-storm``
  variants of every quiet-time band.

The numbers are coarse mission-planning multipliers over the paper's
anchors, not a transport-code product; each preset records its
justification so the table in ``docs/fleet.md`` stays honest.

Mission profiles describe *what the craft computes*: a deterministic
utilization schedule (no RNG) that both the scalar and the batched
tick engines replay identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError
from ..hmr import HMRScheduler, WorkloadPhase, mode_named
from ..radiation.environment import (
    DEEP_SPACE,
    LOW_EARTH_ORBIT,
    RadiationEnvironment,
)
from ..recovery import PolicyConfig

__all__ = [
    "HMR_POLICIES",
    "PRESETS",
    "PROFILES",
    "HMRPolicy",
    "MissionProfile",
    "OrbitBandPreset",
    "build_utilization",
    "get_hmr_policy",
    "get_preset",
    "get_profile",
    "register_preset",
    "storm_variant",
]


@dataclass(frozen=True)
class OrbitBandPreset:
    """One orbit band: an environment plus its physical justification."""

    name: str
    rationale: str
    environment: RadiationEnvironment

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("preset name must be non-empty")
        if not self.rationale:
            raise ConfigurationError(
                f"preset {self.name!r} needs a one-line physical rationale"
            )


def _scaled(
    base: RadiationEnvironment,
    name: str,
    seu_factor: float = 1.0,
    sel_factor: float = 1.0,
    amps: "tuple[float, float] | None" = None,
) -> RadiationEnvironment:
    return replace(
        base,
        name=name,
        seu_per_day=base.seu_per_day * seu_factor,
        sel_per_year=base.sel_per_year * sel_factor,
        sel_delta_amps_range=amps or base.sel_delta_amps_range,
    )


def storm_variant(
    preset: OrbitBandPreset,
    seu_factor: float = 8.0,
    sel_factor: float = 4.0,
) -> OrbitBandPreset:
    """The band during a solar energetic-particle event.

    SEP events raise particle flux by roughly an order of magnitude
    for hours-to-days (CREME96's "worst day" is ~10x the quiet-time
    GCR environment); latchup-capable heavy-ion flux rises less than
    the proton-dominated upset flux, hence the smaller SEL factor.
    """
    if seu_factor < 1 or sel_factor < 1:
        raise ConfigurationError("storm factors must be >= 1")
    low, high = preset.environment.sel_delta_amps_range
    env = _scaled(
        preset.environment,
        f"{preset.environment.name}-storm",
        seu_factor,
        sel_factor,
        amps=(low, high * 1.25),
    )
    return OrbitBandPreset(
        name=f"{preset.name}-storm",
        rationale=(
            f"{preset.name} during a solar energetic-particle event: "
            f"~{seu_factor:g}x upsets, ~{sel_factor:g}x latchups for the "
            "storm's duration"
        ),
        environment=env,
    )


_LEO_EQUATORIAL = OrbitBandPreset(
    name="leo-equatorial",
    rationale=(
        "the paper's Sec 2.3 LEO anchor: below the belts, geomagnetically "
        "shielded, yet ~7e5x the sea-level upset rate"
    ),
    environment=LOW_EARTH_ORBIT,
)

_LEO_SAA = OrbitBandPreset(
    name="leo-saa",
    rationale=(
        "SAA-crossing LEO: the inner proton belt dips to ~500 km over the "
        "South Atlantic and contributes most upsets on low-inclination "
        "orbits (~3x SEU, ~2.5x SEL vs quiet LEO)"
    ),
    environment=_scaled(
        LOW_EARTH_ORBIT, "leo-saa", 3.0, 2.5, amps=(0.05, 0.8)
    ),
)

_LEO_POLAR = OrbitBandPreset(
    name="leo-polar",
    rationale=(
        "polar/sun-synchronous LEO: outer-belt horns plus a weak "
        "geomagnetic cutoff admit solar protons at high latitude "
        "(~2x SEU, ~1.5x SEL vs quiet LEO)"
    ),
    environment=_scaled(
        LOW_EARTH_ORBIT, "leo-polar", 2.0, 1.5, amps=(0.05, 0.7)
    ),
)

_GEO = OrbitBandPreset(
    name="geo",
    rationale=(
        "geostationary orbit: outside the plasmasphere and most "
        "geomagnetic shielding, GCR-dominated — modelled as ~85% of the "
        "deep-space anchor"
    ),
    environment=_scaled(DEEP_SPACE, "geo", 0.85, 0.8, amps=(0.05, 1.0)),
)

_DEEP_SPACE = OrbitBandPreset(
    name="deep-space",
    rationale=(
        "interplanetary cruise: no magnetospheric shielding at all — the "
        "paper's deep-space anchor, unscaled"
    ),
    environment=DEEP_SPACE,
)

#: The standing catalog: every quiet-time band plus its storm variant.
PRESETS: "dict[str, OrbitBandPreset]" = {}
for _p in (_LEO_EQUATORIAL, _LEO_SAA, _LEO_POLAR, _GEO, _DEEP_SPACE):
    PRESETS[_p.name] = _p
    _s = storm_variant(_p)
    PRESETS[_s.name] = _s
del _p, _s


def get_preset(name: str) -> OrbitBandPreset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigurationError(
            f"unknown orbit-band preset {name!r}; known presets: {known}"
        ) from None


def register_preset(preset: OrbitBandPreset, replace: bool = False) -> None:
    """Add a custom band to the catalog (tests, operator what-ifs).

    The fleet engine snapshots the preset's rates into every trial's
    fingerprint, so redefining a name invalidates stored trials rather
    than silently reusing them.
    """
    if preset.name in PRESETS and not replace:
        raise ConfigurationError(
            f"preset {preset.name!r} already registered (pass replace=True)"
        )
    PRESETS[preset.name] = preset


@dataclass(frozen=True)
class MissionProfile:
    """A deterministic duty cycle: what fraction of each activity
    cycle the craft computes hard vs sits quiescent (where the ILD
    gets its natural detection windows)."""

    name: str
    description: str
    active_utilization: float = 0.75
    idle_utilization: float = 0.05
    cycle_seconds: float = 5400.0
    idle_fraction: float = 0.35

    def __post_init__(self) -> None:
        if not 0 < self.active_utilization <= 1:
            raise ConfigurationError("active_utilization must be in (0, 1]")
        if not 0 <= self.idle_utilization < self.active_utilization:
            raise ConfigurationError(
                "idle_utilization must be in [0, active_utilization)"
            )
        if self.cycle_seconds <= 0:
            raise ConfigurationError("cycle_seconds must be positive")
        if not 0 < self.idle_fraction < 1:
            raise ConfigurationError("idle_fraction must be in (0, 1)")


PROFILES: "dict[str, MissionProfile]" = {
    p.name: p
    for p in (
        MissionProfile(
            name="earth-observation",
            description=(
                "imaging burst each 90-minute orbit, then a long "
                "downlink-and-coast lull"
            ),
            active_utilization=0.85,
            idle_utilization=0.05,
            cycle_seconds=5400.0,
            idle_fraction=0.40,
        ),
        MissionProfile(
            name="comms-relay",
            description=(
                "steady store-and-forward traffic with short scheduling "
                "gaps every half hour"
            ),
            active_utilization=0.55,
            idle_utilization=0.08,
            cycle_seconds=1800.0,
            idle_fraction=0.20,
        ),
        MissionProfile(
            name="science-cruise",
            description=(
                "long quiet cruise with a periodic instrument duty cycle "
                "every six hours"
            ),
            active_utilization=0.70,
            idle_utilization=0.04,
            cycle_seconds=21600.0,
            idle_fraction=0.60,
        ),
    )
}


@dataclass(frozen=True)
class HMRPolicy:
    """A named hybrid-modular-redundancy policy: how a craft moves
    through the mode lattice over a mission.

    The legacy fleet schemes are the degenerate case — a fixed mode
    flown for the whole mission — which is why the catalog carries one
    entry per :data:`~repro.fleet.spec.FLEET_SCHEMES` name. Adaptive
    entries add workload phases, a degradation-policy floor, or a
    power ceiling. :meth:`scheduler` builds the runnable
    :class:`~repro.hmr.HMRScheduler`.
    """

    name: str
    description: str
    start_mode: str
    #: Workload phases as ``(name, fraction, mode_name)`` triples —
    #: plain data so the catalog stays declarative and JSON-friendly.
    phases: tuple = ()
    policy: "PolicyConfig | None" = None
    power_budget_amps: "float | None" = None

    def __post_init__(self) -> None:
        if not self.name or not self.description:
            raise ConfigurationError(
                "an HMR policy needs a name and a description"
            )
        mode_named(self.start_mode)  # raises on unknown names
        for entry in self.phases:
            if len(entry) != 3:
                raise ConfigurationError(
                    "phases must be (name, fraction, mode_name) triples"
                )
            mode_named(entry[2])
        object.__setattr__(self, "phases", tuple(tuple(e) for e in self.phases))

    def scheduler(self, eventlog=None, obs=None) -> HMRScheduler:
        """The runnable scheduler this policy describes."""
        return HMRScheduler(
            phases=tuple(
                WorkloadPhase(name, float(fraction), mode_named(mode))
                for name, fraction, mode in self.phases
            ),
            start_mode=self.start_mode,
            policy=self.policy,
            power_budget_amps=self.power_budget_amps,
            eventlog=eventlog,
            obs=obs,
        )


HMR_POLICIES: "dict[str, HMRPolicy]" = {
    p.name: p
    for p in (
        # The three legacy schemes, as fixed-mode policies.
        HMRPolicy(
            name="none",
            description="unprotected throughput: independent mode, always",
            start_mode="independent",
        ),
        HMRPolicy(
            name="3mr",
            description="full lockstep triplication, always",
            start_mode="3mr-lockstep",
        ),
        HMRPolicy(
            name="emr",
            description="the paper's EMR vote, always",
            start_mode="emr-voted",
        ),
        # Adaptive members of the lattice.
        HMRPolicy(
            name="adaptive-cruise",
            description=(
                "independent through quiet cruise; ILD alarms and EMR "
                "faults raise the floor through the lattice, a long "
                "quiet spell lowers it"
            ),
            start_mode="independent",
            policy=PolicyConfig(
                start_level="independent",
                escalate_alarms=1,
                escalate_faults=2,
            ),
        ),
        HMRPolicy(
            name="storm-watch",
            description=(
                "voted EMR baseline that hardens to lockstep on the "
                "first alarm window; a power ceiling keeps lockstep "
                "honest on degraded panels"
            ),
            start_mode="emr-voted",
            policy=PolicyConfig(
                start_level="emr-voted",
                escalate_alarms=1,
                escalate_faults=2,
            ),
            power_budget_amps=0.72,
        ),
        HMRPolicy(
            name="duty-cycle",
            description=(
                "phase-split missions: an unprotected imaging burst, a "
                "duplex downlink, a voted navigation solve"
            ),
            start_mode="emr-voted",
            phases=(
                ("burst", 0.5, "independent"),
                ("downlink", 0.2, "duplex-checkpoint"),
                ("solve", 0.3, "emr-voted"),
            ),
        ),
    )
}


def get_hmr_policy(name: str) -> HMRPolicy:
    try:
        return HMR_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(HMR_POLICIES))
        raise ConfigurationError(
            f"unknown HMR policy {name!r}; known policies: {known}"
        ) from None


def get_profile(name: str) -> MissionProfile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ConfigurationError(
            f"unknown mission profile {name!r}; known profiles: {known}"
        ) from None


def build_utilization(
    profile: MissionProfile, ticks: int, n_cores: int, dt: float
) -> np.ndarray:
    """The profile's ``(ticks, n_cores)`` utilization schedule.

    Pure arithmetic — both tick backends consume the identical array,
    which is what keeps zero-event craft byte-identical between the
    scalar and the batched route.
    """
    if ticks <= 0 or n_cores <= 0 or dt <= 0:
        raise ConfigurationError("ticks, n_cores and dt must be positive")
    t = np.arange(ticks, dtype=float) * dt
    phase = (t % profile.cycle_seconds) / profile.cycle_seconds
    active = phase < (1.0 - profile.idle_fraction)
    base = np.where(
        active, profile.active_utilization, profile.idle_utilization
    )
    # Mild per-core stagger so DVFS has per-core structure to chew on;
    # only active phases wobble, idle windows stay quiescent.
    stagger = 1.0 + 0.25 * np.arange(n_cores, dtype=float)
    wobble = 0.05 * np.sin(2.0 * np.pi * phase[:, None] * stagger)
    util = base[:, None] + np.where(active[:, None], wobble, 0.0)
    return np.clip(util, 0.0, 1.0)
