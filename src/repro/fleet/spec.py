"""Declarative fleet specifications.

A :class:`FleetSpec` names the whole constellation: orbit bands (each
an entry in the preset catalog), how many craft fly per redundancy
scheme in each band, the mission profile and duration, and the survey
tick size. It round-trips through JSON (``to_dict``/``from_dict``),
which is what the ``repro fleet`` CLI reads, and expands into the
deterministic craft grid the engine fingerprints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigurationError
from ..hmr.modes import (
    EMR_VOTED,
    INDEPENDENT,
    TMR_LOCKSTEP,
    RedundancyMode,
    mode_named,
)
from .presets import get_preset, get_profile

__all__ = [
    "FLEET_SCHEMES",
    "BandSpec",
    "FleetSpec",
    "fleet_mode",
    "load_spec",
    "normalize_scheme",
    "reference_spec",
    "smoke_spec",
]

#: Redundancy schemes a fleet may fly (the Table 7 vocabulary the SEU
#: calibration table is built over).
FLEET_SCHEMES = ("none", "3mr", "emr")

#: Each fleet scheme is a *fixed-mode HMR policy*: the craft flies one
#: redundancy mode for the whole mission. The calibration vocabulary
#: stays the Table-7 one; the modes supply ILD deployment, standing
#: current and EMR strength.
_SCHEME_MODES = {
    "none": INDEPENDENT,
    "3mr": TMR_LOCKSTEP,
    "emr": EMR_VOTED,
}


def normalize_scheme(name: str) -> str:
    """Canonical fleet scheme for ``name``.

    Accepts a fleet scheme verbatim, or any HMR mode name or legacy
    alias — which maps to the scheme that mode's EMR layer flies
    (``"3mr-lockstep"``/``"hardened"`` → ``"3mr"``,
    ``"independent"`` → ``"none"``, …). Spec fingerprints are stable:
    normalization happens before the craft grid is expanded.
    """
    if name in FLEET_SCHEMES:
        return name
    try:
        return mode_named(name).scheme
    except ConfigurationError:
        raise ConfigurationError(
            f"unknown scheme {name!r}; known: {FLEET_SCHEMES} "
            f"or an HMR mode name/alias"
        ) from None


def fleet_mode(scheme: str) -> RedundancyMode:
    """The :class:`RedundancyMode` a fleet scheme flies."""
    return _SCHEME_MODES[normalize_scheme(scheme)]


@dataclass(frozen=True)
class BandSpec:
    """One orbit band's slice of the fleet.

    ``craft`` is the count *per scheme*: the band flies
    ``craft * len(schemes)`` spacecraft in total.
    """

    preset: str
    craft: int
    schemes: tuple = FLEET_SCHEMES
    profile: str = "earth-observation"
    days: float = 35.0

    def __post_init__(self) -> None:
        get_preset(self.preset)  # raises on unknown names
        get_profile(self.profile)
        if self.craft <= 0:
            raise ConfigurationError("craft per scheme must be positive")
        if self.days <= 0:
            raise ConfigurationError("mission days must be positive")
        if not self.schemes:
            raise ConfigurationError("a band needs at least one scheme")
        object.__setattr__(
            self,
            "schemes",
            tuple(normalize_scheme(scheme) for scheme in self.schemes),
        )
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigurationError("schemes must be unique within a band")

    @property
    def total_craft(self) -> int:
        return self.craft * len(self.schemes)

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "craft": self.craft,
            "schemes": list(self.schemes),
            "profile": self.profile,
            "days": self.days,
        }


@dataclass(frozen=True)
class FleetSpec:
    """The whole constellation, declaratively."""

    name: str
    bands: tuple
    seed: int = 0
    #: Survey-tier tick size in seconds. 60 s keeps a 1M-machine-hour
    #: fleet inside a minute of wall time; the SEL fine-tier always
    #: runs at 1 s regardless.
    dt: float = 60.0
    #: Injection runs per (scheme, target, bits) cell of the SEU
    #: calibration table (real Table-7 strikes, store-cached).
    calibration_runs: int = 4
    #: Full-fidelity `MissionSimulator` missions sampled per
    #: (band, scheme) cell. 0 disables the flight tier.
    flight_sample: int = 0
    #: Duration of each flight-tier mission, in days.
    flight_days: float = 0.01

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in "/\\ "):
            raise ConfigurationError(
                "fleet name must be non-empty, without slashes or spaces"
            )
        if not self.bands:
            raise ConfigurationError("a fleet needs at least one band")
        object.__setattr__(self, "bands", tuple(self.bands))
        for band in self.bands:
            if not isinstance(band, BandSpec):
                raise ConfigurationError("bands must be BandSpec instances")
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.calibration_runs < 1:
            raise ConfigurationError("calibration_runs must be >= 1")
        if self.flight_sample < 0:
            raise ConfigurationError("flight_sample must be >= 0")
        if self.flight_days <= 0:
            raise ConfigurationError("flight_days must be positive")

    @property
    def total_craft(self) -> int:
        return sum(band.total_craft for band in self.bands)

    @property
    def planned_machine_hours(self) -> float:
        return sum(band.total_craft * band.days * 24.0 for band in self.bands)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "dt": self.dt,
            "calibration_runs": self.calibration_runs,
            "flight_sample": self.flight_sample,
            "flight_days": self.flight_days,
            "bands": [band.to_dict() for band in self.bands],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        if not isinstance(data, dict):
            raise ConfigurationError("fleet spec must be a JSON object")
        known = {
            "name", "seed", "dt", "calibration_runs",
            "flight_sample", "flight_days", "bands",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown fleet spec fields: {', '.join(unknown)}"
            )
        if "name" not in data or "bands" not in data:
            raise ConfigurationError("fleet spec needs 'name' and 'bands'")
        if not isinstance(data["bands"], list):
            raise ConfigurationError("'bands' must be a list")
        band_known = {"preset", "craft", "schemes", "profile", "days"}
        bands = []
        for i, entry in enumerate(data["bands"]):
            if not isinstance(entry, dict):
                raise ConfigurationError(f"band {i} must be a JSON object")
            extra = sorted(set(entry) - band_known)
            if extra:
                raise ConfigurationError(
                    f"band {i}: unknown fields: {', '.join(extra)}"
                )
            if "preset" not in entry or "craft" not in entry:
                raise ConfigurationError(
                    f"band {i} needs 'preset' and 'craft'"
                )
            kwargs = dict(entry)
            if "schemes" in kwargs:
                kwargs["schemes"] = tuple(kwargs["schemes"])
            bands.append(BandSpec(**kwargs))
        kwargs = {k: data[k] for k in known - {"bands"} if k in data}
        kwargs["bands"] = tuple(bands)
        return cls(**kwargs)

    def expand(self) -> "list[dict]":
        """The deterministic craft grid, one dict per spacecraft, in
        fingerprint order: band -> scheme -> craft ordinal."""
        grid = []
        for bi, band in enumerate(self.bands):
            for scheme in band.schemes:
                for j in range(band.craft):
                    grid.append(
                        {
                            "band": bi,
                            "preset": band.preset,
                            "scheme": scheme,
                            "profile": band.profile,
                            "days": band.days,
                            "craft": j,
                        }
                    )
        return grid


def reference_spec() -> FleetSpec:
    """The acceptance-scale constellation: 1,110 spacecraft across six
    orbit bands, 40-day missions — just over a million machine-hours
    in one ``repro fleet run``."""
    return FleetSpec(
        name="reference",
        seed=2026,
        dt=60.0,
        calibration_runs=4,
        bands=(
            BandSpec(preset="leo-equatorial", craft=120, days=40.0),
            BandSpec(preset="leo-saa", craft=80, days=40.0),
            BandSpec(preset="leo-polar", craft=60, days=40.0,
                     profile="comms-relay"),
            BandSpec(preset="geo", craft=50, days=40.0,
                     profile="comms-relay"),
            BandSpec(preset="deep-space", craft=40, days=40.0,
                     profile="science-cruise"),
            BandSpec(preset="deep-space-storm", craft=20, days=40.0,
                     profile="science-cruise"),
        ),
    )


def smoke_spec() -> FleetSpec:
    """The CI-scale constellation: 64 craft, 2-day missions (~3,000
    machine-hours in seconds). The seed is chosen so the latchup sky
    is non-empty: both the batched and the scalar routes run."""
    return FleetSpec(
        name="smoke",
        seed=8,
        dt=60.0,
        calibration_runs=2,
        bands=(
            BandSpec(preset="leo-equatorial", craft=6, days=2.0),
            BandSpec(preset="leo-saa", craft=5, days=2.0),
            BandSpec(preset="geo-storm", craft=4, days=2.0,
                     profile="comms-relay"),
            BandSpec(preset="deep-space-storm", craft=3, days=2.0,
                     profile="science-cruise"),
            BandSpec(preset="leo-polar", craft=2, days=2.0,
                     profile="comms-relay"),
            BandSpec(preset="geo", craft=2, schemes=("none", "emr"),
                     days=2.0),
        ),
    )


_BUILTIN_SPECS = {"reference": reference_spec, "smoke": smoke_spec}


def load_spec(source: "str | Path") -> FleetSpec:
    """A spec from a builtin name (``reference``, ``smoke``) or a JSON
    file path."""
    text = str(source)
    if text in _BUILTIN_SPECS:
        return _BUILTIN_SPECS[text]()
    path = Path(source)
    if not path.exists():
        raise ConfigurationError(
            f"no such fleet spec: {text!r} (not a builtin "
            f"{sorted(_BUILTIN_SPECS)} and not a file)"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    return FleetSpec.from_dict(data)
