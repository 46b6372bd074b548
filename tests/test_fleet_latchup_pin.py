"""Pin the fleet's latchup-craft route byte for byte.

A craft that samples latchups runs ``_craft_trial``'s SEL route: coarse
survey stretches between latchups and a fine-tick detection episode per
micro-SEL. The items below sit in a custom high-latchup band whose step
sizes reach from sub-threshold micro-SELs to amp-class shorts, so
between them every disposition occurs: ``ocp`` (breaker trip), ``ild``
(cleared by a detection episode), ``latched`` (below the detectable
residual) and ``fatal`` (thermal deadline first). Each reduced trial
value is pinned by the SHA-256 of its canonical JSON, so any change to
the tick engine these craft fly on must leave their bytes unchanged.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.campaign.spec import canonical_json
from repro.fleet import PRESETS, OrbitBandPreset
from repro.fleet.engine import _craft_trial
from repro.radiation.environment import LOW_EARTH_ORBIT
from repro.radiation.events import SeuTarget

PIN_PRESET = OrbitBandPreset(
    name="pin-latchup",
    rationale="test band: a ~750x latchup flux from micro-SELs to shorts",
    environment=dataclasses.replace(
        LOW_EARTH_ORBIT,
        name="pin-latchup",
        sel_per_year=1500.0,
        sel_delta_amps_range=(0.01, 1.2),
    ),
)

_PROBS = [0.4, 0.3, 0.2, 0.1]
CALIB = {
    scheme: {t.value: {"1": _PROBS, "2": _PROBS} for t in SeuTarget}
    for scheme in ("none", "3mr", "emr")
}

#: (trial seed, scheme, SEL dispositions, SHA-256 of the reduced value)
PINNED = [
    (9, "none", {"ocp": 1, "ild": 1, "latched": 0, "fatal": 1},
     "14ce01999c630c9742746f8c4bd9c7e10777ce75ff90cc27422226aa83d07085"),
    (27, "emr", {"ocp": 1, "ild": 0, "latched": 1, "fatal": 0},
     "1705f6d8572e6fb901393b323a73bb8bce3d0496345f3949794e5b7bfef4c8f5"),
    (147, "3mr", {"ocp": 1, "ild": 3, "latched": 1, "fatal": 0},
     "db8a14c4a2ba66486921322049b6706685f55ac79a79b6684908b4b28f3c914c"),
    (217, "none", {"ocp": 1, "ild": 0, "latched": 1, "fatal": 1},
     "e0be28e0a1961d5c8af6f9e24949cf109b5636c6ec7cce4e66b5cd1ca07d0c5e"),
]


@pytest.fixture
def pin_band(monkeypatch):
    """The custom band, registered for one test only so the shipped
    catalog stays as other tests expect it."""
    monkeypatch.setitem(PRESETS, PIN_PRESET.name, PIN_PRESET)


def craft_value(seed: int, scheme: str) -> dict:
    item = {
        "params": {
            "preset": PIN_PRESET.name,
            "scheme": scheme,
            "profile": "earth-observation",
            "days": 0.5,
        },
        "dt": 60.0,
        "calib": CALIB,
    }
    return _craft_trial(item, np.random.default_rng(seed), None)


def test_pinned_items_cover_every_disposition():
    covered = {
        key for _, _, sels, _ in PINNED for key, n in sels.items() if n
    }
    assert covered == {"ocp", "ild", "latched", "fatal"}


@pytest.mark.parametrize("seed,scheme,sels,digest", PINNED)
def test_latchup_craft_is_pinned(pin_band, seed, scheme, sels, digest):
    value = craft_value(seed, scheme)
    assert {k: value["sels"][k] for k in sels} == sels
    assert value["sels"]["total"] == sum(sels.values())
    got = hashlib.sha256(canonical_json(value).encode()).hexdigest()
    assert got == digest
