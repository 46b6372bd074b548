"""SEU outcome calibration for the survey tier.

The survey tier advances craft on the tick engine, which has no
functional datapath — so it cannot *execute* an upset the way the
Table 7 campaign does. Instead, the fleet grounds survey-tier SEU
outcomes in real injections: for every (scheme, target, bits) cell it
runs a small :class:`~repro.radiation.injector.FaultInjectionCampaign`
(actual strikes through the fault surface into a real workload, voted
by the actual EMR/3-MR runtimes) and turns the outcome counts into an
empirical distribution. Survey craft then classify each sampled upset
by drawing from that distribution.

The calibration is itself a store-backed campaign
(``fleet/seu-calibration``), so its ~36 injection cells run once per
(seed, runs) pair and replay from the :class:`TrialStore` on every
subsequent fleet invocation.
"""

from __future__ import annotations

from ..campaign import Campaign, Trial, execute
from ..radiation.events import OutcomeClass, SeuTarget
from ..radiation.injector import CampaignConfig, FaultInjectionCampaign
from ..workloads import AesWorkload
from .spec import FLEET_SCHEMES, FleetSpec

__all__ = [
    "OUTCOME_ORDER",
    "calibrate_fleet",
    "calibration_campaign",
    "calibration_table",
]

#: Fixed outcome order for every probability vector and multinomial
#: draw — part of the fleet's determinism contract.
OUTCOME_ORDER = ("no_effect", "corrected", "error", "sdc")

_FLEET_SALT = "fleet-v1"
_TARGETS = tuple(sorted(SeuTarget, key=lambda t: t.value))
_WORKLOAD_ID = "aes-64x8"


def _make_workload():
    return AesWorkload(chunk_bytes=64, chunks=8)


def _calibration_trial(item, rng, tracer):
    """One cell: ``runs`` real injections under one scheme/target/bits."""
    scheme, target_name, bits, runs = item
    target = SeuTarget(target_name)
    seed = int(rng.integers(0, 2**31 - 1))
    campaign = FaultInjectionCampaign(
        _make_workload(),
        CampaignConfig(
            runs_per_scheme=runs, bits=bits, weights={target: 1.0}
        ),
        seed=seed,
    )
    counts = campaign.run(schemes=(scheme,), workers=1)[scheme]
    return {
        "scheme": scheme,
        "target": target_name,
        "bits": bits,
        "counts": {oc.value: int(counts.get(oc, 0)) for oc in OutcomeClass},
    }


def calibration_campaign(spec: FleetSpec) -> Campaign:
    """The scheme x target x bits injection grid for ``spec``.

    The campaign name is spec-independent on purpose: two fleets with
    the same ``(seed, calibration_runs)`` share calibration entries in
    a shared store.
    """
    trials = []
    for scheme in FLEET_SCHEMES:
        for target in _TARGETS:
            for bits in (1, 2):
                trials.append(
                    Trial(
                        params={
                            "scheme": scheme,
                            "target": target.value,
                            "bits": bits,
                            "runs": spec.calibration_runs,
                        },
                        item=(
                            scheme,
                            target.value,
                            bits,
                            spec.calibration_runs,
                        ),
                    )
                )
    return Campaign(
        name="fleet/seu-calibration",
        trial_fn=_calibration_trial,
        trials=trials,
        seed=spec.seed,
        context={
            "runs": spec.calibration_runs,
            "workload": _WORKLOAD_ID,
        },
        salt=_FLEET_SALT,
    )


def calibration_table(values) -> dict:
    """Fold calibration trial values into the lookup table the craft
    trials draw from: ``table[scheme][target]["1"|"2"]`` is a
    probability vector over :data:`OUTCOME_ORDER`."""
    table: dict = {}
    for value in values:
        counts = value["counts"]
        total = sum(int(counts.get(k, 0)) for k in OUTCOME_ORDER)
        if total > 0:
            probs = [counts.get(k, 0) / total for k in OUTCOME_ORDER]
        else:
            probs = [1.0, 0.0, 0.0, 0.0]
        table.setdefault(value["scheme"], {}).setdefault(
            value["target"], {}
        )[str(value["bits"])] = probs
    return table


def calibrate_fleet(
    spec: FleetSpec, *, store=None, workers=None, metrics=None, pool=None
) -> dict:
    """Run (or replay) the calibration campaign and build the table;
    on ``pool`` (a :class:`~repro.parallel.WorkerPool`) when given."""
    result = execute(
        calibration_campaign(spec),
        workers=workers,
        store=store,
        metrics=metrics,
        pool=pool,
    )
    return calibration_table(result.values)
