"""Table 7: fault-injection outcomes for the image workload.

Paper: 20 injections per scheme; None shows 3 SDCs and 9 errors; 3-MR
and EMR show zero SDC (one detected pointer-corruption error each);
EMR survives MBUs too.
"""

from __future__ import annotations

from collections import Counter

from ..analysis.report import Table
from ..campaign import Campaign, Trial
from ..radiation.events import OutcomeClass
from ..radiation.injector import (
    CampaignConfig,
    FaultInjectionCampaign,
    decode_outcome,
    encode_outcome,
    run_campaign_trial,
    tally_outcome_metrics,
)
from ..workloads import ImageProcessingWorkload

_SINGLE_BIT_SCHEMES = ("none", "3mr", "emr")


def _default_workload() -> ImageProcessingWorkload:
    return ImageProcessingWorkload(map_size=64, template_size=16, stride=8)


def _build_table(results: "dict[str, Counter]", runs_per_scheme: int) -> Table:
    table = Table(
        title="Table 7: fault injection into the image workload",
        columns=["Scheme", "Corrected", "No Effect", "Error", "SDC"],
    )
    labels = (("none", "None"), ("3mr", "3-MR"), ("emr", "EMR"), ("emr+mbu", "EMR + MBU"))
    for key, label in labels:
        counts = results[key]
        table.add_row(
            label,
            counts[OutcomeClass.CORRECTED],
            counts[OutcomeClass.NO_EFFECT],
            counts[OutcomeClass.ERROR],
            counts[OutcomeClass.SDC],
        )
    table.notes = (
        f"{runs_per_scheme} uniform (component x time) injections per scheme; "
        "cache injection included (our simulator supports it; the paper's "
        "QEMU tool could not)"
    )
    return table


def campaign(
    runs_per_scheme: int = 20,
    seed: int = 3,
    workload: "ImageProcessingWorkload | None" = None,
) -> Campaign:
    """Both injection stages as ONE resumable grid.

    The single-bit stage draws from seed root ``seed`` at its own
    positional indices; the MBU stage draws from ``seed + 1`` with
    indices restarting at 0 (per-trial overrides), so every trial's
    generator matches the two historical sub-campaigns exactly.
    """
    workload = workload or _default_workload()
    single = FaultInjectionCampaign(
        workload, CampaignConfig(runs_per_scheme=runs_per_scheme), seed=seed
    )
    mbu = FaultInjectionCampaign(
        workload, CampaignConfig(runs_per_scheme=runs_per_scheme, bits=2),
        seed=seed + 1,
    )
    trials = []
    for index, trial in enumerate(single.trials(_SINGLE_BIT_SCHEMES)):
        trials.append(
            Trial(
                params={"stage": "single-bit", **trial.params},
                item=trial.item, seed_root=seed, seed_index=index,
            )
        )
    for index, trial in enumerate(mbu.trials(("emr",))):
        trials.append(
            Trial(
                params={"stage": "mbu", **trial.params},
                item=trial.item, seed_root=seed + 1, seed_index=index,
            )
        )

    n_single = len(_SINGLE_BIT_SCHEMES) * runs_per_scheme

    def aggregate(values, metrics=None) -> Table:
        results: "dict[str, Counter]" = {}
        for offset, scheme in enumerate(_SINGLE_BIT_SCHEMES):
            chunk = values[offset * runs_per_scheme:(offset + 1) * runs_per_scheme]
            results[scheme] = Counter(outcome.outcome for outcome in chunk)
        results["emr+mbu"] = Counter(
            outcome.outcome for outcome in values[n_single:]
        )
        if metrics is not None:
            single_tally = tally_outcome_metrics(values[:n_single])
            for name, value in single_tally.snapshot()["counters"].items():
                metrics.counter(name).inc(value)
            mbu_tally = tally_outcome_metrics(values[n_single:])
            for name, value in mbu_tally.snapshot()["counters"].items():
                metrics.counter(f"mbu.{name}").inc(value)
        return _build_table(results, runs_per_scheme)

    return Campaign(
        name="table7-fault-injection",
        trial_fn=run_campaign_trial,
        trials=trials,
        context={
            "workload": workload.name,
            "single_bit_seed": seed,
            "mbu_seed": seed + 1,
            "runs_per_scheme": runs_per_scheme,
        },
        encode=encode_outcome,
        decode=decode_outcome,
        aggregate=aggregate,
    )
