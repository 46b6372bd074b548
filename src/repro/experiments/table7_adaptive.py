"""Adaptive Table-7 variant: model-guided injection on the real machine.

Where Table 7 strikes uniformly (component × time) and tallies outcome
buckets per scheme, this extension runs the SSRESF loop against the
unprotected scheme: importance-sampled strike *waves* over the warmed
machine's census cells, a :class:`repro.ml.RandomForest` sensitivity
model retrained each round on accumulated outcomes, and a
Horvitz–Thompson reweighted SDC-rate estimate whose CI is directly
comparable to uniform sampling (see ``docs/adaptive.md``).

At bench scale the demonstration shows the loop closing in four
waves: the flux-weighted exploration round finds the first SDC in the
unprotected L1 lines, and every later wave concentrates roughly half
its strikes there — the census region carrying nearly all of this
machine's silent-corruption mass — while the reweighted estimate's CI
tightens around the uniform-flux SDC rate.
"""

from __future__ import annotations

import numpy as np

from ..adaptive import (
    AdaptiveConfig,
    AdaptiveSource,
    PinnedStrikeTask,
    reference_cells,
    run_pinned_strike,
    strike_is_sdc,
)
from ..adaptive.strikes import decode_strike, encode_strike
from ..analysis.report import Table
from ..campaign.stream import StreamHistory
from ..workloads import ImageProcessingWorkload

__all__ = ["source"]


def _default_workload() -> ImageProcessingWorkload:
    return ImageProcessingWorkload(map_size=32, template_size=8, stride=8)


def source(
    wave_size: int = 24,
    max_rounds: int = 4,
    seed: int = 5,
    workload: "ImageProcessingWorkload | None" = None,
) -> AdaptiveSource:
    """The adaptive Table-7 stream (shared by the experiment registry
    and ``repro adaptive run --surface table7``).

    Building the source is deterministic — the workload spec, golden
    outputs, and warmed census cells depend only on the arguments —
    so every process (any ``--workers``, resumed or cold) plans over
    identical cells and fingerprints.
    """
    workload = workload or _default_workload()
    rng = np.random.default_rng(seed)
    spec = workload.build(rng)
    golden = tuple(workload.reference_outputs(spec))
    cells = reference_cells(workload, spec)

    def item_fn(cell, offset, bit):
        return PinnedStrikeTask(
            workload=workload, spec=spec, golden=golden,
            domain=cell.domain, region=cell.region,
            offset=offset, bit=bit,
        )

    def aggregate(stream, metrics=None) -> Table:
        """One row per wave: its trials, SDC hits, L1 share and the
        cumulative Horvitz–Thompson estimate."""
        table = Table(
            title="Adaptive Table 7: importance-sampled injection, scheme none",
            columns=["Round", "Trials", "SDC hits", "L1 share",
                     "SDC rate (HT)", "CI width"],
        )
        history = StreamHistory()
        for rnd in stream.rounds:
            history.rounds.append(rnd)
            est = src.estimate(history)
            sdc = sum(
                1 for v in rnd.result.values
                if v is not None and strike_is_sdc(v)
            )
            l1 = sum(
                1 for s in rnd.result.specs
                if s.params["domain"].startswith("l1")
            )
            table.add_row(
                rnd.index,
                est.n,
                sdc,
                f"{l1 / len(rnd.result.specs):.2f}",
                f"{est.estimate:.4f}",
                f"{est.width:.4f}" if est.width != float("inf") else "inf",
            )
        table.notes = (
            f"{len(stream.rounds)} waves of {wave_size} pinned strikes; round 0 "
            "is flux-weighted exploration, later waves follow the forest's "
            "q ∝ f·√p̂ allocation (ε=0.15 flux mix); "
            "'SDC rate (HT)' is the Horvitz–Thompson reweighted cumulative "
            "estimate of the uniform-flux SDC rate; 'L1 share' shows the "
            "sampler concentrating on the unprotected L1 lines"
        )
        return table

    src = AdaptiveSource(
        "table7-adaptive",
        cells,
        run_pinned_strike,
        item_fn,
        strike_is_sdc,
        config=AdaptiveConfig(
            wave_size=wave_size,
            max_rounds=max_rounds,
            min_rounds=max_rounds,
            target_width=None,
            epsilon=0.15,
            score_floor=0.001,
            n_trees=30,
            max_depth=8,
            min_samples_leaf=1,
        ),
        seed=seed,
        context={
            "surface": "table7",
            "workload": workload.name,
            "wave_size": wave_size,
        },
        encode=encode_strike,
        decode=decode_strike,
        aggregate=aggregate,
    )
    return src
