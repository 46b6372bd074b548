"""The adaptive trial source: model-guided importance-sampled waves.

:class:`AdaptiveSource` is a :class:`repro.campaign.TrialSource` that
closes the SSRESF loop on top of the round-based stream core:

1. **Round 0** strikes ``wave_size`` targets flux-weighted (uniform
   fluence — exactly what a non-adaptive campaign does), because with
   no labels the model has nothing to say.
2. After each round it trains a :class:`repro.ml.RandomForest`
   *classification* forest on every labelled trial so far (cell
   features → was-it-SDC), predicts per-cell sensitivity ``p_hat``,
   and aims the next wave at the variance-optimal allocation
   ``q ∝ f * sqrt(p_hat)`` (see :mod:`repro.adaptive.estimator`),
   defensively mixed with the flux distribution:
   ``q = (1 - epsilon) * q_model + epsilon * f`` — so no flux-bearing
   cell ever has zero probability and the Horvitz–Thompson weights
   stay bounded.
3. It stops once the reweighted SDC-rate CI is narrower than
   ``target_width`` (after ``min_rounds``), or at ``max_rounds``.

Determinism is inherited from the stream contract, not re-derived:
every outcome-dependent choice (training set, proposal, cell draws)
is a pure function of the :class:`~repro.campaign.stream.StreamHistory`,
and all randomness is seeded via
:func:`~repro.campaign.stream.round_seed` from the history digest.
Same history ⇒ same wave, fingerprint-for-fingerprint — which is what
makes adaptive campaigns resumable and byte-identical at any worker
count. With ``epsilon = 1.0`` the model never trains and every wave
is flux-weighted: that *is* the uniform baseline, sharing the same
stopping rule so trials-to-target-width is an apples-to-apples
comparison.

Trial params carry the sampling probabilities (``f``, ``q``) so the
estimator can reweight from the stored specs alone — a resumed or
replayed stream re-derives the exact estimate without re-planning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..campaign import Campaign, Trial
from ..campaign.stream import StreamHistory, round_seed
from ..errors import ConfigurationError
from .estimator import HTEstimate, ht_estimate
from .features import SurfaceCell, feature_matrix

__all__ = ["AdaptiveConfig", "AdaptiveSource"]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for one adaptive (or uniform-baseline) stream.

    ``epsilon`` is the exploration share of each wave: 0 trusts the
    model completely (unsafe — a wrong model could starve a sensitive
    cell), 1 never leaves flux weighting (the uniform baseline).
    ``score_floor`` clips predicted sensitivities away from 0 before
    the ``sqrt`` allocation so "certainly dead" cells keep a sliver
    of proposal mass. ``target_width`` is the full CI width the
    stream runs until (``None`` = run all ``max_rounds``).
    """

    wave_size: int = 32
    max_rounds: int = 12
    min_rounds: int = 2
    target_width: "float | None" = 0.05
    confidence: float = 0.95
    epsilon: float = 0.2
    score_floor: float = 0.002
    #: Observed SDC count required before the width test may stop the
    #: stream. For rare events the empirical SE is spuriously tiny
    #: until a handful of positives land (zero hits ⇒ zero variance ⇒
    #: instant, wrong convergence); both samplers share this guard so
    #: the trials-to-width comparison stays fair.
    min_positives: int = 10
    n_trees: int = 20
    max_depth: int = 6
    min_samples_leaf: int = 2

    def __post_init__(self) -> None:
        if self.wave_size < 1:
            raise ConfigurationError("wave_size must be >= 1")
        if self.max_rounds < 1 or self.min_rounds < 1:
            raise ConfigurationError("max_rounds and min_rounds must be >= 1")
        if self.min_rounds > self.max_rounds:
            raise ConfigurationError("min_rounds cannot exceed max_rounds")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if self.target_width is not None and self.target_width <= 0:
            raise ConfigurationError("target_width must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError("confidence must be in (0, 1)")
        if not 0.0 < self.score_floor < 0.5:
            raise ConfigurationError("score_floor must be in (0, 0.5)")
        if self.min_positives < 0:
            raise ConfigurationError("min_positives must be >= 0")


class AdaptiveSource:
    """Importance-sampled strike waves over a fixed cell population.

    ``trial_fn(item, rng, tracer)`` executes one strike trial (it must
    be top-level picklable, like any campaign trial function);
    ``item_fn(cell, offset, bit)`` builds its picklable payload for a
    strike at ``(cell, byte offset, bit)`` *within the cell's region*;
    ``label_fn(value)`` maps a decoded trial value to the 0/1 training
    label (was the strike an SDC?). ``encode``/``decode`` are the
    usual campaign value codecs; ``aggregate(stream, metrics)``, when
    given, folds the drained :class:`~repro.campaign.StreamResult` into
    the experiment's report.
    """

    def __init__(
        self,
        name: str,
        cells: "list[SurfaceCell]",
        trial_fn,
        item_fn,
        label_fn,
        *,
        config: "AdaptiveConfig | None" = None,
        seed: int = 0,
        context: "dict | None" = None,
        encode=None,
        decode=None,
        aggregate=None,
    ) -> None:
        if not cells:
            raise ConfigurationError("adaptive source needs at least one cell")
        self.name = name
        self.cells = list(cells)
        self.trial_fn = trial_fn
        self.item_fn = item_fn
        self.label_fn = label_fn
        self.config = config or AdaptiveConfig()
        self.seed = seed
        self.context = dict(context or {})
        self.encode = encode
        self.decode = decode
        self.aggregate = aggregate
        bits = np.array([cell.bits for cell in self.cells], dtype=float)
        if bits.sum() <= 0:
            raise ConfigurationError("cells hold no live bits")
        #: Flux distribution: P(uniform fluence hits cell c).
        self.flux = bits / bits.sum()
        self._features = feature_matrix(self.cells)
        self._cell_index = {cell.label: i for i, cell in enumerate(self.cells)}

    # ------------------------------------------------------------------
    # history digestion
    # ------------------------------------------------------------------
    def _labelled(
        self, history: StreamHistory
    ) -> "tuple[list[int], list[int]]":
        """(cell index, 0/1 label) for every non-quarantined trial."""
        cells: "list[int]" = []
        labels: "list[int]" = []
        for rnd in history.rounds:
            for spec, value in zip(rnd.result.specs, rnd.result.values):
                if value is None:  # quarantined slot: no label
                    continue
                cells.append(self._cell_index[spec.params["cell"]])
                labels.append(1 if self.label_fn(value) else 0)
        return cells, labels

    def estimate(self, history: StreamHistory) -> HTEstimate:
        """Reweighted SDC-rate estimate over everything observed so far.

        Weights come straight from the stored trial params (``f``/``q``
        at planning time), so a replayed history yields the identical
        estimate without re-deriving any proposal.
        """
        pairs: "list[tuple[float, float]]" = []
        for rnd in history.rounds:
            for spec, value in zip(rnd.result.specs, rnd.result.values):
                if value is None:
                    continue
                y = 1.0 if self.label_fn(value) else 0.0
                pairs.append((y, spec.params["f"] / spec.params["q"]))
        return ht_estimate(pairs, confidence=self.config.confidence)

    # ------------------------------------------------------------------
    # proposal
    # ------------------------------------------------------------------
    def proposal(self, history: StreamHistory) -> np.ndarray:
        """The next wave's cell distribution ``q`` (sums to 1).

        Flux-weighted until the model has both a positive and a
        negative label to learn from (and always, when
        ``epsilon == 1.0`` — the uniform baseline); afterwards the
        epsilon-mixture of flux and the variance-optimal
        ``f * sqrt(p_hat)`` allocation.
        """
        cfg = self.config
        if cfg.epsilon >= 1.0:
            return self.flux
        cell_rows, labels = self._labelled(history)
        if not cell_rows or len(set(labels)) < 2:
            return self.flux
        from ..ml import RandomForest

        forest = RandomForest(
            n_trees=cfg.n_trees,
            max_depth=cfg.max_depth,
            min_samples_leaf=cfg.min_samples_leaf,
            task="classification",
            seed=self.seed,
        )
        forest.fit(self._features[cell_rows], np.array(labels, dtype=float))
        p_hat = np.clip(
            forest.predict(self._features), cfg.score_floor, 1.0
        )
        q_model = self.flux * np.sqrt(p_hat)
        q_model /= q_model.sum()
        q = (1.0 - cfg.epsilon) * q_model + cfg.epsilon * self.flux
        return q / q.sum()

    # ------------------------------------------------------------------
    # the TrialSource protocol
    # ------------------------------------------------------------------
    def next_round(self, history: StreamHistory) -> "Campaign | None":
        cfg = self.config
        k = len(history.rounds)
        if k >= cfg.max_rounds:
            return None
        if cfg.target_width is not None and k >= cfg.min_rounds:
            _, labels = self._labelled(history)
            if (
                sum(labels) >= cfg.min_positives
                and self.estimate(history).width <= cfg.target_width
            ):
                return None

        rseed = round_seed(self.seed, k, history.digest)
        q = self.proposal(history)
        rng = np.random.default_rng(rseed)
        trials: "list[Trial]" = []
        for draw in range(cfg.wave_size):
            c = int(rng.choice(len(self.cells), p=q))
            cell = self.cells[c]
            position = cell.start_bit + int(rng.integers(0, cell.bits))
            offset, bit = position // 8, position % 8
            trials.append(
                Trial(
                    params={
                        "round": k,
                        "draw": draw,
                        "cell": cell.label,
                        "domain": cell.domain,
                        "region": cell.region,
                        "offset": offset,
                        "bit": bit,
                        "f": float(self.flux[c]),
                        "q": float(q[c]),
                    },
                    item=self.item_fn(cell, offset, bit),
                )
            )
        return Campaign(
            name=f"{self.name}/round{k:03d}",
            trial_fn=self.trial_fn,
            trials=trials,
            seed=rseed,
            context={
                **self.context,
                "stream": self.name,
                "round": k,
                "parent_digest": history.digest,
            },
            encode=self.encode,
            decode=self.decode,
        )
