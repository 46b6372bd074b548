"""Declarative campaign specs and stable trial fingerprints.

A *campaign* is a grid of independent trials — workload x machine
spec x seed x environment — declared up front instead of hand-rolled
as a ``for`` loop inside each experiment module. Declaring the grid
buys three things:

* the engine (:mod:`repro.campaign.engine`) can run any campaign
  through :func:`repro.parallel.pmap_report` with the same determinism
  contract every experiment already relies on;
* every trial gets a **stable fingerprint** — a SHA-256 over the
  canonical JSON of (campaign name, code-version salt, campaign
  context, trial params, seed root, seed index) — which keys the
  on-disk result store so reruns skip completed trials;
* ``repro campaign run/status/resume`` can introspect any experiment
  without running it.

Fingerprints deliberately exclude the trial's *position* in the grid:
the seed stream is pinned by ``(seed_root, seed_index)`` alone (see
:func:`trial_rng`), so extending a grid — more episodes, an extra
scheme — keeps previously completed trials valid in the store.

Trial functions are top-level callables ``fn(item, rng, tracer)``
(picklable by qualified name, like :func:`repro.parallel.pmap_report` task
functions); ``rng`` is ``None`` for unseeded trials and ``tracer`` is
``None`` when tracing is off. They must return *reduced, JSON-safe*
data — or the campaign supplies ``encode``/``decode`` hooks that
convert to/from JSON-safe form. The engine canonicalises **every**
result through an encode -> JSON -> decode round-trip, even for trials
executed in-memory, so a resumed campaign (values read back from
disk) aggregates byte-identically to a cold one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "CODE_VERSION",
    "Campaign",
    "Trial",
    "TrialSpec",
    "canonical_json",
    "jsonify",
    "trial_rng",
]

#: Code-version salt folded into every fingerprint. Bump when trial
#: semantics change so stale store entries stop matching.
CODE_VERSION = "campaign-v1"


def jsonify(value):
    """Recursively coerce ``value`` to plain JSON types.

    Handles dicts, lists/tuples, numpy scalars and small numpy arrays;
    anything else that ``json`` cannot encode raises
    :class:`~repro.errors.ConfigurationError` — campaigns with richer
    trial results must supply explicit ``encode``/``decode`` hooks.
    """
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"trial data of type {type(value).__name__} is not JSON-safe; "
        "give the Campaign encode/decode hooks"
    )


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(jsonify(value), sort_keys=True, separators=(",", ":"))


def trial_rng(seed_root, seed_index):
    """The generator a seeded trial receives.

    ``SeedSequence(entropy=root, spawn_key=(i,))`` is exactly the
    child ``SeedSequence(root).spawn(n)[i]`` for any ``n >= i+1``, so
    a trial's stream depends only on ``(root, i)`` — never on how many
    trials the grid holds or which of them still need running. That
    identity is what makes resume byte-identical: a rerun that
    executes only the missing trials hands each one the same generator
    the cold run did.
    """
    if seed_root is None:
        return None
    child = np.random.SeedSequence(entropy=seed_root, spawn_key=(int(seed_index),))
    return np.random.default_rng(child)


@dataclass(frozen=True)
class TrialSpec:
    """One fully resolved trial: identity material + fingerprint.

    The fingerprint and the parsed params are computed once per spec
    (``functools.cached_property`` stores them in the instance dict,
    which a frozen dataclass allows and pickling carries along).
    """

    campaign: str
    salt: str
    context_json: str
    params_json: str
    seed_root: "int | None"
    seed_index: "int | None"

    @cached_property
    def _fingerprint(self) -> str:
        material = canonical_json(
            {
                "campaign": self.campaign,
                "salt": self.salt,
                "context": self.context_json,
                "params": self.params_json,
                "seed_root": self.seed_root,
                "seed_index": self.seed_index,
            }
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # A plain property over the cache, so the attribute stays one
    # perfbench's ``campaign.spec`` layer can wrap as a property.
    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def params(self) -> dict:
        """The trial's params, parsed once; treat as read-only."""
        return json.loads(self.params_json)


@dataclass
class Trial:
    """One declared grid point.

    ``params`` is the JSON-safe identity of the trial (what makes it
    *this* trial and not its neighbour); ``item`` is the picklable
    payload handed to the trial function. ``seed_index`` defaults to
    the trial's position in the grid and ``seed_root`` to the
    campaign's seed; both can be pinned explicitly for multi-stage
    campaigns (e.g. Table 7's MBU stage derives from ``seed + 1``).
    """

    params: dict
    item: object = None
    seed_root: "int | None" = None
    seed_index: "int | None" = None


@dataclass
class Campaign:
    """A named grid of trials plus the hooks to run and fold them.

    ``trial_fn`` is called as ``fn(item, rng, tracer)``.  ``context``
    is campaign-wide fingerprint material (configs, detector rosters,
    workload identity) shared by every trial.  ``aggregate`` folds the
    decoded values — in grid order — into the experiment's renderable
    (:class:`repro.analysis.report.Table` / ``Series``); it runs in
    the parent process, so closures are fine there.
    """

    name: str
    trial_fn: "callable"
    trials: "list[Trial]"
    seed: "int | None" = None
    context: dict = field(default_factory=dict)
    salt: str = ""
    encode: "callable | None" = None
    decode: "callable | None" = None
    aggregate: "callable | None" = None

    def specs(self) -> "list[TrialSpec]":
        """Resolve every trial; rejects colliding fingerprints."""
        context_json = canonical_json(self.context)
        salt = f"{CODE_VERSION}|{self.salt}" if self.salt else CODE_VERSION
        specs = []
        seen: "dict[str, int]" = {}
        for index, trial in enumerate(self.trials):
            root = trial.seed_root if trial.seed_root is not None else self.seed
            if root is None:
                seed_index = None
            elif trial.seed_index is not None:
                seed_index = int(trial.seed_index)
            else:
                seed_index = index
            spec = TrialSpec(
                campaign=self.name,
                salt=salt,
                context_json=context_json,
                params_json=canonical_json(trial.params),
                seed_root=None if root is None else int(root),
                seed_index=seed_index,
            )
            fp = spec.fingerprint
            if fp in seen:
                raise ConfigurationError(
                    f"campaign {self.name!r}: trials {seen[fp]} and {index} "
                    f"have identical fingerprints (params {trial.params!r}); "
                    "give them distinguishing params"
                )
            seen[fp] = index
            specs.append(spec)
        return specs
