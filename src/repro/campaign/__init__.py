"""Unified resumable campaign engine.

Declare a grid of trials (:class:`Campaign` / :class:`Trial`), run it
with :func:`execute` — deterministically parallel via
:func:`repro.parallel.pmap_report`, per-trial RNG pinned by
``(seed_root, seed_index)`` — and point it at a :class:`TrialStore`
to make the run resumable: completed trials are fingerprinted
(:class:`TrialSpec`), persisted, and skipped on rerun, with aggregate
output byte-identical to an uninterrupted run.

Since the round-based refactor the executor is a *stream drain*: a
:class:`TrialSource` emits rounds (each round is a ``Campaign``), and
:func:`execute_stream` drains it — a static grid is the trivial
one-round source (:class:`GridSource`), and adaptive multi-round
sources (:mod:`repro.adaptive`) ride the same store/trace/quarantine
machinery with round seeds derived from outcome digests
(:func:`round_seed`), so they stay resumable and byte-identical at
any worker count.

See ``docs/campaigns.md`` for the spec format, fingerprinting rules
and resume semantics, and ``docs/adaptive.md`` for multi-round
streams.
"""

from .batch import Diverged, execute_batched
from .engine import CampaignResult, CampaignStatus, execute, status
from .reports import decode_report, encode_report
from .spec import (
    CODE_VERSION,
    Campaign,
    Trial,
    TrialSpec,
    canonical_json,
    jsonify,
    trial_rng,
)
from .store import STORE_SCHEMA, TrialStore
from .stream import (
    GridSource,
    RoundResult,
    StreamHistory,
    StreamResult,
    StreamStatus,
    TrialSource,
    execute_stream,
    replay_round,
    round_seed,
    stream_status,
    values_digest,
)

__all__ = [
    "CODE_VERSION",
    "STORE_SCHEMA",
    "Campaign",
    "CampaignResult",
    "CampaignStatus",
    "Diverged",
    "GridSource",
    "RoundResult",
    "StreamHistory",
    "StreamResult",
    "StreamStatus",
    "Trial",
    "TrialSource",
    "TrialSpec",
    "TrialStore",
    "canonical_json",
    "decode_report",
    "encode_report",
    "execute",
    "execute_batched",
    "execute_stream",
    "jsonify",
    "replay_round",
    "round_seed",
    "status",
    "stream_status",
    "trial_rng",
    "values_digest",
]
