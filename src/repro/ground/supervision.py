"""Worker supervision: the policy and quarantine types of the ground executor.

The executor itself is :func:`repro.parallel.pmap_report`'s one
worker pool. Without a policy it fails fast — one segfaulting trial
ends the batch with an error. Passing a :class:`GroundPolicy`
(``pmap_report(supervision=policy)`` /
``execute(supervision=policy)``) makes the same executor survive its
host while keeping the determinism contract intact:

* **Byte-identical retries.** Every attempt of task *i* receives the
  same spawned seed the plain path would hand it; a retry that
  succeeds produces exactly the bytes a first-try success would, so
  supervised campaigns aggregate byte-identically to unsupervised
  ones at any worker count.
* **Timeouts and replacement.** Each attempt runs in a dedicated
  child process with an optional wall-clock deadline; a hung worker
  is killed and replaced, a crashed worker (hard exit, OOM-kill,
  segfault) is detected by its broken pipe and replaced.
* **Bounded retry with backoff.** Failures (crash, timeout, trial
  exception) are retried up to ``max_attempts`` with exponential
  backoff; wall-clock delays never leak into results.
* **Poison quarantine.** A task that exhausts its attempts is
  quarantined — the batch *completes* and the report carries a
  :class:`QuarantinedTask` manifest instead of the run dying.
* **Serial fallback.** When worker losses exceed
  ``max_worker_losses`` (a host that cannot keep a pool alive), the
  remaining tasks run serially in-process; retry/quarantine still
  apply, only timeout enforcement is lost.

Everything observable lands in the caller's
:class:`~repro.obs.MetricsRegistry` under ``ground.*`` counters and,
when tracing, as ``ground.*`` trace events merged into the affected
task's timeline (rendered by ``repro trace summarize``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = [
    "GroundPolicy",
    "QuarantinedTask",
    "QuarantinedTrial",
    "quarantine_manifest",
]


@dataclass(frozen=True)
class GroundPolicy:
    """Supervision knobs for one supervised batch.

    ``timeout_seconds`` bounds each *attempt*'s wall clock (``None``
    disables timeouts — crashes and exceptions are still handled).
    ``max_attempts`` counts total tries per task before quarantine.
    Backoff before retry *k* (1-based) is
    ``min(backoff_base_seconds * backoff_factor**(k-1),
    backoff_max_seconds)``. ``max_worker_losses`` is the pool-loss
    budget (crashes + timeout kills + failed spawns) after which the
    batch degrades to in-process serial execution.
    """

    timeout_seconds: "float | None" = None
    max_attempts: int = 3
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 2.0
    max_worker_losses: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ConfigurationError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.max_worker_losses < 0:
            raise ConfigurationError("max_worker_losses must be >= 0")

    def backoff_seconds(self, failures: int) -> float:
        """Delay before the retry that follows failure ``failures``."""
        delay = self.backoff_base_seconds * (
            self.backoff_factor ** max(0, failures - 1)
        )
        return min(delay, self.backoff_max_seconds)


@dataclass(frozen=True)
class QuarantinedTask:
    """One task that exhausted its attempt budget (``pmap_report``-level view)."""

    index: int  # position in the batch's input order
    attempts: int
    error: str  # last failure, e.g. "timeout: exceeded 1.0s"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass(frozen=True)
class QuarantinedTrial:
    """A quarantined task resolved to its campaign identity.

    ``round`` is the stream round ordinal for trials quarantined
    inside a multi-round stream (:mod:`repro.campaign.stream`);
    ``None`` for plain one-shot campaigns, and omitted from the
    manifest dict in that case so single-round manifests keep their
    historical shape.
    """

    index: int  # grid position (within its round, for streams)
    fingerprint: str
    params: dict
    attempts: int
    error: str
    round: "int | None" = None

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "fingerprint": self.fingerprint,
            "params": self.params,
            "attempts": self.attempts,
            "error": self.error,
        }
        if self.round is not None:
            out["round"] = self.round
        return out


def quarantine_manifest(result) -> dict:
    """JSON-safe quarantine manifest for a supervised campaign run
    (:class:`~repro.campaign.CampaignResult`)."""
    return {
        "campaign": result.name,
        "quarantined": [q.to_dict() for q in result.quarantined],
    }
