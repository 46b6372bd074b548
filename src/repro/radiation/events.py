"""Radiation event types.

The paper's fault taxonomy (§2):

* **SEU** — a transient charge flips the logical state of a circuit:
  a bit in DRAM, a cache line copy, a value in flight through a
  pipeline, or a pointer in a runtime structure.
* **SEL** — a latchup: a parasitic short-circuit that adds *persistent*
  current draw and heats the die until power is removed.
* **MBU** — a multi-bit upset: one particle, several adjacent flips
  (evaluated in Table 7's "EMR + MBU" row).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from collections.abc import Sequence

    from ..core.emr.runtime import RunResult


class SeuTarget(enum.Enum):
    """Where an upset can land, mirroring the die components of Table 4."""

    DRAM = "dram"
    L1_CACHE = "l1"
    L2_CACHE = "l2"
    PIPELINE = "pipeline"  # value in flight through one core's datapath
    POINTER = "pointer"  # runtime metadata (job pointers, lengths)
    PAGE_CACHE = "page_cache"
    STORAGE_MEDIA = "storage"


@dataclass(frozen=True)
class SeuEvent:
    """One upset: ``bits`` > 1 makes it a multi-bit upset."""

    time: float
    target: SeuTarget
    bits: int = 1

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ConfigurationError("an upset flips at least one bit")
        if self.time < 0:
            raise ConfigurationError("event time must be >= 0")

    @property
    def is_mbu(self) -> bool:
        return self.bits > 1


@dataclass(frozen=True)
class SelEvent:
    """One latchup. ``delta_amps`` is the persistent extra draw; modern
    process nodes produce micro-SELs as small as 0.07 A [45], far below
    the classic ~1 A signatures [44]."""

    time: float
    delta_amps: float
    location: str = "soc"

    def __post_init__(self) -> None:
        if self.delta_amps <= 0:
            raise ConfigurationError("SEL current delta must be positive")
        if self.time < 0:
            raise ConfigurationError("event time must be >= 0")


class OutcomeClass(enum.Enum):
    """Table 7's outcome taxonomy for an injected fault."""

    CORRECTED = "corrected"  # redundancy out-voted / ECC repaired it
    NO_EFFECT = "no_effect"  # fault landed somewhere dead
    ERROR = "error"  # observable failure (crash, vote tie, ECC detect)
    SDC = "sdc"  # wrong answer, nobody noticed


def classify_outcome(
    result: "RunResult | None",
    golden: "Sequence[bytes]",
    error: "str | None" = None,
) -> OutcomeClass:
    """Table 7's outcome of one injected run: ``error`` is the detected
    fault that aborted it (``result`` is then ``None``), ``golden`` the
    fault-free outputs."""
    if error is not None or result.stats.detected_faults:
        # A replica crash that redundancy recovered was still
        # *observed*: the paper counts it as an error too.
        return OutcomeClass.ERROR
    if not result.matches(list(golden)):
        return OutcomeClass.SDC
    if result.stats.vote_corrections > 0:
        return OutcomeClass.CORRECTED
    return OutcomeClass.NO_EFFECT
