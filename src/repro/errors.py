"""Exception hierarchy for the Radshield reproduction.

Errors are split along the paper's fault taxonomy (§4.2.6, Table 7):

* *Detected* errors — faults that surface as an observable failure
  (a segfault-analog, an ECC double-bit detection, a voting tie).
  These map to the "Error" column of Table 7.
* *Silent* data corruption never raises; it is only discoverable by
  comparing against golden outputs, which the experiment harness does.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class SimulationError(ReproError):
    """The simulated machine was driven into an invalid state."""


class AllocationError(SimulationError):
    """The simulated DRAM or flash allocator ran out of space."""


class InvalidAddressError(SimulationError):
    """An access fell outside any allocated region."""


class DetectedFaultError(ReproError):
    """Base class for faults the system *observes* (Table 7 "Error")."""


class UncorrectableMemoryError(DetectedFaultError):
    """SECDED detected a double-bit (or worse) error it cannot correct."""

    def __init__(self, address: int, message: str = "") -> None:
        self.address = address
        super().__init__(message or f"uncorrectable memory error at 0x{address:x}")


class SegmentationFault(DetectedFaultError):
    """A corrupted pointer or length drove an access out of bounds.

    The paper observes exactly this failure mode in fault injection:
    "a pointer in a job being sent to an executor was corrupted and
    resulted in segfault, which we define as a detected error".
    """


class VotingInconclusiveError(DetectedFaultError):
    """All three executor outputs disagreed; no majority exists."""


class WorkloadError(ReproError):
    """A workload implementation rejected its input."""


class StoreWriteError(ReproError):
    """The trial store could not durably persist an entry.

    Raised for host-side disk faults with an unambiguous operator
    action — a full disk (``ENOSPC``), a permission problem
    (``EACCES``), a read-only mount (``EROFS``), a blown quota
    (``EDQUOT``) — instead of letting a raw :class:`OSError` surface
    halfway through a campaign with no context. A campaign that hits
    this must stop: continuing would silently drop "committed" trials
    that resume later trusts.
    """


class PoolTaskError(ReproError):
    """A pooled task failed in a way that cannot re-raise as its own
    exception: its worker process died mid-task, or the exception it
    raised cannot cross the process boundary."""


class HardwareDamagedError(SimulationError):
    """The simulated chip burned out (an SEL ran past the thermal limit)."""


class RecoveryFailedError(SimulationError):
    """The recovery supervisor exhausted its power-cycle retry budget
    without restoring baseline current."""
