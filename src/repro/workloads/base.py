"""Workload interface shared by EMR, the baselines, and telemetry.

EMR's programming model (§3.2, Fig 7) asks the developer for two
things: a description of *which memory each computation reads* (the
``InputData`` structs) and the job function itself. The Python analog:

* :class:`RegionRef` — one input region, identified by
  ``(blob, offset, length)``. Identity matters: EMR detects "common
  data" by looking "for datasets within the input data with identical
  pointers and offsets", i.e. equal :class:`RegionRef`\\ s.
* :class:`DatasetSpec` — the regions (by role) one job consumes, plus
  small scalar params (block index, etc.).
* :class:`WorkloadSpec` — the blobs (actual bytes) and the dataset
  list for one problem instance.
* :class:`Workload.run_job` — the pure computation: role -> bytes in,
  output bytes back. EMR feeds it bytes fetched *through the simulated
  cache*, so cached corruption flows into real computation and wrong
  answers come out — which is what the voters catch.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, WorkloadError


@dataclass(frozen=True, eq=False)
class RegionRef:
    """A blob-relative input region. Equal refs = shared data.

    The hash is computed once, as ``hash((blob, offset, length))`` (so
    frozenset order, and every staging address, follows it as before).
    A ref never equals a plain tuple."""

    blob: str
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length <= 0:
            raise ConfigurationError(
                f"region {self.blob}[{self.offset}:{self.offset + self.length}] invalid"
            )
        key = (self.blob, self.offset, self.length)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never carry
        # ``_hash`` across a pickle.
        return RegionRef, self._key

    @property
    def end(self) -> int:
        return self.offset + self.length

    def overlaps(self, other: "RegionRef") -> bool:
        if self.blob != other.blob:
            return False
        return self.offset < other.end and other.offset < self.end

    def line_range(self, line_size: int) -> "tuple[int, int]":
        """Inclusive first/last cache-line index (blob-relative)."""
        return self.offset // line_size, (self.end - 1) // line_size


@dataclass(frozen=True)
class DatasetSpec:
    """One computation's inputs: role -> region, plus scalar params."""

    index: int
    regions: "dict[str, RegionRef]"
    params: "dict[str, object]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.regions:
            raise ConfigurationError(f"dataset {self.index} has no input regions")


@dataclass
class WorkloadSpec:
    """A fully-materialized problem instance."""

    name: str
    blobs: "dict[str, bytes]"
    datasets: "list[DatasetSpec]"
    output_size: int  # upper bound on per-job output bytes

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ConfigurationError(f"{self.name}: no datasets")
        if self.output_size <= 0:
            raise ConfigurationError(f"{self.name}: output_size must be positive")
        for ds in self.datasets:
            for role, ref in ds.regions.items():
                blob = self.blobs.get(ref.blob)
                if blob is None:
                    raise ConfigurationError(
                        f"{self.name}: dataset {ds.index} role {role!r} "
                        f"references unknown blob {ref.blob!r}"
                    )
                if ref.end > len(blob):
                    raise ConfigurationError(
                        f"{self.name}: dataset {ds.index} role {role!r} "
                        f"overruns blob {ref.blob!r} ({ref.end} > {len(blob)})"
                    )

    def memo(self, key, build):
        """``build()``, called once per ``key`` for this spec. A spec is
        never mutated after :meth:`Workload.build`, so what EMR derives
        from its layout can be kept. The memo is not a field: ``==``,
        ``repr`` and pickles leave it out, and a copy starts empty."""
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items() if key != "_memo"}

    def slice_inputs(self, dataset: DatasetSpec) -> "dict[str, bytes]":
        """Read a dataset's inputs straight from the spec (no machine):
        the golden path used for reference outputs."""
        return {
            role: self.blobs[ref.blob][ref.offset : ref.end]
            for role, ref in dataset.regions.items()
        }

    @property
    def total_input_bytes(self) -> int:
        return sum(len(blob) for blob in self.blobs.values())


class Workload(abc.ABC):
    """One spacecraft compute task (a Table 5 row)."""

    #: Short identifier ("encryption", "image_processing", ...).
    name: str = "abstract"
    #: The state-of-the-art library the paper pairs the workload with.
    library_analog: str = ""
    #: Replication strategy the paper reports as optimal (Table 5).
    paper_replication_strategy: str = ""
    #: Replication threshold the experiment drivers use. The paper's
    #: production default is 0.01 with thousands of datasets; at this
    #: reproduction's reduced dataset counts the same *semantics*
    #: ("replicate only data shared across a large share of jobs")
    #: correspond to a larger fraction. Fig 13 sweeps this knob.
    default_replication_threshold: float = 0.2

    @abc.abstractmethod
    def build(self, rng: np.random.Generator, scale: int = 1) -> WorkloadSpec:
        """Materialize a problem instance. ``scale`` grows input size
        roughly linearly (benchmarks sweep it)."""

    @abc.abstractmethod
    def run_job(self, inputs: "dict[str, bytes]", params: "dict[str, object]") -> bytes:
        """The computation. Must be deterministic in its inputs.

        The EMR job engine computes each distinct (dataset, input
        bytes) once per run and serves the other replicas the same
        output, so this must not depend on how often it is called or on
        instance state that changes between calls."""

    def instructions_per_job(self, dataset: DatasetSpec) -> int:
        """Estimated retired instructions for one job (drives simulated
        timing/energy). Default: proportional to input bytes."""
        total = sum(ref.length for ref in dataset.regions.values())
        return max(1000, total * 120)

    def reference_outputs(self, spec: WorkloadSpec) -> "list[bytes]":
        """Golden outputs computed outside the machine (no faults)."""
        return [
            self.run_job(spec.slice_inputs(ds), dict(ds.params))
            for ds in spec.datasets
        ]

    def validate_output(self, output: bytes) -> None:
        """Hook for workloads with checkable output structure."""
        if output is None:
            raise WorkloadError(f"{self.name}: job returned no output")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
