"""Conflict detection between datasets (§3.2, Fig 8).

"Two jobs are in conflict if any part of their dataset requires the
same memory access." The hazard is cache-line granular: two regions
that merely share a 64-byte line can alias in the shared L2, so
conflicts are computed over line intervals, not byte intervals.
Regions chosen for replication are excluded — each executor reads its
own private copy, so they can never alias across executors.

Detection is a per-blob interval sweep: O(R log R + K) for R regions
and K conflicting pairs, instead of the naive O(R²) all-pairs scan.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ...errors import ConfigurationError
from ...workloads.base import DatasetSpec, RegionRef


@dataclass(frozen=True)
class ConflictGraph:
    """Adjacency over dataset indices."""

    neighbours: "dict[int, frozenset]"

    def conflicts(self, a: int, b: int) -> bool:
        return b in self.neighbours.get(a, frozenset())

    @property
    def edge_count(self) -> int:
        return sum(len(adj) for adj in self.neighbours.values()) // 2

    def density(self, n_datasets: int) -> float:
        if n_datasets < 2:
            return 0.0
        possible = n_datasets * (n_datasets - 1) / 2
        return self.edge_count / possible


def detect_conflicts(
    datasets: "list[DatasetSpec]",
    replicated: "set[RegionRef]",
    line_size: int = 64,
    extra_conflicts: "callable | None" = None,
) -> ConflictGraph:
    """Build the dataset conflict graph.

    ``extra_conflicts``, if given, is the paper's escape hatch for
    "algorithm-specific conflicts that EMR may not detect": a callable
    ``(dataset_a, dataset_b) -> bool`` consulted for every pair that is
    *not* already conflicting by overlap. (It is only called for pairs
    sharing a blob neighbourhood would be incomplete, so it is applied
    to all pairs — keep it cheap.)
    """
    if line_size <= 0:
        raise ConfigurationError("line_size must be positive")
    # Gather non-replicated line intervals per blob.
    intervals = defaultdict(list)  # blob -> list of (first, last, ds_index)
    for ds in datasets:
        for ref in ds.regions.values():
            if ref in replicated:
                continue
            first, last = ref.line_range(line_size)
            intervals[ref.blob].append((first, last, ds.index))

    adjacency: "dict[int, set]" = defaultdict(set)
    for blob_intervals in intervals.values():
        blob_intervals.sort()
        # Sweep: keep intervals whose `last` hasn't passed the new start.
        active: "list[tuple]" = []
        for first, last, index in blob_intervals:
            active = [item for item in active if item[0] >= first]
            for active_last, active_index in active:
                if active_index != index:
                    adjacency[index].add(active_index)
                    adjacency[active_index].add(index)
            active.append((last, index))

    if extra_conflicts is not None:
        for i, ds_a in enumerate(datasets):
            for ds_b in datasets[i + 1 :]:
                if ds_b.index in adjacency[ds_a.index]:
                    continue
                if extra_conflicts(ds_a, ds_b):
                    adjacency[ds_a.index].add(ds_b.index)
                    adjacency[ds_b.index].add(ds_a.index)

    return ConflictGraph(
        neighbours={index: frozenset(adj) for index, adj in adjacency.items()}
    )
