"""Jobs, jobsets, and job results.

"In EMR, the computation itself is expressed as a *job*, which
describes a single run of the target algorithm on one dataset. ...
each job is bound to a core, and as such each dataset has three jobs
associated with it" (§3.2). A jobset is a set of jobs that can run
simultaneously without any pair touching the same cache line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import ConfigurationError
from ...workloads.base import DatasetSpec


@dataclass
class Job:
    """One replica execution: dataset × executor."""

    dataset: DatasetSpec
    executor_id: int
    jobset_id: "int | None" = None
    #: Cache path to fetch through. Defaults to ``executor_id``; the
    #: sequential 3-MR baseline runs every replica pass on core 0, so
    #: its jobs keep replica identity but share one cache group.
    cache_group: "int | None" = None
    #: Mutable copy of the dataset's region offsets — this is the
    #: "pointer being sent to an executor" that fault injection can
    #: corrupt (Table 7's segfault case). Maps role -> (offset, length).
    pointers: "dict[str, tuple]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.executor_id < 0:
            raise ConfigurationError("executor_id must be >= 0")
        if not self.pointers:
            self.pointers = {
                role: (ref.offset, ref.length)
                for role, ref in self.dataset.regions.items()
            }

    def copy(self) -> "Job":
        """This job with its own copy of the pointers (a run may
        corrupt its jobs' pointers, never another run's)."""
        return Job(
            self.dataset, self.executor_id, self.jobset_id, self.cache_group,
            dict(self.pointers),
        )

    @property
    def dataset_index(self) -> int:
        return self.dataset.index

    @property
    def group(self) -> int:
        """Effective cache/core group for this job's data path."""
        return self.cache_group if self.cache_group is not None else self.executor_id

    def __repr__(self) -> str:
        return f"Job(ds={self.dataset.index}, exec={self.executor_id}, js={self.jobset_id})"


@dataclass
class JobSet:
    """Jobs scheduled to run concurrently between two barriers."""

    jobset_id: int
    jobs: "list[Job]" = field(default_factory=list)
    #: Executor lanes this jobset spans (``None`` = the runtime
    #: config's ``n_executors`` — the pre-mode-schedule behaviour).
    n_executors: "int | None" = None
    #: Redundancy mode the jobset was planned under ("" = fixed mode).
    mode_name: str = ""
    #: DVFS operating point while this jobset runs (``None`` = top).
    freq_level: "int | None" = None

    def add(self, job: Job) -> None:
        job.jobset_id = self.jobset_id
        self.jobs.append(job)

    def fresh_copy(self) -> "JobSet":
        """This jobset over new jobs with their own copy of the pointers
        (a run may corrupt its jobs' pointers, never a planned jobset's)."""
        jobs = [job.copy() for job in self.jobs]
        for job in jobs:
            job.jobset_id = self.jobset_id
        return JobSet(self.jobset_id, jobs, self.n_executors, self.mode_name, self.freq_level)

    def jobs_for_executor(self, executor_id: int) -> "list[Job]":
        return [job for job in self.jobs if job.executor_id == executor_id]

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass
class JobResult:
    """Outcome of one replica execution."""

    dataset_index: int
    executor_id: int
    output: "bytes | None"
    fault: "str | None" = None  # description of a detected failure

    @property
    def ok(self) -> bool:
        return self.fault is None and self.output is not None
