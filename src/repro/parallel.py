"""Deterministic parallel experiment engine.

Every paper artifact in this reproduction (the fault-injection
campaigns, the calibration sweep, the misdetection and accuracy
figures) is an embarrassingly parallel Monte-Carlo loop. This module
gives those drivers one primitive, :func:`pmap_report`, with a hard
determinism contract:

* **Tasks carry their own randomness.** ``pmap_report`` calls
  ``fn(item)`` and hands out no generators: a task that draws random
  numbers builds its generator from its item. The campaign layer does
  this with :func:`repro.campaign.trial_rng`, whose stream for trial
  *i* depends only on ``(seed_root, i)`` — not on how many workers
  ran, which process picked the task up, or what any other task
  consumed — so parallel results are bit-identical to serial results.
* **``workers=1`` is a pure fallback.** The serial path is a plain
  in-process loop over the same items; no pool, no pickling, no
  import-time side effects.
* **One executor.** A pooled call forks worker processes, each joined
  to the parent by a pipe, and hands one task at a time to whichever
  worker is idle. Without a ``supervision`` policy the batch fails
  fast: a trial exception re-raises in the parent as the trial's own
  exception, and a worker that dies mid-task raises
  :class:`~repro.errors.PoolTaskError` naming the task. With a
  :class:`repro.ground.GroundPolicy` the same executor enforces
  timeouts, retries, quarantines poison tasks and falls back to serial
  instead (``docs/ground.md``).
* **Graceful degradation.** If the host has too few CPUs, fork is
  unavailable (e.g. Windows), or workers cannot be started, the call
  degrades to the in-process loop and still returns the same values.
* **Results are keyed by index.** ``values`` always come back in
  input order, but on every pool path ``on_result(index, value)``
  fires in completion order, so a callback must key on the index.

Task functions must be *top-level* callables (picklable by qualified
name) and pure in their item. Per-task wall time and the executing
PID are captured for every task and exposed on the
:class:`ParallelReport`, so benchmarks can attribute cost. Trace
records are the campaign layer's job (``docs/observability.md``):
a supervised batch only reports its host incidents, per task, in
``ParallelReport.ground_events``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING

from .errors import PoolTaskError
from .obs.trace import KIND_EVENT, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ground.supervision import GroundPolicy, QuarantinedTask

__all__ = [
    "TaskTiming",
    "ParallelReport",
    "pmap_report",
    "resolve_workers",
]


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock accounting for one task."""

    index: int
    seconds: float
    pid: int


@dataclass(frozen=True)
class ParallelReport:
    """Everything :func:`pmap_report` learned while running a batch.

    The last six fields record host incidents. Quarantine, retries,
    timeouts and ground events happen only under a ``supervision``
    policy (:mod:`repro.ground`): quarantined tasks carry ``None`` in
    ``values`` and their identities ride in ``quarantined``
    (:class:`repro.ground.supervision.QuarantinedTask` entries);
    ``ground_events`` holds per-task host-fault trace records
    (retries, timeouts, worker losses) aligned to the input order.
    ``worker_losses`` and ``serial_fallback`` also count workers an
    unsupervised pool lost while idle or could not start.
    """

    values: "list[object]"
    timings: "tuple[TaskTiming, ...]"
    workers: int  # effective worker count actually used
    mode: str  # "serial", "fork-pool", "ground-pool", or "ground-serial"
    wall_seconds: float
    quarantined: "tuple[QuarantinedTask, ...]" = ()
    retries: int = 0
    timeouts: int = 0
    worker_losses: int = 0
    serial_fallback: bool = False
    ground_events: "tuple[list[TraceRecord], ...]" = ()

    @property
    def task_seconds(self) -> float:
        """Sum of per-task times (CPU-side cost, ignoring overlap)."""
        return sum(t.seconds for t in self.timings)


def resolve_workers(workers: "int | None", n_items: "int | None" = None) -> int:
    """Effective worker count: explicit request, else one per CPU,
    never more than the number of items."""
    count = os.cpu_count() or 1
    effective = count if workers is None else int(workers)
    if n_items is not None:
        effective = min(effective, n_items)
    return max(1, effective)


def _pool_usable(min_cpus: int) -> bool:
    """Whether a fork pool is worth (and capable of) starting."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return (os.cpu_count() or 1) >= min_cpus


def _invoke(fn, item):
    """Run one task; returns (value, seconds, pid).
    Top-level so a forked worker can run it."""
    started = time.perf_counter()
    value = fn(item)
    return value, time.perf_counter() - started, os.getpid()


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def _portable(exc: Exception) -> "Exception | None":
    """``exc`` if it survives the trip to the parent, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure
        return None
    return exc


def _worker_main(conn) -> None:
    """Child loop: run tasks until the parent hangs up.

    Trial exceptions are caught and reported as messages — only a hard
    crash (``os._exit``, a segfault, the OOM killer) breaks the pipe,
    which is exactly how the parent tells the two apart.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, fn, item = message
        try:
            reply = (index, "ok", _invoke(fn, item), "")
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            detail = f"{type(exc).__name__}: {exc}"
            reply = (index, "error", _portable(exc), detail)
        try:
            conn.send(reply)
        except Exception:  # noqa: BLE001 - parent gone / unpicklable value
            break


class _Worker:
    """One child process plus its duplex pipe."""

    __slots__ = ("proc", "conn", "index", "deadline")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.index: "int | None" = None
        self.deadline: "float | None" = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def assign(self, index: int, fn, item, timeout: "float | None") -> None:
        self.index = index
        self.deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        self.conn.send((index, fn, item))

    def clear(self) -> None:
        self.index = None
        self.deadline = None

    def kill(self) -> None:
        try:
            self.proc.kill()
        except Exception:  # noqa: BLE001 - already dead
            pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def release(self) -> None:
        """Graceful shutdown; escalates to kill if the child lingers."""
        try:
            self.conn.send(None)
        except Exception:  # noqa: BLE001 - pipe already broken
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Batch:
    """State machine for one batch, pooled or serial.

    ``policy`` is a :class:`~repro.ground.GroundPolicy`, or ``None`` to
    fail fast: the first failed task ends the batch with its error.
    """

    def __init__(self, fn, items, policy, effective, on_result, metrics):
        self.fn = fn
        self.items = items
        self.policy = policy
        self.effective = effective
        self.on_result = on_result
        self.metrics = metrics
        self.timeout = None if policy is None else policy.timeout_seconds
        # Without a policy, the first worker lost while idle (or never
        # started) degrades the rest of the batch to serial.
        self.loss_budget = 0 if policy is None else policy.max_worker_losses
        self.n = len(items)
        self.results: "dict[int, tuple]" = {}
        self.failures: "dict[int, int]" = {i: 0 for i in range(self.n)}
        self.quarantined: "dict[int, QuarantinedTask]" = {}
        self.ground_events: "dict[int, list[TraceRecord]]" = {}
        self.runnable: "deque[int]" = deque(range(self.n))
        self.delayed: "list[tuple[float, int]]" = []
        self.workers: "list[_Worker]" = []
        self.losses = 0
        self.retries = 0
        self.timeouts = 0
        self.serial_fallback = False

    # -- accounting ----------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _event(self, index: int, name: str, **attrs) -> None:
        """Ground events are host incidents; they carry the attempt
        ordinal as their timestamp so a task's timeline stays ordered
        without ever reading a wall clock into a record."""
        self.ground_events.setdefault(index, []).append(
            TraceRecord(
                t=float(self.failures[index]),
                kind=KIND_EVENT,
                name=name,
                attrs={"trial": index, **attrs},
            )
        )

    @property
    def done(self) -> bool:
        return len(self.results) + len(self.quarantined) >= self.n

    # -- task lifecycle ------------------------------------------------
    def _complete(self, index: int, outcome) -> None:
        self.results[index] = outcome
        if self.on_result is not None:
            self.on_result(index, outcome[0])

    _FAIL_COUNTERS = {
        "worker_crash": "ground.worker_crashes",
        "timeout": "ground.timeouts",
        "trial_error": "ground.trial_errors",
    }

    def _fail(self, index: int, kind: str, detail: str, error=None) -> None:
        """One attempt of ``index`` failed; raise, retry or quarantine.

        ``error`` is the trial's own exception when it crossed the pipe.
        """
        if self.policy is None:
            if error is not None:
                raise error
            raise PoolTaskError(f"task {index}: {kind}: {detail}")
        self.failures[index] += 1
        attempts = self.failures[index]
        if kind in self._FAIL_COUNTERS:
            self._count(self._FAIL_COUNTERS[kind])
        self._event(index, f"ground.{kind}", detail=detail, attempt=attempts)
        if attempts >= self.policy.max_attempts:
            from .ground.supervision import QuarantinedTask

            self.quarantined[index] = QuarantinedTask(
                index=index, attempts=attempts, error=f"{kind}: {detail}"
            )
            self._count("ground.quarantined")
            self._event(index, "ground.quarantine", attempts=attempts)
        else:
            self.retries += 1
            self._count("ground.retries")
            self._event(index, "ground.retry", attempt=attempts + 1)
            delay = self.policy.backoff_seconds(attempts)
            self.delayed.append((time.monotonic() + delay, index))

    def _lose_worker(self, worker: _Worker, kind: str, detail: str) -> None:
        """A worker crashed or was killed; its task failed an attempt."""
        index = worker.index
        worker.clear()
        worker.kill()
        if worker in self.workers:
            self.workers.remove(worker)
        self.losses += 1
        self._count("ground.worker_losses")
        if index is not None:
            self._fail(index, kind, detail)
        if self.losses > self.loss_budget and not self.serial_fallback:
            self._enter_serial_fallback()

    def _enter_serial_fallback(self) -> None:
        self.serial_fallback = True
        self._count("ground.serial_fallback")
        # Tag the fallback onto every task still outstanding, so any
        # of their timelines explains the mode change.
        for index in range(self.n):
            if index not in self.results and index not in self.quarantined:
                self._event(index, "ground.serial_fallback", losses=self.losses)
        for worker in list(self.workers):
            # An attempt that was in flight when the pool died is
            # aborted, not failed: requeue it at its current attempt
            # count so the serial drain re-runs it on the same item.
            if worker.index is not None:
                self.runnable.append(worker.index)
            worker.clear()
            worker.kill()
        self.workers.clear()

    # -- pool path -----------------------------------------------------
    def _promote_delayed(self) -> None:
        now = time.monotonic()
        if not self.delayed:
            return
        self.delayed.sort()
        while self.delayed and self.delayed[0][0] <= now:
            self.runnable.append(self.delayed.pop(0)[1])

    def _spawn_workers(self, ctx) -> None:
        outstanding = self.n - len(self.results) - len(self.quarantined)
        want = min(self.effective, outstanding)
        while len(self.workers) < want:
            try:
                self.workers.append(_Worker(ctx))
            except OSError:
                self.losses += 1
                self._count("ground.worker_losses")
                if self.losses > self.loss_budget:
                    self._enter_serial_fallback()
                return

    def _dispatch(self) -> None:
        for worker in self.workers:
            if not self.runnable:
                break
            if worker.busy:
                continue
            index = self.runnable.popleft()
            try:
                worker.assign(index, self.fn, self.items[index], self.timeout)
            except Exception:  # noqa: BLE001 - worker died while idle
                # The task never ran: requeue at the same attempt count
                # and account the loss against the pool, not the task.
                worker.clear()
                self.runnable.appendleft(index)
                self._lose_worker(worker, "worker_loss", "died while idle")
                return

    def _wait_timeout(self) -> float:
        """How long the next ``wait`` may block without missing a
        deadline or a newly eligible retry."""
        now = time.monotonic()
        horizon = 0.5
        for worker in self.workers:
            if worker.busy and worker.deadline is not None:
                horizon = min(horizon, worker.deadline - now)
        if self.delayed:
            horizon = min(horizon, min(t for t, _ in self.delayed) - now)
        return max(0.0, min(horizon, 0.5))

    def _reap_ready(self) -> None:
        busy = {w.conn: w for w in self.workers if w.busy}
        if not busy:
            # Nothing in flight: sleep just long enough for the next
            # delayed retry to become eligible.
            if self.delayed and not self.runnable:
                time.sleep(self._wait_timeout())
            return
        for conn in mp_connection.wait(list(busy), timeout=self._wait_timeout()):
            if self.serial_fallback:
                break  # the pool is already torn down
            worker = busy[conn]
            try:
                index, status, outcome, detail = conn.recv()
            except (EOFError, OSError):
                self._lose_worker(
                    worker, "worker_crash", "worker process died mid-trial"
                )
                continue
            worker.clear()
            if status == "ok":
                # Hand the freed worker its next task before the parent
                # spends time in ``on_result`` (store writes, a whole
                # group's absorb).
                self._dispatch()
                self._complete(index, outcome)
            else:
                self._fail(index, "trial_error", detail, outcome)

    def _reap_timeouts(self) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.busy and worker.deadline is not None and now > worker.deadline:
                self.timeouts += 1
                self._lose_worker(
                    worker, "timeout", f"attempt exceeded {self.timeout:g}s"
                )

    def run_pool(self, ctx) -> None:
        try:
            while not self.done and not self.serial_fallback:
                self._promote_delayed()
                self._spawn_workers(ctx)
                if not self.workers:
                    self._enter_serial_fallback()
                    break
                self._dispatch()
                self._reap_ready()
                self._reap_timeouts()
        finally:
            for worker in self.workers:
                if self.policy is None:
                    worker.kill()
                else:
                    worker.release()
            self.workers.clear()

    # -- serial path ---------------------------------------------------
    def run_serial(self) -> None:
        """In-process drain: bounded retry and quarantine still hold;
        per-attempt timeouts cannot be enforced without a child."""
        while not self.done:
            self._promote_delayed()
            if not self.runnable:
                if self.delayed:
                    time.sleep(self._wait_timeout())
                    continue
                break
            index = self.runnable.popleft()
            try:
                outcome = _invoke(self.fn, self.items[index])
            except Exception as exc:  # noqa: BLE001 - retried/quarantined
                if self.policy is None:
                    raise
                self._fail(
                    index, "trial_error", f"{type(exc).__name__}: {exc}"
                )
                continue
            self._complete(index, outcome)

    def report(self, *, workers, mode, wall_seconds) -> ParallelReport:
        outcomes = [self.results.get(i) for i in range(self.n)]
        ground_events = ()
        if self.policy is not None:
            ground_events = tuple(
                tuple(self.ground_events.get(i, ())) for i in range(self.n)
            )
        return ParallelReport(
            values=[None if o is None else o[0] for o in outcomes],
            timings=tuple(
                TaskTiming(
                    index=i,
                    seconds=0.0 if o is None else o[1],
                    pid=0 if o is None else o[2],
                )
                for i, o in enumerate(outcomes)
            ),
            workers=workers,
            mode=mode,
            wall_seconds=wall_seconds,
            quarantined=tuple(
                self.quarantined[i] for i in sorted(self.quarantined)
            ),
            retries=self.retries,
            timeouts=self.timeouts,
            worker_losses=self.losses,
            serial_fallback=self.serial_fallback,
            ground_events=ground_events,
        )


def pmap_report(
    fn,
    items,
    *,
    workers: "int | None" = None,
    force_pool: bool = False,
    on_result=None,
    supervision: "GroundPolicy | None" = None,
    metrics=None,
) -> ParallelReport:
    """Map ``fn`` over ``items``, deterministically, maybe in parallel.

    Parameters
    ----------
    fn:
        Top-level callable, called as ``fn(item)``. A task that needs
        randomness derives it from its item (the campaign layer ships
        ``(seed_root, seed_index)`` and builds
        :func:`repro.campaign.trial_rng`), so results never depend on
        scheduling.
    workers:
        Desired parallelism. ``None`` = one per CPU; ``1`` = the pure
        serial path. Small hosts / missing fork degrade to serial.
    force_pool:
        Start the pool even on a single-CPU host (used by the
        determinism tests so the pool path is always exercised).
    on_result:
        Optional ``on_result(index, value)`` callback, invoked in the
        *parent* process as each task's result arrives. This is the
        campaign engine's incremental-persistence hook: a run killed
        mid-grid keeps every trial already absorbed. The serial path
        calls it in ascending task order; every pool path calls it in
        *completion* order, so the callback must key on the index, and
        only after the worker that returned the result has its next
        task, so a slow callback does not idle a worker.
    supervision:
        A :class:`repro.ground.GroundPolicy`. The batch then survives
        its host: per-task wall-clock timeouts, bounded retry on the
        same item, crashed/hung-worker replacement, poison-task
        quarantine, serial fallback when the pool is repeatedly lost. ``metrics`` (a
        :class:`repro.obs.MetricsRegistry`) then receives the
        ``ground.*`` counters. Without a policy the first failed task
        raises and ``metrics`` is ignored.
    """
    items = list(items)
    n = len(items)
    effective = resolve_workers(workers, n)
    if supervision is None:
        pooled = n > 0 and effective > 1 and _pool_usable(1 if force_pool else 2)
        mode = "fork-pool" if pooled else "serial"
        effective = effective if pooled else 1
        metrics = None
    else:
        # Supervision isolates attempts in child processes even at
        # workers=1, because a timeout can only be enforced on
        # something the parent can kill.
        pooled = n > 0 and _pool_usable(min_cpus=1)
        mode = "ground-pool" if pooled else "ground-serial"
        if metrics is not None:
            metrics.counter("ground.tasks").inc(n)
    batch = _Batch(fn, items, supervision, effective, on_result, metrics)
    started = time.perf_counter()
    if pooled:
        batch.run_pool(multiprocessing.get_context("fork"))
    if not batch.done:
        batch.run_serial()
    return batch.report(
        workers=effective,
        mode=mode,
        wall_seconds=time.perf_counter() - started,
    )
