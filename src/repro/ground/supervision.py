"""Worker supervision: the fault-tolerant ground executor.

:func:`repro.parallel.pmap_report` assumes workers never crash, never
hang, and trial functions never throw — one segfaulting trial kills
the whole campaign, one wedged worker stalls it forever. This module
is the drop-in supervised path (``pmap_report(supervision=policy)`` /
``execute(supervision=policy)``) that removes those assumptions while
keeping the determinism contract intact:

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

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

from ..errors import ConfigurationError
from ..obs.trace import KIND_EVENT, TraceRecord
from ..parallel import (
    ParallelReport,
    _build_report,
    _invoke,
    _payloads,
    _pool_usable,
    resolve_workers,
)

__all__ = [
    "GroundPolicy",
    "QuarantinedTask",
    "QuarantinedTrial",
    "quarantine_manifest",
    "supervised_pmap_report",
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
    """One task that exhausted its attempt budget (pmap-level view)."""

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


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:
    """Child loop: run payloads until the parent hangs up.

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
        index, payload = message
        try:
            outcome = _invoke(payload)
            reply = (index, "ok", outcome, "")
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            reply = (index, "error", None, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except Exception:  # noqa: BLE001 - parent gone / unpicklable value
            break


class _Worker:
    """One supervised child process plus its duplex pipe."""

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

    def assign(self, index: int, payload, timeout: "float | None") -> None:
        self.index = index
        self.deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        self.conn.send((index, payload))

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
class _SupervisedRun:
    """State machine for one supervised batch."""

    def __init__(self, payloads, policy, effective, on_result, metrics):
        self.payloads = payloads
        self.policy = policy
        self.effective = effective
        self.on_result = on_result
        self.metrics = metrics
        self.n = len(payloads)
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

    def _fail(self, index: int, kind: str, detail: str) -> None:
        """One attempt of ``index`` failed; retry or quarantine."""
        self.failures[index] += 1
        attempts = self.failures[index]
        if kind in self._FAIL_COUNTERS:
            self._count(self._FAIL_COUNTERS[kind])
        self._event(index, f"ground.{kind}", detail=detail, attempt=attempts)
        if attempts >= self.policy.max_attempts:
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
        if (
            self.losses > self.policy.max_worker_losses
            and not self.serial_fallback
        ):
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
            # count so the serial drain re-runs it with the same seed.
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
                if self.losses > self.policy.max_worker_losses:
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
                worker.assign(
                    index, self.payloads[index], self.policy.timeout_seconds
                )
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
                self._complete(index, outcome)
            else:
                self._fail(index, "trial_error", detail)

    def _reap_timeouts(self) -> None:
        if self.policy.timeout_seconds is None:
            return
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.busy and worker.deadline is not None and now > worker.deadline:
                self.timeouts += 1
                self._lose_worker(
                    worker,
                    "timeout",
                    f"attempt exceeded {self.policy.timeout_seconds:g}s",
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
            for worker in list(self.workers):
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
                outcome = _invoke(self.payloads[index])
            except Exception as exc:  # noqa: BLE001 - retried/quarantined
                self._fail(
                    index, "trial_error", f"{type(exc).__name__}: {exc}"
                )
                continue
            self._complete(index, outcome)


def supervised_pmap_report(
    fn,
    items,
    *,
    seed=None,
    policy: "GroundPolicy | None" = None,
    workers: "int | None" = None,
    trace_path: "str | None" = None,
    on_result=None,
    metrics=None,
) -> ParallelReport:
    """:func:`repro.parallel.pmap_report` with worker supervision.

    Same calling convention and determinism contract; additionally
    honours ``policy`` (:class:`GroundPolicy`). Quarantined tasks
    yield ``None`` in ``values`` and a :class:`QuarantinedTask` entry
    in ``report.quarantined``. ``metrics`` receives the ``ground.*``
    counters; ``report.ground_events`` carries per-task host-incident
    records (and, with ``trace_path``, they are merged into the trace
    ahead of each task's own records).
    """
    policy = policy if policy is not None else GroundPolicy()
    payloads = _payloads(fn, items, seed, trace_path is not None)
    n = len(payloads)
    effective = resolve_workers(workers, n)
    run = _SupervisedRun(payloads, policy, effective, on_result, metrics)
    if metrics is not None:
        metrics.counter("ground.tasks").inc(n)

    started = time.perf_counter()
    mode = "ground-serial"
    if n > 0 and _pool_usable(min_cpus=1):
        # Supervision always isolates attempts in child processes —
        # even at workers=1 — because a timeout can only be enforced
        # on something the parent can kill.
        mode = "ground-pool"
        run.run_pool(multiprocessing.get_context("fork"))
    if not run.done:
        run.run_serial()
    return _build_report(
        [run.results.get(i) for i in range(n)],
        workers=effective,
        mode=mode,
        wall_seconds=time.perf_counter() - started,
        trace_path=trace_path,
        ground_events=tuple(
            tuple(run.ground_events.get(i, ())) for i in range(n)
        ),
        quarantined=tuple(
            run.quarantined[i] for i in sorted(run.quarantined)
        ),
        retries=run.retries,
        timeouts=run.timeouts,
        worker_losses=run.losses,
        serial_fallback=run.serial_fallback,
    )
