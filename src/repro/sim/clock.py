"""Discrete simulated time.

All machine components share one :class:`SimClock`. Time is kept in
float seconds; components advance it explicitly (discrete-event style)
rather than by fixed ticks, so a 2400-second compute phase costs one
update, not 2.4 million.
"""

from __future__ import annotations

from ..errors import SimulationError


class SimClock:
    """Monotonic simulated clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._reset_guards: "list" = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise SimulationError(f"cannot advance clock by negative dt={dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move time forward to absolute time ``t`` (no-op if already past)."""
        if t > self._now:
            self._now = t
        return self._now

    def on_reset(self, guard) -> None:
        """Register a reset guard: a callable returning a description of
        pending component state (or ``None``/empty when clean).

        A machine's components register guards so that rewinding the
        clock under live state — resident cache lines, allocated DRAM,
        an active latchup's current draw — fails loudly instead of
        silently producing a machine whose timestamps contradict its
        contents. The supported way to reuse a machine for a fresh
        experiment is ``Machine.snapshot()`` / ``Machine.restore()``,
        which rewinds *all* state together.
        """
        self._reset_guards.append(guard)

    def reset(self, start: float = 0.0, *, force: bool = False) -> None:
        """Rewind the clock; refuses while components hold pending state.

        ``force=True`` skips the guards (used by ``Machine.restore``,
        which rewinds component state in the same operation).
        """
        if not force:
            pending = [msg for msg in (g() for g in self._reset_guards) if msg]
            if pending:
                raise SimulationError(
                    "clock reset with pending component state ("
                    + "; ".join(pending)
                    + ") — restore a Machine snapshot for a fresh "
                    "experiment, or pass force=True"
                )
        self._now = float(start)

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.6f}s)"


class Stopwatch:
    """Measures spans of simulated time against a :class:`SimClock`.

    Used by the EMR runtime to produce the per-operation breakdown of
    Table 6 (disk read / allocation / compute / cache clear).
    """

    def __init__(
        self, clock: SimClock, spans: "dict[str, float] | None" = None
    ) -> None:
        self._clock = clock
        #: ``spans`` (a :meth:`breakdown`) resumes an earlier watch.
        self._spans: dict[str, float] = dict(spans or {})
        self._open: dict[str, float] = {}

    def start(self, label: str) -> None:
        if label in self._open:
            raise SimulationError(f"span {label!r} already started")
        self._open[label] = self._clock.now

    def stop(self, label: str) -> float:
        try:
            began = self._open.pop(label)
        except KeyError:
            raise SimulationError(f"span {label!r} was never started") from None
        elapsed = self._clock.now - began
        self._spans[label] = self._spans.get(label, 0.0) + elapsed
        return elapsed

    def add(self, label: str, seconds: float) -> None:
        """Credit a span directly (for costs computed analytically)."""
        if seconds < 0:
            raise SimulationError(f"negative span {seconds} for {label!r}")
        self._spans[label] = self._spans.get(label, 0.0) + seconds

    def total(self, label: str) -> float:
        return self._spans.get(label, 0.0)

    def breakdown(self) -> dict[str, float]:
        """All accumulated spans, label -> seconds."""
        return dict(self._spans)
