"""Project-wide pytest configuration: the global per-test timeout, and
fixtures that watch the worker pool (forks and round reports).

The ground-segment layer exists because workers hang; its tests (and
any future regression) must not be able to hang CI with them. The
``timeout`` value in ``pyproject.toml`` bounds every test's wall
clock. When the ``pytest-timeout`` plugin is installed (the CI test
extra) it owns that ini option; when it is not (minimal local
environments), this shim registers the option itself and enforces it
with a ``SIGALRM`` interval timer — child processes are unaffected
(POSIX resets interval timers across ``fork``), so the supervised
executor's worker pools run undisturbed under it.
"""

from __future__ import annotations

import importlib.util
import signal

import pytest

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None

if not _HAVE_PYTEST_TIMEOUT:

    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test timeout in seconds (SIGALRM fallback shim; install "
            "pytest-timeout for the full plugin)",
            default="0",
        )

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        try:
            seconds = float(item.config.getini("timeout") or 0)
        except (TypeError, ValueError):
            seconds = 0.0
        if seconds <= 0 or not hasattr(signal, "SIGALRM"):
            yield
            return

        def _expired(signum, frame):
            raise TimeoutError(
                f"test exceeded the global {seconds:g}s timeout "
                "(tests/conftest.py shim)"
            )

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def worker_starts(monkeypatch):
    """PIDs of the pool workers forked during the test, in fork order."""
    from repro import parallel

    pids = []
    original = parallel._Worker.__init__

    def counting(self, ctx):
        original(self, ctx)
        pids.append(self.proc.pid)

    monkeypatch.setattr(parallel._Worker, "__init__", counting)
    return pids


@pytest.fixture
def round_reports(monkeypatch):
    """Every :class:`~repro.parallel.ParallelReport` a campaign round
    returns during the test, in call order."""
    from repro.campaign import engine

    reports = []
    original = engine.pmap_report

    def capture(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(engine, "pmap_report", capture)
    return reports
