"""Shared benchmark plumbing.

Every benchmark regenerates one paper table/figure from its
``repro.experiments`` campaign (through ``run_experiment``), prints the
rendered rows (visible with ``pytest -s``), and writes them to
``benchmarks/results/<id>.txt`` so the artifacts survive the run.
Experiments are deterministic, so a single pedantic round measures
them faithfully without re-running multi-second simulations five
times.
"""

from pathlib import Path

import pytest

from repro.experiments import run_experiment

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def record_experiment(benchmark):
    """Build and run an experiment's campaign (``factory()``) under
    pytest-benchmark and persist its report."""

    def _run(experiment_id: str, factory, rounds: int = 1):
        result = benchmark.pedantic(
            lambda: run_experiment(factory())[1], rounds=rounds, iterations=1
        )
        rendered = result.render()
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(rendered + "\n")
        print(f"\n{rendered}\n")
        benchmark.extra_info["experiment"] = experiment_id
        return result

    return _run
