"""The claim checks that ``scripts/generate_experiments_md.py`` renders
under each EXPERIMENTS.md block: their statuses, their tally, and the
shape of the ``CLAIMS`` table. No campaign runs here."""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis.report import Table
from repro.experiments import CAMPAIGNS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_experiments_md.py"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("generate_experiments_md", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table():
    table = Table("demo", ["Scheme", "SDC"])
    table.add_row("None", 3)
    table.add_row("EMR", 0)
    return table


def test_statuses_render_under_the_block(generator, monkeypatch):
    claim = generator.Claim(
        "the paper says so",
        emr_commits_no_sdc=lambda t: generator._cell(t, "EMR", "SDC") == 0,
        none_commits_no_sdc=lambda t: generator._cell(t, "None", "SDC") == 0,
        reads_a_missing_row=lambda t: dict(t.rows)["3-MR"] == 0,
    )
    monkeypatch.setattr(generator, "CAMPAIGNS", {"demo": lambda: None})
    monkeypatch.setattr(generator, "CLAIMS", {"demo": claim})
    monkeypatch.setattr(generator, "run_experiment", lambda entry: (None, _table()))
    text, statuses = generator.generate()
    assert statuses == [
        ("demo.emr_commits_no_sdc", "PASS"),
        ("demo.none_commits_no_sdc", "FAIL"),
        ("demo.reads_a_missing_row", "FAIL (KeyError)"),
    ]
    assert "**Paper:** the paper says so\n" in text
    assert (
        "*\n\n- PASS `demo.emr_commits_no_sdc`\n"
        "- FAIL `demo.none_commits_no_sdc`\n"
        "- FAIL (KeyError) `demo.reads_a_missing_row`\n" in text
    )
    assert generator.tally(statuses) == (
        "1/3 claim checks pass; failing: demo.none_commits_no_sdc, "
        "demo.reads_a_missing_row"
    )
    assert generator.tally(statuses[:1]) == "1/1 claim checks pass"


def test_claims_cover_the_registry(generator):
    assert set(generator.CLAIMS) <= set(CAMPAIGNS)
    for name in CAMPAIGNS:
        if ":" not in name:
            assert generator.CLAIMS[name].paper, name
    names = [
        f"{name}.{check}"
        for name, claim in generator.CLAIMS.items()
        for check in claim.checks
    ]
    assert len(names) == len(set(names)) == 60
