"""The docs check (``scripts/check_docs.py``) fails on a backticked
``repro.…`` name that no longer exists."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReferences:
    def test_deleted_name_fails(self, check_docs):
        error = check_docs.resolve_reference("repro.obs.summarize_trace")
        assert error == "repro.obs has no attribute 'summarize_trace'"

    def test_module_attribute_and_class_member_resolve(self, check_docs):
        for name in (
            "repro.campaign",
            "repro.campaign.execute",
            "repro.sim.batch.BatchMachines.from_specs",
        ):
            assert check_docs.resolve_reference(name) is None, name

    def test_stale_reference_fails_the_run(self, check_docs, tmp_path, capsys):
        page = tmp_path / "page.md"
        page.write_text(
            "Run `repro.campaign.execute(..., store=)`.\n"
            "Render it with `repro.obs.summarize_trace`.\n"
        )
        assert check_docs.check_references(page) == [
            "2: repro.obs.summarize_trace: "
            "repro.obs has no attribute 'summarize_trace'"
        ]
        assert check_docs.main([str(page)]) == 1
        assert "0 passed, 0 skipped, 1 failed" in capsys.readouterr().out
