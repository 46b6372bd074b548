"""The equivalence matrix harness (``scripts/check_equivalence.py``)
flags what it exists to flag: a path whose bytes differ, a row that
makes a path impossible, and a store that miscounts its defects."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from repro.campaign import Campaign, TrialStore, Trial
from repro.campaign.stream import GridSource

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_equivalence.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("check_equivalence", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def _square(item, rng, tracer=None):
    return {"i": item, "x": int(rng.integers(1 << 30)) * item}


def _with_pid(item, rng, tracer=None):
    return {"i": item, "pid": os.getpid()}


def _row(harness, name, trial_fn, trials=4):
    def source():
        return GridSource(Campaign(
            name=name, trial_fn=trial_fn, seed=5,
            trials=[Trial(params={"i": i}, item=i) for i in range(trials)],
        ))

    return harness.stream_row(name, source, command=None)


def _matrix(harness, tmp_path, rows):
    out = tmp_path / "equivalence.json"
    code = harness.main(
        ["--seed", "3", "--out", str(out), "--artifacts", str(tmp_path / "art")],
        rows=rows,
    )
    return code, json.loads(out.read_text())


def test_pid_in_the_value_fails_the_pool_cell(harness, tmp_path):
    code, report = _matrix(harness, tmp_path, [
        _row(harness, "clean", _square), _row(harness, "toy", _with_pid),
    ])
    assert code == 1
    assert any(f.startswith("toy × pool: digest differs") for f in report["failures"])
    assert not any(f.startswith("clean ×") for f in report["failures"])
    pool = report["rows"]["toy"]["cells"]["pool"]
    assert pool["status"] == "fail"
    assert any(r["mode"] == "fork-pool" and r["workers"] == 2 for r in pool["pool"])
    assert report["rows"]["toy"]["cells"]["serial"]["status"] == "pass"


def test_one_trial_row_reports_na_with_its_reason(harness, tmp_path):
    code, report = _matrix(harness, tmp_path, [_row(harness, "one", _square, trials=1)])
    cells = report["rows"]["one"]["cells"]
    assert code == 0
    assert cells["pool"] == {
        "status": "n/a", "reason": "a one-trial grid cannot fan out to 2 workers",
    }
    assert cells["sigkill"] == {
        "status": "n/a", "reason": "a one-trial grid cannot be killed mid-grid",
    }
    assert cells["batched"]["reason"] == "the row has no batch_fn"
    assert {cells[c]["status"] for c in ("serial", "supervised", "replay", "rot")} == {"pass"}


def test_rot_run_with_a_miscounted_defect_is_flagged(harness, tmp_path):
    honest = _row(harness, "honest", _square, trials=6)

    def blind_run(*, store, **kwargs):
        # Reads through its own handle, so the harness's handle never
        # sees the damaged entries: the defect count cannot match.
        return honest.run(store=TrialStore(store.root), **kwargs)

    blind = harness.Row("blind", blind_run, na=honest.na)
    code, report = _matrix(harness, tmp_path, [honest, blind])
    assert code == 1
    rot = report["rows"]["blind"]["cells"]["rot"]
    assert rot["status"] == "fail" and rot["defects"] == 0
    assert any("expected" in e and "defects" in e for e in rot["errors"])
    assert report["rows"]["honest"]["cells"]["rot"]["status"] == "pass"
    assert [f.split(":")[0] for f in report["failures"]] == ["blind × rot"]
    # The plan that produced the failure is in the artifact to replay.
    assert {d["kind"] for d in rot["damage"]} == {"truncate", "flip", "delete"}
