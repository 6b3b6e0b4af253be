"""The k = 10000 refinement tier of the bundled case study.

It runs for about half a minute, so it carries the ``slow`` marker, which the
default test run deselects; select it with ``pytest -m slow``.
"""

import json

import pytest

from crowdflow.cli import main
from crowdflow.config import case_study_path


@pytest.mark.slow
def test_case_study_three_tiers(tmp_path):
    cfg = json.loads(case_study_path().read_text())
    cfg["schedule"]["ks"] = [100, 1000, 10000]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ks"] == [100, 1000, 10000]
    assert summary["monotone_decrease"] is True
    for k in summary["ks"]:
        lines = (out / f"level_{k}" / "steps.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records
        assert all(rec["mass_error"] <= 1e-10 for rec in records)
        # one-step transport bound: |v dt| <= V dt = alpha * h, with h = 1/k
        assert all(0.0 <= rec["max_displacement"] <= rec["alpha"] / k * (1 + 1e-12)
                   for rec in records)
