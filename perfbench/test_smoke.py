"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
untraced and traced, on every workload, and that a deliberately wrong oracle
value raises fail_ratio above 0.  The repository's own test suite does not
collect this file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0"]
    out = subprocess.run(argv + ["--trace", str(trace), "--tiny"], capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    result = last_json_line(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in group}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_a_wrong_oracle_value_raises_fail_ratio(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(HERE))
    import run

    run.load_program()
    import workloads

    wrong = tuple(entry[:5] + ("1/2",) for entry in workloads.EXTRACT_MENU["tiny"])
    monkeypatch.setitem(workloads.EXTRACT_MENU, "tiny", wrong)
    assert run.main(["--workload", "extract", "--seed", "7", "--seconds", "0", "--tiny"]) == 0
    result = last_json_line(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    argv = [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
