"""Smoke test of the benchmark: every workload at one repetition per cell.

Run from the root of a checkout with ``python3 -m pytest perfbench``. Takes
about two minutes on two cores, mostly the DP-MW n=20000 cell.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--repetitions", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for marker in ("# machine: nproc=", f"# reports_sha256 {workload} ", "# failed_frac 0 "):
        assert marker in text
    if trace:
        assert "dpmw.dp_mann_whitney" in text and "tail pct" in text


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run("hist_grid", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{") and '"metrics"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
