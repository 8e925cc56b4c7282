"""Tests of the benchmark itself, on its smoke configuration.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import parse_decimal  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_parse_decimal_reads_past_the_digit_limit():
    assert parse_decimal("1" + "0" * 9000) == 10 ** 9000
    with pytest.raises(ValueError):
        parse_decimal("12a")


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def outer():
        return tracer.call("inner", sum, range(10000)) + 1

    assert tracer.call("outer", outer) == sum(range(10000)) + 1
    summary = tracer.summary()
    assert summary["outer"]["count"] == summary["inner"]["count"] == 1
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"])
