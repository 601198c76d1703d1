"""Shape of the benchmark's result line, checked against BENCHMARK.json.

Not part of the default test run (pytest collects ``tests/`` only). Run
from the repository root with ``python -m pytest perfbench/test_smoke.py``;
it takes about two minutes.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _copy(directory, with_sources: bool) -> str:
    """The benchmark (and the sources) in another directory."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), directory)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(directory, "perfbench"), ignore=ignore)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"),
                        os.path.join(directory, "src"), ignore=ignore)
    return str(directory)


def _run(root: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "nodata128", "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section, tmp_path):
    # the untraced run works from a copy: the recorded digests must not
    # depend on where the checkout is
    proc = _run(ROOT if trace else _copy(tmp_path, True), trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_workloads_match_benchmark_json():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_fails_without_sources(tmp_path):
    proc = _run(_copy(tmp_path, False), 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
