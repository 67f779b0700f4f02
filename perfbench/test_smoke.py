"""Smoke test of the benchmark on shrunk datasets; it asserts no timings.

    PYTHONPATH=src python -m pytest -q perfbench

The repository's own test run collects only `tests/`, so this file stays out
of it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(f"[{workload}] {m['name']} = ")
            and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]
    assert any(line.startswith(f"[{workload}] fail_ratio = 0/") for line in lines)


def test_altered_scores_csv_counts_as_failed_run(tmp_path):
    session = run.Session(run.WORKLOADS["score-manual-60k"], 5, "tiny", tmp_path)
    session.invoke()
    assert (session.attempted, session.failed) == (1, 0)

    scores = tmp_path / "out-0" / "scores.csv"
    lines = scores.read_text().splitlines()
    cells = lines[5].split(",")
    cells[-2] = repr(float(cells[-2]) * (1 + 1e-6))  # ted_score of frame 5
    lines[5] = ",".join(cells)
    scores.write_text("\n".join(lines) + "\n")

    # a later run whose output differs from the first one's
    assert not session.assess(None, tmp_path / "out-0")
    assert (session.attempted, session.failed) == (2, 1)
    # and the same file as a first run: the naive oracle rejects it
    problems, _ = checks.check_scores(tmp_path / "out-0", session.sequences, ROOT)
    assert any("naive oracle" in p for p in problems)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "score-manual-60k", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
