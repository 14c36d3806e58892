"""Smoke and contract tests of the benchmark: ``python -m pytest perf -q``.

Not part of the tier-1 ``testpaths``: these start server children and take
about a minute.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CONTRACT_WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
FORBIDDEN_IMPORTS = ("repro.net.loadgen", "repro.experiments", "repro.workload.medisyn",
                     "benchmarks")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [*CONTRACT_WORKLOADS, "net_open_4k"])
def test_quick_run_reports_exactly_the_contract_metrics(name: str, trace: int) -> None:
    done = _run("--workload", name, "--quick", "--seed", "7", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {
        metric["name"]: metric["unit"]
        for metric in CONTRACT["per_layer" if trace else "end_to_end"]
    }
    assert {n: v["unit"] for n, v in result["metrics"].items()} == wanted
    printed = {
        line.split()[0]: line.split()[2]
        for line in lines[:-1]
        if len(line.split()) == 3 and line.split()[0] in wanted
    }
    assert printed == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_and_reasons_equal_the_contract() -> None:
    from workloads import OUTSIDE_CONTRACT, WORKLOADS

    assert [
        (w.name, w.why) for w in WORKLOADS.values() if w.name not in OUTSIDE_CONTRACT
    ] == [(w["name"], w["why"]) for w in CONTRACT["workloads"]]
    assert set(OUTSIDE_CONTRACT) <= set(WORKLOADS)


def test_contract_is_within_the_drivers_limits() -> None:
    assert sorted(CONTRACT) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert CONTRACT["paths"] == ["perf"]
    assert CONTRACT["command"] == ["python3", "perf/run.py"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    names = [w["name"] for w in CONTRACT["workloads"]]
    for workload in CONTRACT["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names) and len(set(names)) == len(names)
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_benchmark_imports_none_of_the_repos_own_generators() -> None:
    for path in HERE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                modules += [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                for banned in FORBIDDEN_IMPORTS:
                    assert module != banned and not module.startswith(banned + "."), (
                        f"{path.name} imports {module}"
                    )


def test_a_corrupted_oracle_payload_fails_the_run(monkeypatch: pytest.MonkeyPatch) -> None:
    import run
    from inputs import PayloadOracle

    honest = PayloadOracle.expected

    def corrupted(self: PayloadOracle, index: int, version: int, size: int) -> memoryview:
        data = honest(self, index, version, size)
        if index != 3:
            return data
        flipped = bytearray(data)
        flipped[0] ^= 0xFF
        return memoryview(bytes(flipped))

    monkeypatch.setattr(PayloadOracle, "expected", corrupted)
    measurement = run.run_workload("net_small", 7, 1.0, trace=False, quick=True)
    assert measurement.failed > 0 and not measurement.correct
    assert run.report(measurement, trace=False)["metrics"] == {}
