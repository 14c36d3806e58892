"""CLI behavior and the repo-wide cleanliness gate.

The last test here is the actual CI gate: the real source tree must
produce zero findings.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.engine import analyze_paths
from repro.analysis.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def _run_cli(*args: str, cwd: Path) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_exits_zero_on_real_tree():
    result = _run_cli("src/repro", cwd=REPO_ROOT)
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_exits_nonzero_on_violation(tmp_path):
    bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    result = _run_cli("src/repro", cwd=tmp_path)
    assert result.returncode == 1
    assert "determinism" in result.stdout


def test_cli_json_output_is_deterministic_across_runs():
    first = _run_cli("src/repro", "--format", "json", cwd=REPO_ROOT)
    second = _run_cli("src/repro", "--format", "json", cwd=REPO_ROOT)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["findings"] == []
    # findings must be pre-sorted so diffs against CI logs are stable
    keys = [
        (f["path"], f["line"], f["col"], f["rule"]) for f in payload["findings"]
    ]
    assert keys == sorted(keys)


def test_cli_list_rules_prints_exactly_the_five_rule_ids():
    result = _run_cli("--list-rules", cwd=REPO_ROOT)
    assert result.returncode == 0
    # Each rule prints an unindented "id  [scope]" line, then its description.
    ids = [
        line.split()[0]
        for line in result.stdout.splitlines()
        if not line.startswith(" ")
    ]
    assert ids == [
        "determinism",
        "async-blocking",
        "broad-except",
        "sense-policy",
        "seed-plumbing",
    ]


def test_real_tree_is_clean_via_api():
    report = analyze_paths([SRC], default_rules(), root=REPO_ROOT)
    formatted = "\n".join(
        f"{f.path}:{f.line}: {f.rule_id}: {f.message}" for f in report.findings
    )
    assert report.clean, f"new invariant violations:\n{formatted}"
