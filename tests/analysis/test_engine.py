"""Engine behavior: module naming, parse errors, report stability."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.engine import analyze_paths, module_of, render_json
from repro.analysis.rules import default_rules

BAD_SIM = """
import time

def stamp():
    return time.time()
"""


def test_module_of_maps_paths_to_dotted_names():
    assert module_of(Path("src/repro/sim/clock.py")) == "repro.sim.clock"
    assert module_of(Path("src/repro/erasure/__init__.py")) == "repro.erasure"
    assert module_of(Path("/abs/elsewhere/thing.py")) == "thing"


def test_json_report_is_stable_and_sorted(lint):
    # Two files whose findings interleave; report order must be sorted
    # and byte-identical across runs.
    lint.write("sim/zz_last.py", BAD_SIM)
    lint.write("core/aa_first.py", BAD_SIM)
    first = render_json(
        analyze_paths([lint.root / "src"], default_rules(), root=lint.root)
    )
    second = render_json(
        analyze_paths([lint.root / "src"], default_rules(), root=lint.root)
    )
    assert first == second
    payload = json.loads(first)
    paths = [finding["path"] for finding in payload["findings"]]
    assert paths == sorted(paths)
    assert payload["files_checked"] == 2


def test_parse_error_is_a_finding_not_a_crash(lint):
    lint.write("sim/broken.py", "def nope(:\n")
    findings = lint.run()
    assert [f.rule_id for f in findings] == ["parse-error"]


def test_module_of_outside_any_repro_tree():
    # No `repro` path component: bare stem, which scoped rules ignore —
    # and the dotted name never accidentally matches a repro.* scope.
    assert module_of(Path("lib/pkg/mod.py")) == "mod"
    assert module_of(Path("tools/check.py")) == "check"
    # A `repro` dir anywhere anchors the dotted name, wherever the tree
    # is checked out (tmp fixture trees rely on this).
    assert module_of(Path("/tmp/x/src/repro/net/client.py")) == "repro.net.client"
    # The *last* repro component anchors (vendored copies nest).
    assert module_of(Path("repro/vendor/repro/sim/clock.py")) == "repro.sim.clock"
