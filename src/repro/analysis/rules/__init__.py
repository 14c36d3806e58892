"""Project-specific lint rules.

Each module contributes one or two :class:`~repro.analysis.engine.Rule`
subclasses; :func:`default_rules` is the registry the CLI and CI run.
Every rule sees one module at a time.

Adding a rule: subclass ``Rule`` in a new module here, set ``rule_id`` /
``description`` / ``scope``, implement ``check`` (usually with a
:class:`~repro.analysis.engine.RuleVisitor`), add it to
:func:`default_rules`, and give it positive + negative fixture tests in
``tests/analysis/``.
"""

from __future__ import annotations

from typing import List

from repro.analysis.engine import Rule
from repro.analysis.rules.async_blocking import AsyncBlockingRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exceptions import BroadExceptRule, SensePolicyRule
from repro.analysis.rules.seed_plumbing import SeedPlumbingRule

def default_rules() -> List[Rule]:
    """The full rule set, in stable order."""
    return [
        DeterminismRule(),
        AsyncBlockingRule(),
        BroadExceptRule(),
        SensePolicyRule(),
        SeedPlumbingRule(),
    ]
