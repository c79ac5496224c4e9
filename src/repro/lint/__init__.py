"""``repro.lint`` — determinism static analysis.

The simulator's correctness contract rests on an invariant the
language cannot enforce: **bit-determinism** — an int-ns clock plus a
seed fully determines a run (serial and parallel sweeps must produce
byte-identical CSVs, and results are cached under content-hash keys).

Golden tests catch violations *after the fact*; this package detects
them *at the source*. It has two halves that validate each other:

* A static, AST-based analyzer (:func:`lint_paths`) with a ruff-style
  rule registry (``RPR001``..), per-line suppressions
  (``# repro-lint: ignore[RPR001]``) and human/JSON reports. Run it as
  ``repro lint src/ tests/``.
* A runtime sanitizer (``REPRO_SANITIZE=1`` or
  ``Simulator(sanitize=True)``, core in :mod:`repro.sim.sanitize`)
  that hashes the dispatched event stream and flags same-timestamp
  handler-order ambiguity.

See ``docs/static-analysis.md`` for the rule catalog.
"""

from __future__ import annotations

from repro.lint.registry import RULES, Rule, get_rule, register_rule, rule_catalog
from repro.lint.runner import Finding, LintReport, lint_paths, lint_source

# Importing the rules module populates the registry.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "RULES",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register_rule",
    "rule_catalog",
]
