"""Static design-rule checking and plan verification (``repro lint``).

A fast, simulation-free pass over the four artifact layers of the SOCET
flow, emitting structured :class:`Diagnostic` objects with stable rule
ids (see DESIGN.md, "Diagnostic contract"):

* **netlist/RTL** -- combinational loops, floating/multiply-driven
  nets, width mismatches, unreachable registers;
* **transparency** -- every core input provably propagates to an output
  and every output slice justifies from inputs, within the declared
  latencies, by shortest-path proof on the RCG (no simulation);
* **analysis** -- the symbolic certifier (:mod:`repro.analysis`)
  re-proves every declared path at the bit-slice level: terminal
  provenance for every root bit, satisfiable mux-select demands, and
  plan access routes that ride proved paths only;
* **plan** -- reservation windows fit their cadences, test-mux
  fallbacks are recorded, TAT accounting is internally consistent;
* **schedule** -- shared resources never double-booked, scan-power
  budget respected.

Alongside the domain rules, :mod:`repro.lint.codestyle` is an AST-based
determinism lint for the codebase itself (``python -m
repro.lint.codestyle``): deterministic runs and the plan cache rely
on bit-identical replay, so unseeded RNGs, wall-clock reads in planner
code, and ordering-sensitive ``set`` iteration are design-rule
violations too.

Typical use::

    from repro.lint import lint_soc
    report = lint_soc(build_system3())
    assert not report.errors, report.render()

or gate a flow::

    plan_soc_test(soc, strict=True)   # raises LintError on rule errors
"""

from __future__ import annotations

from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    REPORT_SCHEMA_VERSION,
    Severity,
    location,
)
from repro.lint.registry import LintContext, Rule, RuleRegistry
from repro.lint import (
    rules_analysis,
    rules_netlist,
    rules_plan,
    rules_schedule,
    rules_transparency,
)

#: the process-wide registry holding every built-in rule
DEFAULT_REGISTRY = RuleRegistry()
rules_netlist.register_rules(DEFAULT_REGISTRY)
rules_transparency.register_rules(DEFAULT_REGISTRY)
rules_analysis.register_rules(DEFAULT_REGISTRY)
rules_plan.register_rules(DEFAULT_REGISTRY)
rules_schedule.register_rules(DEFAULT_REGISTRY)

from repro.lint.runner import (  # noqa: E402  (needs DEFAULT_REGISTRY)
    lint_circuit,
    lint_plan,
    lint_schedule,
    lint_soc,
    strict_gate_plan,
    strict_gate_soc,
)

__all__ = [
    "Diagnostic",
    "LintReport",
    "REPORT_SCHEMA_VERSION",
    "Severity",
    "location",
    "LintContext",
    "Rule",
    "RuleRegistry",
    "DEFAULT_REGISTRY",
    "lint_circuit",
    "lint_plan",
    "lint_schedule",
    "lint_soc",
    "strict_gate_plan",
    "strict_gate_soc",
]
