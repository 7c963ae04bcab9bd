"""Unit-aware dataflow analysis for the VAB tree (rules VAB006–VAB010).

Where :mod:`repro.analysis.rules` checks unit *spelling* on single
statements (VAB003), this subpackage actually tracks units through the
code: a project-wide symbol table and call graph over ``src/repro``,
unit facts seeded from ``Annotated``-style annotations
(:mod:`~repro.analysis.units.vocab`), ``_db``/``_hz``/``_m`` name
suffixes, and a curated physics signature database
(:mod:`~repro.analysis.units.sigdb`), propagated flow-sensitively
through assignments, tuple unpacking, and arithmetic, and across call
boundaries by a fixed-point pass
(:mod:`~repro.analysis.units.engine`).

The shared driver (:mod:`repro.analysis.dataflow`) runs the engine as
a plugin next to the shapes and effects engines. The differential
baseline workflow for CI lives in :mod:`~repro.analysis.units.baseline`.
"""

UNIT_RULES = {
    "VAB006": (
        "db-domain-product",
        "multiplying or dividing two dB-domain quantities; log-domain "
        "values compose additively — convert to linear first",
    ),
    "VAB007": (
        "db-linear-mix",
        "additive arithmetic or bindings mixing dB-domain and "
        "linear-domain quantities",
    ),
    "VAB008": (
        "hz-rad-confusion",
        "Hz vs rad/s (and kHz) mismatches: frequency-family conflicts in "
        "arithmetic, call arguments, and trig/filter calls expecting radians",
    ),
    "VAB009": (
        "m-km-mix",
        "metre vs kilometre mixing in range expressions, including dB/km "
        "coefficients multiplied by metres without / 1e3",
    ),
    "VAB010": (
        "call-site-unit-conflict",
        "interprocedural conflicts: argument units contradicting the "
        "callee's parameter units, or returns contradicting declarations",
    ),
}
"""rule id -> (name, summary) for the units engine's findings."""

UNIT_RULE_IDS = tuple(sorted(UNIT_RULES))

__all__ = [
    "UNIT_RULES",
    "UNIT_RULE_IDS",
]
