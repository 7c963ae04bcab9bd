"""Effect/purity analysis for the VAB tree (VAB017–VAB022).

Where :mod:`repro.analysis.units` tracks physical units and
:mod:`repro.analysis.shapes` tracks ndarray shapes/dtypes, this
subpackage tracks **effects**: which functions read ambient state
(environ, wall-clock, filesystem, host configuration, mutable module
globals, process-global RNG streams), which mutate state, and which
callables cross the ProcessPool process boundary.  Contracts are
declared with the ``Pure[T]`` / ``Effectful[T, atoms...]`` vocabulary
(:mod:`~repro.analysis.effects.vocab`), known stdlib/numpy/repro
signatures live in a curated database
(:mod:`~repro.analysis.effects.sigdb`), and a flow-sensitive,
interprocedural engine (:mod:`~repro.analysis.effects.engine`) runs
as a plugin of the shared driver (:mod:`repro.analysis.dataflow`) over
the same parsed modules as the other two engines.

The rules run under the same ``--units`` CLI flag as VAB006..VAB016 —
no new CLI surface.
"""

from repro.analysis.effects.vocab import (
    ATOMS,
    EffectTag,
    Effectful,
    Pure,
)

EFFECT_RULES = {
    "VAB017": (
        "hidden-cache-input",
        "a hidden input (environ, wall-clock, filesystem, host config, "
        "mutable global, ambient RNG) reaches a memoized or "
        "content-addressed computation whose cache key cannot see it — "
        "cached results go stale silently and poison dedupe for every "
        "user sharing the store",
    ),
    "VAB018": (
        "cache-hit-divergence",
        "a side effect (global/argument mutation, file write) escapes a "
        "memoized function: it happens on the computing call and never "
        "again on a cache hit, so warm and cold runs diverge",
    ),
    "VAB019": (
        "worker-rng-indiscipline",
        "a callable dispatched across the process boundary draws from "
        "an ambient RNG stream instead of a SeedSequence-derived "
        "generator threaded through its parameters — worker results "
        "stop being reproducible",
    ),
    "VAB020": (
        "unpicklable-submit",
        "a lambda or closure-capturing nested function crosses the "
        "ProcessPool submit path: it cannot pickle (or silently "
        "re-binds its closure in the worker)",
    ),
    "VAB021": (
        "version-stamp-completeness",
        "a *_ENGINE_VERSION constant never flows into an "
        "engine_versions={...} manifest stamp, so results computed by "
        "different engine versions collide under one run_key",
    ),
    "VAB022": (
        "host-dependent-result",
        "a host-configuration read (os.cpu_count(), TTY/CI detection, "
        "locale) flows into a returned value without a declared "
        'Effectful[..., "reads:host"] grant — stored results must not '
        "depend on the machine that computed them",
    ),
}
"""rule id -> (name, summary) for the effects engine's findings."""

EFFECT_RULE_IDS = tuple(sorted(EFFECT_RULES))

__all__ = [
    "EFFECT_RULES",
    "EFFECT_RULE_IDS",
    "EffectTag",
    "Pure",
    "Effectful",
    "ATOMS",
]
