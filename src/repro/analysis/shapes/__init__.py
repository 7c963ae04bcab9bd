"""Array shape/dtype dataflow analysis for the VAB tree (VAB011–VAB016).

Where :mod:`repro.analysis.units` tracks physical units through the
call graph, this subpackage tracks **ndarray shapes, dtypes, and
determinism taints** through the batched kernels: symbolic dimension
names seeded from ``Shaped["trials", "samples"]``-style ``Annotated``
contracts (:mod:`~repro.analysis.shapes.vocab`), a curated signature
database for the numpy surface the repo uses
(:mod:`~repro.analysis.shapes.sigdb`), and a flow-sensitive,
interprocedural engine (:mod:`~repro.analysis.shapes.engine`) that the
shared driver (:mod:`repro.analysis.dataflow`) runs as a plugin over
the same parsed modules as the units engine.

The rules run under the same ``--units`` CLI flag as VAB006..VAB010 —
no new CLI surface.
"""

from repro.analysis.shapes.vocab import (
    ComplexShaped,
    FloatShaped,
    IntShaped,
    ShapeTag,
    Shaped,
    ShapeVal,
)

SHAPE_RULES = {
    "VAB011": (
        "silent-broadcast",
        "elementwise arithmetic between arrays whose symbolic shapes "
        "cannot broadcast (or broadcast to the wrong block) — the "
        "missing-keepdims / wrong-batch-axis class of bug",
    ),
    "VAB012": (
        "batch-collapsing-reduction",
        "reductions over a wrong or unspecified axis on a named batch "
        "block: an axis-less .sum()/.mean() silently collapses the "
        "batch dimension; an out-of-range axis is a latent IndexError",
    ),
    "VAB013": (
        "complex-downcast",
        "complex->real downcasts: float()/int() of a complex value, "
        "complex expressions stored into real-dtype buffers, ordered "
        "comparisons on complex arrays, complex returns declared real",
    ),
    "VAB014": (
        "shared-array-mutation",
        "in-place mutation of an array that crosses a worker/cache "
        "boundary (sim.parallel payloads, sim.cache entries are shared "
        "and read-only by contract — copy before writing)",
    ),
    "VAB015": (
        "unordered-accumulation",
        "order-dependent accumulation or RNG draws driven by set "
        "iteration — float sums and generator streams are only "
        "reproducible over a deterministic order (sort first)",
    ),
    "VAB016": (
        "shape-contract-violation",
        "interprocedural shape-contract conflicts: arguments whose "
        "inferred shape/dtype contradicts the callee's Shaped[...] "
        "contract, or returns contradicting the declared contract",
    ),
}
"""rule id -> (name, summary) for the shape engine's findings."""

SHAPE_RULE_IDS = tuple(sorted(SHAPE_RULES))

__all__ = [
    "SHAPE_RULES",
    "SHAPE_RULE_IDS",
    "ShapeTag",
    "ShapeVal",
    "Shaped",
    "ComplexShaped",
    "FloatShaped",
    "IntShaped",
]
