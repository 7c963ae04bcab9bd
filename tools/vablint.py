#!/usr/bin/env python
"""vablint — determinism & physics-invariant linter for the VAB tree.

Checks the project-specific invariants (``VAB001``..``VAB005``: RNG
threading, unit-suffix discipline, wall-clock hygiene, typed public
API) over any set of files or directories; ``--units`` adds the
interprocedural dataflow rules: dimensional analysis
(``VAB006``..``VAB010``: dB-domain products, dB/linear mixing, Hz vs
rad/s, m vs km, call-site unit conflicts) and shape/dtype analysis
(``VAB011``..``VAB016``: silent broadcasts, batch-collapsing
reductions, complex->real downcasts, shared-array mutation, unordered
accumulation, shape-contract violations) and effect/purity analysis
(``VAB017``..``VAB022``: hidden cache inputs, cache-hit divergence,
worker RNG indiscipline, unpicklable submissions, version-stamp
completeness, host-dependent results). The three engines run as
plugins of one driver (``repro.analysis.dataflow``) that parses each
file once and keeps one incremental cache file
(``--units-cache``, default ``.vablint_units_cache.json``). See
``repro.analysis`` for the framework and ``--catalogue`` for the rules.

Usage::

    python tools/vablint.py src/repro            # lint the library
    python tools/vablint.py --json src/repro     # CI / machine output
    python tools/vablint.py --select VAB001 src  # one rule only
    python tools/vablint.py --units src/repro    # + dataflow engines
    python tools/vablint.py --changed main src   # only files touched vs main
    python tools/vablint.py --units --baseline lint_baseline.json src/repro
    python tools/vablint.py --fingerprint src/repro

Exit codes: 0 clean, 1 rule findings, 2 unusable input (bad arguments,
missing paths, files that fail to parse).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import (  # noqa: E402
    EXIT_ERROR,
    render_catalogue,
    tree_fingerprint,
)
from repro.analysis.frontend import (  # noqa: E402
    add_lint_flags,
    rule_list,
    run_lint,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vablint", description=__doc__.split("\n")[0]
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    add_lint_flags(parser)
    args = parser.parse_args(argv)

    if args.catalogue:
        print(render_catalogue())
        return 0

    paths = args.paths or ["src/repro"]
    if args.fingerprint:
        try:
            record = tree_fingerprint(paths)
        except FileNotFoundError as exc:
            print(f"vablint: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(json.dumps(record, indent=2))
        return 0 if record["clean"] else 1

    return run_lint(
        paths,
        select=rule_list(args.select),
        disable=rule_list(args.disable),
        exclude=args.exclude,
        jobs=args.jobs,
        changed=args.changed,
        units=args.units,
        units_cache=None if args.no_units_cache else args.units_cache,
        baseline=args.baseline,
        update_baseline=args.update_baseline,
        as_json=args.as_json,
        stats=args.stats,
        sarif=args.sarif,
    )


if __name__ == "__main__":
    raise SystemExit(main())
