"""Machine-check the perf trajectory between BENCH_*.json records.

``tools/bench_perf.py`` writes one ``BENCH_<n>.json`` per full run;
this tool diffs the newest record against the previous one (or any two
records given explicitly) and **exits non-zero when an optimized arm's
trials/sec regressed by more than the threshold** (default 20%), so CI
and pre-merge checks catch perf regressions without a human reading
numbers.

Run from the repository root::

    PYTHONPATH=src python tools/bench_compare.py                 # newest vs previous
    PYTHONPATH=src python tools/bench_compare.py OLD.json NEW.json
    PYTHONPATH=src python tools/bench_compare.py --threshold 0.1
    PYTHONPATH=src python tools/bench_compare.py --arms optimized_serial

``--arms`` narrows the gate to specific arms. The main use is tight
thresholds on the batched serial arm (e.g. the <2% runtime-probe
overhead budget): the parallel arm's trials/sec folds in process-pool
scheduling, which on small CI boxes swings far more than any real code
change, so a tight threshold on it measures the machine instead.

Exit codes: 0 = no regression (or fewer than two records to compare),
1 = regression beyond the threshold, 2 = unreadable/invalid records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

GATED_ARMS = (
    "optimized_serial", "optimized_parallel", "arrayfactor", "lint_warm"
)
"""Arms whose regressions fail the check. ``seed_baseline`` (an
emulation of the seed code) and ``serial_fallback`` (the retired
per-trial engine) appear only in BENCH_1–5, and ``arrayfactor_loop`` is
the per-pair reference loop the batched array-factor kernel is scored
against — informational only."""

INFO_ARMS = ("seed_baseline", "serial_fallback", "arrayfactor_loop")

ARM_THRESHOLDS = {"lint_warm": 0.50}
"""Per-arm overrides of the global ``--threshold``. ``lint_warm``
times a sub-second warm-cache lint, so small-box jitter is large in
relative terms; it alerts only when the warm lint gets more than 2x
slower (files/sec halves) — the signature of a cache-key or
dependent-closure bug, not noise."""


def bench_paths(root: Path) -> List[Path]:
    """Existing BENCH_<n>.json files under ``root``, ordered by n."""
    indexed = []
    for path in root.glob("BENCH_*.json"):
        suffix = path.stem[len("BENCH_"):]
        if suffix.isdigit():
            indexed.append((int(suffix), path))
    return [path for _, path in sorted(indexed)]


def arm_rate(record: dict, arm: str) -> Optional[float]:
    """trials/sec of one arm, None when absent or unmeasured."""
    data = record.get(arm)
    if not isinstance(data, dict):
        return None
    rate = data.get("trials_per_sec")
    return float(rate) if rate else None


def compare(
    old: dict,
    new: dict,
    threshold: float = 0.20,
    arms: Optional[Tuple[str, ...]] = None,
) -> Tuple[List[dict], List[dict]]:
    """Diff two BENCH records.

    Returns ``(rows, regressions)``: one row per arm present in both
    records (with old/new rates and the relative change), and the
    subset of gated arms whose throughput dropped by more than the
    arm's threshold (:data:`ARM_THRESHOLDS` override, else
    ``threshold``). ``arms`` restricts which arms are gated (default:
    every arm in :data:`GATED_ARMS`); the table still lists all arms.
    """
    gated = GATED_ARMS if arms is None else tuple(arms)
    rows = []
    regressions = []
    for arm in (*GATED_ARMS, *INFO_ARMS):
        old_rate = arm_rate(old, arm)
        new_rate = arm_rate(new, arm)
        if old_rate is None or new_rate is None:
            continue
        change = (new_rate - old_rate) / old_rate
        row = {
            "arm": arm,
            "old_rate": old_rate,
            "new_rate": new_rate,
            "change": change,
            "gated": arm in gated,
        }
        rows.append(row)
        if arm in gated and change < -ARM_THRESHOLDS.get(arm, threshold):
            regressions.append(row)
    return rows, regressions


def config_mismatches(old: dict, new: dict) -> List[str]:
    """Config keys that differ between two records (trials/sec still
    normalizes per trial, but the reader should know)."""
    old_cfg = old.get("config", {})
    new_cfg = new.get("config", {})
    return sorted(
        key
        for key in set(old_cfg) | set(new_cfg)
        if old_cfg.get(key) != new_cfg.get(key)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", nargs="?", type=Path,
                        help="older BENCH record (default: second-newest)")
    parser.add_argument("new", nargs="?", type=Path,
                        help="newer BENCH record (default: newest)")
    parser.add_argument("--dir", type=Path, default=REPO_ROOT,
                        help="directory holding BENCH_<n>.json files")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated relative trials/sec drop "
                             "(default 0.20)")
    parser.add_argument("--arms", type=str, default=None,
                        help="comma-separated arms to gate (default: "
                             f"{','.join(GATED_ARMS)}); others stay "
                             "informational")
    args = parser.parse_args(argv)
    gated_arms = None
    if args.arms is not None:
        gated_arms = tuple(a for a in args.arms.split(",") if a)
        unknown = set(gated_arms) - set(GATED_ARMS) - set(INFO_ARMS)
        if unknown:
            parser.error(f"unknown arm(s): {', '.join(sorted(unknown))}")
    if (args.old is None) != (args.new is None):
        parser.error("give both OLD and NEW, or neither")

    if args.old is None:
        history = bench_paths(args.dir)
        if len(history) < 2:
            print(
                f"bench_compare: found {len(history)} BENCH record(s) in "
                f"{args.dir} — need two to compare; nothing to check."
            )
            return 0
        old_path, new_path = history[-2], history[-1]
    else:
        old_path, new_path = args.old, args.new

    try:
        old = json.loads(old_path.read_text())
        new = json.loads(new_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_compare: cannot read records: {exc}", file=sys.stderr)
        return 2

    rows, regressions = compare(
        old, new, threshold=args.threshold, arms=gated_arms
    )
    if not rows:
        print("bench_compare: no comparable arms between records",
              file=sys.stderr)
        return 2

    print(f"bench_compare: {old_path.name} -> {new_path.name} "
          f"(threshold {100 * args.threshold:.0f}%)")
    for key in config_mismatches(old, new):
        print(f"  WARNING: config differs: {key} "
              f"({old.get('config', {}).get(key)!r} -> "
              f"{new.get('config', {}).get(key)!r})")
    print(f"  {'arm':<20} {'old t/s':>10} {'new t/s':>10} {'change':>8}")
    for row in rows:
        marker = "" if row["gated"] else "  (info)"
        print(f"  {row['arm']:<20} {row['old_rate']:>10.2f} "
              f"{row['new_rate']:>10.2f} {100 * row['change']:>+7.1f}%"
              f"{marker}")

    if regressions:
        for row in regressions:
            print(
                f"REGRESSION: {row['arm']} dropped "
                f"{-100 * row['change']:.1f}% "
                f"({row['old_rate']:.2f} -> {row['new_rate']:.2f} trials/s)",
                file=sys.stderr,
            )
        return 1
    print("  OK: no gated arm regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
