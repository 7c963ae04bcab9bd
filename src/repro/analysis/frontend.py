"""Shared driver behind ``tools/vablint.py`` and ``repro lint``.

Both CLIs parse the same flags; the actual flow — discover, lint,
optionally run the dataflow engines, optionally diff against a baseline,
render — lives here once so the two entry points cannot drift.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from repro.analysis.linter import (
    DEFAULT_EXCLUDES,
    EXIT_CLEAN,
    EXIT_ERROR,
    LintReport,
    discover_files,
    lint_paths,
)
from repro.analysis.reporters import (
    render_json,
    render_sarif,
    render_stats,
    render_text,
)


def rule_list(raw: Optional[str]) -> Optional[List[str]]:
    """Parse a comma-separated rule-id CLI argument."""
    if raw is None:
        return None
    return [part.strip().upper() for part in raw.split(",") if part.strip()]


def add_lint_flags(parser: argparse.ArgumentParser) -> None:
    """Install the shared lint flag set on an argparse parser.

    Used by both ``tools/vablint.py`` and the ``repro lint`` subcommand
    so the two CLIs accept identical options.
    """
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable JSON report")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--disable", default=None, metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--exclude", action="append", default=None,
                        metavar="GLOB",
                        help="glob pattern to skip during directory "
                             "recursion (repeatable; added to the default "
                             "tests/lint_fixtures/** exclude)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the per-file rules")
    parser.add_argument("--changed", nargs="?", const="HEAD", default=None,
                        metavar="REF",
                        help="lint only files changed relative to the given "
                             "git ref (default HEAD) plus untracked files")
    parser.add_argument("--units", action="store_true",
                        help="run the interprocedural dataflow engines: "
                             "dimensional analysis (VAB006..VAB010), "
                             "shape/dtype analysis (VAB011..VAB016) and "
                             "effect/purity analysis (VAB017..VAB022)")
    parser.add_argument("--units-cache", default=".vablint_units_cache.json",
                        metavar="PATH", dest="units_cache",
                        help="the one cache file for incremental --units "
                             "runs (all three engines)")
    parser.add_argument("--no-units-cache", action="store_true",
                        dest="no_units_cache",
                        help="force a cold --units run (no cache read/write)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="differential mode: fail only on findings not "
                             "in this baseline file")
    parser.add_argument("--update-baseline", action="store_true",
                        dest="update_baseline",
                        help="rewrite --baseline from the current findings "
                             "and exit 0")
    parser.add_argument("--stats", action="store_true",
                        help="print per-engine timing and incremental-cache "
                             "hit/miss counts after the run (embedded in the "
                             "JSON report under \"stats\")")
    parser.add_argument("--sarif", default=None, metavar="PATH",
                        help="also write a SARIF 2.1.0 log to PATH (for the "
                             "GitHub code-scanning upload)")
    parser.add_argument("--catalogue", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--fingerprint", action="store_true",
                        help="print the lint fingerprint JSON of the tree "
                             "and exit (0 clean / 1 dirty)")


def changed_files(ref: str, cwd: Optional[Path] = None) -> List[Path]:
    """Files changed relative to ``ref`` plus untracked files.

    Asks git for the union of ``diff --name-only REF`` and the
    untracked-but-not-ignored set, resolved against the repository
    top level so the result is independent of the working directory.

    Raises:
        RuntimeError: when git is unavailable, the directory is not a
            repository, or ``ref`` does not resolve.
    """
    base = Path(cwd) if cwd is not None else Path.cwd()

    def _git(*argv: str) -> str:
        try:
            proc = subprocess.run(
                ["git", *argv], cwd=base, capture_output=True, text=True
            )
        except OSError as exc:
            raise RuntimeError(f"git unavailable: {exc}") from exc
        if proc.returncode != 0:
            detail = proc.stderr.strip() or f"git {' '.join(argv)} failed"
            raise RuntimeError(detail)
        return proc.stdout

    top = Path(_git("rev-parse", "--show-toplevel").strip())
    names = set(_git("diff", "--name-only", ref, "--").splitlines())
    names |= set(_git("ls-files", "--others", "--exclude-standard").splitlines())
    return sorted(top / name for name in names if name)


def run_lint(
    paths: Sequence[str],
    select: Optional[List[str]] = None,
    disable: Optional[List[str]] = None,
    exclude: Optional[Sequence[str]] = None,
    jobs: int = 1,
    changed: Optional[str] = None,
    units: bool = False,
    units_cache: Optional[str] = None,
    baseline: Optional[str] = None,
    update_baseline: bool = False,
    as_json: bool = False,
    stats: bool = False,
    sarif: Optional[str] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Run one lint invocation end to end; returns the process exit code.

    Args:
        paths: files/directories to lint.
        select, disable: rule-id filters.
        exclude: extra glob patterns *added to* the default excludes
            (the lint-fixture tree is always skipped unless the file is
            named explicitly).
        jobs: worker processes for the per-file rules.
        changed: git ref — restrict the lint to discovered files that
            differ from this ref (or are untracked). A git failure is
            an :data:`EXIT_ERROR`, not a silent full run.
        units: run the dataflow engines (VAB006..VAB022).
        units_cache: the engines' incremental cache file (implies
            nothing when ``units`` is off).
        baseline: differential mode — only findings *not* covered by
            this baseline file count against the exit code.
        update_baseline: rewrite ``baseline`` from the current findings
            and exit clean (requires ``baseline``).
        as_json: JSON report instead of text.
        stats: append per-engine timing / cache hit-miss stats to the
            text report (or embed them in the JSON one).
        sarif: also write a SARIF 2.1.0 log to this path.
        out: stream to write the report to (default stdout).
    """
    stream = out if out is not None else sys.stdout
    patterns = list(DEFAULT_EXCLUDES) + [p for p in (exclude or []) if p]
    lint_targets: Sequence[str] = paths
    engine_paths: Optional[Sequence[str]] = None
    engine_force_dirty: Optional[set] = None
    if changed is not None:
        try:
            touched = {p.resolve() for p in changed_files(changed)}
        except RuntimeError as exc:
            print(f"vablint: --changed: {exc}", file=sys.stderr)
            return EXIT_ERROR
        try:
            discovered = discover_files(paths, exclude=patterns)
        except FileNotFoundError as exc:
            print(f"vablint: {exc}", file=sys.stderr)
            return EXIT_ERROR
        lint_targets = [
            p.as_posix() for p in discovered if p.resolve() in touched
        ]
        # The per-file rules scope to the touched files, but the
        # interprocedural engines must keep the whole call graph in
        # view: a touched callee invalidates its callers' call-site
        # checks even when the callers did not change.  The engines get
        # the full discovery set, with the touched files forced dirty
        # so dependent invalidation re-summarizes their callers.
        engine_paths = list(paths)
        engine_force_dirty = set(lint_targets)
    try:
        report: LintReport = lint_paths(
            lint_targets,
            select=select,
            disable=disable,
            exclude=patterns,
            jobs=jobs,
            units=units,
            units_cache=units_cache if units else None,
            engine_paths=engine_paths if units else None,
            engine_force_dirty=engine_force_dirty if units else None,
        )
    except FileNotFoundError as exc:
        print(f"vablint: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyError as exc:
        print(f"vablint: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR

    if baseline is not None:
        from repro.analysis.units.baseline import apply_baseline, write_baseline

        if update_baseline:
            entries = write_baseline(report.findings, Path(baseline))
            print(
                f"vablint: wrote baseline {baseline} "
                f"({sum(entries.values())} finding(s), {len(entries)} key(s))",
                file=sys.stderr,
            )
            return EXIT_CLEAN
        if Path(baseline).is_file():
            try:
                grandfathered, resolved = apply_baseline(report, Path(baseline))
            except ValueError as exc:
                print(f"vablint: {exc}", file=sys.stderr)
                return EXIT_ERROR
            if grandfathered or resolved:
                print(
                    f"vablint: baseline absorbed {grandfathered} finding(s); "
                    f"{resolved} allowance(s) resolved"
                    + (" (run --update-baseline to shrink it)" if resolved else ""),
                    file=sys.stderr,
                )
        else:
            print(
                f"vablint: baseline {baseline} not found; "
                "treating every finding as new",
                file=sys.stderr,
            )
    elif update_baseline:
        print("vablint: --update-baseline requires --baseline PATH",
              file=sys.stderr)
        return EXIT_ERROR

    if sarif is not None:
        Path(sarif).write_text(render_sarif(report), encoding="utf-8")
    if as_json:
        stream.write(render_json(report, stats=stats))
    else:
        stream.write(render_text(report))
        if stats:
            stream.write(render_stats(report))
    return report.exit_code
