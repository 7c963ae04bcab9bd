"""One incremental driver for the interprocedural dataflow engines.

The units (VAB006..VAB010, :mod:`repro.analysis.units`), shapes
(VAB011..VAB016, :mod:`repro.analysis.shapes`) and effects
(VAB017..VAB022, :mod:`repro.analysis.effects`) engines differ only in
their lattices: the summary record each function carries, the transfer
functions that interpret a module against a summary table, and how an
inferred value refines a summary. Each is a :class:`Plugin`; everything
else — reading, parsing, suppression filtering, the fixed point, the
cache and dependent invalidation — lives here once.

A run:

1. reads and hashes every file (cheap);
2. marks files dirty whose sha is not in the cache, plus ``force_dirty``;
3. parses and suppression-scans each dirty file **once** for all
   plugins, and seeds each plugin's summaries from it;
4. treats as changed every qualname a dirty file defined before or
   defines now, and every qualname of a file that left the run; any
   cached file whose recorded refs name a changed qualname becomes
   dirty too, and is parsed in turn (transitively — a caller's
   inferred return feeds its own callers);
5. runs each plugin's fixed point over the dirty modules against the
   cached summaries of everything else;
6. replays cached findings verbatim for untouched files and rewrites
   the one cache file.

Findings are stored suppression-filtered, so cache hits and cold runs
produce byte-identical reports — the determinism tests lock this.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import ENGINE_VERSION
from repro.analysis.effects import EFFECT_RULE_IDS
from repro.analysis.effects import engine as effects_engine
from repro.analysis.findings import PARSE_ERROR_RULE, Finding
from repro.analysis.shapes import SHAPE_RULE_IDS
from repro.analysis.shapes import engine as shapes_engine
from repro.analysis.suppressions import SuppressionIndex
from repro.analysis.symbols import (
    ModuleAnalysis,
    ModuleInfo,
    extract_module,
    method_index,
)
from repro.analysis.units import UNIT_RULE_IDS
from repro.analysis.units import engine as units_engine


@dataclass(frozen=True)
class Plugin:
    """One dataflow engine as the driver sees it.

    Attributes:
        name: stage name (``units`` / ``shapes`` / ``effects``); keys
            the report, the timings and the cache records.
        rule_ids: the rule ids its findings carry.
        seed: initial summary table (qualname -> summary) of modules.
        analyze_module: one pass over one module against a summary
            table and its method index.
        summary_from_dict: decodes one cached summary record.
        refine: rebuilds a summary with an inferred value (returns the
            same summary when the value adds nothing).
        max_passes: safety bound on the fixed point.
    """

    name: str
    rule_ids: Tuple[str, ...]
    seed: Callable[[Sequence[ModuleInfo]], Dict[str, Any]]
    analyze_module: Callable[
        [ModuleInfo, Dict[str, Any], Dict[str, Tuple[str, ...]]], ModuleAnalysis
    ]
    summary_from_dict: Callable[[Dict[str, object]], Any]
    refine: Callable[[Any, Any], Any]
    max_passes: int


UNITS = Plugin(
    "units", UNIT_RULE_IDS, units_engine.seed_summaries,
    units_engine.analyze_module, units_engine.FunctionSummary.from_dict,
    units_engine.FunctionSummary.refine, units_engine.MAX_FIXED_POINT_PASSES,
)
SHAPES = Plugin(
    "shapes", SHAPE_RULE_IDS, shapes_engine.seed_shape_summaries,
    shapes_engine.analyze_shape_module, shapes_engine.ShapeSummary.from_dict,
    shapes_engine.ShapeSummary.refine, shapes_engine.MAX_FIXED_POINT_PASSES,
)
EFFECTS = Plugin(
    "effects", EFFECT_RULE_IDS, effects_engine.seed_effect_summaries,
    effects_engine.analyze_effect_module, effects_engine.EffectSummary.from_dict,
    effects_engine.EffectSummary.refine, effects_engine.MAX_FIXED_POINT_PASSES,
)
PLUGINS: Tuple[Plugin, ...] = (UNITS, SHAPES, EFFECTS)


def run_fixed_point(
    plugin: Plugin,
    infos: Sequence[ModuleInfo],
    summaries: Dict[str, Any],
) -> Tuple[Dict[str, ModuleAnalysis], Dict[str, Any], int]:
    """Iterate ``plugin``'s passes until the summary table stabilises.

    Args:
        plugin: the engine to run.
        infos: modules to (re-)analyze this run.
        summaries: global summary table (seeded; may contain cached
            summaries for modules *not* in ``infos``). Mutated in place
            as values are inferred.

    Returns:
        (per-path analyses, final summary table, passes run).
    """
    ordered = sorted(infos, key=lambda info: info.path.as_posix())
    analyses: Dict[str, ModuleAnalysis] = {}
    passes = 0
    for _ in range(plugin.max_passes):
        passes += 1
        methods = method_index(summaries)
        changed = False
        for info in ordered:
            analysis = plugin.analyze_module(info, summaries, methods)
            analyses[info.path.as_posix()] = analysis
            for qualname, value in sorted(analysis.inferred.items()):
                summary = summaries.get(qualname)
                if summary is None:
                    continue
                refined = plugin.refine(summary, value)
                if refined != summary:
                    summaries[qualname] = refined
                    changed = True
        if not changed:
            break
    return analyses, summaries, passes


@dataclass
class EngineRun:
    """One plugin's share of a run: its findings (sorted) and passes."""

    findings: List[Finding] = field(default_factory=list)
    passes: int = 0


@dataclass
class DataflowReport:
    """Output of one (possibly incremental) run of every plugin.

    Attributes:
        runs: plugin name -> its findings and fixed-point passes.
        errors: unreadable or unparsable files (VAB000), once each.
        analyzed: files parsed and analyzed this run.
        reused: files served entirely from the cache.
        timings: wall-clock seconds of the shared front-end
            (``parse``: read, hash, parse, suppression scan, seeding,
            invalidation, cache I/O) and of each plugin's fixed point
            and findings.
        engine_version: the engine/cache version string.
    """

    runs: Dict[str, EngineRun] = field(default_factory=dict)
    errors: List[Finding] = field(default_factory=list)
    analyzed: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    engine_version: str = ENGINE_VERSION

    @property
    def files(self) -> int:
        """Files covered (analyzed + reused)."""
        return len(self.analyzed) + len(self.reused)

    @property
    def findings(self) -> List[Finding]:
        """Every plugin's findings, sorted."""
        return sorted(f for run in self.runs.values() for f in run.findings)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def stats(self, name: str) -> Dict[str, object]:
        """JSON-safe summary of one plugin, embedded in lint reports."""
        return {
            "engine_version": self.engine_version,
            "files": self.files,
            "analyzed": len(self.analyzed),
            "reused": len(self.reused),
            "passes": self.runs[name].passes,
        }


def _load_cache(path: Optional[Path], version: str) -> Dict[str, Dict[str, Any]]:
    """path -> cached record; any mismatch or damage yields no records."""
    if path is None or not path.is_file():
        return {}
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(raw, dict) or raw.get("engine") != version:
        return {}
    return dict(raw.get("files", {}))


def _defined(entry: Optional[Dict[str, Any]]) -> Set[str]:
    """Qualnames a cached record's file defined, across plugins."""
    if entry is None:
        return set()
    return {
        str(raw["qualname"])
        for records in entry["summaries"].values() for raw in records
    }


def analyze(
    files: Sequence[Path],
    cache_path: Optional[Path] = None,
    force_dirty: Optional[Set[str]] = None,
) -> DataflowReport:
    """Run every plugin over ``files``, incrementally when ``cache_path``.

    With ``cache_path`` unchanged files (whose call-graph dependencies
    are also unchanged) are served from the cache without re-parsing,
    and the cache is rewritten afterwards. Without it every file is
    analyzed cold. ``force_dirty`` (posix path strings) marks files
    dirty regardless of their content hash; their call-graph dependents
    are invalidated the same way sha-changed files are (``--changed``
    runs use this).
    """
    # ENGINE_VERSION is read at call time so a version bump (or a test
    # monkeypatching it) invalidates existing cache files.
    report = DataflowReport(engine_version=ENGINE_VERSION)
    t0 = time.monotonic()
    sources: Dict[str, str] = {}
    shas: Dict[str, str] = {}
    ordered: List[str] = []
    for file_path in files:
        key = Path(file_path).as_posix()
        try:
            data = Path(file_path).read_bytes()
        except OSError as exc:
            report.errors.append(Finding(
                path=key, line=1, col=0, rule_id=PARSE_ERROR_RULE,
                message=f"could not read file: {exc}",
            ))
            continue
        ordered.append(key)
        shas[key] = hashlib.sha256(data).hexdigest()
        sources[key] = data.decode("utf-8", errors="replace")

    cache = _load_cache(cache_path, ENGINE_VERSION)
    changed: Set[str] = set()
    for key in [k for k in cache if k not in shas]:
        changed |= _defined(cache.pop(key))

    infos: Dict[str, ModuleInfo] = {}
    suppressions: Dict[str, SuppressionIndex] = {}
    seeds: Dict[str, Dict[str, Any]] = {plugin.name: {} for plugin in PLUGINS}
    dirty = {
        key for key in ordered
        if key not in cache or cache[key]["sha"] != shas[key]
    }
    dirty |= (force_dirty or set()) & set(ordered)
    pending = sorted(dirty)
    while True:
        for key in pending:
            changed |= _defined(cache.get(key))
            try:
                info = extract_module(Path(key), sources[key])
            except SyntaxError as exc:
                report.errors.append(Finding(
                    path=key, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                    rule_id=PARSE_ERROR_RULE,
                    message=f"could not parse file: {exc.msg}",
                ))
                cache.pop(key, None)
                continue
            infos[key] = info
            suppressions[key] = SuppressionIndex.from_source(sources[key])
            for plugin in PLUGINS:
                seeded = plugin.seed([info])
                seeds[plugin.name].update(seeded)
                changed |= set(seeded)
        pending = sorted(
            key for key, entry in cache.items()
            if key not in dirty and changed.intersection(entry["refs"])
        )
        if not pending:
            break
        dirty.update(pending)
    report.timings["parse"] = time.monotonic() - t0

    fresh: Dict[str, Dict[str, Any]] = {
        key: {"sha": shas[key], "refs": set(), "findings": {}, "summaries": {}}
        for key in infos
    }
    modules = [infos[key] for key in sorted(infos)]
    for plugin in PLUGINS:
        t1 = time.monotonic()
        summaries: Dict[str, Any] = {}
        for key, entry in cache.items():
            if key in infos:
                continue
            for raw in entry["summaries"][plugin.name]:
                summary = plugin.summary_from_dict(raw)
                summaries[summary.qualname] = summary
        summaries.update(seeds[plugin.name])
        analyses, summaries, passes = run_fixed_point(plugin, modules, summaries)

        by_path: Dict[str, List[Any]] = {}
        for summary in summaries.values():
            by_path.setdefault(summary.path, []).append(summary)
        run = report.runs[plugin.name] = EngineRun(passes=passes)
        for key in ordered:
            if key in infos:
                analysis = analyses[key]
                kept = [
                    f for f in analysis.findings
                    if not suppressions[key].is_suppressed(f.line, f.rule_id)
                ]
                run.findings.extend(kept)
                record = fresh[key]
                record["refs"] |= analysis.refs
                record["findings"][plugin.name] = [f.to_dict() for f in kept]
                record["summaries"][plugin.name] = [
                    s.to_dict()
                    for s in sorted(by_path.get(key, []), key=lambda s: s.qualname)
                ]
            elif key in cache:
                run.findings.extend(
                    Finding(
                        path=str(raw["path"]), line=int(raw["line"]),
                        col=int(raw["col"]), rule_id=str(raw["rule"]),
                        message=str(raw["message"]),
                    )
                    for raw in cache[key]["findings"][plugin.name]
                )
        run.findings.sort()
        report.timings[plugin.name] = time.monotonic() - t1

    t1 = time.monotonic()
    report.analyzed = [key for key in ordered if key in infos]
    report.reused = [key for key in ordered if key in cache and key not in infos]
    report.errors.sort()
    for key, record in fresh.items():
        record["refs"] = sorted(record["refs"])
        cache[key] = record
    if cache_path is not None:
        payload = {
            "engine": ENGINE_VERSION,
            "files": {key: cache[key] for key in sorted(cache)},
        }
        Path(cache_path).parent.mkdir(parents=True, exist_ok=True)
        Path(cache_path).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    report.timings["parse"] += time.monotonic() - t1
    return report
