"""Tier-1 tests for the shared dataflow driver (``repro.analysis.dataflow``).

The driver reads, parses and suppression-scans each dirty file once,
runs the units, shapes and effects engines as plugins over the same
modules, and keeps all three in one cache file. These tests lock that
contract, and that a warm incremental run reports exactly what a cold
run reports when a callee's definition appears or disappears.
"""

import json
from pathlib import Path

from repro.analysis import lint_paths, render_json
from repro.analysis.suppressions import SuppressionIndex

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

CALLER = (
    "from callee import spreading_db\n"
    "\n"
    "\n"
    "def budget(range_km: float) -> float:\n"
    "    return spreading_db(range_km)\n"
)
CALLEE = (
    "def spreading_db(range_m: float) -> float:\n"
    "    return range_m\n"
)
OTHER = (
    "def other_db(range_m: float) -> float:\n"
    "    return range_m\n"
)


def _findings(files, cache=None):
    report = lint_paths(files, units=True, units_cache=cache)
    return json.loads(render_json(report))["findings"]


def _assert_warm_matches_cold(files, cache):
    warm = _findings(files, cache)
    cold = _findings(files)
    assert warm == cold
    return cold


# ---------------------------------------------------------------------------
# warm == cold when a callee's definition appears or disappears
# ---------------------------------------------------------------------------


def test_new_callee_file_dirties_its_cached_caller(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text(CALLER)
    cache = tmp_path / "cache.json"
    assert _findings([caller], cache) == []

    callee = tmp_path / "callee.py"
    callee.write_text(CALLEE)
    cold = _assert_warm_matches_cold([caller, callee], cache)
    assert [(Path(f["path"]).name, f["rule"]) for f in cold] == [
        ("caller.py", "VAB010")
    ]


def test_new_callee_definition_dirties_its_cached_caller(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text(CALLER)
    callee = tmp_path / "callee.py"
    callee.write_text(OTHER)
    cache = tmp_path / "cache.json"
    assert _findings([caller, callee], cache) == []

    callee.write_text(OTHER + "\n\n" + CALLEE)
    cold = _assert_warm_matches_cold([caller, callee], cache)
    assert [(Path(f["path"]).name, f["rule"]) for f in cold] == [
        ("caller.py", "VAB010")
    ]


def test_callee_file_leaving_the_run_dirties_its_cached_caller(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text(CALLER)
    callee = tmp_path / "callee.py"
    callee.write_text(CALLEE)
    cache = tmp_path / "cache.json"
    assert [f["rule"] for f in _findings([caller, callee], cache)] == ["VAB010"]

    assert _assert_warm_matches_cold([caller], cache) == []


# ---------------------------------------------------------------------------
# one front-end, one cache file
# ---------------------------------------------------------------------------


def test_each_file_is_parsed_and_scanned_once_for_all_engines(monkeypatch):
    import repro.analysis.dataflow as dataflow

    files = sorted(FIXTURES.glob("vab01[0-9]_bad.py"))
    parsed, scanned = [], []
    extract = dataflow.extract_module
    scan = SuppressionIndex.from_source.__func__

    def counting_extract(path, source):
        parsed.append(Path(path).name)
        return extract(path, source)

    def counting_scan(cls, source):
        scanned.append(source)
        return scan(cls, source)

    monkeypatch.setattr(dataflow, "extract_module", counting_extract)
    monkeypatch.setattr(SuppressionIndex, "from_source", classmethod(counting_scan))
    report = lint_paths(files, units=True, jobs=1)
    assert report.units_stats["analyzed"] == len(files)
    assert sorted(parsed) == sorted(f.name for f in files)
    # One scan per file for the per-file rules, one for the engine stage.
    assert len(scanned) == 2 * len(files)


def test_one_cache_file_holds_every_engine(tmp_path):
    cache = tmp_path / "cache.json"
    fixture = FIXTURES / "vab017_bad.py"
    cold = lint_paths([fixture], units=True, units_cache=cache)
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
    payload = json.loads(cache.read_text())
    (record,) = payload["files"].values()
    assert sorted(record["summaries"]) == ["effects", "shapes", "units"]

    warm = lint_paths([fixture], units=True, units_cache=cache)
    for engine in ("units", "shapes", "effects"):
        assert getattr(warm, f"{engine}_stats")["reused"] == 1, engine
    assert warm.findings == cold.findings
    assert set(warm.timings) == {"rules", "parse", "units", "shapes", "effects"}
