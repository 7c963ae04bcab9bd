"""tools/perf_ab.py: interleaved pairing and paired-ratio summaries."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import perf_ab  # noqa: E402

BASE, HEAD = Path("/base"), Path("/head")


class FakeRunner:
    """Records each call; head runs are 20% faster, base ones drift up."""

    def __init__(self):
        self.calls = []

    def __call__(self, root, seed):
        self.calls.append((root, seed))
        drift = 1.0 + 0.01 * len(self.calls)
        speed = 1.2 if root == HEAD else 1.0
        return {
            "failed": 0,
            "metrics": {
                "throughput_per_s": 100.0 * speed * drift,
                "op_p50_ms": 50.0 / speed,
                "setup_s": 0.0,
            },
        }


def test_pairs_alternate_who_runs_first_with_one_seed_per_pair():
    runner = FakeRunner()
    results = perf_ab.run_pairs(runner, BASE, HEAD, 4)
    assert runner.calls == [
        (BASE, 1), (HEAD, 1), (HEAD, 2), (BASE, 2),
        (BASE, 3), (HEAD, 3), (HEAD, 4), (BASE, 4),
    ]
    assert len(results) == 4
    for base, head in results:
        assert head["metrics"]["op_p50_ms"] < base["metrics"]["op_p50_ms"]


def test_ratios_are_head_over_base_and_skip_zero_bases():
    runner = FakeRunner()
    ratios = perf_ab.paired_ratios(perf_ab.run_pairs(runner, BASE, HEAD, 2))
    assert "setup_s" not in ratios
    assert [round(r, 6) for r in ratios["op_p50_ms"]] == [
        round(1 / 1.2, 6)
    ] * 2
    # pair 1: base call 1, head call 2; pair 2: head call 3, base call 4
    want = [1.2 * 1.02 / 1.01, 1.2 * 1.03 / 1.04]
    assert ratios["throughput_per_s"] == pytest.approx(want)


def test_summary_counts_wins_by_direction():
    ratios = {"throughput_per_s": [1.1, 0.9, 1.3], "op_p50_ms": [0.8, 1.1, 0.9]}
    rows = perf_ab.summarize(
        ratios, {"throughput_per_s": "higher", "op_p50_ms": "lower"}
    )
    by_name = {r["metric"]: r for r in rows}
    assert by_name["throughput_per_s"]["median"] == 1.1
    assert by_name["throughput_per_s"]["min"] == 0.9
    assert by_name["throughput_per_s"]["max"] == 1.3
    assert by_name["throughput_per_s"]["head_better"] == 2
    assert by_name["op_p50_ms"]["head_better"] == 2
    assert [r["metric"] for r in rows] == ["op_p50_ms", "throughput_per_s"]
    text = perf_ab.render(rows)
    assert "throughput_per_s" in text and "2/3" in text


def test_directions_come_from_the_benchmark_spec():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    better = perf_ab.metric_directions(spec)
    assert better["throughput_per_s"] == "higher"
    assert better["dsp.noisegen.white_ns_per_sample"] == "lower"


def test_unknown_base_ref_exits_2(capsys):
    code = perf_ab.main(["no-such-ref-for-perf-ab", "--workload", "river_e3"])
    assert code == 2
    assert "cannot export" in capsys.readouterr().err
