"""tools/perf_ab.py: interleaved pairing, paired ratios and the verdicts."""

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


def judge(base, head, better="higher", bound=0.25):
    return perf_ab.verdict(list(zip(base, head)), better, bound)


BASE_RUNS = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_ten_wins_beyond_the_base_iqr_is_a_gain():
    q1, median, q3 = perf_ab.quartiles(BASE_RUNS)
    assert (q1, median, q3) == (99.125, 100.0, 100.875)
    row = judge(BASE_RUNS, [b + 5.0 for b in BASE_RUNS])
    assert row["head_better"] == 10
    assert row["verdict"] == "gain"
    # the same lead inside the base IQR is not a gain
    assert judge(BASE_RUNS, [b + 1.0 for b in BASE_RUNS])["verdict"] == (
        "no regression"
    )


def test_eight_wins_in_ten_is_not_a_gain():
    head = [b + 20.0 for b in BASE_RUNS[:8]] + [b - 1.0 for b in BASE_RUNS[8:]]
    row = judge(BASE_RUNS, head)
    assert row["head_better"] == 8
    assert row["verdict"] == "no regression"


def test_ties_count_for_neither_side():
    nine = [b + 5.0 for b in BASE_RUNS[:9]] + BASE_RUNS[9:]
    row = judge(BASE_RUNS, nine)
    assert row["head_better"] == 9
    assert row["verdict"] == "gain"
    eight = [b + 5.0 for b in BASE_RUNS[:8]] + BASE_RUNS[8:]
    assert judge(BASE_RUNS, eight)["head_better"] == 8
    assert judge(BASE_RUNS, eight)["verdict"] == "no regression"
    same = judge(BASE_RUNS, BASE_RUNS, better="lower")
    assert same["head_better"] == 0
    assert same["verdict"] == "no regression"


def test_median_worse_than_the_bound_is_a_regression():
    # lower is better: a 30% slower head against a 0.25 bound
    row = judge(BASE_RUNS, [1.3 * b for b in BASE_RUNS], better="lower")
    assert row["verdict"] == "regression"
    row = judge(BASE_RUNS, [1.2 * b for b in BASE_RUNS], better="lower")
    assert row["verdict"] == "no regression"
    # higher is better: the bound applies to a drop
    row = judge(BASE_RUNS, [0.7 * b for b in BASE_RUNS], better="higher")
    assert row["verdict"] == "regression"


def test_base_spread_wider_than_the_bound_is_unresolved():
    wide = [10.0] * 5 + [100.0] * 5  # IQR 90 over a median of 55
    row = judge(wide, [55.0] * 10, better="higher", bound=0.25)
    assert row["verdict"] == "unresolved"
    # unless every head run beats every base run
    row = judge(wide, [101.0] * 10, better="higher", bound=0.25)
    assert row["head_better"] == 10
    assert row["verdict"] == "no regression"
    row = judge(wide, [9.0] * 10, better="lower", bound=0.25)
    assert row["verdict"] == "no regression"


def test_verdicts_cover_only_the_end_to_end_metrics():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    results = perf_ab.run_pairs(FakeRunner(), BASE, HEAD, 10)
    rows = perf_ab.verdicts(results, spec)
    by_name = {r["metric"]: r for r in rows}
    assert set(by_name) == {"throughput_per_s", "op_p50_ms", "setup_s"}
    assert by_name["op_p50_ms"]["verdict"] == "gain"
    assert by_name["setup_s"]["verdict"] == "no regression"
    text = perf_ab.render_verdicts(rows)
    assert "gain" in text and "10/10" in text


def test_main_exits_1_on_a_regression(monkeypatch, capsys):
    def slower_head(workload, seconds, trace):
        def run(root, seed):
            slow = 1.5 if root == perf_ab.REPO_ROOT else 1.0
            return {"failed": 0,
                    "metrics": {"op_p50_ms": 50.0 * slow + 0.1 * seed,
                                "throughput_per_s": 100.0}}
        return run

    monkeypatch.setattr(perf_ab, "export_ref", lambda ref, dest: None)
    monkeypatch.setattr(perf_ab, "perfbench_runner", slower_head)
    assert perf_ab.main(["HEAD", "--workload", "river_e3", "--pairs", "4"]) == 1
    out = capsys.readouterr().out
    assert "regression" in out and "failed operations: 0" in out
