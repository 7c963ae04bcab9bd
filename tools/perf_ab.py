"""Same-host A/B of the repository benchmark against a base commit.

Exports ``BASE_REF`` into a temporary directory (``git archive``), then
runs this working tree's ``perfbench/run.py`` alternately with its
working directory set to the export and to the working tree, so both
arms are measured by the same harness, on the same host, interleaved in
time. Pair ``k`` runs both arms with seed ``k + 1``; the arm that goes
first alternates between pairs, so slow drift of the host's speed does
not favour either side.

Run from the repository root::

    python3 tools/perf_ab.py HEAD~1 --workload river_e3
    python3 tools/perf_ab.py main --workload river_e3 --pairs 4 --trace 1

Each run lasts ``run_seconds`` from ``BENCHMARK.json`` and the default is
10 pairs, the benchmark's own contract. ``--seconds`` overrides the run
length for quick looks; its summary is then labelled off-contract.

For every metric it prints the median, min and max of the paired ratio
``head / base`` and in how many pairs the head was better (per the
metric's ``better`` direction in ``BENCHMARK.json``). For each
end-to-end metric it then prints both sides' quartiles and one
:func:`verdict` against the metric's ``bound``; per-layer metrics have no
bound and stay ratio-only. Run records go to the usual
``perfbench/out/``; nothing under ``perfbench/`` is changed. Exit codes:
0 = every run succeeded and no metric regressed, 1 = a run failed,
reported failed operations, or a metric reads ``regression``, 2 = bad
arguments or an unknown ref.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNNER = REPO_ROOT / "perfbench" / "run.py"

Result = Dict[str, object]
"""One run's parsed result line: ``failed`` and ``metrics`` (name -> value)."""
Runner = Callable[[Path, int], Result]
"""Runs the benchmark once from a checkout root with a seed."""


def perfbench_runner(workload: str, seconds: float, trace: int) -> Runner:
    """A runner invoking the working tree's ``perfbench/run.py``."""

    def run(root: Path, seed: int) -> Result:
        cmd = [sys.executable, str(RUNNER), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"perfbench exited with {proc.returncode} in {root}:\n"
                f"{proc.stderr[-2000:]}"
            )
        line = json.loads(lines[-1])
        return {
            "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()},
        }

    return run


def run_pairs(runner: Runner, base_root: Path, head_root: Path, pairs: int,
              log: Callable[[str], None] = lambda _: None
              ) -> List[Tuple[Result, Result]]:
    """``pairs`` interleaved (base, head) results, alternating who runs first."""
    out = []
    for k in range(pairs):
        seed = k + 1
        order = [("base", base_root), ("head", head_root)]
        if k % 2:
            order.reverse()
        got = {}
        for arm, root in order:
            got[arm] = runner(root, seed)
            log(f"pair {k + 1}/{pairs} {arm}: {json.dumps(got[arm]['metrics'])}")
        out.append((got["base"], got["head"]))
    return out


def paired_values(results: List[Tuple[Result, Result]]
                  ) -> Dict[str, List[Tuple[float, float]]]:
    """Per metric, the raw ``(base, head)`` values of every pair reporting both."""
    values: Dict[str, List[Tuple[float, float]]] = {}
    for base, head in results:
        for name, b in base["metrics"].items():
            h = head["metrics"].get(name)
            if b is not None and h is not None:
                values.setdefault(name, []).append((b, h))
    return values


def paired_ratios(results: List[Tuple[Result, Result]]) -> Dict[str, List[float]]:
    """Per metric, ``head / base`` for every pair where both are nonzero."""
    ratios = {name: [h / b for b, h in pairs if b]
              for name, pairs in paired_values(results).items()}
    return {name: r for name, r in ratios.items() if r}


def quartiles(values: List[float]) -> Tuple[float, ...]:
    """``(q1, median, q3)``, interpolated linearly as numpy's default does."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(pairs: List[Tuple[float, float]], better: str, bound: float
            ) -> dict:
    """Judge one end-to-end metric from its raw ``(base, head)`` pairs.

    In order: ``gain`` when the head is better in at least 9 of 10 pairs
    (ties count for neither side) and the medians differ by more than
    the base runs' interquartile range; ``regression`` when the head
    median is worse than the base median by more than ``bound`` of it;
    ``unresolved`` when the base IQR is wider than ``bound`` of the base
    median, unless every head run beats every base run; else
    ``no regression``.
    """
    sign = 1.0 if better == "higher" else -1.0
    base, head = [b for b, _ in pairs], [h for _, h in pairs]
    b_q1, b_med, b_q3 = quartiles(base)
    wins = sum(sign * (h - b) > 0 for b, h in pairs)
    gained = sign * (statistics.median(head) - b_med)
    if 10 * wins >= 9 * len(pairs) and gained > b_q3 - b_q1:
        result = "gain"
    elif -gained > bound * abs(b_med):
        result = "regression"
    elif (b_q3 - b_q1 > bound * abs(b_med)
          and min(sign * h for h in head) <= max(sign * b for b in base)):
        result = "unresolved"
    else:
        result = "no regression"
    return {"base": quartiles(base), "head": quartiles(head),
            "head_better": wins, "pairs": len(pairs), "verdict": result}


def verdicts(results: List[Tuple[Result, Result]], spec: dict
             ) -> List[dict]:
    """One :func:`verdict` row per end-to-end metric of ``spec``."""
    values = paired_values(results)
    return [{"metric": m["name"], "better": m["better"], "bound": m["bound"],
             **verdict(values[m["name"]], m["better"], m["bound"])}
            for m in spec["end_to_end"] if values.get(m["name"])]


def render_verdicts(rows: List[dict]) -> str:
    lines = [f"{'metric':20s} {'better':6s} bound  {'base q1/median/q3':>20s}  "
             f"{'head q1/median/q3':>20s}  head better  verdict"]
    for r in rows:
        base, head = ("/".join(f"{v:.4g}" for v in r[k]) for k in ("base", "head"))
        lines.append(f"{r['metric']:20s} {r['better']:6s} {r['bound']:5.2f}  "
                     f"{base:>20s}  {head:>20s}  {r['head_better']:>5d}/"
                     f"{r['pairs']:<5d}  {r['verdict']}")
    return "\n".join(lines)


def summarize(ratios: Dict[str, List[float]], better: Dict[str, str]
              ) -> List[dict]:
    """Median/min/max ratio and head-better count per metric, sorted by name."""
    rows = []
    for name in sorted(ratios):
        values = ratios[name]
        wins = (sum(r > 1.0 for r in values) if better.get(name) == "higher"
                else sum(r < 1.0 for r in values))
        rows.append({"metric": name, "median": statistics.median(values),
                     "min": min(values), "max": max(values),
                     "better": better.get(name, "?"), "head_better": wins,
                     "pairs": len(values)})
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'metric':44s} {'better':6s} {'median':>8s} {'min':>8s} "
             f"{'max':>8s}  head better"]
    for r in rows:
        lines.append(
            f"{r['metric']:44s} {r['better']:6s} {r['median']:8.3f} "
            f"{r['min']:8.3f} {r['max']:8.3f}  {r['head_better']}/{r['pairs']}"
        )
    return "\n".join(lines)


def metric_directions(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def export_ref(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest`` (no git metadata)."""
    archive = subprocess.run(["git", "archive", ref], cwd=REPO_ROOT,
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   capture_output=True, check=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length override (off-contract); "
                             "default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # the verdicts need quartiles
        parser.error("--pairs must be at least 2")
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    contract_seconds = float(spec["run_seconds"])
    seconds = contract_seconds if args.seconds is None else args.seconds

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    runner = perfbench_runner(args.workload, seconds, args.trace)
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        base_root = Path(tmp)
        try:
            export_ref(args.base_ref, base_root)
        except subprocess.CalledProcessError as err:
            print(f"perf_ab: cannot export {args.base_ref!r}: "
                  f"{(err.stderr or b'').decode(errors='replace').strip()}",
                  file=sys.stderr)
            return 2
        try:
            results = run_pairs(runner, base_root, REPO_ROOT, args.pairs, log)
        except RuntimeError as err:
            print(f"perf_ab: {err}", file=sys.stderr)
            return 1
    rows = summarize(paired_ratios(results), metric_directions(spec))
    label = "" if seconds == contract_seconds else ", OFF-CONTRACT run length"
    print(f"{args.workload}: head/base over {args.pairs} interleaved pairs "
          f"({seconds:g} s each{label}, base {args.base_ref})")
    print(render(rows))
    judged = verdicts(results, spec)
    print("\n" + render_verdicts(judged))
    failed = sum(int(r["failed"]) for pair in results for r in pair)
    print(f"failed operations: {failed}")
    regressed = any(r["verdict"] == "regression" for r in judged)
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
