"""One fresh interpreter of a benchmark run; ``run.py`` starts it.

The process imports the library, builds the workload's inputs from the
seed and runs the warm-up, then prints ``PERFBENCH_READY``. With
``--setup-only`` it stops there (``run.py`` times several such starts for
``setup_s``). Otherwise it runs the closed loop for ``--seconds`` and
prints ``PERFBENCH_RESULT <json>``.

With ``--trace 1`` every operation runs twice in a row, untraced and then
traced (see :mod:`tracing`). The ratio of the two summed wall times is
``obs.trace_overhead_ratio``; the per-layer metrics come from the traced
runs only.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

READY = "PERFBENCH_READY"
RESULT = "PERFBENCH_RESULT "


def _loop() -> dict:
    return {"op_s": [], "trials": 0, "failures": []}


def run_op(op: Callable[[], int], into: dict, around: Callable = nullcontext) -> None:
    """Time one operation; a failed operation is counted, and the loop goes on."""
    t0 = time.perf_counter()
    try:
        with around():
            into["trials"] += op()
    except Exception:
        into["failures"].append(traceback.format_exc())
    into["op_s"].append(time.perf_counter() - t0)


def timed_loop(ops: Iterator[Callable[[], int]], seconds: float) -> dict:
    """Run operations back to back until ``seconds`` have passed."""
    loop = _loop()
    start = time.perf_counter()
    for op in ops:
        run_op(op, loop)
        if time.perf_counter() - start >= seconds:
            break
    loop["wall_s"] = time.perf_counter() - start
    return loop


def paired_loop(workload, recorder, registry, seconds: float):
    """Run each operation untraced, then again traced, until ``seconds`` pass.

    Pairing puts both runs of an operation in the same load conditions,
    so the traced/untraced ratio is not at the mercy of the host's speed
    drifting between two separate phases. Returns (untraced, traced)
    loop results.
    """
    import tracing
    from repro.obs.metrics import use_registry

    @contextmanager
    def traced():
        tracing.install(recorder)
        workload.traced = True
        try:
            with use_registry(registry), recorder.span("op"):
                yield
        finally:
            workload.traced = False
            tracing.uninstall()

    untraced, loop = _loop(), _loop()
    start = time.perf_counter()
    for plain, again in zip(workload.ops(), workload.ops()):
        run_op(plain, untraced)
        run_op(again, loop, traced)
        if time.perf_counter() - start >= seconds:
            break
    return untraced, loop


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    Kept in the run record, not used in any metric; it tells a slow run
    on a loaded host from a slow program.
    """
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _merged(*snapshots: dict) -> Dict[str, float]:
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.counters


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.probes import probe_mode

    import tracing
    from workloads import LAYER_METRICS, WORKLOADS

    run = f"{args.workload}-seed{args.seed}"
    workload = WORKLOADS[args.workload](args.seed, args.out / "scratch", args.quick)
    recorder = tracing.SpanRecorder(run)
    setup_registry = MetricsRegistry()
    if args.trace:
        tracing.install(recorder)
    try:
        with use_registry(setup_registry):
            workload.setup()
    finally:
        tracing.uninstall()
    print(READY, flush=True)
    if args.setup_only:
        workload.close()
        return 0

    result: dict = {
        "stamps": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "probe_mode": probe_mode(),
        }
    }
    host_before = host_loop_ms()
    try:
        if not args.trace:
            loop = timed_loop(workload.ops(), args.seconds)
            result["metrics"] = {
                "throughput_per_s": loop["trials"] / loop["wall_s"],
                "op_p50_ms": statistics.median(loop["op_s"]) * 1e3,
            }
        else:
            spans_dir = args.out / "worker-spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            workload.prepare_traced(spans_dir, run)
            recorder.phase = "traced"
            traced_registry = MetricsRegistry()
            untraced, loop = paired_loop(
                workload, recorder, traced_registry, args.seconds
            )
            loop["failures"] += untraced["failures"]
            spans = recorder.spans + tracing.read_worker_spans(spans_dir)
            with (args.out / "spans.jsonl").open("w") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
            traced = [m for m in workload.manifests if m["traced"]]
            ops = [m for m in traced if not m["warmup"]]
            metrics = tracing.layer_metrics(
                spans,
                _merged(traced_registry.as_dict(), *(m["metrics"] for m in ops)),
                _merged(setup_registry.as_dict(),
                        *(m["metrics"] for m in traced if m["warmup"])),
                ops,
            )
            metrics["obs.trace_overhead_ratio"] = (
                sum(loop["op_s"]) / sum(untraced["op_s"])
            )
            metrics.update(dict.fromkeys(LAYER_METRICS, 0.0))
            metrics.update(workload.layer_metrics())
            result["metrics"] = metrics
            result["untraced_op_s"] = untraced["op_s"]
        result["stamps"]["host_loop_ms"] = [host_before, host_loop_ms()]
        result["checks"] = workload.checks()
        result["stamps"].update(workload.stamps())
    finally:
        workload.close()
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    result.update(
        op_s=loop["op_s"], trials=loop["trials"], failures=loop["failures"],
    )
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
