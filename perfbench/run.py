"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload river_e3 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs separately, with spans, and prints the per-layer
metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; progress and errors go
to standard error. Every run also writes a record (stamps, raw
per-operation times, check outcomes, spans) under ``perfbench/out/``.

The workload runs in a fresh interpreter (``child.py``); ``setup_s`` is
the median, over several fresh starts, of the time from process start to
the end of the warm-up. See ``NOTES.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 3
"""Fresh starts timed per run for ``setup_s``. The middle one goes on to
the measured loop, so the others fall before and after it and the
median spans the run's time."""
DEADLINE_S = 170.0
"""Every child is killed once this much time has passed since start."""
IMPORT_STARTS = 3

sys.path.insert(0, str(HERE))
from child import READY, RESULT  # noqa: E402


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def run_child(cmd: List[str], env: dict, cwd: Path, deadline: float
              ) -> Tuple[Optional[float], Optional[dict], int]:
    """Start a child; return (seconds to READY, result, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=cwd)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == READY:
                ready = time.perf_counter() - start
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, result, code


def source_stamps(root: Path) -> dict:
    """Line count and content hash of ``src/repro``, and the commit if known."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip() or None
    return {"src_loc": lines, "src_sha256": digest.hexdigest(), "git_commit": commit}


def import_seconds(env: dict, cwd: Path) -> float:
    """Median fresh-interpreter time of ``import repro.sim.parallel``."""
    code = ("import time; t = time.perf_counter(); import repro.sim.parallel; "
            "print(time.perf_counter() - t)")
    samples = [
        float(subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout)
        for _ in range(IMPORT_STARTS)
    ]
    return statistics.median(samples)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and one start, for the self-test")
    args = parser.parse_args(argv)
    begun = time.perf_counter()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("run from the root of a checkout: BENCHMARK.json not found")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail("the library is missing: src/repro/__init__.py not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Byte-compile once, so no timed start pays for it.
    for tree in (root / "src" / "repro", HERE):
        compileall.compile_dir(str(tree), quiet=2)
    out = HERE / "out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    )
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), VAB_PROBES="count")
    base = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--quick"] if args.quick else [])

    starts = 1 if args.quick or args.trace else SETUP_STARTS
    setup_s: List[float] = []
    result = None
    for k in range(starts):
        measured = k == starts // 2
        cmd = base + ["--out", str(out if measured else out / f"start{k}")]
        ready, got, code = run_child(
            cmd + ([] if measured else ["--setup-only"]), env, root,
            begun + DEADLINE_S,
        )
        if code != 0 or ready is None or (measured and got is None):
            return fail(f"benchmark process exited with code {code}", 1)
        setup_s.append(ready)
        result = got if measured else result

    checks = result["checks"]
    failed = len(result["failures"]) + sum(1 for _, ok, _ in checks if not ok)
    metrics = dict(result["metrics"])
    if args.trace:
        metrics["import.repro_sim_s"] = import_seconds(env, root)
    else:
        metrics["setup_s"] = statistics.median(setup_s)
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        return fail(f"metric set mismatch: missing {sorted(names - set(metrics))}, "
                    f"unexpected {sorted(set(metrics) - names)}", 3)

    op_s = result["op_s"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "nproc": os.cpu_count(),
        **source_stamps(root), **result["stamps"],
        "setup_s": setup_s, "ops": len(op_s), "trials": result["trials"],
        "op_s": op_s,
        "op_p90_ms": (statistics.quantiles(op_s, n=10)[-1] * 1e3
                      if len(op_s) >= 100 else None),
        "failures": result["failures"],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "metrics": metrics,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1))
    for name, ok, detail in checks:
        if not ok:
            print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"perfbench: operation failed:\n{failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(op_s) + len(checks),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
