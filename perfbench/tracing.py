"""Span recording for the traced benchmark run.

The benchmark's spans sit around the library's public stage calls. Each
wrapper is patched in where the *caller* looks the name up (for example
``repro.sim.engine.colored_noise_batch``, which the engine imported by
name), so the library carries no benchmark code and an untraced run
executes the library unmodified.

A span records its name, start and end (``perf_counter_ns``), the id of
the enclosing span, the run id, the process id, the phase (``setup`` or
``traced``) and the work it covered (samples, trials, frames). Spans stay
in memory; pool workers append each finished chunk tree to a per-process
JSON Lines file, which the parent reads back when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np


class SpanRecorder:
    """In-memory span store for one process."""

    def __init__(self, run_id: str, sink: Optional[Path] = None) -> None:
        self.run_id = run_id
        self.sink = sink
        self.phase = "setup"
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._next_id = 0
        self.noise_entries = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span around the block; the yielded dict takes work counts."""
        record = {
            "id": self._next_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "run": self.run_id,
            "pid": os.getpid(),
            "phase": self.phase,
            "start": time.perf_counter_ns(),
        }
        self._next_id += 1
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()
            if self.sink is not None and not self._stack:
                self.flush()

    def flush(self) -> None:
        """Append every finished span to the sink file and drop it from memory."""
        if self.sink is None or not self.spans:
            return
        with self.sink.open("a") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
        self.spans = []


def _samples(index: int) -> Callable:
    return lambda args, out: {"samples": int(np.size(args[index]))}


def _out_samples(args, out) -> dict:
    return {"samples": int(np.size(out))}


def _count(key: str, of: Callable) -> Callable:
    return lambda args, out: {key: int(of(args, out))}


def _colored(args, out) -> dict:
    # The shaping-filter cache only grows on a miss (it holds far fewer
    # distinct shapes than its capacity in every workload here).
    from repro.dsp.noisegen import noise_cache_info

    entries = noise_cache_info()[0]
    miss = entries > _RECORDER.noise_entries
    _RECORDER.noise_entries = entries
    return {"samples": int(np.size(out)), "miss": int(miss)}


def _file_bytes(args, out) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute where the caller looks it up, span name, work counts)
PATCHES = [
    ("repro.sim.trials", "TrialCampaign.run_trials", "sim.trials.point",
     _count("trials", lambda a, o: len(o))),
    ("repro.sim.trials", "simulate_point_batch", "sim.engine.point_batch",
     _count("trials", lambda a, o: len(o))),
    ("repro.sim.trials", "simulate_trial", "sim.engine.simulate_trial",
     _count("trials", lambda a, o: 1)),
    ("repro.sim.engine", "build_frames_batch", "phy.frame.build",
     _count("frames", lambda a, o: len(o))),
    ("repro.sim.engine", "build_frame", "phy.frame.build",
     _count("frames", lambda a, o: 1)),
    ("repro.acoustics.channel", "ChannelResponse.apply",
     "acoustics.channel.apply", _samples(1)),
    ("repro.acoustics.channel", "AcousticChannel.between",
     "acoustics.channel.between", None),
    ("repro.sim.engine", "apply_doppler", "acoustics.doppler", _samples(0)),
    ("repro.vanatta.node", "VanAttaNode.reflect", "vanatta.node.reflect",
     _out_samples),
    ("repro.sim.engine", "colored_noise_batch", "dsp.noisegen.colored", _colored),
    ("repro.sim.engine", "colored_noise", "dsp.noisegen.colored", _colored),
    ("repro.sim.engine", "white_noise_batch", "dsp.noisegen.white", _out_samples),
    ("repro.sim.engine", "white_noise", "dsp.noisegen.white", _out_samples),
    ("repro.phy.batch", "BatchedReaderReceiver.demodulate_batch",
     "phy.batch.demod", _samples(1)),
    ("repro.phy.batch", "BatchedReaderReceiver.suppress_carrier_batch",
     "phy.batch.suppress", _samples(1)),
    ("repro.phy.batch", "detect_preamble_batch", "phy.preamble.detect",
     _samples(0)),
    ("repro.phy.receiver", "detect_preamble", "phy.preamble.detect", _samples(0)),
    ("repro.phy.batch", "parse_frames_batch", "phy.frame.parse",
     _count("frames", lambda a, o: len(o))),
    ("repro.phy.receiver", "parse_frame", "phy.frame.parse",
     _count("frames", lambda a, o: 1)),
    ("repro.phy.receiver", "ReaderReceiver.demodulate", "phy.receiver.demod",
     _count("trials", lambda a, o: 1)),
    ("repro.phy.rake", "estimate_channel", "phy.rake.estimate",
     _count("trials", lambda a, o: 1)),
    ("repro.sim.parallel", "run_campaign_parallel", "sim.parallel.campaign",
     _count("trials", lambda a, o: o.total_trials)),
    ("repro.sim.export", "save_manifest", "obs.manifest.save", _file_bytes),
    ("repro.obs.ledger", "Ledger.record", "obs.ledger.record", None),
]

_RECORDER: Optional[SpanRecorder] = None
_ORIGINALS: List[tuple] = []


def _wrap(fn: Callable, name: str, work: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _RECORDER.span(name) as record:
            out = fn(*args, **kwargs)
            if work is not None:
                record.update(work(args, out))
            return out

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Patch every stage call in :data:`PATCHES` to record into ``recorder``."""
    from repro.dsp.noisegen import noise_cache_info

    global _RECORDER
    if _ORIGINALS:
        raise RuntimeError("tracing is already installed")
    _RECORDER = recorder
    recorder.noise_entries = noise_cache_info()[0]
    for module_name, attr, name, work in PATCHES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        _ORIGINALS.append((owner, leaf, original))
        setattr(owner, leaf, _wrap(original, name, work))


def uninstall() -> None:
    """Restore every patched call."""
    while _ORIGINALS:
        owner, leaf, original = _ORIGINALS.pop()
        setattr(owner, leaf, original)


def install_worker(sink_dir: str, run_id: str) -> None:
    """Pool-worker initializer: trace into ``spans-<pid>.jsonl`` under ``sink_dir``."""
    recorder = SpanRecorder(
        run_id, sink=Path(sink_dir) / f"spans-{os.getpid()}.jsonl"
    )
    recorder.phase = "traced"
    install(recorder)


def mark_worker_setup(sink_dir: Path) -> None:
    """Relabel the spans workers have written so far as set-up spans.

    Workers flush a chunk's spans before the chunk returns, so once the
    warm-up campaigns are harvested every warm-up span is on disk; later
    flushes start fresh files.
    """
    for path in sink_dir.glob("spans-*.jsonl"):
        path.rename(path.with_name("setup-" + path.name))


def read_worker_spans(sink_dir: Path) -> List[dict]:
    """Every span the pool workers wrote under ``sink_dir``."""
    spans: List[dict] = []
    for path in sorted(sink_dir.glob("*spans-*.jsonl")):
        phase = "setup" if path.name.startswith("setup-") else "traced"
        with path.open() as fh:
            for line in fh:
                if line.strip():
                    spans.append(dict(json.loads(line), phase=phase))
    return spans


class _Layer:
    """Totals of one span name: wall and self nanoseconds plus work counts."""

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work: Dict[str, int] = {}

    def per(self, key: str, scale: float, self_time: bool = False) -> float:
        """Nanoseconds per unit of ``key`` (per span for ``calls``), times ``scale``."""
        units = self.count if key == "calls" else self.work.get(key, 0)
        if not units:
            return 0.0
        return (self.self_ns if self_time else self.total_ns) * scale / units


def aggregate(spans: List[dict], phases=("traced",)) -> Dict[str, _Layer]:
    """Per-name totals with self time = duration minus child-span durations."""
    child_ns: Dict[tuple, int] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_ns[key] = child_ns.get(key, 0) + s["end"] - s["start"]
    layers: Dict[str, _Layer] = {}
    for s in spans:
        if s["phase"] not in phases:
            continue
        layer = layers.setdefault(s["name"], _Layer())
        duration = s["end"] - s["start"]
        layer.count += 1
        layer.total_ns += duration
        layer.self_ns += duration - child_ns.get((s["pid"], s["id"]), 0)
        for key in ("samples", "trials", "frames", "miss", "bytes"):
            if key in s:
                layer.work[key] = layer.work.get(key, 0) + s[key]
    return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[dict],
    counters: Dict[str, float],
    setup_counters: Dict[str, float],
    manifests: List[dict],
) -> Dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced run.

    ``counters`` holds the library's metric counters over the traced
    phase and ``setup_counters`` those of its warm-up (cache ratios count
    both, since the warm-up is where caches miss); ``manifests`` are the
    run manifests the traced phase filed (pool workload only), whose
    gauges carry the pool's utilization.
    """
    traced = aggregate(spans)
    every = aggregate(spans, phases=("setup", "traced"))

    def get(layers, name):
        return layers.get(name, _Layer())

    colored = get(every, "dsp.noisegen.colored")
    demods = counters.get("repro.phy.receiver.demods", 0)
    hits = counters.get("repro.sim.cache.hits", 0) + setup_counters.get(
        "repro.sim.cache.hits", 0
    )
    misses = counters.get("repro.sim.cache.misses", 0) + setup_counters.get(
        "repro.sim.cache.misses", 0
    )
    trials = sum(
        get(traced, n).work.get("trials", 0)
        for n in ("sim.engine.point_batch", "sim.engine.simulate_trial")
    )
    campaigns = get(traced, "sim.parallel.campaign")
    utilizations = [
        m["metrics"]["gauges"].get("repro.sim.parallel.worker_utilization", 0.0)
        for m in manifests
    ]
    utilization = statistics.median(utilizations) if utilizations else 0.0
    return {
        "dsp.noisegen.colored_ns_per_sample": get(traced, "dsp.noisegen.colored").per("samples", 1),
        "dsp.noisegen.white_ns_per_sample": get(traced, "dsp.noisegen.white").per("samples", 1),
        "dsp.noisegen.cache_hit_ratio": _ratio(colored.count - colored.work.get("miss", 0), colored.count),
        "phy.batch.suppress_ns_per_sample": get(traced, "phy.batch.suppress").per("samples", 1),
        "phy.preamble.detect_ns_per_sample": get(traced, "phy.preamble.detect").per("samples", 1),
        "phy.batch.demod_self_ns_per_sample": get(traced, "phy.batch.demod").per("samples", 1, self_time=True),
        "phy.frame.build_us_per_frame": get(traced, "phy.frame.build").per("frames", 1e-3),
        "phy.frame.parse_us_per_frame": get(traced, "phy.frame.parse").per("frames", 1e-3),
        "phy.receiver.demod_ms_per_trial": get(traced, "phy.receiver.demod").per("trials", 1e-6),
        "phy.rake.estimate_us_per_trial": get(traced, "phy.rake.estimate").per("trials", 1e-3),
        "phy.receiver.detect_fail_ratio": _ratio(counters.get("repro.phy.receiver.detect_failures", 0), demods),
        "phy.receiver.crc_fail_ratio": _ratio(counters.get("repro.phy.receiver.crc_failures", 0), demods),
        "acoustics.channel.apply_ns_per_sample": get(traced, "acoustics.channel.apply").per("samples", 1),
        "acoustics.doppler.ns_per_sample": get(traced, "acoustics.doppler").per("samples", 1),
        "acoustics.channel.between_ms": get(every, "acoustics.channel.between").per("calls", 1e-6),
        "vanatta.node.reflect_ns_per_sample": get(traced, "vanatta.node.reflect").per("samples", 1),
        "vanatta.fastfield.evals_per_trial": _ratio(counters.get("repro.vanatta.fastfield.evals", 0), trials),
        "sim.trials.point_self_ms": get(traced, "sim.trials.point").per("calls", 1e-6, self_time=True),
        "sim.engine.point_batch_self_ms": get(traced, "sim.engine.point_batch").per("calls", 1e-6, self_time=True),
        "sim.engine.simulate_trial_ms": get(traced, "sim.engine.simulate_trial").per("trials", 1e-6),
        "sim.cache.channel_hit_ratio": _ratio(hits, hits + misses),
        "sim.parallel.worker_utilization": utilization,
        "sim.parallel.wait_ms": campaigns.per("calls", 1e-6) * (1.0 - utilization) if campaigns.count else 0.0,
        "sim.parallel.chunks_per_campaign": _ratio(counters.get("repro.sim.parallel.chunks", 0), campaigns.count),
        "obs.ledger.record_ms": get(traced, "obs.ledger.record").per("calls", 1e-6),
        "obs.manifest.bytes": _ratio(get(traced, "obs.manifest.save").work.get("bytes", 0), get(traced, "obs.manifest.save").count),
        "obs.probes.checks_per_trial": _ratio(counters.get("repro.obs.probes.checks", 0), trials),
    }
