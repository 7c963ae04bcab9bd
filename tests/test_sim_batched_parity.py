"""The one simulation pipeline, pinned to field-exact result goldens.

Every trial runs through :func:`repro.sim.engine.simulate_point_batch`;
:func:`~repro.sim.engine.simulate_trial` is a batch of one, and receive
chains the batched demodulator cannot run (rake, DFE, timing search,
subclasses) demodulate per row on the same front-end. The contract is
not "close" — it is *exact*: each case below must reproduce its pinned
``TrialResult`` stream field for field, bit for bit (floats are stored
as ``float.hex``).

The goldens in ``tests/goldens/trial_results.json`` pin the v2 noise
stream (one shaped Gaussian draw per trial, carrying the ambient noise
times the noise figure and the residual-SI floor) and the BER scoring
that charges each bit the receiver did not deliver 0.5 (a guess). They
were generated on top of commit 8b607da by::

    PYTHONPATH=src python tests/test_sim_batched_parity.py --write 8b607da+score-v2

(the file's ``generated`` block repeats the label and command). Against
the ``dfa34d7+noise-v2`` goldens before them, only the BER of three
detected frames whose payload came back empty moved, from 1.0 to 0.5
(``e16/plain`` trials 3 and 5, ``e16/dfe-timing`` trial 2). Regenerate
only for a deliberate change of the results.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import Scenario
from repro.geometry.placement import Pose
from repro.geometry.vec3 import Vec3
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import SpanTracer, collect_spans
from repro.phy.frame import build_frame
from repro.phy.receiver import ReaderReceiver
from repro.sim.engine import (
    IDLE_CHIPS_AFTER,
    IDLE_CHIPS_BEFORE,
    TrialResult,
    simulate_point_batch,
    simulate_trial,
)
from repro.sim.results import BERPoint
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign, run_campaign
from repro.vanatta.node import VanAttaNode

GOLDENS = Path(__file__).parent / "goldens" / "trial_results.json"
TRIALS = 6
FULL_CAMPAIGN_RANGES = [50.0, 330.0]


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def multipath(range_m=200.0, z_fraction=0.5, depth_m=6.0):
    """An E16-style geometry: a 6 m column with two-bounce multipath."""
    z = depth_m * z_fraction
    base = Scenario.river(range_m=range_m)
    return dataclasses.replace(
        base,
        water=dataclasses.replace(base.water, depth_m=depth_m),
        reader=Pose(Vec3(0.0, 0.0, z)),
        node=Pose(Vec3(range_m, 0.0, z), 180.0),
        max_bounces=2,
        name="multipath",
    )


class ReceiverFactory:
    """``ReaderReceiver.for_scenario`` with fixed extension settings."""

    def __init__(self, cls=ReaderReceiver, **overrides):
        self.cls = cls
        self.overrides = overrides

    def __call__(self, scenario):
        return self.cls.for_scenario(scenario, **self.overrides)


class DimmedNode(VanAttaNode):
    """A node subclass: both communication-face methods overridden."""

    def modulation_waveform(self, chips, samples_per_chip, fs=None):
        return super().modulation_waveform(chips, samples_per_chip, fs)

    def reflect(self, incident, modulation, *args, **kwargs):
        return 0.8 * super().reflect(incident, modulation, *args, **kwargs)


class CentringReceiver(ReaderReceiver):
    """A receiver subclass: stage 1 overridden (calls through)."""

    def suppress_carrier(self, record):
        return super().suppress_carrier(record)


def campaign_case(scenario, trials=TRIALS, seed=2023, **kwargs):
    campaign = TrialCampaign(trials_per_point=trials, seed=seed, **kwargs)
    return lambda: campaign.run_trials(scenario, 0, 0, trials)


def full_campaign_case(point_index):
    scenarios = sweep_range(Scenario.river(), FULL_CAMPAIGN_RANGES)
    campaign = TrialCampaign(trials_per_point=4, seed=11)
    return lambda: campaign.run_trials(scenarios[point_index], point_index)


def single_trial_case(scenario, seed, **kwargs):
    return lambda: [
        simulate_trial(scenario, rng=np.random.default_rng(seed), **kwargs)
    ]


CASES = {
    "scenario/river-100": campaign_case(Scenario.river(100.0)),
    "scenario/river-330": campaign_case(Scenario.river(330.0)),
    "scenario/ocean-100": campaign_case(Scenario.ocean(100.0)),
    "scenario/default": campaign_case(Scenario()),
    "payload/4": campaign_case(Scenario.river(150.0), payload_bytes=4),
    "payload/8": campaign_case(Scenario.river(150.0), payload_bytes=8),
    "payload/16": campaign_case(Scenario.river(150.0), payload_bytes=16),
    "si/130": campaign_case(Scenario.river(250.0), si_suppression_db=130.0),
    "si/none": campaign_case(Scenario.river(250.0), si_suppression_db=None),
    "campaign/point-0": full_campaign_case(0),
    "campaign/point-1": full_campaign_case(1),
    "orientation/60deg-330": campaign_case(
        Scenario.river(330.0, node_heading_offset_deg=60.0), seed=60
    ),
    "e16/plain": campaign_case(
        multipath(200.0, 0.75), trials=6, seed=61,
        receiver_factory=ReceiverFactory(),
    ),
    "e16/dfe-timing": campaign_case(
        multipath(200.0, 0.75), trials=6, seed=61,
        receiver_factory=ReceiverFactory(equalizer_taps=24, timing_search=4),
    ),
    "e16/rake": campaign_case(
        multipath(120.0, 0.25), trials=4, seed=62,
        receiver_factory=ReceiverFactory(rake_taps=8),
    ),
    "ocean/drift": campaign_case(
        dataclasses.replace(
            Scenario.ocean(150.0, sea_state=5), platform_drift_mps=0.3
        ),
        trials=4, seed=63,
    ),
    "node/subclass": campaign_case(
        Scenario.river(200.0), trials=4, seed=64, node_factory=DimmedNode
    ),
    "receiver/subclass": campaign_case(
        Scenario.river(200.0), trials=4, seed=65,
        receiver_factory=ReceiverFactory(CentringReceiver),
    ),
    "trial/noise-free": single_trial_case(
        Scenario.river(100.0), 5, include_noise=False
    ),
    "trial/noise-free-ocean": single_trial_case(
        Scenario.ocean(80.0), 6, payload=b"\x00\xffVAB\x01",
        include_noise=False, si_suppression_db=None,
    ),
    "trial/defaults": single_trial_case(Scenario.river(250.0), 9),
    "trial/rake": single_trial_case(
        multipath(120.0, 0.25), 10,
        receiver=ReaderReceiver.for_scenario(
            multipath(120.0, 0.25), rake_taps=8
        ),
    ),
}


# ---------------------------------------------------------------------------
# golden (de)serialisation
# ---------------------------------------------------------------------------


def encode(result):
    return {
        field.name: (
            float.hex(value) if isinstance(value, float) else value
        )
        for field in dataclasses.fields(TrialResult)
        for value in [getattr(result, field.name)]
    }


def decode(record):
    return TrialResult(
        detected=record["detected"],
        frame_ok=record["frame_ok"],
        ber=float.fromhex(record["ber"]),
        snr_db=float.fromhex(record["snr_db"]),
        range_m=float.fromhex(record["range_m"]),
        incidence_deg=float.fromhex(record["incidence_deg"]),
        payload_bits=record["payload_bits"],
    )


def load_goldens():
    with GOLDENS.open() as fh:
        cases = json.load(fh)["cases"]
    return {name: [decode(r) for r in records] for name, records in cases.items()}


@pytest.fixture(scope="module")
def goldens():
    return load_goldens()


def assert_pinned(name, goldens):
    got = CASES[name]()
    want = goldens[name]
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert encode(g) == encode(w), f"{name} trial {index}"


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestBatchedMatchesPerTrial:
    @pytest.mark.parametrize(
        "case", ["river-100", "river-330", "ocean-100", "default"],
        ids=["river-100", "river-330", "ocean-100", "default"],
    )
    def test_named_scenarios(self, case, goldens):
        assert_pinned(f"scenario/{case}", goldens)

    @pytest.mark.parametrize("payload_bytes", [4, 8, 16])
    def test_payload_sizes(self, payload_bytes, goldens):
        assert_pinned(f"payload/{payload_bytes}", goldens)

    @pytest.mark.parametrize("si_suppression_db", [130.0, None])
    def test_si_suppression_settings(self, si_suppression_db, goldens):
        label = "none" if si_suppression_db is None else "130"
        assert_pinned(f"si/{label}", goldens)

    def test_sub_batches_are_bitwise_invariant(self):
        # The parallel runner may hand the kernel any contiguous trial
        # slice; splitting a point must not perturb a single bit.
        scenario = Scenario.river(250.0)
        campaign = TrialCampaign(trials_per_point=TRIALS, seed=2023)
        whole = campaign.run_trials(scenario, 0, 0, TRIALS)
        split = campaign.run_trials(scenario, 0, 0, 2) + campaign.run_trials(
            scenario, 0, 2, 5
        ) + campaign.run_trials(scenario, 0, 5, TRIALS)
        assert whole == split

    def test_full_campaign_matches(self, goldens):
        scenarios = sweep_range(Scenario.river(), FULL_CAMPAIGN_RANGES)
        result = run_campaign(
            scenarios, TrialCampaign(trials_per_point=4, seed=11)
        )
        assert result.points == [
            BERPoint.from_trials(goldens[f"campaign/point-{i}"])
            for i in range(len(scenarios))
        ]


class TestExtendedCoverage:
    @pytest.mark.parametrize(
        "name",
        [
            "orientation/60deg-330",
            "e16/plain",
            "e16/dfe-timing",
            "e16/rake",
            "ocean/drift",
            "node/subclass",
            "receiver/subclass",
            "trial/noise-free",
            "trial/noise-free-ocean",
            "trial/defaults",
            "trial/rake",
        ],
    )
    def test_pinned_results(self, name, goldens):
        assert_pinned(name, goldens)

    def test_every_case_is_pinned(self, goldens):
        assert set(goldens) == set(CASES)


class TestOnePipeline:
    @pytest.mark.parametrize(
        "receiver_overrides",
        [{}, {"rake_taps": 8}, {"equalizer_taps": 24, "timing_search": 4}],
        ids=["batched-demod", "rake", "dfe-timing"],
    )
    def test_batch_equals_trial_by_trial(self, receiver_overrides):
        # An N-trial batch scores exactly like N batches of one, both
        # through the batched demodulator and through per-row demod.
        scenario = multipath(200.0, 0.75)
        receiver = ReaderReceiver.for_scenario(scenario, **receiver_overrides)
        seeds = np.random.SeedSequence(7).spawn(4)
        payloads = [bytes([i, 2 * i, 3 * i, 255 - i]) for i in range(4)]
        batch = simulate_point_batch(
            scenario, payloads, [np.random.default_rng(s) for s in seeds],
            receiver=receiver,
        )
        singles = [
            simulate_trial(
                scenario, payload=payload, rng=np.random.default_rng(seed),
                receiver=receiver,
            )
            for payload, seed in zip(payloads, seeds)
        ]
        assert batch == singles


class TestNoiseStream:
    def test_each_trial_stream_makes_one_noise_request(self):
        # After its payload draw, a trial's generator is advanced by
        # exactly one standard_normal(2n): the shaped ambient x noise
        # figure and the residual-SI floor come from the same bins.
        scenario = Scenario.river(250.0)
        rngs = [np.random.default_rng((12, t)) for t in range(3)]
        refs = [np.random.default_rng((12, t)) for t in range(3)]
        payloads = [
            bytes(rng.integers(0, 256, size=8, dtype=np.uint8)) for rng in rngs
        ]
        for ref in refs:
            ref.integers(0, 256, size=8, dtype=np.uint8)
        simulate_point_batch(scenario, payloads, rngs)
        frame = build_frame(VanAttaNode().node_id, payloads[0])
        chips = IDLE_CHIPS_BEFORE + len(frame) + IDLE_CHIPS_AFTER
        n = chips * scenario.samples_per_chip
        for rng, ref in zip(rngs, refs):
            ref.standard_normal(2 * n)
            assert rng.bit_generator.state == ref.bit_generator.state


def run_traced(campaign, trials):
    """Run one point's trials; return (leaf span counts, metrics registry)."""
    registry = MetricsRegistry()
    tracer = SpanTracer()
    with use_registry(registry), collect_spans(tracer):
        campaign.run_trials(Scenario.river(100.0), 0, 0, trials)
    return tracer.leaf_totals()[1], registry


class TestEngineDispatch:
    """Dispatch follows the receive chain's capability, nothing else."""

    def test_stock_receivers_run_as_one_batch(self):
        counts, registry = run_traced(
            TrialCampaign(trials_per_point=TRIALS, seed=3), TRIALS
        )
        assert "trial" not in counts
        assert counts["batch"] == counts["demod"] == 1
        assert registry.counters["repro.phy.batch.batches"] == 1
        assert registry.gauges["repro.phy.batch.size"] == TRIALS

    def test_custom_receiver_factory_runs_batched_for_stock_receivers(self):
        counts, registry = run_traced(
            TrialCampaign(
                trials_per_point=TRIALS, seed=3,
                receiver_factory=ReceiverFactory(),
            ),
            TRIALS,
        )
        assert "trial" not in counts and counts["batch"] == 1
        assert registry.gauges["repro.phy.batch.size"] == TRIALS

    def test_unsupported_receiver_falls_back_under_auto(self):
        # Receivers the batched demodulator cannot run loop over
        # simulate_trial, one `trial` span each.
        counts, registry = run_traced(
            TrialCampaign(
                trials_per_point=2, seed=5,
                receiver_factory=ReceiverFactory(rake_taps=2),
            ),
            2,
        )
        assert counts["trial"] == 2 and "batch" not in counts
        assert "repro.phy.batch.batches" not in registry.counters
        assert registry.counters["repro.phy.receiver.demods"] == 2


def write_goldens(commit):
    """Run every case and pin its results under a ``commit`` label."""
    GOLDENS.parent.mkdir(exist_ok=True)
    payload = {
        "generated": {
            "commit": commit,
            "command": (
                "PYTHONPATH=src python "
                f"tests/test_sim_batched_parity.py --write {commit}"
            ),
        },
        "cases": {
            name: [encode(r) for r in case()] for name, case in CASES.items()
        },
    }
    GOLDENS.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: test_sim_batched_parity.py --write <commit>")
    write_goldens(sys.argv[2])
