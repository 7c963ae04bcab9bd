"""Parallel campaign engine: determinism and caching.

The contract under test is strong: the process-pool runner must be
*bit-identical* to the serial loop — same seeds, same float reduction
order — and the memoization layers must be pure speed, invisible in the
numbers they return.
"""

import numpy as np
import pytest

from repro.acoustics.noise import NoiseConditions, total_noise_psd_db
from repro.core import Scenario
from repro.dsp import noisegen
from repro.obs import MetricsRegistry, SpanTracer
from repro.phy.receiver import ReaderReceiver
from repro.sim import cache
from repro.sim.parallel import run_campaign_parallel
from repro.sim.results import BERPoint
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign, run_campaign
from repro.vanatta.node import VanAttaNode


RANGES = [50.0, 330.0]


def rake_receiver(scenario):
    return ReaderReceiver.for_scenario(scenario, rake_taps=2)


class TestParallelDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=8, seed=2023)
        serial = run_campaign(scenarios, campaign, label="det")
        parallel = run_campaign_parallel(
            scenarios, campaign, label="det", workers=4
        )
        # Not "close" — identical. Same spawned seeds, same trial order,
        # same reduction order in BERPoint.from_trials.
        assert parallel.points == serial.points

    def test_workers_one_matches_serial_runner(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=4, seed=7)
        serial = run_campaign(scenarios, campaign)
        inproc = run_campaign_parallel(scenarios, campaign, workers=1)
        assert inproc.points == serial.points

    def test_non_picklable_campaign_falls_back_to_serial(self):
        scenarios = sweep_range(Scenario.river(), [50.0])
        campaign = TrialCampaign(
            trials_per_point=3, seed=5, node_factory=lambda: VanAttaNode()
        )
        serial = run_campaign(scenarios, campaign)
        fallback = run_campaign_parallel(scenarios, campaign, workers=4)
        assert fallback.points == serial.points

    def test_sliced_trials_reassemble_to_the_full_point(self):
        scenario = Scenario.river().at_range(150.0)
        campaign = TrialCampaign(trials_per_point=6, seed=11)
        whole = campaign.run_point(scenario, point_index=0)
        parts = campaign.run_trials(scenario, 0, 0, 2) + campaign.run_trials(
            scenario, 0, 2, None
        )
        assert BERPoint.from_trials(parts) == whole

    def test_stage_timings_cover_the_engine_stages(self):
        scenarios = sweep_range(Scenario.river(), [50.0])
        tracer = SpanTracer()
        run_campaign_parallel(
            scenarios, TrialCampaign(trials_per_point=2, seed=1),
            workers=1, tracer=tracer,
        )
        totals, counts = tracer.leaf_totals()
        # Stages run once per point batch, not per trial.
        for stage in ("batch", "channel", "reflect", "noise", "demod"):
            assert counts[stage] >= 1
            assert totals[stage] >= 0.0

    def test_telemetry_does_not_perturb_results(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=6, seed=2023)
        bare = run_campaign(scenarios, campaign, label="obs")
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        observed = run_campaign_parallel(
            scenarios, campaign, label="obs", workers=4,
            tracer=tracer, metrics=metrics,
        )
        # Full telemetry on, fanned out over 4 workers: still identical.
        assert observed.points == bare.points

    def test_worker_merged_spans_match_serial_counts(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=6, seed=17)
        serial_tracer = SpanTracer()
        run_campaign_parallel(
            scenarios, campaign, workers=1, tracer=serial_tracer
        )
        parallel_tracer = SpanTracer()
        run_campaign_parallel(
            scenarios, campaign, workers=4, tracer=parallel_tracer
        )
        # Wall-clocks differ across processes, but the counts — how many
        # times each stage ran — must agree leaf-for-leaf. (The serial
        # path has a `point` root span the point-shard workers don't;
        # every shared stage below it must match exactly.)
        _, serial_counts = serial_tracer.leaf_totals()
        _, parallel_counts = parallel_tracer.leaf_totals()
        for stage in ("batch", "channel", "reflect", "noise", "demod"):
            assert parallel_counts[stage] == serial_counts[stage]
        # Batched engine: one batch span per point, stages per batch.
        assert serial_counts["batch"] == 2
        assert serial_counts["demod"] == 2

    def test_per_trial_engine_still_emits_trial_spans(self):
        # Receivers the batched demodulator cannot run (here: rake)
        # run trial by trial, one `trial` span each.
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(
            trials_per_point=6, seed=17, receiver_factory=rake_receiver
        )
        tracer = SpanTracer()
        run_campaign_parallel(scenarios, campaign, workers=1, tracer=tracer)
        _, counts = tracer.leaf_totals()
        assert counts["trial"] == 2 * 6
        assert "batch" not in counts

    def test_parallel_metrics_match_serial_totals(self):
        cache.clear_channel_cache()
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=4, seed=3)
        serial_metrics = MetricsRegistry()
        run_campaign_parallel(
            scenarios, campaign, workers=1, metrics=serial_metrics
        )
        parallel_metrics = MetricsRegistry()
        run_campaign_parallel(
            scenarios, campaign, workers=2, metrics=parallel_metrics
        )
        name = "repro.phy.receiver.demods"
        assert serial_metrics.counters[name] >= 8
        assert parallel_metrics.counters[name] == serial_metrics.counters[name]
        assert parallel_metrics.counters["repro.sim.parallel.chunks"] >= 2
        assert parallel_metrics.gauges["repro.sim.parallel.workers"] == 2


class TestChannelCache:
    def test_cached_taps_equal_fresh_computation(self):
        scenario = Scenario.river().at_range(250.0)
        cache.clear_channel_cache()
        cached = cache.reader_node_response(scenario)
        fresh = scenario.channel().between(
            scenario.reader.position, scenario.node.position
        )
        assert len(cached.paths) == len(fresh.paths)
        for a, b in zip(cached.paths, fresh.paths):
            assert a.delay_s == b.delay_s
            assert a.gain == b.gain
            assert a.surface_bounces == b.surface_bounces

    def test_second_lookup_is_a_hit_returning_the_same_object(self):
        scenario = Scenario.river().at_range(250.0)
        cache.clear_channel_cache()
        first = cache.reader_node_response(scenario)
        hits0, misses0, entries0, _ = cache.channel_cache_info()
        # An equal-by-value but distinct scenario object shares the entry.
        again = cache.reader_node_response(Scenario.river().at_range(250.0))
        hits1, misses1, entries1, _ = cache.channel_cache_info()
        assert again is first
        assert (hits1, misses1, entries1) == (hits0 + 1, misses0, entries0)

    def test_clear_invalidates(self):
        scenario = Scenario.river().at_range(120.0)
        cache.clear_channel_cache()
        first = cache.reader_node_response(scenario)
        cache.clear_channel_cache()
        assert cache.channel_cache_info()[:3] == (0, 0, 0)
        retraced = cache.reader_node_response(scenario)
        assert retraced is not first

    def test_disabled_cache_bypasses_storage(self):
        # Tracing through AcousticChannel.between directly (no cache
        # in the call path) leaves the cache storage untouched.
        scenario = Scenario.river().at_range(90.0)
        cache.clear_channel_cache()
        scenario.channel().between(
            scenario.reader.position, scenario.node.position
        )
        assert cache.channel_cache_info()[:3] == (0, 0, 0)


class TestNoiseShapingCache:
    def test_vectorized_psd_matches_scalar_wenz(self):
        conditions = NoiseConditions()
        freqs = np.linspace(100.0, 40_000.0, 257)
        vectorized = conditions.psd_db_array(freqs)
        pointwise = np.array([total_noise_psd_db(f, conditions) for f in freqs])
        np.testing.assert_allclose(vectorized, pointwise, rtol=1e-12)

    def test_cached_noise_bitwise_matches_pointwise_path(self):
        conditions = NoiseConditions()
        n, fs, carrier = 4096, 192_000.0, 18_500.0
        noisegen.clear_noise_cache()
        cached = noisegen.colored_noise(
            n, fs, conditions.psd_db, carrier, np.random.default_rng(3)
        )

        def scalar_only_psd_db(frequency_hz):
            # Rejects arrays, so a fresh shaping filter is built through
            # the per-frequency Python fallback.
            return total_noise_psd_db(float(frequency_hz), conditions)

        pointwise = noisegen.colored_noise(
            n, fs, scalar_only_psd_db, carrier, np.random.default_rng(3)
        )
        np.testing.assert_allclose(cached, pointwise, rtol=1e-10)

    def test_shaping_filter_is_reused_across_equal_conditions(self):
        noisegen.clear_noise_cache()
        rng = np.random.default_rng(0)
        noisegen.colored_noise(2048, 192_000.0, NoiseConditions().psd_db, 18_500.0, rng)
        entries_after_first, _ = noisegen.noise_cache_info()
        noisegen.colored_noise(2048, 192_000.0, NoiseConditions().psd_db, 18_500.0, rng)
        entries_after_second, _ = noisegen.noise_cache_info()
        assert entries_after_first == entries_after_second == 1
