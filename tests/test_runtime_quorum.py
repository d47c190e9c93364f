"""Tests for the pluggable semi-sync quorum policies."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ComDMLConfig
from repro.core.scheduler import SchedulerStats
from repro.runtime.quorum import (
    AdaptiveQuorum,
    DeadlineQuorum,
    FixedFractionQuorum,
    QuorumDecision,
    make_quorum_policy,
    resolve_quorum,
)

DURATIONS = [10.0, 20.0, 30.0, 40.0]


def stats_with(*makespans: float) -> SchedulerStats:
    stats = SchedulerStats()
    for makespan in makespans:
        stats.record_makespan(makespan)
    return stats


class TestFixedFraction:
    def test_half_keeps_half(self):
        decision = FixedFractionQuorum(0.5).decide(DURATIONS, SchedulerStats())
        assert decision.target_count == 2
        assert decision.deadline_seconds is None
        assert resolve_quorum(decision, DURATIONS) == (2, 20.0)

    def test_always_keeps_at_least_one(self):
        decision = FixedFractionQuorum(0.1).decide([5.0], SchedulerStats())
        assert decision.target_count == 1

    def test_rejects_zero_fraction(self):
        with pytest.raises(ValueError):
            FixedFractionQuorum(0.0)


class TestDeadline:
    def test_falls_back_with_no_history(self):
        """Round 0 has no observed makespans — use the fixed fallback."""
        policy = DeadlineQuorum(1.5, fallback=FixedFractionQuorum(0.75))
        decision = policy.decide(DURATIONS, SchedulerStats())
        assert decision.deadline_seconds is None
        assert decision.target_count == 3

    def test_falls_back_with_zero_makespans(self):
        """Degenerate all-zero history must not produce a zero deadline."""
        policy = DeadlineQuorum(1.5, fallback=FixedFractionQuorum(0.5))
        decision = policy.decide(DURATIONS, stats_with(0.0, 0.0))
        assert decision.deadline_seconds is None
        assert decision.target_count == 2

    def test_deadline_is_factor_times_mean(self):
        policy = DeadlineQuorum(1.5)
        decision = policy.decide(DURATIONS, stats_with(10.0, 30.0))
        assert decision.deadline_seconds == pytest.approx(30.0)
        assert decision.target_count == len(DURATIONS)

    def test_resolve_closes_at_deadline(self):
        decision = QuorumDecision(target_count=4, deadline_seconds=25.0)
        kept, close = resolve_quorum(decision, DURATIONS)
        assert kept == 2
        assert close == pytest.approx(25.0)

    def test_all_stragglers_round_keeps_the_fastest(self):
        """If even the fastest unit misses the deadline, keep it anyway."""
        decision = QuorumDecision(target_count=4, deadline_seconds=5.0)
        kept, close = resolve_quorum(decision, DURATIONS)
        assert kept == 1
        assert close == pytest.approx(10.0)

    def test_everyone_on_time_closes_at_last_completion(self):
        decision = QuorumDecision(target_count=4, deadline_seconds=100.0)
        kept, close = resolve_quorum(decision, DURATIONS)
        assert kept == 4
        assert close == pytest.approx(40.0)


class TestAdaptive:
    def test_full_barrier_without_history(self):
        policy = AdaptiveQuorum(floor_fraction=0.5)
        decision = policy.decide(DURATIONS, SchedulerStats())
        assert decision.target_count == len(DURATIONS)

    def test_tightens_to_floor_when_makespans_stable(self):
        policy = AdaptiveQuorum(floor_fraction=0.5)
        stable = stats_with(20.0, 20.0, 20.0, 20.0)
        assert stable.makespan_cv == pytest.approx(0.0)
        decision = policy.decide(DURATIONS, stable)
        assert decision.target_count == 2

    def test_stays_loose_when_makespans_noisy(self):
        policy = AdaptiveQuorum(floor_fraction=0.5, stability_cv=0.5)
        noisy = stats_with(1.0, 100.0, 1.0, 100.0)
        assert noisy.makespan_cv >= 0.5
        decision = policy.decide(DURATIONS, noisy)
        assert decision.target_count == len(DURATIONS)

    def test_zero_mean_history_counts_as_stable(self):
        """All-zero makespans give cv = 0 — the policy tightens to the floor."""
        policy = AdaptiveQuorum(floor_fraction=0.5)
        decision = policy.decide(DURATIONS, stats_with(0.0, 0.0, 0.0))
        assert decision.target_count == 2

    def test_fraction_interpolates_between_floor_and_start(self):
        policy = AdaptiveQuorum(floor_fraction=0.4, start_fraction=1.0)
        mildly_noisy = stats_with(10.0, 14.0, 10.0, 14.0)
        fraction = policy.current_fraction(mildly_noisy)
        assert 0.4 < fraction < 1.0

    def test_rejects_start_below_floor(self):
        with pytest.raises(ValueError):
            AdaptiveQuorum(floor_fraction=0.8, start_fraction=0.5)


class TestMakespanStatistics:
    def test_identical_makespans_have_zero_dispersion(self):
        """``E[x²] - mean²`` left a CV of 1.6e-8 here, and one unit too many."""
        stats = stats_with(*[486.44176886624984] * 6)
        assert stats.makespan_variance == 0.0
        assert stats.makespan_cv == 0.0
        durations = [float(duration) for duration in range(1, 11)]
        assert AdaptiveQuorum(0.6).decide(durations, stats).target_count == 6

    @given(
        makespan=st.floats(min_value=1e-3, max_value=1e7),
        count=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_repeated_makespan_has_zero_variance(self, makespan, count):
        stats = stats_with(*[makespan] * count)
        assert stats.makespan_variance == 0.0
        assert stats.average_makespan == pytest.approx(makespan)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40)
    )
    @settings(max_examples=200, deadline=None)
    def test_variance_matches_the_two_pass_formula(self, makespans):
        stats = stats_with(*makespans)
        assert stats.makespan_variance == pytest.approx(
            statistics.pvariance(makespans), rel=1e-9, abs=1e-6
        )
        assert stats.average_makespan == sum(makespans) / len(makespans)


class TestResolveEdges:
    def test_empty_round(self):
        assert resolve_quorum(QuorumDecision(3), []) == (0, 0.0)

    def test_target_clamped_to_population(self):
        kept, close = resolve_quorum(QuorumDecision(99), DURATIONS)
        assert kept == 4
        assert close == pytest.approx(40.0)

    def test_target_clamped_to_at_least_one(self):
        kept, close = resolve_quorum(QuorumDecision(0), DURATIONS)
        assert kept == 1
        assert close == pytest.approx(10.0)


class TestConfigWiring:
    def test_make_policy_dispatch(self):
        assert isinstance(
            make_quorum_policy(ComDMLConfig(quorum_policy="fixed")),
            FixedFractionQuorum,
        )
        assert isinstance(
            make_quorum_policy(ComDMLConfig(quorum_policy="deadline")),
            DeadlineQuorum,
        )
        assert isinstance(
            make_quorum_policy(ComDMLConfig(quorum_policy="adaptive")),
            AdaptiveQuorum,
        )

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ComDMLConfig(quorum_policy="vibes")

    def test_config_rejects_nonpositive_deadline_factor(self):
        with pytest.raises(ValueError):
            ComDMLConfig(quorum_deadline_factor=0.0)

    def test_adaptive_floor_comes_from_quorum_fraction(self):
        policy = make_quorum_policy(
            ComDMLConfig(quorum_policy="adaptive", quorum_fraction=0.4)
        )
        assert policy.floor_fraction == pytest.approx(0.4)


class TestPoliciesEndToEnd:
    def make_trainer(self, small_registry, **config_kwargs):
        from repro.core.comdml import ComDML
        from repro.models.resnet import resnet56_spec

        defaults = dict(
            max_rounds=3,
            offload_granularity=9,
            execution_mode="semi-sync",
            seed=3,
        )
        defaults.update(config_kwargs)
        return ComDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(**defaults),
        )

    def test_deadline_policy_round_zero_falls_back(self, small_registry):
        trainer = self.make_trainer(
            small_registry, quorum_policy="deadline", quorum_fraction=0.5
        )
        trainer.run_round(0)
        quorum = trainer.trace.of_kind("quorum_reached")[0]
        assert quorum.detail["policy"] == "deadline"
        # No makespan history yet: the fixed 0.5 fallback decided the round.
        assert quorum.detail["kept"] >= 1

    def test_tiny_deadline_forces_all_stragglers_round(self, small_registry):
        """A deadline below every unit duration keeps exactly one unit."""
        trainer = self.make_trainer(
            small_registry,
            quorum_policy="deadline",
            quorum_deadline_factor=0.01,
            quorum_fraction=1.0,
        )
        trainer.run_round(0)  # fallback round records a makespan
        trainer.run_round(1)  # deadline = 0.01 × mean << fastest unit
        quorum = trainer.trace.of_kind("quorum_reached")[1]
        assert quorum.detail["kept"] == 1

    def test_adaptive_policy_tightens_over_stable_rounds(self, small_registry):
        trainer = self.make_trainer(
            small_registry, quorum_policy="adaptive", quorum_fraction=0.5, max_rounds=5
        )
        trainer.run()
        quorums = trainer.trace.of_kind("quorum_reached")
        # Rounds 0/1 have < 2 observed makespans: full barrier, nothing kept back.
        assert quorums[0].detail["dropped"] == 0
        assert quorums[1].detail["dropped"] == 0
        # Identical plans give identical makespans, so cv -> 0 and the
        # policy reaches its floor: later rounds drop stragglers.
        assert any(q.detail["dropped"] > 0 for q in quorums[2:])

    def test_runtime_records_observed_makespans(self, small_registry):
        trainer = self.make_trainer(small_registry, quorum_policy="fixed")
        trainer.run()
        assert trainer.runtime.stats.makespan_count == 3
        assert trainer.runtime.stats.average_makespan > 0
