"""Tests for the stateful pairing scheduler."""

import numpy as np
import pytest

from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.core.scheduler import DecentralizedPairingScheduler, SchedulerStats


def make_scheduler(small_registry, small_link_model, resnet56_profile, **kwargs):
    return DecentralizedPairingScheduler(
        registry=small_registry,
        link_model=small_link_model,
        profile=resnet56_profile,
        rng=np.random.default_rng(0),
        **kwargs,
    )


class TestScheduler:
    def test_plan_round_returns_decisions_for_everyone(
        self, small_registry, small_link_model, resnet56_profile
    ):
        scheduler = make_scheduler(small_registry, small_link_model, resnet56_profile)
        decisions = scheduler.plan_round()
        involved = set()
        for decision in decisions:
            involved.add(decision.slow_id)
            if decision.fast_id is not None:
                involved.add(decision.fast_id)
        assert involved == set(small_registry.ids)

    def test_stats_memory_is_constant(self, small_registry, resnet56):
        """The runtime folds makespans into a running mean, not a list."""
        trainer = ComDML(
            small_registry,
            resnet56,
            ComDMLConfig(max_rounds=5, target_accuracy=None, offload_granularity=9),
        )
        trainer.run()
        stats = trainer.runtime.stats
        assert isinstance(stats, SchedulerStats)
        assert not any(isinstance(value, list) for value in vars(stats).values())
        assert stats.makespan_count == 5
        assert stats.makespan_sum == pytest.approx(stats.average_makespan * 5)

    def test_participation_sampling(self, small_registry, small_link_model, resnet56_profile):
        scheduler = make_scheduler(
            small_registry, small_link_model, resnet56_profile, participation_fraction=0.5
        )
        participants = scheduler.select_participants()
        assert len(participants) == 3

    def test_full_participation_returns_all(self, small_registry, small_link_model, resnet56_profile):
        scheduler = make_scheduler(small_registry, small_link_model, resnet56_profile)
        assert len(scheduler.select_participants()) == len(small_registry)

    def test_invalid_participation_rejected(self, small_registry, small_link_model, resnet56_profile):
        with pytest.raises(ValueError):
            make_scheduler(
                small_registry,
                small_link_model,
                resnet56_profile,
                participation_fraction=1.2,
            )

    def test_explicit_participants_used(self, small_registry, small_link_model, resnet56_profile):
        scheduler = make_scheduler(small_registry, small_link_model, resnet56_profile)
        subset = small_registry.agents[:3]
        decisions = scheduler.plan_round(subset)
        involved = {d.slow_id for d in decisions} | {
            d.fast_id for d in decisions if d.fast_id is not None
        }
        assert involved <= {agent.agent_id for agent in subset}
