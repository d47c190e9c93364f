"""Experiment reproductions: one module per table/figure of the paper.

All harnesses execute on the shared campaign engine
(:mod:`repro.experiments.campaign`): a declarative
:class:`~repro.experiments.campaign.CampaignSpec` per grid, run by the
parallel, cached, resumable
:class:`~repro.experiments.campaign.CampaignExecutor`.
"""

from repro.experiments.campaign import (
    CampaignCache,
    CampaignExecutor,
    CampaignResult,
    CampaignSpec,
    execute_campaign,
    resolve_cache_dir,
)
from repro.experiments.fingerprint import runner_fingerprint
from repro.experiments.scenarios import ScenarioConfig, Scenario, build_scenario
from repro.experiments.runner import ExperimentRunner, METHOD_REGISTRY
from repro.experiments.reporting import (
    CampaignProgressRenderer,
    aggregate_planner_reports,
    campaign_summary,
    execution_report,
    format_campaign_summary,
    format_table,
    payload_digest,
    speedup_over_baselines,
)
from repro.experiments.table1 import run_table1, TABLE1_OFFLOAD_OPTIONS
from repro.experiments.table2 import run_table2, TABLE2_TARGETS
from repro.experiments.table3 import run_table3
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig3 import run_fig3
from repro.experiments.privacy import run_privacy_comparison

__all__ = [
    "CampaignCache",
    "CampaignExecutor",
    "CampaignProgressRenderer",
    "CampaignResult",
    "CampaignSpec",
    "execute_campaign",
    "execution_report",
    "aggregate_planner_reports",
    "payload_digest",
    "resolve_cache_dir",
    "runner_fingerprint",
    "campaign_summary",
    "format_campaign_summary",
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "ExperimentRunner",
    "METHOD_REGISTRY",
    "format_table",
    "speedup_over_baselines",
    "run_table1",
    "TABLE1_OFFLOAD_OPTIONS",
    "run_table2",
    "TABLE2_TARGETS",
    "run_table3",
    "run_fig1",
    "run_fig3",
    "run_privacy_comparison",
]
