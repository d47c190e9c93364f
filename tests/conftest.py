"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.core.profiling import profile_architecture
from repro.models.resnet import resnet56_spec
from repro.models.spec import ArchitectureSpec, LayerCost
from repro.network.link import LinkModel
from repro.network.topology import full_topology


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end tests (deselect with -m 'not slow')"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_spec() -> ArchitectureSpec:
    """A small 4-layer architecture for fast unit tests."""
    layers = (
        LayerCost("l1", forward_flops=1_000.0, parameter_count=100, output_elements=64),
        LayerCost("l2", forward_flops=2_000.0, parameter_count=200, output_elements=32),
        LayerCost("l3", forward_flops=2_000.0, parameter_count=200, output_elements=32),
        LayerCost("l4", forward_flops=1_000.0, parameter_count=100, output_elements=16),
    )
    return ArchitectureSpec(
        name="tiny",
        layers=layers,
        input_elements=128,
        num_classes=10,
        head_flops=100.0,
        head_parameter_count=170,
    )


@pytest.fixture
def resnet56():
    """The full ResNet-56 cost descriptor."""
    return resnet56_spec()


@pytest.fixture
def resnet56_profile(resnet56):
    """Split profile of ResNet-56 with a coarse granularity (fast tests)."""
    return profile_architecture(resnet56, granularity=9)


@pytest.fixture
def two_agents() -> tuple[Agent, Agent]:
    """A slow (0.5 CPU) and a fast (2 CPU) agent with 50 Mbps links."""
    slow = Agent(
        agent_id=0,
        profile=ResourceProfile(cpu_share=0.5, bandwidth_mbps=50.0),
        num_samples=1_000,
        batch_size=100,
    )
    fast = Agent(
        agent_id=1,
        profile=ResourceProfile(cpu_share=2.0, bandwidth_mbps=50.0),
        num_samples=1_000,
        batch_size=100,
    )
    return slow, fast


@pytest.fixture
def small_registry(rng) -> AgentRegistry:
    """Six-agent heterogeneous population."""
    profiles = [
        ResourceProfile(4.0, 100.0),
        ResourceProfile(2.0, 50.0),
        ResourceProfile(1.0, 50.0),
        ResourceProfile(1.0, 20.0),
        ResourceProfile(0.5, 20.0),
        ResourceProfile(0.2, 10.0),
    ]
    return AgentRegistry.build(
        num_agents=6,
        rng=rng,
        samples_per_agent=600,
        batch_size=100,
        profiles=profiles,
    )


@pytest.fixture
def small_link_model(small_registry) -> LinkModel:
    """Fully connected link model over the six-agent population."""
    return LinkModel(full_topology(small_registry.ids))
