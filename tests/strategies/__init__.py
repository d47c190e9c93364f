"""Hypothesis strategies and settings shared by the property tests.

Re-exports what the properties use::

    from strategies import DETERMINISM_SETTINGS, async_scenarios, build_schedule

Test modules import the package as ``strategies``: the suite has no
``tests/__init__.py``, so pytest puts ``tests/`` itself on ``sys.path``.
"""

from strategies.registry import AGENT_FIELDS, registry_ops
from strategies.runs import (
    AGENT_COUNTS,
    async_scenarios,
    build_schedule,
    dynamics_recipes,
)
from strategies.settings import DETERMINISM_SETTINGS, STANDARD_SETTINGS
from strategies.topology import EVENT_SEQUENCES, apply_event, make_agent

__all__ = [
    "AGENT_COUNTS",
    "AGENT_FIELDS",
    "DETERMINISM_SETTINGS",
    "EVENT_SEQUENCES",
    "STANDARD_SETTINGS",
    "apply_event",
    "async_scenarios",
    "build_schedule",
    "dynamics_recipes",
    "make_agent",
    "registry_ops",
]
