"""Hypothesis strategies and settings shared by the property tests.

Re-exports what the properties use::

    from strategies import DETERMINISM_SETTINGS, async_scenarios, build_schedule

Test modules import the package as ``strategies``: the suite has no
``tests/__init__.py``, so pytest puts ``tests/`` itself on ``sys.path``.
"""

from strategies.registry import registry_ops
from strategies.runs import (
    AGENT_COUNTS,
    async_scenarios,
    build_schedule,
    dynamics_recipes,
)
from strategies.settings import DETERMINISM_SETTINGS, STANDARD_SETTINGS

__all__ = [
    "AGENT_COUNTS",
    "DETERMINISM_SETTINGS",
    "STANDARD_SETTINGS",
    "async_scenarios",
    "build_schedule",
    "dynamics_recipes",
    "registry_ops",
]
