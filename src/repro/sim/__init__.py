"""Discrete-event simulation substrate.

The timing plane of the reproduction: a deterministic virtual clock
(:class:`~repro.sim.clock.SimClock`), an event queue and engine
(:mod:`repro.sim.engine`), and cost-model primitives
(:mod:`repro.sim.costs`) used to convert work (FLOPs, bytes) into simulated
seconds given an agent's resources.
"""

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue
from repro.sim.engine import SimulationEngine
from repro.sim.costs import transfer_time_seconds

__all__ = [
    "SimClock",
    "Event",
    "EventQueue",
    "SimulationEngine",
    "transfer_time_seconds",
]
