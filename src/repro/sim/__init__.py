"""Deterministic discrete-event simulation engine.

A minimal, SimPy-flavoured engine written from scratch for this project.
Processes are Python generators that ``yield`` events; the engine resumes
them when the event triggers, passing the event's value back into the
generator (or throwing its exception).

The clock is a float in **seconds** and advances only through scheduled
events, so every run is exactly reproducible.
"""

from repro.sim.clock import BurstClock
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Condition, Event, Process, Timeout
from repro.sim.resources import Mailbox, PriorityStore, Resource, Store

__all__ = [
    "Simulator",
    "BurstClock",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
    "PriorityStore",
    "Mailbox",
    "SimulationError",
]
