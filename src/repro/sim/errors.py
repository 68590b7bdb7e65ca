"""Exception types raised by the simulation engine."""


class SimulationError(RuntimeError):
    """Misuse of the engine (triggering twice, yielding a non-event, ...)."""

