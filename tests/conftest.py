import pytest

from repro.sim.events import Process


@pytest.fixture
def spawned(monkeypatch):
    """Every simulator process created while the test runs."""
    made = []
    init = Process.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Process, "__init__", spy)
    return made
