"""Queued block device model."""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from repro.obs.api import NULL_OBS, Observability
from repro.obs.tracer import NULL_SPAN
from repro.sim import Resource, Simulator
from repro.sim.errors import SimulationError
from repro.sim.events import _PENDING, Event
from repro.storage.params import DeviceParams


@dataclass
class DeviceStats:
    """Cumulative I/O accounting for one device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0

    def snapshot(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "busy_time": self.busy_time,
        }


class BlockDevice:
    """A block device with NCQ-style parallelism and a shared data pipe.

    Each request passes two stages:

    1. an **access-latency** stage (flash lookup / command handling) that
       up to ``params.parallelism`` requests overlap — this is what lets
       a deep queue hide per-request latency (NCQ / NVMe queues);
    2. a **bandwidth** stage: the device's internal data path is one
       shared pipe, so concurrent requests cannot exceed the rated
       sequential bandwidth no matter the queue depth. A transfer holds
       the pipe one ``pipe_quantum`` at a time.

    Both stages are FIFO queues. The latency is read from ``params``
    when the slot is granted, the bandwidth, alignment and quantum when
    the latency ends, so swapping ``params`` mid-run (an
    ``ssd_slowdown`` fault) reaches only what is read after the swap.

    ``read``/``write`` return the I/O's completion event (a
    :class:`DeviceIO`); callers ``yield`` it for synchronous semantics
    or keep it for asynchronous completion. No process runs an I/O: it
    is a chain of callbacks, one per timer — the latency, each pipe
    chunk — and a free slot or pipe is claimed inline
    (:meth:`~repro.sim.Resource.claim`); only a queued claim waits for
    its grant's lane hop. The completion is no event of its own: the
    last chunk's end runs the waiter.
    """

    def __init__(self, sim: Simulator, params: DeviceParams, name: str | None = None,
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.params = params
        self.name = name or params.name
        self._slots = Resource(sim, capacity=params.parallelism)
        self._pipe = Resource(sim, capacity=1)
        self.stats = DeviceStats()
        # live metrics (no-ops when observability is disabled)
        self.obs = obs or NULL_OBS
        reg = self.obs.registry
        labels = dict(device=self.name)
        self._metrics_on = reg.enabled
        self._m_reads = reg.counter("device_reads", **labels)
        self._m_writes = reg.counter("device_writes", **labels)
        self._m_bytes_read = reg.counter("device_bytes_read", **labels)
        self._m_bytes_written = reg.counter("device_bytes_written", **labels)
        self._m_busy = reg.counter("device_busy_seconds", **labels)
        self._m_lat = reg.histogram("device_io_seconds", **labels)
        reg.gauge("device_queue_depth",
                  fn=lambda: self.in_service + self.queue_length, **labels)

    def reset_metrics(self) -> None:
        """Zero the run-scoped I/O counters (device state is untouched)."""
        self.stats = DeviceStats()

    def read(self, nbytes: int, trace=None) -> "DeviceIO":
        return DeviceIO(self, nbytes, False, trace)

    def write(self, nbytes: int, trace=None) -> "DeviceIO":
        return DeviceIO(self, nbytes, True, trace)

    def _account(self, io: "DeviceIO") -> None:
        """Count a finished I/O (its ``latency`` and ``xfer`` are the
        device time it used)."""
        busy = io.latency + io.xfer
        stats = self.stats
        stats.busy_time += busy
        nbytes = io.nbytes
        if io.write:
            stats.writes += 1
            stats.bytes_written += nbytes
        else:
            stats.reads += 1
            stats.bytes_read += nbytes
        if not self._metrics_on:
            return
        self._m_busy.inc(busy)
        if io.write:
            self._m_writes.inc()
            self._m_bytes_written.inc(nbytes)
        else:
            self._m_reads.inc()
            self._m_bytes_read.inc(nbytes)
        self._m_lat.observe(self.sim._now - io.t_start)

    @property
    def queue_length(self) -> int:
        return self._slots.queue_length

    @property
    def in_service(self) -> int:
        return self._slots.in_use


class DeviceIO(Event):
    """One I/O on a :class:`BlockDevice`, and the event of its
    completion (as a process is the event of its termination).

    Each stage's callback starts the next: the slot grant posts the
    latency timer; its end claims the pipe for the first chunk; each
    chunk's end releases the pipe and claims it for the next; the last
    releases the pipe, then frees the slot, and hands the completion to
    its waiter on the spot, as ``Mailbox.put`` does to a parked getter.
    """

    __slots__ = ("device", "nbytes", "write", "trace", "span", "t_start",
                 "slot", "pipe", "latency", "bandwidth", "remaining",
                 "xfer", "quantum", "chunk")

    def __init__(self, device: BlockDevice, nbytes: int, write: bool,
                 trace=None):
        # Flattened Event.__init__, as for a resource Request.
        sim = device.sim
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.device = device
        self.nbytes = nbytes
        self.write = write
        self.trace = trace
        self.t_start = sim._now
        if nbytes < 0:
            self.fail(SimulationError(f"negative I/O size {nbytes}"))
            return
        # Async span: up to ``parallelism`` I/Os overlap on one device.
        tracer = device.obs.tracer
        if tracer.enabled:
            if trace is not None:
                self.span = tracer.begin("write" if write else "read",
                                         tid=device.name, pid="storage",
                                         cat="io", async_=True, bytes=nbytes,
                                         trace_id=trace)
            else:
                self.span = tracer.begin("write" if write else "read",
                                         tid=device.name, pid="storage",
                                         cat="io", async_=True, bytes=nbytes)
        else:
            self.span = NULL_SPAN
        slot = self.slot = device._slots.claim()
        if slot.callbacks is None:
            self._slot_granted(slot)
        else:
            slot.callbacks.append(self._slot_granted)

    def _slot_granted(self, _slot) -> None:
        params = self.device.params
        self.latency = (params.write_latency if self.write
                        else params.read_latency)
        self.sim.timeout(self.latency).callbacks.append(self._latency_end)

    def _latency_end(self, _timer) -> None:
        params = self.device.params
        self.bandwidth = (params.write_bandwidth if self.write
                          else params.read_bandwidth)
        self.remaining = params.aligned(self.nbytes)
        self.xfer = self.remaining / self.bandwidth
        self.quantum = max(params.pipe_quantum, params.sector)
        self._next_chunk()

    def _next_chunk(self) -> None:
        if self.remaining <= 0:
            self._complete()
            return
        pipe = self.pipe = self.device._pipe.claim()
        if pipe.callbacks is None:
            self._pipe_granted(pipe)
        else:
            pipe.callbacks.append(self._pipe_granted)

    def _pipe_granted(self, _pipe) -> None:
        self.chunk = min(self.remaining, self.quantum)
        self.sim.timeout(self.chunk / self.bandwidth).callbacks.append(
            self._chunk_end)

    def _chunk_end(self, _timer) -> None:
        self.device._pipe.release(self.pipe)
        self.remaining -= self.chunk
        self._next_chunk()

    def _complete(self) -> None:
        device = self.device
        device._account(self)
        device._slots.release(self.slot)
        self.span.end()
        trace = self.trace
        if trace is not None:
            prof = device.obs.profiler
            if prof.enabled:
                prof.record(trace, "ssd.io", self.t_start, self.sim.now)
        # The last chunk's end is the completion: its waiter runs inside it.
        (self._hand_off if self.callbacks else self.succeed)(None)
