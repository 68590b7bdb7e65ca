"""RDMA verbs model: queue pairs, completion queues, one-sided operations.

Semantics follow reliable-connected (RC) InfiniBand verbs as used by
RDMA-Memcached:

* ``post_send``/``post_recv`` — two-sided channel semantics. The receiver
  must have a posted receive; delivery produces a receive completion and
  charges the receiver's per-message CPU when the application polls it.
* ``rdma_write`` — one-sided: bytes land in remote memory with **zero**
  remote CPU involvement. The remote application discovers the data by
  polling memory; we model that with an optional ``on_remote`` callback
  invoked at delivery time (cost-free for the remote CPU, as in the real
  design where the server polls a flag byte).
* ``rdma_read`` — one-sided round trip: a small request travels to the
  responder, whose HCA DMAs the data back without CPU involvement.

Work completions are delivered to :class:`CompletionQueue` objects that
the application polls (``poll``) or blocks on (``wait``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Deque, Optional

from repro.net.fabric import Message, NIC
from repro.obs.api import NULL_OBS, Observability
from repro.sim import Event, Simulator
from repro.sim.errors import SimulationError

#: Size of a send/read request header on the wire (bytes).
HEADER_BYTES = 64


@dataclass
class WorkCompletion:
    """Entry pulled from a completion queue."""

    wr_id: Any
    opcode: str  # "send" | "recv" | "rdma_write" | "rdma_read"
    nbytes: int
    payload: Any = None
    status: str = "ok"
    #: Sim time the completion entered its CQ (set by ``push``); the CQ
    #: wait-time histogram is measured push-to-poll.
    pushed_at: float = 0.0


#: Deterministic CQ naming for metric labels (per-process creation order).
_cq_ids = count()


class CompletionQueue:
    """FIFO of work completions; pollable by the application.

    Implemented directly on two deques (ready completions, parked
    pollers) rather than a :class:`~repro.sim.Store`: CQ traffic is one
    push+poll per verb, and the store's per-put event was a third of the
    polling hot path.
    """

    def __init__(self, sim: Simulator, name: Optional[str] = None,
                 obs: Optional[Observability] = None):
        self.sim = sim
        self._completions: Deque[WorkCompletion] = deque()
        self._waiters: Deque[Event] = deque()
        self.name = name or f"cq{next(_cq_ids)}"
        self.obs = obs or NULL_OBS
        reg = self.obs.registry
        self._m_wait = reg.histogram("cq_wait_seconds", cq=self.name)
        reg.gauge("cq_backlog", fn=lambda: len(self._completions), cq=self.name)

    def push(self, wc: WorkCompletion) -> None:
        wc.pushed_at = self.sim.now
        waiters = self._waiters
        if waiters:
            # A poller is already parked: its measured wait is
            # push-to-poll, which is zero by definition here.
            if self.obs.registry.enabled:
                self._m_wait.observe(0.0)
            # A poller is a request: always queued, like wait()'s
            # already-satisfied branch below.
            waiters.popleft()._trigger(True, wc)
        else:
            self._completions.append(wc)

    def wait(self):
        """Event yielding the next completion (blocks the poller)."""
        ev = Event(self.sim)
        completions = self._completions
        if completions:
            wc = completions.popleft()
            if self.obs.registry.enabled:
                self._m_wait.observe(self.sim.now - wc.pushed_at)
            ev._ok = True
            ev._value = wc
            self.sim._schedule_now(ev)
        else:
            self._waiters.append(ev)
        return ev

    def try_poll(self) -> Optional[WorkCompletion]:
        """Non-blocking poll; None when the CQ is empty."""
        if self._completions:
            wc = self._completions.popleft()
            self._m_wait.observe(self.sim.now - wc.pushed_at)
            return wc
        return None

    def __len__(self) -> int:
        return len(self._completions)


@dataclass
class _Frame:
    """Self-routing wire frame for the RDMA transport."""

    dst_qp: "QueuePair"
    kind: str  # "send" | "write" | "read_req" | "read_resp"
    wr_id: Any
    user_payload: Any = None
    on_remote: Optional[Callable[[Any], None]] = None
    #: For read_req: how many bytes the responder should DMA back, and the
    #: initiator-side completion bookkeeping.
    read_nbytes: int = 0
    read_initiator: Optional["QueuePair"] = None
    #: For send: the message size, kept so a frame parked in the RNR
    #: backlog still completes with the bytes it carried.
    nbytes: int = 0

    def deliver(self, msg: Message) -> None:
        self.dst_qp._on_delivery(self, msg)


class QueuePair:
    """One endpoint of an RC connection."""

    def __init__(self, sim: Simulator, nic: NIC,
                 send_cq: Optional[CompletionQueue] = None,
                 recv_cq: Optional[CompletionQueue] = None,
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.nic = nic
        obs = obs or nic.obs
        self.send_cq = send_cq or CompletionQueue(sim, obs=obs)
        self.recv_cq = recv_cq or CompletionQueue(sim, obs=obs)
        self.peer: Optional[QueuePair] = None
        self._posted_recvs: Deque[Any] = deque()
        #: Frames that arrived before a receive was posted (RNR condition;
        #: real RC would retry — buffering models the retry succeeding).
        self._rnr_backlog: Deque[_Frame] = deque()

    # -- connection management ---------------------------------------------

    def connect(self, peer: "QueuePair") -> None:
        if self.peer is not None or peer.peer is not None:
            raise SimulationError("queue pair already connected")
        self.peer = peer
        peer.peer = self

    def _require_peer(self) -> "QueuePair":
        if self.peer is None:
            raise SimulationError("queue pair is not connected")
        return self.peer

    # -- two-sided verbs ---------------------------------------------------

    def post_recv(self, wr_id: Any) -> None:
        """Make a receive buffer available for an incoming send."""
        if self._rnr_backlog:
            frame = self._rnr_backlog.popleft()
            self.recv_cq.push(WorkCompletion(
                wr_id=wr_id, opcode="recv", nbytes=frame.nbytes,
                payload=frame.user_payload))
            return
        self._posted_recvs.append(wr_id)

    def post_send(self, wr_id: Any, nbytes: int, payload: Any = None) -> Message:
        """Two-sided send; completion lands in this QP's send CQ.

        Returns the in-flight :class:`Message` so callers can additionally
        wait on ``on_wire`` (buffer reuse) or ``delivered``. The send
        completion is an observer of ``delivered``, so every verbs-level
        message costs that timer on top of its delivery.
        """
        peer = self._require_peer()
        frame = _Frame(dst_qp=peer, kind="send", wr_id=wr_id,
                       user_payload=payload, nbytes=nbytes)
        msg = self.nic.transmit(peer.nic, nbytes, payload=frame,
                                recv_cpu=peer.nic.params.cpu_recv)
        self._complete_on(msg.delivered, WorkCompletion(
            wr_id=wr_id, opcode="send", nbytes=nbytes, payload=payload))
        return msg

    # -- one-sided verbs -----------------------------------------------------

    def rdma_write(self, wr_id: Any, nbytes: int, payload: Any = None,
                   on_remote: Optional[Callable[[Any], None]] = None) -> Message:
        """One-sided write into the peer's registered memory."""
        peer = self._require_peer()
        frame = _Frame(dst_qp=peer, kind="write", wr_id=wr_id,
                       user_payload=payload, on_remote=on_remote)
        msg = self.nic.transmit(peer.nic, nbytes, payload=frame,
                                one_sided=True, recv_cpu=0.0)
        self._complete_on(msg.delivered, WorkCompletion(
            wr_id=wr_id, opcode="rdma_write", nbytes=nbytes, payload=payload))
        return msg

    def rdma_read(self, wr_id: Any, nbytes: int) -> Message:
        """One-sided read of ``nbytes`` from the peer's registered memory.

        The returned message is the *request*; the read completion (in the
        send CQ) fires when the response data has fully arrived.
        """
        peer = self._require_peer()
        frame = _Frame(dst_qp=peer, kind="read_req", wr_id=wr_id,
                       read_nbytes=nbytes, read_initiator=self)
        return self.nic.transmit(peer.nic, HEADER_BYTES, payload=frame,
                                 one_sided=True, recv_cpu=0.0)

    # -- delivery ------------------------------------------------------------

    def _on_delivery(self, frame: _Frame, msg: Message) -> None:
        if frame.kind == "send":
            if self._posted_recvs:
                wr = self._posted_recvs.popleft()
                self.recv_cq.push(WorkCompletion(
                    wr_id=wr, opcode="recv", nbytes=msg.nbytes,
                    payload=frame.user_payload))
            else:
                self._rnr_backlog.append(frame)
        elif frame.kind == "write":
            if frame.on_remote is not None:
                frame.on_remote(frame.user_payload)
        elif frame.kind == "read_req":
            # Responder HCA DMAs the data back — no responder CPU.
            initiator = frame.read_initiator
            assert initiator is not None
            resp = _Frame(dst_qp=initiator, kind="read_resp", wr_id=frame.wr_id)
            data = self.nic.transmit(initiator.nic, frame.read_nbytes,
                                     payload=resp, one_sided=True)
            initiator._complete_on(data.delivered, WorkCompletion(
                wr_id=frame.wr_id, opcode="rdma_read", nbytes=frame.read_nbytes))
        elif frame.kind == "read_resp":
            pass  # completion was armed by the initiator on data.delivered
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown frame kind {frame.kind!r}")

    def _complete_on(self, event, wc: WorkCompletion) -> None:
        def _push(_ev):
            self.send_cq.push(wc)

        if event.processed:  # a link with no busy time and no latency
            _push(event)
        else:
            event.callbacks.append(_push)
