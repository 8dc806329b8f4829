"""The simulated communicator: ranks, matching, eager/rendezvous.

A :class:`MpiWorld` owns the rank placements and a mailbox per ordered
rank pair.  Rank code is written as generator functions taking a
:class:`RankContext`; sends and receives advance the simulated clock
according to the machine's :class:`~repro.mpisim.transport.Transport`.

Protocol:

* **eager** (size <= :data:`~repro.mpisim.protocols.EAGER_THRESHOLD`):
  the sender pays its software overhead, deposits the message with a
  wire-arrival timestamp and continues; the receiver matches, waits for
  arrival, pays its own overhead.
* **rendezvous**: the sender deposits an RTS envelope and blocks on the
  CTS; the receiver answers CTS when matched; the bulk transfer then
  costs ``nbytes / bandwidth`` on the wire.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..errors import InjectedFault, MpiSimError
from ..machines.base import Machine
from ..obs import runtime as obs
from ..sim.engine import Environment
from ..sim.trace import TraceRecorder
from .placement import RankLocation
from .protocols import (
    EAGER_THRESHOLD,
    MAX_RETRANSMITS,
    RETRANSMIT_BACKOFF,
    RETRANSMIT_TIMEOUT,
)
from .transport import BufferKind, Transport


class _MsgKind(enum.Enum):
    EAGER = "eager"
    RTS = "rts"
    CTS = "cts"
    DATA = "data"


#: wildcard receive tag (MPI_ANY_TAG)
ANY_TAG = -1


@dataclass(slots=True)
class Message:
    kind: _MsgKind
    src: int
    dst: int
    nbytes: int
    arrival: float
    buffer: BufferKind
    payload: Any = None
    tag: int = 0
    #: per-world unique send id; rendezvous CTS/DATA match on it
    seq: int = 0


@dataclass(slots=True)
class _PrepostedRecv:
    """Handle for an in-flight preposted receive."""

    src: int
    event: Any


def _match_any(_m: Message) -> bool:
    return True


class MatchQueue:
    """An MPI-style matching queue.

    Messages and receive requests pair FIFO *among compatible matches*:
    a receive posted with a tag takes the oldest message with that tag,
    leaving earlier messages with other tags queued — the semantics
    plain FIFO stores cannot express.

    ``depth_hist`` (a metrics histogram, or the shared no-op stub)
    observes the unexpected-queue depth every time a message has to be
    queued rather than matched — the quantity MPI implementors watch.
    """

    __slots__ = ("env", "items", "_waiters", "_depth_hist")

    def __init__(self, env: Environment, depth_hist=None) -> None:
        self.env = env
        self.items: list[Message] = []
        self._waiters: list[tuple[Callable[[Message], bool], Any]] = []
        self._depth_hist = depth_hist

    def put(self, item: Message) -> None:
        for idx, (match, event) in enumerate(self._waiters):
            if match(item):
                del self._waiters[idx]
                event.succeed(item)
                return
        self.items.append(item)
        if self._depth_hist is not None:
            self._depth_hist.observe(len(self.items))

    def get(self, match: Optional[Callable[[Message], bool]] = None):
        """An event that triggers with the oldest matching message."""
        if match is None:
            match = _match_any
        event = self.env.event()
        for idx, item in enumerate(self.items):
            if match(item):
                del self.items[idx]
                event.succeed(item)
                return event
        self._waiters.append((match, event))
        return event

    def __len__(self) -> int:
        return len(self.items)


class RankContext:
    """Handle a rank's generator code uses to communicate."""

    __slots__ = ("world", "rank", "env")

    def __init__(self, world: "MpiWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.env: Environment = world.env

    @property
    def location(self) -> RankLocation:
        return self.world.placement[self.rank]

    # -- fault hooks ---------------------------------------------------------
    def _overhead(self, base: float) -> float:
        """Per-side software overhead, plus any injected OS-noise burst."""
        injector = self.world.injector
        if injector is None:
            return base
        return base + injector.straggler_delay(self.rank, base)

    def _transmit(self, dst: int) -> Generator:
        """Model per-attempt message loss on the wire to ``dst``.

        Each dropped attempt costs one retransmission timeout with
        exponential backoff before the sender tries again; after
        :data:`~repro.mpisim.protocols.MAX_RETRANSMITS` consecutive
        losses the send surfaces an :class:`InjectedFault` (the MPI
        library would abort the job at that point).
        """
        injector = self.world.injector
        if injector is None:
            return
        attempt = 0
        while injector.drop_message(self.rank, dst):
            attempt += 1
            if attempt > MAX_RETRANSMITS:
                raise InjectedFault(
                    f"rank {self.rank} -> {dst}: {MAX_RETRANSMITS} "
                    "consecutive transmission attempts dropped"
                )
            self.world._m_retransmit.inc()
            yield self.env.timeout(
                RETRANSMIT_TIMEOUT * RETRANSMIT_BACKOFF ** (attempt - 1)
            )

    # -- point-to-point -----------------------------------------------------
    def send(
        self,
        dst: int,
        nbytes: int,
        buffer: BufferKind = BufferKind.HOST,
        payload: Any = None,
        tag: int = 0,
    ) -> Generator:
        """Blocking standard-mode send (eager buffers, rendezvous blocks)."""
        if tag < 0:
            raise MpiSimError(f"send tag must be non-negative: {tag}")
        world = self.world
        env = self.env
        rank = self.rank
        cost = world.path(rank, dst, buffer)
        seq = world._seq_counter = world._seq_counter + 1
        injector = world.injector
        t_post = env.now
        overhead = cost.o_send
        if injector is not None:
            overhead += injector.straggler_delay(rank, overhead)
        if nbytes <= world.eager_threshold:
            world._m_eager.inc()
            yield env.timeout(overhead)
            if injector is not None:
                yield from self._transmit(dst)
            arrival = world._reserve_wire(rank, dst, nbytes, cost)
            world._mailbox(rank, dst).put(
                Message(_MsgKind.EAGER, rank, dst, nbytes, arrival,
                        buffer, payload, tag, seq)
            )
            if world._obs_enabled:
                world._tracer.complete(
                    "send.eager", "mpisim", t_post, env.now,
                    src=rank, dst=dst, nbytes=nbytes,
                )
            return
        # rendezvous
        world._m_rendezvous.inc()
        yield env.timeout(overhead)
        world._mailbox(rank, dst).put(
            Message(_MsgKind.RTS, rank, dst, nbytes,
                    env.now + cost.wire, buffer, None, tag, seq)
        )
        t_rts = env.now
        cts: Message = yield world._control(dst, rank).get(
            lambda m: m.seq == seq
        )
        if cts.kind != _MsgKind.CTS:
            raise MpiSimError(f"rank {rank}: expected CTS, got {cts.kind}")
        if world._obs_enabled:
            # the RTS->CTS handshake wait is the rendezvous signature
            world._tracer.complete(
                "rendezvous.handshake", "mpisim", t_rts, env.now,
                src=rank, dst=dst, nbytes=nbytes,
            )
        if cts.arrival > env.now:
            yield env.timeout(cts.arrival - env.now)
        if injector is not None:
            yield from self._transmit(dst)
        arrival = world._reserve_wire(rank, dst, nbytes, cost)
        world._data(rank, dst).put(
            Message(_MsgKind.DATA, rank, dst, nbytes, arrival,
                    buffer, payload, tag, seq)
        )
        if world._obs_enabled:
            world._tracer.complete(
                "send.rendezvous", "mpisim", t_post, env.now,
                src=rank, dst=dst, nbytes=nbytes,
            )

    @staticmethod
    def _envelope_match(tag: int) -> Callable[[Message], bool]:
        if tag == ANY_TAG:
            return _match_any
        return lambda m: m.tag == tag

    def recv(self, src: int, tag: int = ANY_TAG) -> Generator:
        """Blocking receive from ``src``; returns the :class:`Message`.

        ``tag`` selects which envelope to match (``ANY_TAG`` wildcard
        by default); messages with other tags stay queued.
        """
        world = self.world
        env = self.env
        rank = self.rank
        msg: Message = yield world._mailbox(src, rank).get(
            self._envelope_match(tag)
        )
        cost = world.path(src, rank, msg.buffer)
        injector = world.injector
        if msg.kind == _MsgKind.EAGER:
            if msg.arrival > env.now:
                yield env.timeout(msg.arrival - env.now)
            # straggler draw stays AFTER the arrival wait: fault RNG
            # streams must consume draws in the same event order as the
            # pre-optimization code path
            overhead = cost.o_recv
            if injector is not None:
                overhead += injector.straggler_delay(rank, overhead)
            yield env.timeout(overhead)
            return msg
        if msg.kind != _MsgKind.RTS:
            raise MpiSimError(f"rank {rank}: expected EAGER/RTS, got {msg.kind}")
        if msg.arrival > env.now:
            yield env.timeout(msg.arrival - env.now)
        # answer CTS, then take the bulk data; both legs match on the
        # send's sequence id so that concurrent rendezvous (including
        # different tags) cannot cross wires
        world._control(rank, src).put(
            Message(_MsgKind.CTS, rank, src, 0,
                    env.now + cost.wire, msg.buffer, None,
                    msg.tag, msg.seq)
        )
        seq = msg.seq
        data: Message = yield world._data(src, rank).get(
            lambda m: m.seq == seq
        )
        if data.kind != _MsgKind.DATA:
            raise MpiSimError(f"rank {rank}: expected DATA, got {data.kind}")
        if data.arrival > env.now:
            yield env.timeout(data.arrival - env.now)
        overhead = cost.o_recv
        if injector is not None:
            overhead += injector.straggler_delay(rank, overhead)
        yield env.timeout(overhead)
        return data

    # -- preposted receives --------------------------------------------------
    def irecv(self, src: int, tag: int = ANY_TAG):
        """Prepost a receive (MPI_Irecv); complete it with :meth:`wait`.

        Preposting lets an incoming eager message match immediately
        instead of landing in the unexpected-message queue; the
        machine's ``prepost_discount`` models the saved copy (paper's
        Theta footnote: the ALCF benchmarks prepost, OSU's blocking
        loop effectively doesn't on that stack).
        """
        return _PrepostedRecv(
            src,
            self.world._mailbox(src, self.rank).get(self._envelope_match(tag)),
        )

    def wait(self, request: "_PrepostedRecv") -> Generator:
        """Complete a preposted receive; returns the :class:`Message`."""
        msg: Message = yield request.event
        if msg.kind != _MsgKind.EAGER:
            raise MpiSimError(
                "preposted receives support eager messages only "
                f"(got {msg.kind})"
            )
        cost = self.world.path(msg.src, self.rank, msg.buffer)
        if msg.arrival > self.env.now:
            yield self.env.timeout(msg.arrival - self.env.now)
        discount = self.world.machine.calibration.mpi.prepost_discount
        yield self.env.timeout(max(0.0, cost.o_recv - discount))
        return msg

    def sendrecv(
        self, peer: int, nbytes: int, buffer: BufferKind = BufferKind.HOST
    ) -> Generator:
        """Symmetric exchange (used by the bidirectional-bandwidth test)."""
        send = self.env.process(self.send(peer, nbytes, buffer))
        msg = yield from self.recv(peer)
        yield send
        return msg


class MpiWorld:
    """A communicator of placed ranks on one machine."""

    def __init__(
        self,
        machine: Machine,
        placement: list[RankLocation],
        env: Optional[Environment] = None,
        trace: Optional[TraceRecorder] = None,
        eager_threshold: int = EAGER_THRESHOLD,
        transport=None,
        injector=None,
        max_events: Optional[int] = None,
    ) -> None:
        if len(placement) < 2:
            raise MpiSimError("an MPI world needs at least two ranks")
        total_cores = machine.node.total_cores
        for loc in placement:
            if loc.core >= total_cores:
                raise MpiSimError(
                    f"rank core {loc.core} out of range on {machine.name} "
                    f"({total_cores} cores)"
                )
        self.machine = machine
        self.placement = list(placement)
        ctx = obs.current()
        if env is None:
            # a fresh simulated clock starts a new run for attribution
            env = Environment()
            ctx.tracer.new_run()
        self.env = env
        #: explicit recorder wins; otherwise records flow into the active
        #: observability tracer (or the shared null recorder when off)
        self.trace = trace if trace is not None else obs.active_recorder()
        self._obs_enabled = ctx.enabled
        self._tracer = ctx.tracer
        self._m_eager = ctx.metrics.counter("mpisim.send.eager")
        self._m_rendezvous = ctx.metrics.counter("mpisim.send.rendezvous")
        self._m_retransmit = ctx.metrics.counter("mpisim.retransmit.fired")
        self._m_queue_depth = ctx.metrics.histogram(
            "mpisim.matchqueue.depth", bounds=(1, 2, 4, 8, 16, 32, 64, 128)
        )
        self.transport = transport if transport is not None else Transport(machine)
        self.eager_threshold = eager_threshold
        #: optional repro.faults.FaultInjector; None = perfectly clean wire
        self.injector = injector
        #: optional event budget for run(); None = unbounded
        self.max_events = max_events
        self._mailboxes: dict[tuple[int, int], MatchQueue] = {}
        self._controls: dict[tuple[int, int], MatchQueue] = {}
        self._datas: dict[tuple[int, int], MatchQueue] = {}
        self._seq_counter = 0
        self._path_cache: dict[tuple[int, int, Any], Any] = {}
        #: per ordered rank pair: simulated time the wire frees up
        self._wire_free: dict[tuple[int, int], float] = {}

    @property
    def size(self) -> int:
        return len(self.placement)

    def path(self, src: int, dst: int, buffer: BufferKind):
        # key on the enum's raw value: both Enum.__hash__ and the .value
        # descriptor are Python-level and show up on the per-message path
        key = (src, dst, buffer._value_)
        cost = self._path_cache.get(key)
        if cost is None:
            self._check_rank(src)
            self._check_rank(dst)
            cost = self._path_cache[key] = self.transport.path(
                self.placement[src], self.placement[dst], buffer
            )
        return cost

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise MpiSimError(f"rank {rank} out of range (size {self.size})")

    def _next_seq(self) -> int:
        self._seq_counter += 1
        return self._seq_counter

    def _mailbox(self, src: int, dst: int) -> MatchQueue:
        key = (src, dst)
        queue = self._mailboxes.get(key)
        if queue is None:
            queue = self._mailboxes[key] = MatchQueue(
                self.env,
                depth_hist=self._m_queue_depth if self._obs_enabled else None,
            )
        return queue

    def _control(self, src: int, dst: int) -> MatchQueue:
        key = (src, dst)
        queue = self._controls.get(key)
        if queue is None:
            queue = self._controls[key] = MatchQueue(self.env)
        return queue

    def _data(self, src: int, dst: int) -> MatchQueue:
        key = (src, dst)
        queue = self._datas.get(key)
        if queue is None:
            queue = self._datas[key] = MatchQueue(self.env)
        return queue

    def _reserve_wire(self, src: int, dst: int, nbytes: int, cost) -> float:
        """Serialise transfers on the pair's wire; return arrival time.

        Back-to-back messages pipeline at the transport bandwidth instead
        of overlapping unboundedly — this is what makes the osu_bw window
        measure the link rather than the sender's software overhead.
        Inter-node paths additionally reserve their shared network links,
        so messages from *other* rank pairs contend for them too.
        """
        shared = getattr(cost, "shared_links", ())
        if shared is not None and len(shared) > 0:
            from ..netsim.links import reserve_path

            links = (
                shared.choose(self.env.now, nbytes)
                if hasattr(shared, "choose") else list(shared)
            )
            arrival = reserve_path(links, self.env.now, nbytes)
            return arrival + cost.wire
        key = (src, dst)
        start = max(self.env.now, self._wire_free.get(key, 0.0))
        transfer = nbytes / cost.bandwidth
        self._wire_free[key] = start + transfer
        return start + cost.wire + transfer

    # ------------------------------------------------------------------
    def run(
        self, rank_fns: list[Callable[[RankContext], Generator]]
    ) -> list[Any]:
        """Run one generator function per rank; return their values."""
        if len(rank_fns) != self.size:
            raise MpiSimError(
                f"need {self.size} rank functions, got {len(rank_fns)}"
            )
        procs = [
            self.env.process(fn(RankContext(self, rank)), name=f"rank{rank}")
            for rank, fn in enumerate(rank_fns)
        ]
        done = self.env.all_of(procs)
        self.env.run(until=done, max_events=self.max_events)
        return [p.value for p in procs]
