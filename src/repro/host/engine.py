"""Asynchronous host engine: futures, tag routing, in-flight windowing.

The paper's host "sends one or more packets of data to the controller on
the FPGA ... and [the controller] returns the final results" (§II) — the
RTM pipeline and lock manager are explicitly built so that *many*
instructions can be in flight while the result stream stays in order.
This module gives the host software the matching shape:

* :class:`HostFuture` — a handle for one outstanding request.  ``result()``
  pumps the simulation (the stand-in for host wall-clock time) until the
  coprocessor's response arrives.
* :class:`TagAllocator` — a round-robin allocator over the GET/GETF tag
  field.  A tag stays owned while its request is in flight, so responses
  are always attributable; released tags go to the back of the queue, so
  the whole tag space is cycled before any value repeats.
* :class:`HostEngine` — the submission queue, in-flight window and
  completion router.  Tracked submissions (GET/GETF/HALT) past the window
  queue *host-side* instead of overrunning the coprocessor's message
  buffer; queued messages are framed in one batch per pump, not one
  channel push per message.

The synchronous driver API (:class:`repro.host.driver.CoprocessorDriver`)
is re-expressed as ``submit(...).result()`` on top of this engine, and the
session layer adds ``compute_async``/``read_async`` and ``pipeline()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..faults.checkpoint import Checkpoint, restore_state, snapshot_state
from ..hdl.errors import SimulationError
from ..hdl.sim import ChunkRule
from ..messages.framing import Deframer, Framer
from ..messages.reliability import (
    SEQ_MASK,
    ReliableDeframer,
    ReliableFramer,
    parse_nack_info,
    seq_before,
)
from ..messages.types import (
    DataRecord,
    ExceptionReport,
    FlagVector,
    Halted,
    MachineCheck,
    Message,
)
from .errors import HostTimeoutError, LinkDownError, MachineCheckError

#: Default in-flight window: tracked requests the engine keeps outstanding
#: before queueing further submissions host-side.  Deep enough to cover the
#: round-trip latency of every link preset at typical request sizes, small
#: enough that a runaway submitter cannot flood the message buffer.
DEFAULT_WINDOW = 8

#: The GET/GETF tag travels in the instruction's 8-bit variety field, so a
#: single-host driver has 256 distinct tag values to juggle.
TAG_SPACE = range(256)

#: Retransmission budget before the reliable layer declares the link dead.
MAX_RETRIES = 4

#: Consecutive request deadline expiries before the engine degrades the
#: in-flight window to stop-and-wait, and clean (no-retransmit) completions
#: required to restore the configured window.
DEGRADE_AFTER = 2
RESTORE_AFTER = 8

#: Replay-buffer cap, in frames.  Exceeding it drops the oldest frame from
#: the retransmission record (counted in ``stats.replay_truncated``) —
#: recovery of those frames is no longer possible unless they belong to a
#: tracked request, which keeps its own frames, so workloads should
#: interleave tracked reads with long write bursts.
REPLAY_LIMIT = 4096


def default_deadline_cycles(link, data_words: int = 1, window: int = DEFAULT_WINDOW) -> int:
    """Per-request retransmission deadline derived from the link timing.

    Covers two full round trips plus draining ``window`` maximum-size
    frames in both directions at the slower direction's word rate, plus a
    fixed processing allowance — generous enough that a healthy link never
    triggers a spurious retransmission, tight enough that a dead link is
    declared down in simulated milliseconds, not seconds.
    """
    spec = getattr(link, "spec", None)
    if spec is None:
        return 50_000
    up = getattr(link, "upstream_spec", spec)
    rtt = 2 * (spec.latency_cycles + up.latency_cycles)
    words_per_frame = 2 + data_words  # header + payload + trailer
    cpw = max(spec.cycles_per_word, up.cycles_per_word)
    return rtt + 4 * window * words_per_frame * cpw + 1024


class CoprocessorError(RuntimeError):
    """The coprocessor reported an exception message."""

    def __init__(self, report: ExceptionReport):
        self.report = report
        super().__init__(f"coprocessor exception: code={report.code} info={report.info}")


class HostFuture:
    """One outstanding request's completion handle.

    Futures are resolved by the engine's completion router when the
    correlated response message arrives; ``result()``/``wait()`` advance
    the simulation until then.  An untracked submission (a write, a plain
    EXEC) resolves as soon as its words are framed onto the channel.
    """

    __slots__ = ("_engine", "_done", "_value", "_error", "_transform",
                 "_callbacks", "tag", "_owns_tag")

    def __init__(self, engine: "HostEngine",
                 transform: Optional[Callable[[Message], object]] = None):
        self._engine = engine
        self._done = False
        self._value: object = None
        self._error: Optional[BaseException] = None
        self._transform = transform
        self._callbacks: list[Callable[["HostFuture"], None]] = []
        #: the response tag this future is registered under (None when the
        #: request is untracked or carries no tag, e.g. HALT)
        self.tag: Optional[int] = None
        self._owns_tag = False

    # -- inspection ---------------------------------------------------------------

    def done(self) -> bool:
        return self._done

    def exception(self) -> Optional[BaseException]:
        """The failure, if the future completed with one (non-blocking)."""
        return self._error

    # -- blocking access ----------------------------------------------------------

    def wait(self, max_cycles: int = 1_000_000,
             deadline_cycles: Optional[int] = None) -> "HostFuture":
        """Pump the simulation until this future completes; returns self."""
        self._engine.wait(self, max_cycles, deadline_cycles)
        return self

    def result(self, max_cycles: int = 1_000_000,
               deadline_cycles: Optional[int] = None):
        """Wait for completion and return the response (or raise its error)."""
        self.wait(max_cycles, deadline_cycles)
        if self._error is not None:
            raise self._error
        return self._value

    # -- completion ---------------------------------------------------------------

    def add_done_callback(self, fn: Callable[["HostFuture"], None]) -> None:
        """Run ``fn(future)`` on completion (immediately if already done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _resolve(self, msg: Optional[Message]) -> None:
        self._value = self._transform(msg) if self._transform is not None else msg
        self._finish()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._finish()

    def _finish(self) -> None:
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class TagAllocator:
    """Round-robin allocator over a fixed set of response-tag values.

    ``acquire`` hands out the least-recently-released free tag and
    ``release`` appends to the back of the free queue, so the allocator
    walks the whole tag space before reusing any value — maximising the
    distance between two in-flight uses of the same tag.  ``acquire``
    returns ``None`` on exhaustion; the engine treats that as backpressure
    (the submission stays queued host-side), never as an error.
    """

    def __init__(self, tags: Iterable[int] = TAG_SPACE):
        ordered = list(dict.fromkeys(tags))
        if not ordered:
            raise ValueError("tag space must not be empty")
        self.capacity = len(ordered)
        self._free: deque[int] = deque(ordered)
        self._in_use: set[int] = set()

    def acquire(self) -> Optional[int]:
        if not self._free:
            return None
        tag = self._free.popleft()
        self._in_use.add(tag)
        return tag

    def release(self, tag: int) -> None:
        if tag in self._in_use:
            self._in_use.remove(tag)
            self._free.append(tag)

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def in_use(self) -> frozenset:
        return frozenset(self._in_use)


@dataclass
class EngineStats:
    """Host-engine observability counters (``repro.analysis`` folds these in)."""

    submitted: int = 0            # total submissions accepted
    completed: int = 0            # tracked futures resolved with a response
    failed: int = 0               # tracked futures failed (exception report)
    messages_framed: int = 0      # messages serialised onto the channel
    words_sent: int = 0           # channel words pushed to the host port
    batches: int = 0              # send_words calls (framing batches)
    window_stalls: int = 0        # submissions that waited on the window
    tag_stalls: int = 0           # submissions that waited on tag exhaustion
    unmatched_to_inbox: int = 0   # responses with no pending future
    in_flight_highwater: int = 0  # max tracked requests outstanding at once
    queue_highwater: int = 0      # max host-side submission-queue depth
    # -- reliable-mode recovery counters (all zero when reliability is off) --
    retransmits: int = 0          # replay-buffer retransmissions issued
    retransmitted_words: int = 0  # channel words re-sent across them
    nacks: int = 0                # NACK reports received from the coprocessor
    deadline_expiries: int = 0    # per-request deadlines that lapsed
    link_down_failures: int = 0   # futures failed by a LinkDownError
    stale_responses: int = 0      # expected duplicate responses discarded
    response_gaps: int = 0        # upstream frames lost (sequence gaps)
    rx_resyncs: int = 0           # host-side deframer resynchronisations
    degrade_entries: int = 0      # times the window degraded to stop-and-wait
    replay_truncated: int = 0     # frames evicted from a full replay buffer
    # -- state-fault recovery counters (zero without state protection) --
    machine_checks: int = 0       # MachineCheck reports received
    rollbacks: int = 0            # checkpoint restores performed
    replayed: int = 0             # journaled submissions re-sent after rollback
    checkpoints: int = 0          # quiescent-point snapshots taken

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Record:
    """Reliable-mode delivery tracking for one in-flight tracked request."""

    key: tuple
    #: sequence number of the request's last frame; its response implicitly
    #: acknowledges every frame up to and including this one (in-order wire)
    last_seq: int
    deadline_at: int
    #: the request's own frames, re-sent once the replay buffer no longer
    #: holds them: a NACK cursor or a later completion proves the request
    #: was delivered, not that its response arrived
    frames: tuple
    #: deadline-driven retransmission rounds — the retry *budget*.  Only
    #: silent expiries count; NACK-driven retransmissions prove the link is
    #: alive and do not burn budget.
    attempts: int = 0
    #: times this record's frames were re-sent for any reason (bounds the
    #: stale duplicate responses to expect after completion)
    resends: int = 0


@dataclass
class _Submission:
    """One queued request: messages to frame plus optional completion tracking."""

    #: builds the messages to frame; receives the allocated tag (None for
    #: untracked or tag-less requests)
    build: Callable[[Optional[int]], Sequence[Message]]
    future: HostFuture
    #: response type to route back (DataRecord/FlagVector/Halted); None for
    #: fire-and-forget submissions, which complete at framing time
    route_key: Optional[type] = None
    #: caller-chosen tag; None with needs_tag means allocate at flush time
    tag: Optional[int] = None
    needs_tag: bool = False
    stall_counted: bool = False


class HostEngine:
    """Submission queue → tag allocator → completion router for one host port.

    The engine serialises queued messages in batches (one channel push per
    flush, not per message), keeps at most ``window`` tracked requests in
    flight, and correlates every inbound ``DataRecord``/``FlagVector`` to
    its future by tag — out-of-order consumers on top of an in-order wire.
    Responses nobody registered for (flood GETs issued through the raw
    ``execute`` path, broadcast HALT acks on a shared bus) fall through to
    ``inbox``, preserving the classic ``wait_for`` flows.
    """

    def __init__(
        self,
        system,
        host_port,
        *,
        window: int = DEFAULT_WINDOW,
        tags: Optional[Iterable[int]] = None,
        raise_on_exception: bool = True,
    ):
        if window < 1:
            raise ValueError("in-flight window must be at least 1")
        self.system = system
        self.sim = system.sim
        self.soc = system.soc
        self.host = host_port
        self.window = window
        self.raise_on_exception = raise_on_exception
        cfg = system.config
        self.reliable = cfg.reliable_framing
        self._reset_framing()
        self.tags = TagAllocator(tags if tags is not None else TAG_SPACE)
        self.stats = EngineStats()
        #: responses that matched no pending future, oldest first
        self.inbox: list[Message] = []
        #: every exception report received, in arrival order
        self.exceptions: list[ExceptionReport] = []
        self._queue: deque[_Submission] = deque()
        #: (response type, tag) → futures awaiting it, oldest first
        self._pending: dict[tuple[type, Optional[int]], deque[HostFuture]] = {}
        self._in_flight = 0
        # -- reliable-mode recovery state --
        link = getattr(self.soc, "link", None)
        #: base per-request deadline before the first retransmission
        self.deadline_cycles = default_deadline_cycles(link, cfg.data_words, window)
        #: True once the retransmission budget has been exhausted
        self.link_down = False
        #: True while the engine runs stop-and-wait (window of 1)
        self.degraded = False
        spec = getattr(link, "spec", None)
        up = getattr(link, "upstream_spec", spec)
        self._cpw = max(
            getattr(spec, "cycles_per_word", 1), getattr(up, "cycles_per_word", 1)
        )
        self._resync_flush_cycles = cfg.resync_flush_cycles
        #: unacknowledged frames, oldest first, as (seq, words) pairs
        self._replay: deque[tuple[int, tuple[int, ...]]] = deque()
        self._records: dict[HostFuture, _Record] = {}
        #: (type, tag) → count of stale duplicate responses still expected
        self._dup_guard: dict[tuple, int] = {}
        self._words_received = 0
        self._last_rx_at = 0
        self._last_nack: Optional[tuple] = None
        self._last_nack_at = -1
        self._consec_timeouts = 0
        self._clean_completions = 0
        #: default no-progress deadline for wait()/run_until_quiet (cycles)
        hysteresis = getattr(spec, "latency_cycles", 1) + self._cpw
        self.default_progress_deadline = max(50_000, 64 * hysteresis)
        # -- state-fault recovery (active only on protected systems) --
        self._protected = getattr(self.soc, "state_domain", None) is not None
        #: set once a machine check proved unrecoverable; poisons submissions
        self.fatal_error: Optional[BaseException] = None
        #: last quiescent-point snapshot (None until the first one is taken)
        self._ckpt: Optional[Checkpoint] = None
        #: submissions released to the wire since the last checkpoint, in
        #: order: (messages, route_key, tag, future) — the rollback replay
        self._journal: list[tuple] = []
        #: a rollback happened since the last checkpoint: a second machine
        #: check before re-quiescing is treated as unrecoverable
        self._recovered_since_ckpt = False
        #: bumped by every rollback so in-progress rx-event loops abandon
        #: events deframed before the coprocessor was reset
        self._rx_epoch = 0
        #: the rule of the edge chunks :meth:`pump` runs (a wait installs
        #: its own for the duration of :meth:`pump_until`)
        self._wait = _Wait(self, None)
        self._maybe_checkpoint()

    # -- submission ---------------------------------------------------------------

    def submit_send(self, msgs: Iterable[Message]) -> HostFuture:
        """Queue fire-and-forget messages; the future resolves once framed."""
        batch = tuple(msgs)
        future = HostFuture(self)
        self._enqueue(_Submission(build=lambda _tag: batch, future=future))
        return future

    def submit_tracked(
        self,
        build: Callable[[Optional[int]], Sequence[Message]],
        route_key: type,
        tag: Optional[int] = None,
        needs_tag: bool = True,
        transform: Optional[Callable[[Message], object]] = None,
    ) -> HostFuture:
        """Queue a response-expecting request.

        ``build(tag)`` produces the outbound messages once the request is
        actually released to the channel — tag allocation is deferred to
        that moment, so tag exhaustion stalls the queue instead of failing
        the submission.
        """
        future = HostFuture(self, transform=transform)
        self._enqueue(_Submission(
            build=build, future=future, route_key=route_key,
            tag=tag, needs_tag=needs_tag and tag is None,
        ))
        return future

    def _enqueue(self, sub: _Submission) -> None:
        self.stats.submitted += 1
        if self.fatal_error is not None:
            # an unrecoverable machine check poisoned the coprocessor state
            sub.future._fail(self.fatal_error)
            return
        if self.link_down:
            # the link was declared dead; nothing new can be delivered
            self.stats.link_down_failures += 1
            sub.future._fail(LinkDownError(
                "link is down (retransmission budget exhausted); "
                "submission rejected"
            ))
            return
        self._queue.append(sub)
        self.stats.queue_highwater = max(self.stats.queue_highwater, len(self._queue))
        self.flush()

    # -- framing / windowing ------------------------------------------------------

    def flush(self) -> int:
        """Release queued submissions up to the window; returns words sent.

        All releasable messages are framed into one word batch and pushed
        with a single ``send_words`` call — the channel still paces words
        at link rate, but the host pays one queue update per flush instead
        of one per message.
        """
        if not self._queue:
            return 0
        words: list[int] = []
        framed = 0
        while self._queue:
            sub = self._queue[0]
            tag = sub.tag
            if sub.route_key is not None:
                if self._in_flight >= self.effective_window:
                    if not sub.stall_counted:
                        self.stats.window_stalls += 1
                        sub.stall_counted = True
                    break
                if sub.needs_tag:
                    tag = self.tags.acquire()
                    if tag is None:
                        if not sub.stall_counted:
                            self.stats.tag_stalls += 1
                            sub.stall_counted = True
                        break
            built = tuple(sub.build(tag))
            first = len(words)
            framed += self._frame(built, words)
            self._queue.popleft()
            if self._protected:
                # rollback-replay journal: every released submission since
                # the last quiescent checkpoint, tracked or not
                self._journal.append((built, sub.route_key, tag, sub.future))
            if sub.route_key is not None:
                key = self._register(sub.future, sub.route_key, tag, sub.needs_tag)
                if self.reliable:
                    self._records[sub.future] = _Record(
                        key=key,
                        last_seq=self.framer.last_seq,
                        deadline_at=self.sim.now + self.deadline_cycles,
                        frames=tuple(words[first:]),
                    )
            else:
                sub.future._resolve(None)
        self._send_batch(words, framed)
        return len(words)

    def _reset_framing(self) -> None:
        """Start both framing domains afresh (sequence numbers at 0)."""
        data_words = self.system.config.data_words
        if self.reliable:
            self.framer: Framer = ReliableFramer(data_words)
            self.deframer = ReliableDeframer(data_words, strict_order=False)
        else:
            self.framer = Framer(data_words)
            self.deframer = Deframer(data_words)

    def _frame(self, msgs: Sequence[Message], words: list[int]) -> int:
        """Append the frames of ``msgs`` to ``words``, logging each for
        replay in reliable mode; returns the number of messages framed."""
        for msg in msgs:
            frame = self.framer.frame(msg)
            if self.reliable:
                self._log_frame(self.framer.last_seq, frame)
            words.extend(frame)
        return len(msgs)

    def _send_batch(self, words: list[int], framed: int) -> None:
        """Push one framing batch onto the channel with a single call."""
        if words:
            self.host.send_words(words)
            self.stats.batches += 1
            self.stats.messages_framed += framed
            self.stats.words_sent += len(words)

    def _register(self, future: HostFuture, route_key: type,
                  tag: Optional[int], owns_tag: bool) -> tuple:
        future.tag = tag
        future._owns_tag = owns_tag
        key = (route_key, tag if route_key is not Halted else None)
        # A fresh request reclaims its routing key from any stale-duplicate
        # guard so new responses route to it, not to the discard count.
        self._dup_guard.pop(key, None)
        self._pending.setdefault(key, deque()).append(future)
        self._in_flight += 1
        self.stats.in_flight_highwater = max(
            self.stats.in_flight_highwater, self._in_flight
        )
        return key

    # -- completion routing -------------------------------------------------------

    def _complete(self, key: tuple[type, Optional[int]], future: HostFuture) -> None:
        q = self._pending[key]
        q.popleft()
        if not q:
            del self._pending[key]
        self._in_flight -= 1
        if future._owns_tag and future.tag is not None:
            self.tags.release(future.tag)
        record = self._records.pop(future, None)
        if record is not None:
            # The response implicitly acknowledges every frame up to the
            # request's last one (the wire delivers in order).
            self._prune_replay_before((record.last_seq + 1) & SEQ_MASK)
            if record.resends:
                # retransmitted requests may produce extra (re-executed)
                # responses; arm the guard so they are discarded silently
                guard = self._dup_guard.get(key, 0)
                self._dup_guard[key] = guard + record.resends
            else:
                self._note_clean_completion()
            self._consec_timeouts = 0  # any completion proves liveness

    def route(self, msg: Message) -> None:
        """Deliver one inbound message to its future, or to the inbox."""
        if isinstance(msg, MachineCheck):
            self._route_machine_check(msg)
            return
        if isinstance(msg, ExceptionReport):
            self._route_exception(msg)
            return
        if isinstance(msg, (DataRecord, FlagVector)):
            key: tuple[type, Optional[int]] = (type(msg), msg.tag)
        elif isinstance(msg, Halted):
            key = (Halted, None)
        else:
            key = (type(msg), None)
        guard = self._dup_guard.get(key, 0)
        if guard:
            # a re-executed duplicate response for an already-resolved
            # request — consume it instead of polluting the inbox
            if guard > 1:
                self._dup_guard[key] = guard - 1
            else:
                del self._dup_guard[key]
            self.stats.stale_responses += 1
            return
        q = self._pending.get(key)
        if q:
            future = q[0]
            self._complete(key, future)
            self.stats.completed += 1
            future._resolve(msg)
        else:
            self.inbox.append(msg)
            self.stats.unmatched_to_inbox += 1

    def _route_exception(self, report: ExceptionReport) -> None:
        """Exception reports carry no tag, so they cannot be attributed to
        one request: every future already released to the wire is failed
        (their responses may never come), while still-queued submissions
        stay queued — they have not reached the coprocessor yet, so the
        engine remains usable after the error.

        In reliable mode, BAD_MESSAGE reports with NACK-shaped info are the
        coprocessor's retransmission requests — protocol traffic, not
        application errors — and never fail futures or raise."""
        if self.reliable:
            nack = parse_nack_info(report.info)
            if nack is not None:
                self._handle_nack(*nack)
                return
        self.exceptions.append(report)
        error = CoprocessorError(report)
        self._fail_outstanding(error, fatal=False)
        if self.raise_on_exception:
            raise error
        self.inbox.append(report)

    def _fail_outstanding(self, error: BaseException, fatal: bool) -> None:
        """Fail every future released to the wire, releasing its tag.

        ``fatal`` means the engine can deliver nothing more: still-queued
        submissions fail too and the replay buffer is dropped.
        """
        pending, self._pending = self._pending, {}
        self._in_flight = 0
        self._records.clear()
        for q in pending.values():
            for future in q:
                if future._owns_tag and future.tag is not None:
                    self.tags.release(future.tag)
                self.stats.failed += 1
                future._fail(error)
        if fatal:
            self._replay.clear()
            queue, self._queue = self._queue, deque()
            for sub in queue:
                sub.future._fail(error)

    # -- state-fault recovery (checkpoint / rollback / replay) --------------------

    def _route_machine_check(self, msg: MachineCheck) -> None:
        """An uncorrectable state upset: roll back and replay, or fail fast.

        Recoverable when a clean checkpoint exists and no earlier rollback
        is still replaying toward its next quiescent point; otherwise the
        state cannot be trusted and every outstanding request fails with
        :class:`MachineCheckError` — never a silently wrong result.
        """
        self.stats.machine_checks += 1
        if self._ckpt is None or self._recovered_since_ckpt:
            self._fail_unrecoverable(msg)
            return
        self._rollback(msg)

    def _fail_unrecoverable(self, msg: MachineCheck) -> None:
        element = getattr(self.soc, "mcu", None)
        name = element.element_id(msg.element) if element is not None else str(msg.element)
        error = MachineCheckError(
            f"unrecoverable machine check from {name} "
            f"(address={msg.address:#x}, syndrome={msg.syndrome:#06x}): "
            + ("a second upset hit before the rollback re-quiesced"
               if self._ckpt is not None else "no clean checkpoint to roll back to"),
            element=msg.element, address=msg.address, syndrome=msg.syndrome,
        )
        self.fatal_error = error
        self._journal.clear()
        self._fail_outstanding(error, fatal=True)
        if self.raise_on_exception:
            raise error
        self.inbox.append(msg)

    def _rollback(self, msg: MachineCheck) -> None:
        """Restore the last checkpoint and replay the journal after it.

        The coprocessor is hard-reset (pipelines, channel and guard shadows
        clear; injection counters inside the guards persist, so the replay
        draws fresh fates instead of re-tripping the same upset), the
        architectural state reloads from the snapshot, both framing domains
        restart, and every journaled submission is re-sent in order.
        Already-completed tracked requests arm the duplicate guard so their
        re-executed responses are swallowed.
        """
        self.stats.rollbacks += 1
        self._recovered_since_ckpt = True
        self._rx_epoch += 1
        self.sim.reset()
        restore_state(self.soc, self._ckpt)
        self._reset_framing()
        self._replay.clear()
        self._dup_guard.clear()
        self._records.clear()
        self._last_nack = None
        self._last_nack_at = -1
        self._last_rx_at = self.sim.now
        words: list[int] = []
        framed = 0
        now = self.sim.now
        for built, route_key, tag, future in self._journal:
            first = len(words)
            framed += self._frame(built, words)
            if route_key is not None:
                key = (route_key, tag if route_key is not Halted else None)
                if future.done():
                    self._dup_guard[key] = self._dup_guard.get(key, 0) + 1
                elif self.reliable:
                    self._records[future] = _Record(
                        key=key,
                        last_seq=self.framer.last_seq,
                        deadline_at=now + self.deadline_cycles,
                        frames=tuple(words[first:]),
                    )
            self.stats.replayed += 1
        self._send_batch(words, framed)

    def _checkpoint_due(self) -> bool:
        """A protected system sits at a quiescent point that needs a new
        snapshot: engine idle, coprocessor drained, no latent taint, no
        pending check — locks free and pipelines empty, so the
        architectural state alone captures the machine."""
        return self._checkpoint_wanted() and self._coprocessor_quiescent()

    def _checkpoint_wanted(self) -> bool:
        """The host half of :meth:`_checkpoint_due`, which no edge can
        change: a protected, idle engine with no checkpoint, or with
        journaled work since the last one."""
        if not self._protected or self.fatal_error is not None:
            return False
        return self.idle and (self._ckpt is None or bool(self._journal))

    def _coprocessor_quiescent(self) -> bool:
        """The simulated half of :meth:`_checkpoint_due`."""
        soc = self.soc
        # busy first: its lock query repairs (or reports) a latent upset,
        # so the answer does not depend on whether a wait's done() already
        # ran that query after this edge
        busy = soc.busy
        return not (busy or soc.mcu.pending or soc.state_domain.tainted)

    def _maybe_checkpoint(self) -> None:
        """Snapshot the architectural state when a checkpoint is due."""
        if not self._checkpoint_due():
            return
        self._ckpt = snapshot_state(self.soc, cycle=self.sim.now)
        self._journal.clear()
        self._recovered_since_ckpt = False
        self.stats.checkpoints += 1

    # -- reliable-mode recovery ---------------------------------------------------

    def _log_frame(self, seq: int, frame: Sequence[int]) -> None:
        self._replay.append((seq, tuple(frame)))
        while len(self._replay) > REPLAY_LIMIT:
            self._replay.popleft()
            self.stats.replay_truncated += 1

    def _prune_replay_before(self, expected: int) -> None:
        """Drop replay frames with sequence numbers before ``expected``
        (they are acknowledged — implicitly or by a NACK's cursor)."""
        replay = self._replay
        while replay and seq_before(replay[0][0], expected):
            replay.popleft()

    def _handle_nack(self, expected: Optional[int], no_baseline: bool) -> None:
        self.stats.nacks += 1
        if self.link_down:
            return
        if expected is not None and not no_baseline:
            # everything before the receiver's cursor was delivered
            self._prune_replay_before(expected)
        # Rate limit: in-flight words at NACK time can trigger several
        # identical NACKs before the first retransmission lands; one
        # retransmission per (cursor, round-trip window) is enough.
        now = self.sim.now
        marker = (expected, no_baseline)
        if (
            marker == self._last_nack
            and now - self._last_nack_at < self._retransmit_drain_cycles()
        ):
            return
        self._last_nack = marker
        self._last_nack_at = now
        self._retransmit()

    def _retransmit_drain_cycles(self) -> int:
        return max(1, sum(len(f) for _s, f in self._replay) * self._cpw)

    def _retransmit(self) -> None:
        """Re-send the replay buffer, preceded by the frames of every
        outstanding request the buffer no longer holds (delivered, but its
        response was lost upstream; the coprocessor re-executes a
        duplicate GET/GETF/HALT and answers again)."""
        words: list[int] = []
        replayed = {seq for seq, _frame in self._replay}
        for record in self._records.values():
            if record.last_seq not in replayed:
                words.extend(record.frames)
        for _seq, frame in self._replay:
            words.extend(frame)
        drain = max(1, len(words)) * self._cpw
        now = self.sim.now
        for record in self._records.values():
            record.resends += 1
            # exponential backoff in the deadline-round count, plus time to
            # drain the replayed words through the slower direction
            backoff = self.deadline_cycles * (1 << record.attempts)
            record.deadline_at = now + drain + backoff
        if not words:
            return
        self.host.send_words(words)
        self.stats.retransmits += 1
        self.stats.retransmitted_words += len(words)
        self.stats.words_sent += len(words)

    def _check_deadlines(self) -> None:
        if not self.reliable or self.link_down or not self._records:
            return
        now = self.sim.now
        due = [r for r in self._records.values() if now >= r.deadline_at]
        if not due:
            return
        if any(r.attempts >= MAX_RETRIES for r in due):
            self._declare_link_down()
            return
        for record in due:
            record.attempts += 1
        self.stats.deadline_expiries += len(due)
        self._note_timeout()
        self._retransmit()

    def _declare_link_down(self) -> None:
        self.link_down = True
        outstanding = self._in_flight + len(self._queue)
        error = LinkDownError(
            f"link declared down: no response after {MAX_RETRIES} "
            f"retransmissions ({outstanding} requests outstanding, "
            f"{self.stats.retransmits} retransmits, "
            f"{self.stats.nacks} NACKs seen)"
        )
        self.stats.link_down_failures += outstanding
        self._fail_outstanding(error, fatal=True)

    def _note_timeout(self) -> None:
        self._consec_timeouts += 1
        self._clean_completions = 0
        if not self.degraded and self._consec_timeouts >= DEGRADE_AFTER:
            # the link is lossy enough that pipelining multiplies the
            # damage; fall back to stop-and-wait until it proves healthy
            self.degraded = True
            self.stats.degrade_entries += 1

    def _note_clean_completion(self) -> None:
        self._consec_timeouts = 0
        if self.degraded:
            self._clean_completions += 1
            if self._clean_completions >= RESTORE_AFTER:
                self.degraded = False
                self._clean_completions = 0

    # -- simulation pumping -------------------------------------------------------

    def _timer_slack(self) -> int:
        """Cycles until the earliest *host-side* timer can possibly fire.

        The cycle-skipping fast path must not jump past a retransmission
        deadline or the host deframer's resync flush: both compare against
        ``sim.now`` and must trigger on exactly the cycle they would have
        in a cycle-by-cycle pump.
        """
        slack: Optional[int] = None
        now = self.sim.now
        if self.reliable:
            for record in self._records.values():
                d = record.deadline_at - now
                if slack is None or d < slack:
                    slack = d
            if self.deframer.mid_frame:
                d = self._resync_flush_cycles - (now - self._last_rx_at)
                if slack is None or d < slack:
                    slack = d
        if slack is None:
            return 1 << 60
        return max(1, slack)

    def _pump_chunk(self, bound: int) -> int:
        """One pump iteration covering up to ``bound`` cycles; returns cycles run.

        When the simulator certifies (via :meth:`Simulator.fast_forward_limit`)
        that the next ``limit`` edges are pure aging, the whole stretch is
        stepped in one call and the wheel compresses it.  Otherwise the
        kernel runs real edges back to back under the wait's
        :class:`~repro.hdl.sim.ChunkRule` until the first edge after which
        the host has something to act on: a word in the host port's rx
        queue, or a predicate that reads simulated state holding (an
        unclassified ``done()``, a checkpoint coming due on a protected
        system).  It also stops where the wheel could jump, so the next
        chunk takes that jump.  Both kinds are bounded by ``bound`` and
        :meth:`_timer_slack`.

        The host-side drain/deadline/checkpoint work runs once, at the end
        of the chunk.  That is exact: before the chunk's last edge no word
        arrives, no timer fires and no completion opens the window, so each
        of those steps would have been a no-op.
        """
        sent = self.flush()
        sim = self.sim
        n = min(bound, self._timer_slack())
        limit = sim.fast_forward_limit(n) if n > 1 else 0
        if limit > 1:
            n = min(n, limit)
            sim.step(n)
        else:
            n = sim.step(n, self._wait.arm(sent))
        self.drain_words()
        self._check_deadlines()
        self._maybe_checkpoint()
        return n

    def pump(self, cycles: int = 1) -> None:
        """Advance the simulation, draining responses and refilling the window."""
        remaining = cycles
        while remaining > 0:
            remaining -= self._pump_chunk(remaining)
        self.flush()  # completions may have opened the window

    def drain_words(self) -> None:
        """Deframe every word the host port has received and route it."""
        if not self.reliable:
            while True:
                word = self.host.recv_word()
                if word is None:
                    return
                msg = self.deframer.push(word)
                if msg is not None:
                    self.route(msg)
        received = False
        while True:
            word = self.host.recv_word()
            if word is None:
                break
            received = True
            self._words_received += 1
            self.deframer.push(word)
        if received:
            self._last_rx_at = self.sim.now
        elif (
            self.deframer.mid_frame
            and self.sim.now - self._last_rx_at >= self._resync_flush_cycles
        ):
            # residual garbage from a damaged trailing frame: the burst is
            # over, so nothing buffered can ever complete — flush it all
            # (the rescan still salvages intact frames behind the garbage)
            self.deframer.drop_all()
            self._last_rx_at = self.sim.now
        self._process_rx_events()

    def _process_rx_events(self) -> None:
        epoch = self._rx_epoch
        for event in self.deframer.take_events():
            if self._rx_epoch != epoch:
                # a rollback replaced the deframer mid-loop; the remaining
                # events were deframed against pre-reset state
                return
            kind = event[0]
            if kind in ("deliver", "duplicate"):
                self.route(event[1])
            elif kind == "gap":
                # lost responses are recovered by request retransmission
                # (the matching record's deadline), not by NACKing back
                self.stats.response_gaps += 1
            else:  # "resync"
                self.stats.rx_resyncs += 1

    def _host_progress(self) -> tuple:
        """The host's share of the progress a wait's deadline looks for:
        words sent and received, completions, failures, retransmissions.
        The simulated share (``tx_pending``, retired instructions) is dated
        by the kernel, edge by edge (see :class:`_Wait`)."""
        stats = self.stats
        return (stats.words_sent, self._words_received, stats.completed,
                stats.failed, stats.retransmits)

    def resolve_deadline(self, deadline_cycles: Optional[int]) -> Optional[int]:
        """Normalise a ``deadline_cycles`` argument (None → default, ≤0 → off)."""
        if deadline_cycles is None:
            return self.default_progress_deadline
        if deadline_cycles <= 0:
            return None
        return deadline_cycles

    def pump_until(
        self,
        done: Callable[[], bool],
        max_cycles: int = 1_000_000,
        deadline_cycles: Optional[int] = None,
        *,
        what: str = "wait did not finish",
        cap: Optional[Callable[[], Optional[int]]] = None,
        host_only: bool = False,
    ) -> int:
        """Pump until ``done()`` holds; returns the cycles consumed.

        Raises :class:`SimulationError` once ``max_cycles`` pass, and the
        more descriptive :class:`HostTimeoutError` (:class:`LinkDownError`
        if the link was declared down) once ``deadline_cycles`` pass with no
        observable progress anywhere in the system, so a dead link fails
        fast instead of idling out the full budget.  ``deadline_cycles``:
        None → a link-derived default, ≤0 → disabled.

        ``host_only`` says ``done()`` reads host state only (a future, the
        inbox, the session's free registers).  No edge can change such a
        predicate, so it is checked between chunks only.  Any other
        ``done()`` is checked after every edge an edge chunk runs, by the
        chunk's rule (a jump chunk is pure aging, so nothing it covers can
        change ``done()`` before its final cycle).

        Exit-cycle exactness: every chunk is bounded by the budget and the
        no-progress trigger point.  Inside an edge chunk the simulated
        share of the progress — ``host.tx_pending`` drops as words leave,
        instructions retire — still moves, and the kernel dates its last
        change to the exact edge.  This loop therefore returns or raises on
        exactly the cycle a one-cycle-at-a-time pump would.  A condition
        that can turn true on elapsed cycles alone must also pass
        ``cap()``, the cycles until it could, so that no jump chunk steps
        past it.
        """
        start = self.sim.now
        deadline = self.resolve_deadline(deadline_cycles)
        wait = _Wait(self, None if host_only else done)
        outer, self._wait = self._wait, wait
        try:
            while not done():
                now = self.sim.now
                if now - start >= max_cycles:
                    raise SimulationError(
                        f"{what}: budget of {max_cycles} cycles spent ({self._backlog()})")
                if deadline is not None and now - wait.progress_at >= deadline:
                    message = f"{what}: no progress for {deadline} cycles ({self._backlog()})"
                    if self.link_down:
                        raise LinkDownError(f"{message} (link is down)")
                    raise HostTimeoutError(message)
                bound = start + max_cycles - now
                if deadline is not None:
                    bound = min(bound, wait.progress_at + deadline - now)
                limit = cap() if cap is not None else None
                if limit is not None:
                    bound = min(bound, limit)
                self._pump_chunk(max(1, bound))
                self.flush()
                wait.observe()
        finally:
            self._wait = outer
        return self.sim.now - start

    def wait(self, future: HostFuture, max_cycles: int = 1_000_000,
             deadline_cycles: Optional[int] = None) -> None:
        """Pump until ``future`` completes (timeouts as in :meth:`pump_until`)."""
        if not future.done():
            self.flush()
            self.pump_until(future.done, max_cycles, deadline_cycles,
                            what="request did not complete", host_only=True)

    def _backlog(self) -> str:
        return (f"{self._in_flight} in flight, {len(self._queue)} queued, "
                f"{len(self.inbox)} in inbox, {self.stats.retransmits} retransmits")

    # -- state --------------------------------------------------------------------

    @property
    def effective_window(self) -> int:
        """The in-flight window currently honoured: the configured window,
        or 1 (stop-and-wait) while the engine is degraded by a lossy link."""
        return 1 if self.degraded else self.window

    @property
    def in_flight(self) -> int:
        """Tracked requests released to the wire and not yet completed."""
        return self._in_flight

    @property
    def queued(self) -> int:
        """Submissions still waiting host-side (window or tag backpressure)."""
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """True when nothing is queued host-side and nothing is in flight."""
        return not self._queue and self._in_flight == 0


class _Wait(ChunkRule):
    """The chunk rule of one wait, and the progress it has seen.

    The rule stops an edge chunk when a word reaches the host port's rx
    queue, or when ``every()`` holds: the wait's unclassified predicate,
    or'ed with the checkpoint test while a protected engine is idle
    (:meth:`arm`).  ``progress_at`` is the cycle the system last
    observably moved, read by the no-progress deadline of
    :meth:`HostEngine.pump_until`.  Progress is observed after every edge
    (by the kernel: the host port's tx queue and the retire count) and
    after every chunk (:meth:`observe`: the host counters too), each
    observation compared with the one before it.
    """

    __slots__ = ("engine", "predicate", "seen", "progress_at")

    def __init__(self, engine: HostEngine,
                 predicate: Optional[Callable[[], bool]]) -> None:
        host = engine.host
        # the retire count of the RTM's execution stage is progress
        super().__init__(watch=host._rxq, queue=host._txq,
                         stage=engine.soc.rtm.execution)
        self.engine = engine
        #: the wait's predicate when it may read simulated state, else None
        self.predicate = predicate
        #: the host counters as last observed (see HostEngine._host_progress)
        self.seen = engine._host_progress()
        self.progress_at = engine.sim.now

    def arm(self, sent: int) -> "_Wait":
        """This rule, set for the edge chunk about to run; ``sent`` is the
        words the chunk's opening flush sent."""
        engine = self.engine
        predicate = self.predicate
        if engine._checkpoint_wanted():
            quiescent = engine._coprocessor_quiescent
            self.every = (quiescent if predicate is None
                          else lambda: predicate() or quiescent())
        else:
            self.every = predicate
        if sent:
            # the flush moved the host counters: the first edge observes it
            self.seen = engine._host_progress()
            self.queued = -1
        return self

    def observe(self) -> None:
        """Observe the progress after a chunk and its host work."""
        if self.changed_at is not None:
            self.progress_at = self.changed_at
            self.changed_at = None
        engine = self.engine
        seen = engine._host_progress()
        queued = len(self.queue._value)
        retired = self.stage.retired
        if seen != self.seen or queued != self.queued or retired != self.retired:
            self.seen = seen
            self.queued = queued
            self.retired = retired
            self.progress_at = engine.sim.now
