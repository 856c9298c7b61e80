"""Host-side driver: the software component that talks to the coprocessor.

"The entire system is controlled by the host computer.  To perform an
accelerated operation, the host sends one or more packets of data to the
controller on the FPGA ... and [the controller] returns the final results
to the processor" (§II).  The driver frames messages onto the simulated
channel, advances the simulation (standing in for wall-clock time passing
on the host), and deframes responses.

Since the engine refactor the driver is a thin synchronous facade over
:class:`repro.host.engine.HostEngine`: every blocking call is a tracked
submission followed by ``Future.result()``, and the asynchronous variants
(``read_reg_async``/``read_flags_async``/``halt_async``) expose the
futures directly.  Responses are correlated to requests by the GET/GETF
tag through the engine's completion router, so interleaved responses of
other types stay queued in ``inbox`` instead of being dropped or raising
spuriously.

Every driver call accounts its cost in *coprocessor clock cycles* via the
underlying simulator — the currency all benchmarks report.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..isa.encoding import Instruction, encode
from ..messages.types import (
    DataRecord,
    Exec,
    FlagVector,
    Halted,
    Message,
    Reset,
    WriteFlags,
    WriteReg,
)
from ..system.builder import BuiltSystem
from .engine import DEFAULT_WINDOW, CoprocessorError, HostEngine, HostFuture
from .errors import HostTimeoutError, LinkDownError

__all__ = [
    "CoprocessorDriver",
    "CoprocessorError",
    "HostTimeoutError",
    "LinkDownError",
]

#: Extra idle cycles `run_until_quiet` demands beyond the channel latency
#: before declaring the system quiet.  The `busy` probe unions per-stage
#: occupancy registers that update at clock edges, so a word handed off at
#: edge N can be invisible for the one settle in which the producer has
#: already dropped it and the consumer has not yet committed it; two spare
#: cycles cover that handoff blind spot on both directions.
QUIET_HANDOFF_MARGIN = 2


def quiet_hysteresis(link) -> int:
    """Idle-streak bound for quiescence detection, derived from the link.

    A word is out of the `busy` probe's sight for at most the channel's
    pipeline latency (the delay line holds it visibly, but the downstream
    consumer's occupancy only registers ``latency_cycles`` after
    acceptance on the slowest direction), plus the one-cycle register
    handoff margin at each end.  Pumping that many consecutive idle cycles
    therefore guarantees nothing is silently in flight.

    Abstract links expose that latency as a :class:`ChannelSpec`; physical
    link models (e.g. the UART pair) expose an effective word time instead,
    which bounds how long one word can sit inside the shift registers.
    """
    spec = getattr(link, "spec", None)
    if spec is not None:
        upstream = getattr(link, "upstream_spec", spec)
        latency = max(spec.latency_cycles, upstream.latency_cycles)
    else:
        latency = getattr(link, "cycles_per_word", 1)
    return latency + QUIET_HANDOFF_MARGIN


class CoprocessorDriver:
    """Message-level interface to a built system."""

    def __init__(
        self,
        system: BuiltSystem,
        raise_on_exception: bool = True,
        host_port=None,
        window: Optional[int] = None,
        tags: Optional[Iterable[int]] = None,
    ):
        self.system = system
        self.soc = system.soc
        self.sim = system.sim
        self.raise_on_exception = raise_on_exception
        #: the HostPort this driver speaks through (multi-CPU systems have
        #: several, one per CPU — paper Fig. 1.1)
        self.host = host_port if host_port is not None else system.soc.host
        if window is None:
            window = getattr(system, "engine_window", None) or DEFAULT_WINDOW
        self.engine = HostEngine(
            system,
            self.host,
            window=window,
            tags=tags,
            raise_on_exception=raise_on_exception,
        )
        #: responses that matched no pending request, oldest first
        self.inbox = self.engine.inbox
        self.exceptions = self.engine.exceptions
        self._quiet_streak = quiet_hysteresis(system.soc.link)

    # -- low level ---------------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Elapsed coprocessor clock cycles."""
        return self.sim.now

    def send(self, msg: Message) -> None:
        """Frame and enqueue one message toward the coprocessor."""
        self.engine.submit_send((msg,))

    def send_all(self, msgs: Iterable[Message]) -> None:
        """Queue several messages; they serialise as one framing batch."""
        self.engine.submit_send(msgs)

    def pump(self, cycles: int = 1) -> None:
        """Advance the simulation, draining any arrived response words."""
        self.engine.pump(cycles)

    def run_until_quiet(self, max_cycles: int = 1_000_000,
                        deadline_cycles: Optional[int] = None) -> int:
        """Pump until the whole system is drained; returns cycles consumed.

        ``deadline_cycles`` bounds how long the system may go with no
        observable progress (words moving, instructions retiring,
        completions) before a descriptive :class:`HostTimeoutError` — or
        :class:`LinkDownError`, if the reliable layer has declared the link
        dead — is raised instead of idling out the full ``max_cycles``
        budget.  None → a link-derived default; ≤0 → disabled.
        """
        # Quiet = seen idle for `_quiet_streak` consecutive cycles.  Checks
        # come one edge or one wheel jump (pure aging) apart, so idleness
        # seen at both ends held all through, while idleness first seen at
        # the end dates from the final cycle only.
        streak_start = self.sim.now
        was_busy = False

        def quiet() -> bool:
            nonlocal streak_start, was_busy
            now = self.sim.now
            busy = self.soc.busy or not self.engine.idle
            if busy:
                streak_start = now
            elif was_busy:
                streak_start = now - 1
            was_busy = busy
            return now - streak_start >= self._quiet_streak

        def streak_left() -> Optional[int]:
            # an idle streak completes on elapsed cycles alone: stop there
            return None if was_busy else self._quiet_streak - (self.sim.now - streak_start)

        return self.engine.pump_until(quiet, max_cycles, deadline_cycles,
                                      what="system did not go quiet", cap=streak_left)

    def wait_for(self, count: int = 1, max_cycles: int = 1_000_000,
                 deadline_cycles: Optional[int] = None) -> list[Message]:
        """Pump until ``count`` responses are available; pops and returns them.

        Operates on the unmatched-response ``inbox`` — the home of replies
        to requests issued through the raw ``execute`` path.  Raises
        :class:`HostTimeoutError` (or :class:`LinkDownError`) once
        ``deadline_cycles`` pass without observable progress, so a dead
        link fails fast; None → a link-derived default, ≤0 → disabled.
        """
        self.engine.pump_until(lambda: len(self.inbox) >= count, max_cycles,
                               deadline_cycles, what=f"expected {count} responses",
                               host_only=True)
        out, self.inbox[:] = self.inbox[:count], self.inbox[count:]
        return out

    # -- message-level convenience ----------------------------------------------

    def execute(self, instr: Instruction) -> None:
        """Send one instruction for execution (no waiting, no tracking)."""
        self.send(Exec(encode(instr)))

    def execute_all(self, instrs: Iterable[Instruction]) -> None:
        self.send_all(Exec(encode(i)) for i in instrs)

    def write_reg(self, reg: int, value: int) -> None:
        self.send(WriteReg(reg, value & self.system.config.word_mask))

    def write_flags(self, flag_reg: int, value: int) -> None:
        self.send(WriteFlags(flag_reg, value))

    def reset_message(self) -> None:
        self.send(Reset())

    # -- asynchronous submission --------------------------------------------------

    def read_reg_async(self, reg: int, tag: Optional[int] = None) -> HostFuture:
        """GET a register; the future resolves to its integer value."""
        from ..isa import instructions as ins

        return self.engine.submit_tracked(
            lambda t: (Exec(encode(ins.get(reg, t))),),
            DataRecord,
            tag=tag,
            transform=lambda msg: msg.value,
        )

    def read_flags_async(self, flag_reg: int, tag: Optional[int] = None) -> HostFuture:
        """GETF a flag register; the future resolves to the flag vector."""
        from ..isa import instructions as ins

        return self.engine.submit_tracked(
            lambda t: (Exec(encode(ins.getf(flag_reg, t))),),
            FlagVector,
            tag=tag,
            transform=lambda msg: msg.value,
        )

    def halt_async(self) -> HostFuture:
        """Send HALT; the future resolves on the acknowledgement."""
        from ..isa import instructions as ins

        halt = Exec(encode(ins.halt()))
        return self.engine.submit_tracked(
            lambda _t: (halt,), Halted, needs_tag=False
        )

    # -- synchronous convenience (futures resolved inline) -----------------------

    def read_reg(self, reg: int, tag: Optional[int] = None,
                 max_cycles: int = 1_000_000) -> int:
        """GET a register and wait for its data record."""
        return self.read_reg_async(reg, tag).result(max_cycles)

    def read_flags(self, flag_reg: int, tag: Optional[int] = None,
                   max_cycles: int = 1_000_000) -> int:
        """GETF a flag register and wait for its flag vector."""
        return self.read_flags_async(flag_reg, tag).result(max_cycles)

    def halt_and_wait(self, max_cycles: int = 1_000_000) -> None:
        """Send HALT and wait for the acknowledgement."""
        self.halt_async().result(max_cycles)
