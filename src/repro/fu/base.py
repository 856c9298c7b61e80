"""Functional-unit skeletons: the three construction patterns of thesis §2.3.4.

* :class:`MinimalFunctionalUnit` (thesis Fig. 2.16 / paper Fig. 5) —
  combinational logic followed by an output register bank; the dispatch
  strobe is the clock enable; the acknowledgement is forwarded
  combinationally into ``idle`` so a new instruction can, in principle, be
  accepted every cycle (the thesis warns this lengthens the critical path —
  see ``repro.analysis.timing``).
* :class:`AreaOptimizedFU` (thesis Fig. 2.18 / paper Fig. 6) — a finite
  state machine holding one operation in flight, sequencing its results to
  the write arbiter one :class:`Transfer` per grant.  Single-cycle
  computations latch their result at the dispatch edge, giving the paper's
  "able to accept an instruction every second clock cycle" for the
  case-study units.
* :class:`PipelinedFunctionalUnit` (thesis Fig. 2.19) — a k-stage internal
  pipeline with result FIFOs; accepts one instruction per cycle until the
  FIFOs fill.  Destination register numbers are enqueued at dispatch time;
  data values follow k cycles later, so the FIFO occupancy computed at
  dispatch bounds everything and the pipeline itself never stalls
  (thesis §2.3.4).

Concrete units override :meth:`FunctionalUnit.compute`, mapping a latched
:class:`DispatchSample` to a :class:`FuComputation`.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional

from ..hdl import Component
from ..record import record
from .protocol import DispatchPort, DispatchSample, ResultPort, Transfer


@record
class FuComputation:
    """The outputs of one functional-unit operation.

    ``None`` fields produce no register write — e.g. CMP leaves ``data1``
    as None (the "Output data" variety bit is clear) and only writes flags.
    """

    data1: Optional[int] = None
    data2: Optional[int] = None
    flags: Optional[int] = None

    def transfers(self, sample: DispatchSample) -> tuple[Transfer, ...]:
        """Expand into write-arbiter transfers using the side-band registers.

        The flag write rides along with the first data write (separate
        memories, one grant); a second data result needs its own transfer.
        """
        out: list[Transfer] = []
        flag_reg = sample.dst_flag if self.flags is not None else None
        flag_value = self.flags if self.flags is not None else 0
        if self.data1 is not None:
            out.append(
                Transfer(sample.dst1, self.data1, flag_reg, flag_value, last=True)
            )
        elif self.flags is not None:
            out.append(Transfer(None, 0, flag_reg, flag_value, last=True))
        if self.data2 is not None:
            if out:
                out[0] = Transfer(
                    out[0].data_reg, out[0].data_value,
                    out[0].flag_reg, out[0].flag_value, last=False,
                )
            out.append(Transfer(sample.dst2, self.data2, None, 0, last=True))
        return tuple(out)


class FunctionalUnit(Component):
    """Common base: owns the two protocol port bundles."""

    #: cycles from dispatch to result availability (timing model input)
    latency_cycles: int = 1
    #: the dispatch-port bundle class to elaborate (units needing extra
    #: operand buses — e.g. FMA's accumulator — override with a subclass)
    dispatch_port_cls = DispatchPort
    #: the unit reads its dst1 register as a third operand (``op_c``); the
    #: decoder adds dst1 to the hazard sources and the dispatcher drives
    #: ``op_c`` with its contents
    reads_dst1: bool = False
    #: the unit samples ``flag_in`` (the ADC/SBB carry chain); units that
    #: ignore it clear this so the decoder omits src_flag from the hazard
    #: sources — the read-profile counterpart of the write profile
    reads_flag: bool = True

    def __init__(
        self,
        name: str,
        word_bits: int,
        parent: Optional[Component] = None,
        flag_bits: int = 8,
    ):
        super().__init__(name, parent)
        self.word_bits = word_bits
        self.dp = self.dispatch_port_cls(self, "dp", word_bits, flag_bits)
        self.rp = ResultPort(self, "rp", word_bits, flag_bits)

    def compute(self, sample: DispatchSample) -> FuComputation:
        raise NotImplementedError


def _data_only_profile(variety: int) -> tuple[bool, bool, bool]:
    return True, False, False


class MinimalFunctionalUnit(FunctionalUnit):
    """Thesis Fig. 2.16: combinational function + one output register bank.

    Only a single data output (no second result, no flags).  With
    ``ack_forwarding=True`` (the OR/AND/NOT cloud in the figure), ``idle``
    is asserted combinationally while the pending output is acknowledged in
    the same cycle, enabling back-to-back dispatch every cycle; disabled,
    the unit accepts at best every second cycle.  The thesis recommends the
    forwarding only "for simple coprocessor designs not requiring high
    performance" because it lengthens the critical path.

    Minimal units write exactly one data result and never flags, and their
    ``write_profile`` says so — the decoder must lock precisely what the
    unit will write, or the scoreboard deadlocks (see DESIGN.md on the
    write-profile contract).
    """

    #: consulted by the functional unit table (decoder lock sets)
    write_profile = staticmethod(_data_only_profile)

    def __init__(
        self,
        name: str,
        word_bits: int,
        parent: Optional[Component] = None,
        ack_forwarding: bool = True,
    ):
        super().__init__(name, word_bits, parent)
        self.ack_forwarding = ack_forwarding
        self._data_ready = self.reg("data_ready", 1, 0)
        self._data_out = self.reg("data_out", word_bits, 0)
        self._dst_out = self.reg("dst_out", 8, 0)

        @self.comb
        def _drive() -> None:
            ready = self._data_ready.value
            self.rp.present(
                Transfer(self._dst_out.value, self._data_out.value) if ready else None
            )
            if self.ack_forwarding:
                # "idle is asserted if either no output data is pending or if
                # pending output data is acknowledged in the current cycle".
                self.dp.idle.set((not ready) or bool(self.rp.ack.value))
            else:
                self.dp.idle.set(not ready)

        @self.seq
        def _tick() -> None:
            if self.dp.dispatch.value:
                sample = self.dp.sample()
                result = self.compute(sample)
                if result.data1 is None:
                    raise ValueError(
                        f"{self.path}: minimal units must produce a data result"
                    )
                self._data_out.nxt = result.data1
                self._dst_out.nxt = sample.dst1
                self._data_ready.nxt = 1
            elif self.rp.ack.value:
                self._data_ready.nxt = 0

        # Interacting with dispatch or the arbiter is always a real edge; a
        # minimal unit with nothing pending has no horizon at all.
        self.wheel(
            lambda: 0 if (self.dp.dispatch.value or self._data_ready.value) else None
        )


class FuState(IntEnum):
    """States of the area-optimised protocol FSM (thesis Fig. 2.18)."""

    IDLE = 0
    EXECUTE = 1
    SEND = 2  # walking the transfer burst (Send Data 1/2 [+Flags], Send Data 2)


class AreaOptimizedFU(FunctionalUnit):
    """Thesis Fig. 2.18: one operation in flight, FSM-sequenced transfers.

    ``execute_cycles=1`` latches the result directly at the dispatch edge
    (the combinational datapath settles during the dispatch cycle), so a
    one-transfer instruction completes dispatch→send→idle in two cycles.
    Larger values insert EXECUTE states for multi-cycle datapaths.
    """

    def __init__(
        self,
        name: str,
        word_bits: int,
        parent: Optional[Component] = None,
        execute_cycles: int = 1,
    ):
        super().__init__(name, word_bits, parent)
        if execute_cycles < 1:
            raise ValueError("execute_cycles must be >= 1")
        self.execute_cycles = execute_cycles
        self.latency_cycles = execute_cycles
        self._state = self.reg("state", 2, FuState.IDLE)
        self._countdown = self.reg("countdown", 16, 0)
        self._sample = self.reg("sample", None, reset=None)
        self._pending = self.reg("pending", None, reset=())

        @self.comb
        def _drive() -> None:
            state = self._state.value
            self.dp.idle.set(1 if state == FuState.IDLE else 0)
            pending = self._pending.value
            if state == FuState.SEND and pending:
                self.rp.present(pending[0])
            else:
                self.rp.present(None)

        @self.seq
        def _tick() -> None:
            state = self._state.value
            if state == FuState.IDLE:
                if self.dp.dispatch.value:
                    sample = self.dp.sample()
                    if self.execute_cycles == 1:
                        self._finish(sample)
                    else:
                        self._sample.nxt = sample
                        self._countdown.nxt = self.execute_cycles - 1
                        self._state.nxt = FuState.EXECUTE
            elif state == FuState.EXECUTE:
                remaining = self._countdown.value - 1
                if remaining > 0:
                    self._countdown.nxt = remaining
                else:
                    self._finish(self._sample.value)
            elif state == FuState.SEND:
                if self.rp.ack.value:
                    rest = self._pending.value[1:]
                    self._pending.nxt = rest
                    if not rest:
                        self._state.nxt = FuState.IDLE

        self.wheel(self._wheel_horizon, self._wheel_skip)

    def _wheel_horizon(self) -> Optional[int]:
        state = self._state.value
        if state == FuState.EXECUTE:
            # every EXECUTE edge but the last only decrements the countdown
            d = self._countdown.value - 1
            return d if d > 0 else 0
        if state == FuState.SEND:
            return 0  # arbiter interaction: real edges
        return 0 if self.dp.dispatch.value else None

    def _wheel_skip(self, n: int) -> None:
        if self._state.value == FuState.EXECUTE:
            self._countdown.warp(self._countdown.value - n)

    def _finish(self, sample: DispatchSample) -> None:
        transfers = self.compute(sample).transfers(sample)
        if transfers:
            self._pending.nxt = transfers
            self._state.nxt = FuState.SEND
        else:
            self._state.nxt = FuState.IDLE  # Fig. 2.18 "Completion / No output"

    @property
    def state(self) -> FuState:
        return FuState(self._state.value)


class PipelinedFunctionalUnit(FunctionalUnit):
    """Thesis Fig. 2.19: fully pipelined unit with result FIFOs."""

    def __init__(
        self,
        name: str,
        word_bits: int,
        parent: Optional[Component] = None,
        pipeline_depth: int = 3,
        fifo_depth: Optional[int] = None,
    ):
        super().__init__(name, word_bits, parent)
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        self.pipeline_depth = pipeline_depth
        self.latency_cycles = pipeline_depth
        # "configure the FIFO buffers to hold more data elements than there
        # are pipeline stages" (thesis §2.3.4).
        self.fifo_depth = fifo_depth if fifo_depth is not None else pipeline_depth + 2
        if self.fifo_depth <= pipeline_depth:
            raise ValueError("fifo_depth must exceed pipeline_depth")
        # In-flight entries: tuples (remaining_cycles, sample).
        self._flight = self.reg("flight", None, reset=())
        # Completed transfers awaiting the arbiter.
        self._results = self.reg("results", None, reset=())
        # Instruction slots claimed against fifo_depth (claimed at dispatch,
        # released when the burst's last transfer is acknowledged).
        self._slots = self.reg("slots", 16, 0)

        @self.comb
        def _drive() -> None:
            self.dp.idle.set(1 if self._slots.value < self.fifo_depth else 0)
            results = self._results.value
            self.rp.present(results[0] if results else None)

        @self.seq
        def _tick() -> None:
            flight = self._flight.value
            if not (flight or self._results.value or self.dp.dispatch.value
                    or self.rp.ack.value):
                return  # empty pipeline: don't rebuild (or stage) anything
            results = list(self._results.value)
            slots = self._slots.value
            # Drain toward the arbiter.
            if self.rp.ack.value and results:
                first = results.pop(0)
                if first.last:
                    slots -= 1
            # Advance the pipeline.
            advanced = []
            for remaining, sample in flight:
                if remaining <= 1:
                    transfers = self.compute(sample).transfers(sample)
                    if transfers:
                        results.extend(transfers)
                    else:
                        slots -= 1  # no-output op retires immediately
                else:
                    advanced.append((remaining - 1, sample))
            # Accept a new dispatch.
            if self.dp.dispatch.value:
                advanced.append((self.pipeline_depth, self.dp.sample()))
                slots += 1
            self._flight.nxt = tuple(advanced)
            self._results.nxt = tuple(results)
            self._slots.nxt = slots

        self.wheel(self._wheel_horizon, self._wheel_skip)

    @property
    def busy(self) -> bool:
        """Work in flight in the pipeline or result FIFO.

        Distinct from ``idle``, which is an *acceptance* signal: an II=1
        pipeline keeps ``idle`` high while operations drain through it.
        """
        return bool(self._slots.value)

    def _wheel_horizon(self) -> Optional[int]:
        if self.dp.dispatch.value or self.rp.ack.value or self._results.value:
            return 0  # dispatch/drain edges do real work
        flight = self._flight.value
        if flight:
            # pure aging until the earliest in-flight op reaches its last stage
            d = min(r for r, _ in flight) - 1
            return d if d > 0 else 0
        return None

    def _wheel_skip(self, n: int) -> None:
        flight = self._flight.value
        if flight:
            self._flight.warp(tuple((r - n, s) for r, s in flight))

    @property
    def in_flight(self) -> int:
        return len(self._flight.value)

    @property
    def results_queued(self) -> int:
        return len(self._results.value)
