"""High-level host API: register allocation and typed coprocessor calls.

This is the layer an application programmer uses — the software half of
the paper's partitioning ("the main program is written in C or any other
programming language", Fig. 1 caption).  It wraps the driver with:

* a register allocator over the configured register file,
* typed operation helpers for the case-study units,
* multi-word (arbitrary precision) arithmetic built from ADC/SBB carry
  chains — the "multi-word operation ... through an externally provided
  carry bit" of thesis §3.2.2.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from ..isa import instructions as ins
from ..isa.opcodes import FLAG_CARRY, ArithOp, LogicOp, Opcode
from ..system.builder import BuiltSystem, build_system
from .driver import CoprocessorDriver
from .engine import HostFuture


class OutOfRegisters(RuntimeError):
    """The register allocator has no free register left."""


class Session:
    """An open connection to a coprocessor with managed registers."""

    def __init__(
        self,
        system: Optional[BuiltSystem] = None,
        reg_range: Optional[range] = None,
        flag_range: Optional[range] = None,
        driver: Optional[CoprocessorDriver] = None,
    ):
        """Open a session, optionally confined to a register partition.

        ``reg_range``/``flag_range`` restrict the allocator to a sub-range
        of the register files — the software convention that lets several
        CPUs (or several libraries on one CPU) share a coprocessor without
        trampling each other (paper Fig. 1.1).  Without ``system`` the
        session opens on a default :func:`~repro.system.build_system`.
        """
        self.system = system if system is not None else build_system()
        self.driver = driver if driver is not None else CoprocessorDriver(self.system)
        cfg = self.system.config
        regs = reg_range if reg_range is not None else range(cfg.n_regs)
        flags = flag_range if flag_range is not None else range(1, cfg.n_flag_regs)
        if regs and not (0 <= regs[0] and regs[-1] < cfg.n_regs):
            raise ValueError(f"reg_range {regs} outside the register file")
        if flags and not (0 <= flags[0] and flags[-1] < cfg.n_flag_regs):
            raise ValueError(f"flag_range {flags} outside the flag file")
        self._free = list(reversed(regs))
        self._free_flags = list(reversed(flags))  # f0 kept as scratch by default

    # -- register management -------------------------------------------------------

    def alloc(self) -> int:
        """Claim a free main register."""
        if not self._free:
            raise OutOfRegisters("no free data register")
        return self._free.pop()

    def alloc_many(self, n: int) -> list[int]:
        return [self.alloc() for _ in range(n)]

    def alloc_flag(self) -> int:
        if not self._free_flags:
            raise OutOfRegisters("no free flag register")
        return self._free_flags.pop()

    def free(self, *regs: int) -> None:
        for r in regs:
            self._free.append(r)

    def free_flag(self, *regs: int) -> None:
        for r in regs:
            self._free_flags.append(r)

    @contextmanager
    def scratch(self, n: int = 1) -> Iterator[list[int]]:
        """Temporarily claim ``n`` registers."""
        regs = self.alloc_many(n)
        try:
            yield regs
        finally:
            self.free(*regs)

    # -- scalar operations -----------------------------------------------------------

    def write(self, reg: int, value: int) -> None:
        self.driver.write_reg(reg, value)

    def read(self, reg: int) -> int:
        return self.driver.read_reg(reg)

    def put(self, value: int) -> int:
        """Allocate a register and load a value into it."""
        reg = self.alloc()
        self.write(reg, value)
        return reg

    def arith(
        self,
        op: ArithOp,
        a: int,
        b: int = 0,
        dst: Optional[int] = None,
        flag_out: int = 0,
        flag_in: int = 0,
    ) -> int:
        """Issue one arithmetic-unit instruction; returns the dst register."""
        if dst is None:
            dst = self.alloc()
        instr = ins.dispatch(
            Opcode.ARITH, int(op), dst1=dst, src1=a, src2=b,
            dst_flag=flag_out, src_flag=flag_in,
        )
        self.driver.execute(instr)
        return dst

    def logic(self, op: LogicOp, a: int, b: int = 0, dst: Optional[int] = None,
              flag_out: int = 0) -> int:
        """Issue one logic-unit instruction; returns the dst register."""
        if dst is None:
            dst = self.alloc()
        instr = ins.dispatch(Opcode.LOGIC, int(op), dst1=dst, src1=a, src2=b,
                             dst_flag=flag_out)
        self.driver.execute(instr)
        return dst

    def compute(self, op: ArithOp | LogicOp, x: int, y: int = 0) -> int:
        """Round-trip helper: load operands, run one op, fetch the result.

        The three registers are freed even when the op raises."""
        with self.scratch(3) as (ra, rb, rd):
            self.write(ra, x)
            self.write(rb, y)
            if isinstance(op, ArithOp):
                self.arith(op, ra, rb, dst=rd)
            else:
                self.logic(op, ra, rb, dst=rd)
            return self.read(rd)

    def read_carry(self, flag_reg: int) -> int:
        return self.driver.read_flags(flag_reg) & FLAG_CARRY

    # -- asynchronous operations (the host engine's futures) --------------------------

    def read_async(self, reg: int) -> HostFuture:
        """GET a register without blocking; resolves to its integer value."""
        return self.driver.read_reg_async(reg)

    def _alloc_async(self) -> int:
        """Claim a register, throttling on in-flight async work.

        Each in-flight ``compute_async`` parks three registers until its
        result streams back, so the register file is a windowed resource
        just like tags: when it runs dry, pump the engine until a
        completion callback frees one instead of raising.  Raises
        :class:`OutOfRegisters` only when nothing is in flight — a genuinely
        over-committed file — and otherwise the timeouts of
        ``HostEngine.pump_until``.
        """
        engine = self.driver.engine
        engine.pump_until(lambda: bool(self._free) or engine.idle,
                          what="no register freed")
        return self.alloc()

    def compute_async(self, op: ArithOp | LogicOp, x: int, y: int = 0) -> HostFuture:
        """`compute` without the wait: operands load, the op issues, and the
        result GET is tracked by the engine.  The operand/result registers
        are freed automatically when the future completes, so a windowed
        batch recycles registers as results stream back; a batch larger
        than the register file self-throttles instead of raising."""
        ra = self._alloc_async()
        self.write(ra, x)
        rb = self._alloc_async()
        self.write(rb, y)
        rd = self._alloc_async()
        if isinstance(op, ArithOp):
            self.arith(op, ra, rb, dst=rd)
        else:
            self.logic(op, ra, rb, dst=rd)
        future = self.driver.read_reg_async(rd)
        future.add_done_callback(lambda _f: self.free(ra, rb, rd))
        return future

    @contextmanager
    def pipeline(self) -> Iterator["Pipeline"]:
        """Batch scope that defers every wait until exit.

        Inside the block, ``p.compute``/``p.read`` mirror the synchronous
        calls but return futures immediately; requests overlap on the link
        up to the engine's in-flight window.  On clean exit all issued
        futures are waited (so every ``.result()`` afterwards is instant);
        if the block raises, nothing is waited.
        """
        p = Pipeline(self)
        yield p
        p.wait()

    # -- multi-word arithmetic (thesis §3.2.2 carry chains) ---------------------------

    def write_wide(self, value: int, limbs: int) -> list[int]:
        """Load an arbitrary-precision value into ``limbs`` registers, LS first."""
        mask = self.system.config.word_mask
        width = self.system.config.word_bits
        regs = self.alloc_many(limbs)
        for i, reg in enumerate(regs):
            self.write(reg, (value >> (width * i)) & mask)
        return regs

    def read_wide(self, regs: Sequence[int]) -> int:
        width = self.system.config.word_bits
        value = 0
        for i, reg in enumerate(regs):
            value |= self.read(reg) << (width * i)
        return value

    def add_wide(self, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
        """Multi-word addition via an ADD/ADC carry chain.

        Returns (result registers LS-first, final carry flag register).
        """
        if len(a) != len(b):
            raise ValueError("operand limb counts differ")
        carry_flag = self.alloc_flag()
        out: list[int] = []
        for i, (ra, rb) in enumerate(zip(a, b)):
            rd = self.alloc()
            if i == 0:
                self.arith(ArithOp.ADD, ra, rb, dst=rd, flag_out=carry_flag)
            else:
                self.arith(ArithOp.ADC, ra, rb, dst=rd,
                           flag_out=carry_flag, flag_in=carry_flag)
            out.append(rd)
        return out, carry_flag

    def sub_wide(self, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
        """Multi-word subtraction via a SUB/SBB borrow chain."""
        if len(a) != len(b):
            raise ValueError("operand limb counts differ")
        carry_flag = self.alloc_flag()
        out: list[int] = []
        for i, (ra, rb) in enumerate(zip(a, b)):
            rd = self.alloc()
            if i == 0:
                self.arith(ArithOp.SUB, ra, rb, dst=rd, flag_out=carry_flag)
            else:
                self.arith(ArithOp.SBB, ra, rb, dst=rd,
                           flag_out=carry_flag, flag_in=carry_flag)
            out.append(rd)
        return out, carry_flag

    # -- lifecycle ------------------------------------------------------------------

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Wait for all in-flight work to finish; returns cycles consumed."""
        return self.driver.run_until_quiet(max_cycles)

    def close(self) -> None:
        self.driver.halt_and_wait()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


class Pipeline:
    """A deferred-wait batch over one session (see :meth:`Session.pipeline`).

    Tracks every future issued through it so the context manager can wait
    them all at exit; futures remain usable outside the block (they are
    resolved by then).
    """

    def __init__(self, session: Session):
        self.session = session
        self.futures: list[HostFuture] = []

    def _track(self, future: HostFuture) -> HostFuture:
        self.futures.append(future)
        return future

    def compute(self, op: ArithOp | LogicOp, x: int, y: int = 0) -> HostFuture:
        """Non-blocking :meth:`Session.compute`; resolves to the result value."""
        return self._track(self.session.compute_async(op, x, y))

    def read(self, reg: int) -> HostFuture:
        """Non-blocking :meth:`Session.read`."""
        return self._track(self.session.read_async(reg))

    def read_flags(self, flag_reg: int) -> HostFuture:
        """Non-blocking flag-vector readback."""
        return self._track(self.session.driver.read_flags_async(flag_reg))

    def wait(self, max_cycles: int = 1_000_000) -> None:
        """Pump until every tracked future has completed."""
        for future in self.futures:
            future.wait(max_cycles)
        for future in self.futures:
            if future.exception() is not None:
                raise future.exception()

    def results(self, max_cycles: int = 1_000_000) -> list:
        """Results of every tracked future, in issue order."""
        return [f.result(max_cycles) for f in self.futures]
