"""Value Change Dump (VCD) export for simulated designs.

Writes standard IEEE 1364 VCD files so traces of the simulated framework can
be inspected in any waveform viewer (GTKWave etc.) — the debugging workflow
a VHDL engineer would use on the real system.  Only fixed-width signals are
dumped; payload (object) signals are skipped because VCD has no sensible
representation for them.
"""

from __future__ import annotations

import io
from operator import attrgetter
from typing import Iterable, Optional, TextIO

from .sim import Simulator
from .signal import Signal

_ID_ALPHABET = "".join(chr(c) for c in range(33, 127))

#: a signal's current value, read without read tracking
_VALUE = attrgetter("_value")


def _identifier(index: int) -> str:
    """Compact VCD identifier for a signal index."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_ALPHABET))
        chars.append(_ID_ALPHABET[rem])
    return "".join(chars)


class VcdWriter:
    """Streams value changes of selected signals into a VCD file.

    By default the writer attaches as a *plain* per-cycle observer, which
    (by design) vetoes time-wheel fast-forward: every cycle is executed and
    sampled, so the dump is exact for every signal including hidden
    wheel-aged counters.  Passing ``compress_idle=True`` attaches with a
    compressed-idle callback instead, keeping fast-forward alive: skipped
    runs emit nothing (a jump certifies the traced state held still), so
    the dump stays bit-identical to a per-cycle run for any signal the
    wheel does not silently age — i.e. architectural state, ports and
    streams.  Hidden pacing counters (a UART bit phase, a link's idle
    countdown) are batch-aged during jumps and would show stair-steps
    instead of ramps; select signals explicitly when compressing.
    """

    def __init__(
        self,
        sim: Simulator,
        stream: TextIO,
        signals: Optional[Iterable[Signal]] = None,
        timescale: str = "1 ns",
        clock_period_ns: int = 20,
        compress_idle: bool = False,
    ):
        picked = list(signals) if signals is not None else list(sim.top.all_signals())
        self.signals = [s for s in picked if s.width is not None]
        self.sim = sim
        self.stream = stream
        self.clock_period_ns = clock_period_ns
        # keyed by signal identity: hierarchical names need not be unique
        # across hand-built test hierarchies, and identity keys skip string
        # hashing in the per-cycle sampling loop
        self._ids = {id(s): _identifier(i) for i, s in enumerate(self.signals)}
        self._last: list = []  # the values at the last sample
        self._write_header(timescale)
        self._dump_initial()
        if compress_idle:
            sim.add_observer(self._sample, on_skip=self._on_skip)
        else:
            sim.add_observer(self._sample)

    def _write_header(self, timescale: str) -> None:
        w = self.stream.write
        w("$date reproduction run $end\n")
        w("$version repro.hdl VCD writer $end\n")
        w(f"$timescale {timescale} $end\n")
        w("$scope module top $end\n")
        for sig in self.signals:
            ident = self._ids[id(sig)]
            name = sig.name.replace(" ", "_")
            w(f"$var wire {sig.width} {ident} {name} $end\n")
        w("$upscope $end\n$enddefinitions $end\n")

    def _emit(self, sig: Signal, value: int) -> None:
        ident = self._ids[id(sig)]
        if sig.width == 1:
            self.stream.write(f"{value & 1}{ident}\n")
        else:
            self.stream.write(f"b{value:b} {ident}\n")

    def _dump_initial(self) -> None:
        self.stream.write("#0\n$dumpvars\n")
        self._last = list(map(_VALUE, self.signals))
        for sig, value in zip(self.signals, self._last):
            self._emit(sig, value)
        self.stream.write("$end\n")

    def _sample(self, cycle: int) -> None:
        now = list(map(_VALUE, self.signals))
        if now == self._last:
            return
        self.stream.write(f"#{cycle * self.clock_period_ns}\n")
        for sig, old, value in zip(self.signals, self._last, now):
            if value != old:
                self._emit(sig, value)
        self._last = now

    def _on_skip(self, cycle: int, skipped: int) -> None:
        """Compressed idle run: nothing to emit.

        The jump's precondition is that no traced (non-warped) signal can
        change across the skipped edges, and VCD encodes changes only, so
        a silent idle run is exactly what a per-cycle sampler would write.
        """

    def detach(self) -> None:
        """Stop sampling; restores the simulator's no-observer fast path."""
        self.sim.remove_observer(self._sample)


def trace_to_string(sim: Simulator, signals: Iterable[Signal], cycles: int) -> str:
    """Run ``cycles`` steps while capturing a VCD trace; return the VCD text."""
    buf = io.StringIO()
    VcdWriter(sim, buf, signals)
    sim.step(cycles)
    return buf.getvalue()
