"""Host-side accelerators for the smart-memory suite.

Mirrors :class:`repro.xisort.algorithm.XiSortAccelerator`: each class
drives one smart-memory unit through an open :class:`repro.host.Session`
— RTM dispatches over the message channel, results chained through
coprocessor registers under the scoreboard, flag reads only where the
host actually branches.  Build the system with
``build_system(registry=smem_suite_registry())`` (or register the
individual factories) before opening the session.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..host.session import Session
from ..isa import instructions as ins
from ..isa.opcodes import Opcode
from .histogram import (
    H_FLAG_VALID,
    H_INC,
    H_NNZ,
    H_PEAK,
    H_READ,
    H_RESET,
    H_SAMPLE,
    H_TOTAL,
)
from .match import (
    M_COUNT,
    M_FLAG_MATCH,
    M_FLAG_VALID,
    M_LEN,
    M_PAT,
    M_READ,
    M_RESET,
    M_RESTART,
    M_STEP,
)
from .scan import (
    SC_ADD,
    SC_COUNT,
    SC_FLAG_VALID,
    SC_MAX,
    SC_MIN,
    SC_PUSH,
    SC_READ_AT,
    SC_RESET,
    SC_SCAN,
    SC_TOTAL,
)

__all__ = ["ScanAccelerator", "HistogramAccelerator", "MatchAccelerator"]


class _SmemAccelerator:
    """Common register plumbing for the suite accelerators."""

    def __init__(self, session: Session, unit_code: int):
        self.session = session
        self.unit_code = unit_code
        self.r_val = session.alloc()   # operand staging
        self.r_out = session.alloc()   # primary results
        self.r_aux = session.alloc()   # secondary results
        self.f_status = session.alloc_flag()

    def _dispatch(self, variety: int, src1: int = 0, src2: int = 0,
                  dst1: int = 0, dst2: int = 0, dst_flag: int = 0) -> None:
        self.session.driver.execute(
            ins.dispatch(self.unit_code, variety, dst1=dst1, dst2=dst2,
                         src1=src1, src2=src2, dst_flag=dst_flag)
        )

    def _query(self, variety: int) -> int:
        """Zero-operand query → dst1 → host read."""
        self._dispatch(variety, dst1=self.r_out)
        return self.session.read(self.r_out)

    def _query_flagged(self, variety: int, flag_bit: int) -> Optional[int]:
        """Zero-operand query whose validity arrives in the flag register."""
        self._dispatch(variety, dst1=self.r_out, dst_flag=self.f_status)
        if not self.session.driver.read_flags(self.f_status) & flag_bit:
            return None
        return self.session.read(self.r_out)

    def _indexed_query(self, variety: int, index: int, flag_bit: int) -> Optional[int]:
        """One-operand query with a validity flag (READ_AT-shaped)."""
        self.session.write(self.r_val, index)
        self._dispatch(variety, src1=self.r_val, dst1=self.r_out,
                       dst_flag=self.f_status)
        if not self.session.driver.read_flags(self.f_status) & flag_bit:
            return None
        return self.session.read(self.r_out)


class ScanAccelerator(_SmemAccelerator):
    """Prefix scan / reduce operations over an open session."""

    def __init__(self, session: Session, unit_code: int = Opcode.SCAN):
        super().__init__(session, unit_code)

    def reset(self) -> None:
        self._dispatch(SC_RESET)

    def push(self, value: int) -> None:
        self.session.write(self.r_val, value)
        self._dispatch(SC_PUSH, src1=self.r_val)

    def load(self, values: Sequence[int]) -> None:
        for v in values:
            self.push(v)

    def prefix_sum(self) -> int:
        """In-place inclusive prefix sum; returns the grand total."""
        self._dispatch(SC_SCAN, dst1=self.r_out)
        return self.session.read(self.r_out)

    def total(self) -> Optional[int]:
        return self._query_flagged(SC_TOTAL, SC_FLAG_VALID)

    def minimum(self) -> Optional[int]:
        return self._query_flagged(SC_MIN, SC_FLAG_VALID)

    def maximum(self) -> Optional[int]:
        return self._query_flagged(SC_MAX, SC_FLAG_VALID)

    def count(self) -> int:
        return self._query(SC_COUNT)

    def read_at(self, index: int) -> Optional[int]:
        return self._indexed_query(SC_READ_AT, index, SC_FLAG_VALID)

    def add_all(self, addend: int) -> None:
        self.session.write(self.r_val, addend)
        self._dispatch(SC_ADD, src1=self.r_val)


class HistogramAccelerator(_SmemAccelerator):
    """Histogram operations over an open session."""

    def __init__(self, session: Session, unit_code: int = Opcode.HISTO):
        super().__init__(session, unit_code)

    def reset(self) -> None:
        self._dispatch(H_RESET)

    def increment(self, bin_index: int) -> None:
        self.session.write(self.r_val, bin_index)
        self._dispatch(H_INC, src1=self.r_val)

    def sample(self, value: int) -> None:
        self.session.write(self.r_val, value)
        self._dispatch(H_SAMPLE, src1=self.r_val)

    def load(self, samples: Iterable[int]) -> None:
        for v in samples:
            self.sample(v)

    def read_bin(self, bin_index: int) -> Optional[int]:
        return self._indexed_query(H_READ, bin_index, H_FLAG_VALID)

    def total(self) -> int:
        self._dispatch(H_TOTAL, dst1=self.r_out, dst_flag=self.f_status)
        return self.session.read(self.r_out)

    def peak(self) -> Optional[tuple[int, int]]:
        """(bin index, count) of the leftmost fullest bin, None when empty."""
        self._dispatch(H_PEAK, dst1=self.r_out, dst2=self.r_aux,
                       dst_flag=self.f_status)
        if not self.session.driver.read_flags(self.f_status) & H_FLAG_VALID:
            return None
        return self.session.read(self.r_out), self.session.read(self.r_aux)

    def nonzero_bins(self) -> int:
        return self._query(H_NNZ)


class MatchAccelerator(_SmemAccelerator):
    """Streaming string-match operations over an open session."""

    def __init__(self, session: Session, unit_code: int = Opcode.MATCH):
        super().__init__(session, unit_code)

    def reset(self) -> None:
        self._dispatch(M_RESET)

    def set_pattern(self, pattern: Iterable[int]) -> None:
        self.reset()
        for ch in pattern:
            self.session.write(self.r_val, ch)
            self._dispatch(M_PAT, src1=self.r_val)

    def step(self, char: int) -> bool:
        """One text character; True when a match ended on it.

        The hit counter lands in ``r_out`` on the coprocessor — read it
        with :meth:`hits` only when needed; streaming costs one flag
        round-trip per character.
        """
        self.session.write(self.r_val, char)
        self._dispatch(M_STEP, src1=self.r_val, dst1=self.r_out,
                       dst_flag=self.f_status)
        return bool(self.session.driver.read_flags(self.f_status) & M_FLAG_MATCH)

    def feed(self, text: Iterable[int]) -> list[int]:
        """Stream a text; returns the end positions of every match."""
        return [i for i, ch in enumerate(text) if self.step(ch)]

    def hits(self) -> int:
        return self._query(M_COUNT)

    def pattern_length(self) -> int:
        return self._query(M_LEN)

    def restart(self) -> None:
        self._dispatch(M_RESTART)

    def read_pattern_at(self, index: int) -> Optional[int]:
        return self._indexed_query(M_READ, index, M_FLAG_VALID)
