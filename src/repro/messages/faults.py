"""Deterministic link-fault injection.

The framework is parametric in the host link (§III) — and a real link is a
failure domain, not a perfect pipe.  :class:`FaultSpec` describes a
reproducible fault schedule; :class:`FaultyLine` is a :class:`DelayLine`
that applies it: word drops, single-bit flips, word duplications and a
permanent dead-link stall, each decided by a counter-indexed PRNG so the
same spec always injects the same faults at the same points in the word
stream, regardless of cycle-level timing.

Plug a spec into one or both directions of a system::

    build_system(channel=FAST_BUS, reliable=True,
                 faults=FaultSpec(seed=7, drop_rate=0.01, flip_rate=0.01))

Without the reliability layer (``reliable=True``) the injected faults are
*undetected* — that configuration exists to demonstrate the failure modes
the checksummed framing closes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..hdl import Component
from .channel import ChannelSpec, DelayLine

#: Multiplier decorrelating per-word fate streams drawn from one seed.
_SEED_STRIDE = 1_000_003

#: ``random.Random``'s C-level ``seed``: the Python wrapper adds only type
#: checks and a ``gauss`` reset, and a fate draws no ``gauss`` value
_reseed = random.Random.__base__.seed


@dataclass(frozen=True)
class FaultSpec:
    """A reproducible fault schedule for one link direction.

    Rates are per *accepted word* and mutually exclusive per word (a word is
    dropped, flipped, duplicated, or clean).  ``dead_after_words`` kills the
    line permanently once that many words have been offered: nothing is
    accepted or delivered afterwards, and words already in flight freeze —
    the board fell off the bus.

    ``schedule`` pins individual word fates for targeted tests: a tuple of
    ``(index, fate)`` or ``(index, fate, xor)`` entries, where ``fate`` is
    one of ``"ok"``, ``"drop"``, ``"flip"``, ``"dup"``.  Scheduled entries
    override the rates at those indices; each index may be pinned at most
    once — overlapping entries would silently shadow each other, so they
    are rejected outright.
    """

    seed: int = 0
    drop_rate: float = 0.0
    flip_rate: float = 0.0
    dup_rate: float = 0.0
    dead_after_words: Optional[int] = None
    schedule: tuple = ()

    _FATES = ("ok", "drop", "flip", "dup")

    def __post_init__(self) -> None:
        for name in ("drop_rate", "flip_rate", "dup_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        if self.drop_rate + self.flip_rate + self.dup_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        if self.dead_after_words is not None and self.dead_after_words < 0:
            raise ValueError("dead_after_words must be >= 0")
        seen: set[int] = set()
        for entry in self.schedule:
            if not (isinstance(entry, tuple) and len(entry) in (2, 3)):
                raise ValueError(
                    "schedule entries are (index, fate) or (index, fate, xor) "
                    f"tuples, got {entry!r}"
                )
            index, fate = entry[0], entry[1]
            if not (isinstance(index, int) and index >= 0):
                raise ValueError(f"schedule index must be a non-negative int, got {index!r}")
            if fate not in self._FATES:
                raise ValueError(f"schedule fate must be one of {self._FATES}, got {fate!r}")
            if index in seen:
                raise ValueError(
                    f"schedule pins word {index} more than once — overlapping "
                    "entries would silently shadow each other"
                )
            seen.add(index)

    @property
    def any_faults(self) -> bool:
        return (
            self.drop_rate > 0
            or self.flip_rate > 0
            or self.dup_rate > 0
            or self.dead_after_words is not None
            or any(entry[1] != "ok" for entry in self.schedule)
        )

    def fate(self, index: int, rng: Optional[random.Random] = None) -> tuple[str, int]:
        """The fate of the ``index``-th word: ("ok"|"drop"|"flip"|"dup", xor).

        Pure function of (seed, index) — the schedule is a property of the
        spec, not of simulation timing.  ``rng``, if given, is reseeded and
        drawn from instead of constructing a generator for this one word.
        """
        if self.dead_after_words is not None and index >= self.dead_after_words:
            return "dead", 0
        key = self.seed * _SEED_STRIDE + index
        if rng is None:
            rng = random.Random(key)
        else:
            _reseed(rng, key)
        for entry in self.schedule:
            if entry[0] == index:
                fate = entry[1]
                if fate != "flip":
                    return fate, 0
                xor = entry[2] if len(entry) == 3 else 1 << rng.randrange(32)
                return "flip", xor & 0xFFFF_FFFF
        u = rng.random()
        if u < self.drop_rate:
            return "drop", 0
        if u < self.drop_rate + self.flip_rate:
            return "flip", 1 << rng.randrange(32)
        if u < self.drop_rate + self.flip_rate + self.dup_rate:
            return "dup", 0
        return "ok", 0


@dataclass
class FaultStats:
    """What a :class:`FaultyLine` actually did to the word stream."""

    words_offered: int = 0    # words the sender pushed at the line
    words_dropped: int = 0
    bits_flipped: int = 0
    words_duplicated: int = 0
    died_at_word: Optional[int] = None
    #: words the sender presented after the line died — never accepted, so
    #: invisible to words_offered; this is the sender-side loss a dead link
    #: causes beyond the in-flight words it froze
    stalled_after_death: int = 0

    def as_dict(self) -> dict:
        return {
            "words_offered": self.words_offered,
            "words_dropped": self.words_dropped,
            "bits_flipped": self.bits_flipped,
            "words_duplicated": self.words_duplicated,
            "dead": self.died_at_word is not None,
            "stalled_after_death": self.stalled_after_death,
        }

    @property
    def faults_injected(self) -> int:
        return self.words_dropped + self.bits_flipped + self.words_duplicated


class FaultyLine(DelayLine):
    """A :class:`DelayLine` with a seeded fault schedule applied at the
    acceptance point.

    Cycle timing is identical to the fault-free line for clean words (an
    all-zero-rate spec behaves exactly like ``DelayLine``), so goodput
    comparisons across fault rates measure recovery cost, not model skew.
    """

    def __init__(
        self,
        name: str,
        spec: ChannelSpec,
        faults: FaultSpec,
        parent: Optional[Component] = None,
    ):
        self.faults = faults
        self.fault_stats = FaultStats()
        # reseeded for every word's fate; one per line, never shared.  Made
        # at the first word: a generator keeps its state in C, which the
        # build cache cannot digest
        self._rng: Optional[random.Random] = None
        super().__init__(name, spec, parent=parent)
        # Dead-link latch: a register, so the combinational ready/valid
        # gates are properly tracked by the event-driven settle scheduler.
        self._dead = self.reg("dead", 1, 0)
        # One count per word the sender presents against the dead line: the
        # latch holds while `valid` stays up (a stalled sender re-presents
        # the same word every cycle) and re-arms when valid drops, so the
        # counter is per-word, not per-cycle — and therefore invariant
        # under time-wheel fast-forward, which can only skip cycles on
        # which the latch state would not change.
        self._stalled = self.reg("stalled", 1, 0)

        @self.seq(pure=True)
        def _count_stalled() -> None:
            # both reads are unconditional, so the event kernel discovers
            # the same wake set the compiled slot is given
            presented = self._dead.value & self.inp.valid.value
            if presented != self._stalled.value:
                self._stalled.nxt = presented
                if presented:
                    self.fault_stats.stalled_after_death += 1

        self.lint_suppress(
            "contract.impure-pure-seq",
            "stalled_after_death moves only when the stall latch flips, "
            "which always stages it; quiet edges are mutation-free",
        )

        @self.on_reset
        def _clear() -> None:
            self.fault_stats = FaultStats()

    # -- DelayLine injection hooks -------------------------------------------------

    def _accepting(self) -> bool:
        return not self._dead.value

    def _delivering(self) -> bool:
        return not self._dead.value

    def _admit(self, flight: tuple, word: int) -> tuple:
        stats = self.fault_stats
        index = stats.words_offered
        stats.words_offered = index + 1
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(0)
        fate, xor = self.faults.fate(index, rng)
        if fate == "dead":
            # the word that crossed the death threshold is lost with the line
            self._dead.nxt = 1
            if stats.died_at_word is None:
                stats.died_at_word = index
            return flight
        if (
            self.faults.dead_after_words is not None
            and index + 1 >= self.faults.dead_after_words
        ):
            self._dead.nxt = 1
            if stats.died_at_word is None:
                stats.died_at_word = index + 1
        if fate == "drop":
            stats.words_dropped += 1
            return flight
        entry = (self._epoch + self.spec.latency_cycles - 1, word)
        if fate == "flip":
            stats.bits_flipped += 1
            entry = (entry[0], (word ^ xor) & 0xFFFF_FFFF)
        if fate == "dup":
            stats.words_duplicated += 1
            return flight + (entry, entry)
        return flight + (entry,)

    @property
    def dead(self) -> bool:
        """True once the dead-link stall has engaged."""
        return bool(self._dead.value)
