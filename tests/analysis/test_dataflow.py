"""Unit contracts of the dataflow engine: domain, transfer, solver, codegen.

The end-to-end behaviour (rules firing on seeded defects, presets staying
clean) lives in ``test_lint.py`` and the property suites; this file pins
the layers underneath — interval/known-bits algebra, abstract evaluation
of resolved expression trees, the fixpoint itself, and the width-only
facts the compiled backend consumes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.dataflow import analyze, analyze_design, vector_width_bits
from repro.analysis.dataflow import domain
from repro.analysis.dataflow.transfer import eval_expr, expr_signals
from repro.analysis.lint.model import build_design
from repro.hdl import Component
from repro.hdl.sim import Simulator
from repro.messages.channel import PRESETS
from repro.smem.array import lane_dtype
from repro.system import build_system


# -- the abstract domain ------------------------------------------------------


def test_const_and_interval_basics():
    c = domain.const(5)
    assert c.is_const and c.lo == c.hi == 5
    iv = domain.interval(3, 9)
    assert not iv.is_const and (iv.lo, iv.hi) == (3, 9)
    assert domain.interval(4, 4).is_const


def test_interval_arithmetic():
    a, b = domain.interval(1, 3), domain.const(10)
    assert (domain.add(a, b).lo, domain.add(a, b).hi) == (11, 13)
    assert (domain.sub(b, a).lo, domain.sub(b, a).hi) == (7, 9)
    m = domain.mul(domain.interval(2, 3), domain.interval(4, 5))
    assert (m.lo, m.hi) == (8, 15)


def test_bitand_refines_known_bits():
    masked = domain.bitand(domain.top(8), domain.const(0xF0))
    # the low nibble is proven zero
    assert masked.kmask & 0xF == 0xF and masked.kval & 0xF == 0
    assert masked.lo >= 0 and masked.hi <= 0xF0


def test_compare_decided_and_undecided():
    lt = domain.compare("<", domain.interval(0, 15), domain.const(16))
    assert lt.truthiness() is True
    maybe = domain.compare("<", domain.interval(0, 15), domain.const(10))
    assert maybe.truthiness() is None
    never = domain.compare(">", domain.interval(0, 7), domain.const(40))
    assert never.truthiness() is False


def test_truthiness():
    assert domain.const(0).truthiness() is False
    assert domain.interval(1, 5).truthiness() is True
    assert domain.interval(-3, -1).truthiness() is True
    assert domain.interval(0, 5).truthiness() is None


def test_join_covers_both_sides():
    j = domain.join(domain.const(2), domain.const(7))
    assert domain.contains(j, domain.const(2))
    assert domain.contains(j, domain.const(7))
    assert not domain.contains(j, domain.const(9))


def test_fits_is_the_width_proof():
    assert domain.interval(0, 15).fits(15)
    assert not domain.interval(21, 36).fits(15)   # the overflow fixture
    assert not domain.interval(-1, 3).fits(15)    # negatives never fit


def test_apply_mask_is_sound():
    clipped = domain.apply_mask(domain.interval(21, 36), 15)
    assert clipped.lo >= 0 and clipped.hi <= 15


def test_magnitudes_saturate_not_explode():
    huge = domain.mul(domain.const(domain.LIMIT), domain.const(domain.LIMIT))
    assert abs(huge.lo) <= domain.LIMIT and abs(huge.hi) <= domain.LIMIT


def test_vector_width_bits_lanes():
    assert vector_width_bits(1) == 8
    assert vector_width_bits(8) == 8
    assert vector_width_bits(9) == 16
    assert vector_width_bits(32) == 32
    assert vector_width_bits(33) == 64
    assert vector_width_bits(64) == 64
    with pytest.raises(ValueError):
        vector_width_bits(65)


def test_lane_dtype_narrows_and_clamps():
    assert lane_dtype(4) == np.dtype(np.uint8)
    assert lane_dtype(16) == np.dtype(np.uint16)
    assert lane_dtype(32) == np.dtype(np.uint32)
    assert lane_dtype(48) == np.dtype(np.uint64)
    # wider-than-64 words keep the uint64 lane (mask keeps them exact)
    assert lane_dtype(128) == np.dtype(np.uint64)


# -- the transfer function over resolved expression trees ---------------------


class _FakeSig:
    pass


def test_eval_expr_leaves_and_slices():
    s = _FakeSig()
    val = lambda sig: domain.top(8) if sig is s else None
    assert eval_expr(None, val) is None
    assert eval_expr(("const", 42), val).is_const
    got = eval_expr(("sig", s), val)
    assert (got.lo, got.hi) == (0, 255)
    b = eval_expr(("bit", s, 0), val)
    assert (b.lo, b.hi) == (0, 1)
    nib = eval_expr(("bits", s, 3, 0), val)
    assert (nib.lo, nib.hi) == (0, 15)


def test_eval_expr_bin_and_opaque():
    s = _FakeSig()
    val = lambda sig: domain.top(4)
    plus = eval_expr(("bin", "+", ("sig", s), ("const", 21)), val)
    assert (plus.lo, plus.hi) == (21, 36)
    assert eval_expr(("bin", "@@", ("sig", s), ("const", 1)), val) is None
    # one opaque operand poisons the expression, not the whole analysis
    val_none = lambda sig: None
    assert eval_expr(("bin", "+", ("sig", s), ("const", 1)), val_none) is None


def test_expr_signals_collects_leaves():
    s, t = _FakeSig(), _FakeSig()
    expr = ("bin", "+", ("sig", s), ("bin", "&", ("bits", t, 3, 0), ("const", 7)))
    assert expr_signals(expr) == {s, t}


# -- the solver on a live component -------------------------------------------


class _BoundedPair(Component):
    """An 8-bit counter plus a derived low-3-bit tap and a dead guard."""

    def __init__(self) -> None:
        super().__init__("bounded")
        self.cnt = self.reg("cnt", 8, 0)
        self.low3 = self.reg("low3", 8, 0)
        self.flag = self.reg("flag", 1, 0)

        @self.seq(pure=True)
        def _tick() -> None:
            self.cnt.nxt = (self.cnt.value + 1) & 0xFF
            self.low3.nxt = self.cnt.value & 0x7
            if self.low3.value > 40:  # provably never: low3 ∈ [0, 7]
                self.flag.nxt = 1


def test_solver_proves_derived_bound():
    top = _BoundedPair()
    res = analyze(top)
    av = res.value_of(top.low3)
    assert av is not None
    assert av.hi <= 7, "the &0x7 write bound did not reach the fixpoint"
    assert top.low3 in res.tracked


def test_solver_records_site_and_branch_facts():
    top = _BoundedPair()
    res = analyze(top)
    low3_sites = [f for f in res.site_facts if f.target is top.low3]
    assert low3_sites and all(f.pre is not None and f.pre.hi <= 7
                              for f in low3_sites)
    dead = [b for b in res.branch_facts
            if b.verdict is False and b.signal_dependent]
    assert dead, "the provably-dead guard was not proven dead"


def test_solver_is_memoized_per_design():
    design = build_design(_BoundedPair())
    assert analyze_design(design) is analyze_design(design)


def test_solver_terminates_on_widening():
    """An unbounded-looking accumulator must widen, not loop."""

    class Accum(Component):
        def __init__(self) -> None:
            super().__init__("accum")
            self.acc = self.reg("acc", 32, 0)

            @self.seq(pure=True)
            def _tick() -> None:
                self.acc.nxt = self.acc.value + 1  # no mask in the source

        def build_for_lint(self):  # pragma: no cover - convention only
            return self

    top = Accum()
    res = analyze(top)
    av = res.value_of(top.acc)
    # the kernel masks on commit, so the value bound is still the width
    assert av is not None and av.hi <= (1 << 32) - 1
    assert res.rounds >= 1


# -- range-informed codegen ---------------------------------------------------


class _Narrow(Component):
    """Provably-fitting stores and a width-decided branch for the codegen."""

    def __init__(self) -> None:
        super().__init__("narrow")
        self.a = self.reg("a", 4, 0)
        self.b = self.reg("b", 8, 0)

        @self.seq(pure=True)
        def _tick() -> None:
            self.b.nxt = self.a.value + 3        # [3, 18] fits 8 bits
            if self.a.value < 16:                # width-proven: always taken
                self.a.nxt = (self.a.value + 1) & 0xF


def test_compiled_backend_elides_and_folds():
    sim = Simulator(_Narrow(), backend="compiled")
    sim.reset()
    sim.step(4)
    ks = sim.kernel_stats
    assert ks.masks_elided >= 1
    assert ks.branches_folded >= 1
    assert "masks_elided" in ks.as_dict()


def test_elision_preserves_observable_state():
    def run(backend):
        top = _Narrow()
        sim = Simulator(top, backend=backend or "event")
        sim.reset()
        sim.step(40)
        return top.a.value, top.b.value, sim.now

    assert run(None) == run("compiled")


# -- the channel presets ------------------------------------------------------


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_proves_bounds_without_widening(preset):
    built = build_system(channel=PRESETS[preset], lint="off")
    res = analyze(built.soc, sim=built.sim)
    assert len(res.tracked) > 0, f"{preset}: dataflow tracked no signals"
    assert not res.widened, f"{preset}: widened {sorted(map(str, res.widened))}"
