"""The lint fixtures' defects are real: fast kernels actually diverge.

The contract rules exist because a dishonest declaration does not crash —
it silently desynchronises the event/wheel kernels from the exhaustive
reference.  This suite closes the loop on two seeded-defect fixtures from
``tests/analysis/lint_fixtures``: the very designs the checker flags are
run under both kernels and shown to disagree, so the rules are pinned to
observable miscomputation, not style.

(The converse — lint-clean designs never diverge — is the kernel
equivalence suite next door.)
"""

from __future__ import annotations

import pytest

from repro.hdl.sim import Simulator

from tests.analysis.lint_fixtures import (
    impure_pure_seq,
    overflow_divergence,
    undeclared_read,
)
from tests.properties.test_prop_kernel_equiv import BACKENDS, _dual_trace


def _final_states(build, drive, attr):
    """Run under each kernel; return {backend: getattr(top, attr)}."""
    out = {}
    for backend in BACKENDS:
        top = build()
        sim = Simulator(top, backend=backend)
        sim.reset()
        drive(sim, top)
        out[backend] = getattr(top, attr)
    return out


def test_hidden_comb_read_diverges_between_kernels():
    """The undeclared-read fixture: the event kernel serves a stale gate.

    ``_gate``'s output depends on hidden ``_mode``, which the edge process
    flips while the tracked input holds still.  The exhaustive kernel
    re-settles everything and sees the flip; the event kernel has no edge
    in ``_gate``'s read set to wake it, so ``out`` goes stale — exactly
    what contract.hidden-comb-read predicts.
    """

    def drive(sim, top):
        top.inp.force(0x0F)   # held constant: only the hidden mode moves
        sim.step(12)          # _mode flips every 4th edge

    traces = _dual_trace(undeclared_read.build, drive)
    vcd_ex, now_ex = traces["exhaustive"]
    vcd_ev, now_ev = traces["event"]
    assert now_ex == now_ev
    assert vcd_ex != vcd_ev, (
        "kernels agreed on the hidden-comb-read fixture — the defect the "
        "rule flags is no longer observable"
    )


def test_hidden_comb_read_stale_value():
    """Pin the direction of the divergence: event holds the pre-flip value."""

    def drive(sim, top):
        top.inp.force(0x0F)
        sim.step(6)  # past the first mode flip (after edge 4)

    finals = {}
    for backend in BACKENDS:
        top = undeclared_read.build()
        sim = Simulator(top, backend=backend)
        sim.reset()
        drive(sim, top)
        finals[backend] = top.out.value
    assert finals["exhaustive"] == 0xF0   # mode flipped: inverted
    assert finals["event"] == 0x0F        # stale pass-through


@pytest.mark.parametrize("wheel", [False, True], ids=["event", "event+wheel"])
def test_impure_pure_seq_loses_hidden_work(wheel):
    """The impure-pure fixture: dormancy drops the hidden tally.

    Once the countdown stages nothing, the pure-declared process is
    disarmed (and, with the wheel, whole idle spans are skipped), so the
    hidden ``ticks`` counter stops.  The exhaustive kernel runs every edge
    and keeps counting — the lost work contract.impure-pure-seq describes.
    """
    n = 20

    def run(backend, use_wheel):
        top = impure_pure_seq.build()
        sim = Simulator(top, backend=backend, wheel=use_wheel)
        sim.reset()
        sim.step(n)
        assert sim.now == n
        return top.ticks

    exhaustive = run("exhaustive", False)
    fast = run("event", wheel)
    assert exhaustive == n
    assert fast < exhaustive, (
        "the event kernel matched the exhaustive tally — the fixture's "
        "purity violation is no longer load-bearing"
    )


def test_width_overflow_breaks_wheel_congruence():
    """The dataflow.width-overflow fixture: truncation voids batch aging.

    ``SaturatingAger``'s wheel hook fast-forwards with the saturating
    closed form ``min(age + 21n, 100)`` — congruent with per-edge stepping
    only when the register holds ``min(age + 21, 100)`` without loss.  The
    4-bit store the rule flags truncates every edge, so the edge-by-edge
    recurrence is really ``age := (age + 21) & 15`` and the wheel-enabled
    run lands on a different value than the exhaustive oracle.
    """
    n = 12

    def run(backend: str, wheel: bool) -> int:
        top = overflow_divergence.build()
        sim = Simulator(top, backend=backend, wheel=wheel)
        sim.reset()
        sim.step(n)
        assert sim.now == n
        return top.age.value

    exhaustive = run("exhaustive", False)
    stepped_event = run("event", False)
    fast = run("event", True)
    # without the wheel both kernels agree on the truncated recurrence:
    # +21 mod 16 is +5 per edge
    assert exhaustive == stepped_event == (n * 21) % 16
    assert fast != exhaustive, (
        "the wheeled run matched the exhaustive oracle — the fixture's "
        "width overflow no longer breaks the skip hook's congruence"
    )


def test_width_overflow_divergence_also_under_compiled():
    """Same defect, compiled backend: the generated kernel inherits the
    wheel fast-forward path and the same broken closed form."""
    n = 12

    def run(backend: str, wheel: bool) -> int:
        top = overflow_divergence.build()
        sim = Simulator(top, wheel=wheel, backend=backend)
        sim.reset()
        sim.step(n)
        return top.age.value

    stepped = run("compiled", False)
    fast = run("compiled", True)
    assert stepped == (n * 21) % 16
    assert fast != stepped
