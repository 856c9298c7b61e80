"""Property: seeded state upsets may slow the system down or take it down,
but they must never make it lie.

The state-fault acceptance criterion, as a hypothesis chaos test: under any
seeded combination of single/double bit upsets in architectural state
(register file, flag file, lock scoreboard, FU config table) — optionally
stacked on top of a lossy link — every program either completes with the
exact fault-free reference result or raises a ``SimulationError`` subclass
(``MachineCheckError`` when rollback-replay cannot recover).  A read that
returns a wrong value is the one outcome that must be impossible.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import StateFaultSpec
from repro.hdl.errors import SimulationError
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.messages import FaultSpec
from repro.system import build_system

N_REGS = 8
W = 32
MASK = (1 << W) - 1

REG = st.integers(0, N_REGS - 1)
VAL = st.integers(0, MASK)

OPS = st.one_of(
    st.tuples(st.just("write"), REG, VAL),
    st.tuples(st.just("add"), REG, REG, REG),
    st.tuples(st.just("xor"), REG, REG, REG),
    st.tuples(st.just("read"), REG),
)


def _apply(drv, model, op):
    kind = op[0]
    if kind == "write":
        _, reg, value = op
        drv.write_reg(reg, value)
        model[reg] = value
    elif kind == "add":
        _, dst, a, b = op
        drv.execute(ins.add(dst, a, b))
        model[dst] = (model[a] + model[b]) & MASK
    elif kind == "xor":
        _, dst, a, b = op
        drv.execute(ins.xor(dst, a, b))
        model[dst] = model[a] ^ model[b]
    else:  # read
        _, reg = op
        assert drv.read_reg(reg) == model[reg]


def _chaos_run(program, **build_kwargs):
    drv = CoprocessorDriver(build_system(lint="off", **build_kwargs))
    model = [0] * N_REGS
    try:
        for op in program:
            _apply(drv, model, op)
        for reg in range(N_REGS):
            assert drv.read_reg(reg) == model[reg]
    except SimulationError:
        pass  # giving up loudly is always an acceptable outcome


class TestZeroRateNeverRaises:
    """The chaos tests accept any ``SimulationError``, so on their own they
    cannot see a false detection.  With protection on and nothing injected,
    every program must complete with the reference result and no machine
    check."""

    @pytest.mark.parametrize("ooo", [False, True], ids=["in-order", "ooo"])
    @settings(max_examples=6, deadline=None)
    @given(program=st.lists(OPS, min_size=1, max_size=6))
    def test_protected_fault_free_run_completes(self, ooo, program):
        drv = CoprocessorDriver(
            build_system(lint="off", state_protection=True, ooo=ooo))
        model = [0] * N_REGS
        for op in program:
            _apply(drv, model, op)
        for reg in range(N_REGS):
            assert drv.read_reg(reg) == model[reg]
        assert drv.engine.stats.machine_checks == 0


class TestCorrectOrRaises:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16 - 1),
        flip=st.floats(0.0, 0.4),
        double=st.floats(0.0, 0.05),
        program=st.lists(OPS, min_size=1, max_size=6),
    )
    def test_state_upsets_correct_or_raises(self, seed, flip, double,
                                            program):
        _chaos_run(
            program,
            state_faults=StateFaultSpec(
                seed=seed, flip_rate=flip, double_rate=double),
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16 - 1),
        drop=st.floats(0.0, 0.04),
        double=st.floats(0.0, 0.04),
        program=st.lists(OPS, min_size=1, max_size=5),
    )
    def test_link_and_state_faults_stacked(self, seed, drop, double, program):
        # both fault domains at once: retransmission must not replay its
        # way into accepting results computed from corrupt state
        _chaos_run(
            program,
            reliable=True,
            faults=FaultSpec(seed=seed, drop_rate=drop),
            state_faults=StateFaultSpec(
                seed=seed + 1, flip_rate=0.2, double_rate=double),
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16 - 1),
        backend=st.sampled_from(["event", "wheel-off", "compiled"]),
        program=st.lists(OPS, min_size=1, max_size=5),
    )
    def test_every_backend_correct_or_raises(self, seed, backend, program):
        kwargs = {}
        if backend == "wheel-off":
            kwargs["wheel"] = False
        elif backend == "compiled":
            kwargs["backend"] = "compiled"
        _chaos_run(
            program,
            state_faults=StateFaultSpec(seed=seed, flip_rate=0.3,
                                        double_rate=0.03),
            **kwargs,
        )


class TestOoOChaos:
    """The out-of-order engine adds state (rename map, issue queue) but no
    new ways to lie: under seeded upsets — optionally stacked on a lossy
    link — an OoO machine still either matches the fault-free reference
    or raises."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16 - 1),
        flip=st.floats(0.0, 0.4),
        double=st.floats(0.0, 0.05),
        program=st.lists(OPS, min_size=1, max_size=6),
    )
    def test_ooo_state_upsets_correct_or_raises(self, seed, flip, double,
                                                program):
        _chaos_run(
            program,
            ooo=True,
            state_faults=StateFaultSpec(
                seed=seed, flip_rate=flip, double_rate=double),
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16 - 1),
        drop=st.floats(0.0, 0.04),
        program=st.lists(OPS, min_size=1, max_size=5),
    )
    def test_ooo_link_and_state_faults_stacked(self, seed, drop, program):
        _chaos_run(
            program,
            ooo=True,
            reliable=True,
            faults=FaultSpec(seed=seed, drop_rate=drop),
            state_faults=StateFaultSpec(
                seed=seed + 1, flip_rate=0.2, double_rate=0.03),
        )


class TestBackendInjectionParity:
    """Injection is keyed by architectural write index, not simulator
    pacing, so every backend must draw the identical fate sequence."""

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 2**16 - 1),
        program=st.lists(OPS, min_size=2, max_size=5),
    )
    def test_injection_counts_match_across_backends(self, seed, program):
        spec = StateFaultSpec(seed=seed, flip_rate=0.3)
        counts = []
        for kwargs in ({}, {"wheel": False}, {"backend": "compiled"}):
            built = build_system(lint="off", state_faults=spec, **kwargs)
            drv = CoprocessorDriver(built)
            model = [0] * N_REGS
            try:
                for op in program:
                    _apply(drv, model, op)
            except SimulationError:
                pass  # an unrecoverable check aborts every backend alike
            stats = built.soc.state_domain.stats
            counts.append((stats.injected_single, stats.injected_double))
        assert counts[0] == counts[1] == counts[2]
