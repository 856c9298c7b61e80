"""End-to-end state-fault recovery through the host engine.

The acceptance criterion for the fault stack: under seeded bit-flips,
every scenario completes with results identical to the fault-free run, or
raises — silent corruption never.  Singles are corrected invisibly;
doubles travel the full path (machine check latched → pipeline frozen →
MachineCheck frame → engine rollback to the last quiescent checkpoint →
journal replay), and a second double before re-quiescing fails fast with
:class:`MachineCheckError`.
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.faults import StateFaultSpec
from repro.fu import AreaOptimizedFU, FuComputation
from repro.host import CoprocessorDriver, MachineCheckError
from repro.isa import instructions as ins
from repro.messages import FaultSpec
from repro.system import SystemSpec, build_system

BASE = 3333


def _run(**build_kwargs):
    built = build_system(lint="off", **build_kwargs)
    drv = CoprocessorDriver(built)
    drv.write_reg(1, 1111)
    drv.write_reg(2, 2222)
    drv.execute(ins.add(3, 1, 2, dst_flag=1))
    return drv.read_reg(3), built, drv


class TestSinglesAreInvisible:
    def test_fault_free_protected_run_is_identical(self):
        out, built, drv = _run(state_protection=True)
        assert out == BASE
        assert drv.engine.stats.machine_checks == 0
        assert built.soc.state_domain.stats.injected_single == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_singles_corrected(self, seed):
        out, built, drv = _run(
            state_faults=StateFaultSpec(seed=seed, flip_rate=0.4))
        assert out == BASE
        stats = built.soc.state_domain.stats
        assert stats.injected_double == 0
        assert stats.uncorrectable == 0
        # corrected on read-back or scrub; the rest stayed latent in words
        # nothing read again (or were overwritten) — never wrong output
        assert stats.corrected <= stats.injected_single - stats.overwritten
        assert drv.engine.stats.rollbacks == 0


class TestDoubleFaultRecovery:
    @pytest.mark.parametrize("element", [
        "rtm.regfile", "rtm.lockmgr", "rtm.futable",
    ])
    def test_pinned_double_recovers_by_rollback(self, element):
        # index 1 for write-indexed elements; the single unit dispatch
        # makes index 0 the only one a futable fate can land on
        index = 0 if element == "rtm.futable" else 1
        out, built, drv = _run(
            state_faults=StateFaultSpec(
                seed=9, schedule=((element, index, "double"),)))
        assert out == BASE
        est = drv.engine.stats
        assert est.machine_checks == 1
        assert est.rollbacks == 1
        assert est.replayed > 0
        assert est.checkpoints >= 1
        # settle-phase re-queries may re-detect the same divergence before
        # the rollback lands, so the count is at-least-one, not exactly-one
        assert built.soc.state_domain.stats.uncorrectable >= 1

    def test_detection_latency_recorded(self):
        _, built, _ = _run(
            state_faults=StateFaultSpec(
                seed=9, schedule=(("rtm.regfile", 1, "double"),)))
        d = built.soc.state_domain.stats.as_dict()
        assert d["detect_latency_mean"] is not None
        assert d["detect_latency_max"] >= 0

    def test_repeated_doubles_fail_fast(self):
        # pin enough doubles that the replay (which draws fresh fates from
        # the surviving write counters) takes a second hit before the
        # engine can reach a new quiescent checkpoint
        schedule = tuple(("rtm.regfile", i, "double") for i in range(1, 6))
        with pytest.raises(MachineCheckError) as exc:
            _run(state_faults=StateFaultSpec(seed=9, schedule=schedule))
        assert "rtm.regfile" in str(exc.value)
        assert exc.value.syndrome != 0

    def test_fatal_engine_fails_later_submissions(self):
        built = build_system(
            lint="off",
            state_faults=StateFaultSpec(
                seed=9,
                schedule=tuple(("rtm.regfile", i, "double")
                               for i in range(1, 6))),
        )
        drv = CoprocessorDriver(built)
        with pytest.raises(MachineCheckError):
            drv.write_reg(1, 1111)
            drv.write_reg(2, 2222)
            drv.execute(ins.add(3, 1, 2, dst_flag=1))
            drv.read_reg(3)
        assert drv.engine.fatal_error is not None
        with pytest.raises(MachineCheckError):
            drv.read_reg(1)  # still down — no silent half-alive state


class PairUnit(AreaOptimizedFU):
    """Writes two data results and flags: three renames in one edge."""

    write_profile = staticmethod(lambda variety: (True, True, True))

    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent, execute_cycles=1)

    def compute(self, s):
        return FuComputation(data1=(s.op_a + s.op_b) & 0xFFFF_FFFF,
                             data2=s.op_a ^ s.op_b, flags=0)


class TestOoORenameGuard:
    """An out-of-order ALU op renames its data and its flag destination in
    one edge.  The second rename re-checks the map while the first one's
    update is still staged; that check must compare the committed map with
    the pre-edge intent, not mistake the staged map for an upset."""

    @pytest.mark.parametrize("backend", ["event", "wheel-off", "compiled"])
    def test_fault_free_ooo_run_raises_no_machine_check(self, backend):
        kwargs = {"wheel": False} if backend == "wheel-off" else {"backend": backend}
        built = build_system(ooo=True, state_protection=True, **kwargs)
        drv = CoprocessorDriver(built)
        drv.write_reg(1, 5)
        drv.write_reg(2, 7)
        drv.execute(ins.add(3, 1, 2))
        assert drv.read_reg(3) == 12
        assert drv.engine.stats.machine_checks == 0

    # Renames 0 and 1 are the host writes; 2 and 3 are the add's data and
    # flag destinations, staged in the same edge.  An upset at 0 sits in
    # the committed map when rename 1 checks it.
    @pytest.mark.parametrize("index", [0, 2, 3])
    def test_pinned_single_corrected(self, index):
        out, built, drv = _run(
            ooo=True,
            state_faults=StateFaultSpec(
                seed=9, schedule=(("rtm.rename", index, "flip"),)))
        assert out == BASE
        assert built.soc.state_domain.stats.corrected == 1
        assert drv.engine.stats.machine_checks == 0

    @pytest.mark.parametrize("index", [0, 2, 3])
    def test_pinned_double_recovers_by_rollback(self, index):
        out, built, drv = _run(
            ooo=True,
            state_faults=StateFaultSpec(
                seed=9, schedule=(("rtm.rename", index, "double"),)))
        assert out == BASE
        assert built.soc.state_domain.stats.uncorrectable == 1
        assert drv.engine.stats.machine_checks == 1
        assert drv.engine.stats.rollbacks == 1

    @pytest.mark.parametrize("kind", ["flip", "double"])
    def test_upset_under_a_same_space_rename_is_not_laundered(self, kind):
        # A two-result op renames dst1 then dst2 in one edge; the dst2
        # rename builds on the map the upset at rename 2 corrupted, and the
        # guard's intent must keep dst1's true mapping, not adopt it.
        built = SystemSpec(
            DEFAULT_CONFIG.with_(ooo=True),
            units=((0x20, lambda n, w, p: PairUnit(n, w, p)),),
            state_faults=StateFaultSpec(
                seed=9, schedule=(("rtm.rename", 2, kind),)),
            lint="off",
        ).build()
        drv = CoprocessorDriver(built)
        drv.write_reg(1, 1111)
        drv.write_reg(2, 2222)
        drv.execute(ins.dispatch(0x20, 0, dst1=3, dst2=4, src1=1, src2=2,
                                 dst_flag=1))
        assert (drv.read_reg(3), drv.read_reg(4)) == (BASE, 1111 ^ 2222)
        stats = built.soc.state_domain.stats
        assert stats.corrected + stats.uncorrectable == 1


class TestCombinedFaultDomains:
    def test_reliable_link_plus_state_doubles(self):
        out, built, drv = _run(
            reliable=True,
            faults=FaultSpec(seed=4, drop_rate=0.05),
            state_faults=StateFaultSpec(
                seed=9, schedule=(("rtm.regfile", 1, "double"),)),
        )
        assert out == BASE
        est = drv.engine.stats
        assert est.rollbacks == 1
        assert est.machine_checks == 1


class TestBackendParity:
    """Injection is indexed by architectural operations, so the same spec
    must inject identically under every execution backend."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_compiled_matches_event(self, seed):
        spec = StateFaultSpec(seed=seed, flip_rate=0.3)
        results = {}
        for backend in (None, "compiled"):
            out, built, _ = _run(state_faults=spec, backend=backend)
            assert out == BASE
            stats = built.soc.state_domain.stats
            results[backend] = (stats.injected_single, stats.injected_double,
                                stats.corrected, stats.uncorrectable)
        assert results[None] == results["compiled"]
