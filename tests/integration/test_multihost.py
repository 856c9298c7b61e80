"""Multi-CPU hosts sharing one coprocessor (paper Fig. 1.1, thesis §1.2).

"...a common interface to hardware accelerators accessible by one or more
host CPUs running standard software."  The coprocessor side is unchanged;
the shared bus arbitrates frames and routes responses by tag namespace.
"""

import pytest

from repro.config import FrameworkConfig
from repro.host import drivers_for
from repro.isa import instructions as ins
from repro.messages.multihost import host_tag, tag_owner
from repro.system import build_multihost_system


@pytest.fixture
def duo():
    system = build_multihost_system(n_hosts=2)
    return system, drivers_for(system)


class TestTagNamespace:
    def test_tag_roundtrip(self):
        for host in range(4):
            for seq in (0, 1, 63):
                assert tag_owner(host_tag(host, seq)) == host

    def test_namespace_bounds(self):
        with pytest.raises(ValueError):
            host_tag(4, 0)


class TestTwoCpus:
    def test_each_cpu_reads_its_own_writes(self, duo):
        system, (cpu0, cpu1) = duo
        # software convention: cpu0 owns r0-r7, cpu1 owns r8-r15
        cpu0.write_reg(1, 111)
        cpu1.write_reg(9, 999)
        assert cpu0.read_reg(1) == 111
        assert cpu1.read_reg(9) == 999

    def test_interleaved_computation(self, duo):
        system, (cpu0, cpu1) = duo
        cpu0.write_reg(1, 10)
        cpu0.write_reg(2, 20)
        cpu1.write_reg(9, 7)
        cpu1.write_reg(10, 5)
        # both CPUs issue before either collects
        cpu0.execute(ins.add(3, 1, 2, dst_flag=1))
        cpu1.execute(ins.sub(11, 9, 10, dst_flag=2))
        assert cpu0.read_reg(3) == 30
        assert cpu1.read_reg(11) == 2

    def test_responses_routed_not_broadcast(self, duo):
        system, (cpu0, cpu1) = duo
        cpu0.write_reg(1, 42)
        assert cpu0.read_reg(1) == 42
        # cpu1 saw nothing of cpu0's data record
        cpu1.pump(5)
        assert cpu1.inbox == []

    def test_frames_never_interleave(self, duo):
        system, (cpu0, cpu1) = duo
        # both CPUs blast multi-word frames simultaneously; if the bus
        # interleaved them mid-frame, the deframer would desynchronise and
        # at least one value would corrupt.
        for i in range(8):
            cpu0.write_reg(1, 0x1000 + i)
            cpu1.write_reg(9, 0x2000 + i)
        cpu0.run_until_quiet()
        assert system.soc.rtm.register_value(1) == 0x1007
        assert system.soc.rtm.register_value(9) == 0x2007

    def test_bus_fairness(self, duo):
        system, (cpu0, cpu1) = duo
        for i in range(6):
            cpu0.write_reg(1, i)
            cpu1.write_reg(9, i)
        cpu0.run_until_quiet()
        f0, f1 = system.soc.bus.frames_forwarded
        assert f0 == f1 == 6

    def test_exceptions_broadcast_to_all_cpus(self, duo):
        system, _ = duo
        cpu0, cpu1 = drivers_for(system, raise_on_exception=False)
        cpu0.execute(ins.dispatch(0x7F, 0))  # illegal opcode
        (msg0,) = cpu0.wait_for(1)
        assert msg0.code  # exception report
        cpu1.pump(2)
        assert any(getattr(m, "code", None) == msg0.code for m in cpu1.inbox)


class TestOutOfOrder:
    def test_run_until_quiet_on_ooo_system(self):
        # the quiescence probe is the RTM's own, whichever issue engine it has
        system = build_multihost_system(FrameworkConfig(ooo=True), n_hosts=2)
        cpu0, cpu1 = drivers_for(system)
        cpu0.write_reg(1, 111)
        cpu1.write_reg(9, 999)
        cpu0.run_until_quiet()
        assert not system.soc.busy
        assert cpu0.read_reg(1) == 111
        assert cpu1.read_reg(9) == 999


class TestScaling:
    def test_four_cpus(self):
        system = build_multihost_system(
            FrameworkConfig(n_regs=32), n_hosts=4
        )
        cpus = drivers_for(system)
        for i, cpu in enumerate(cpus):
            cpu.write_reg(i * 8, 100 + i)
        for i, cpu in enumerate(cpus):
            assert cpu.read_reg(i * 8) == 100 + i

    def test_single_host_degenerate(self):
        system = build_multihost_system(n_hosts=1)
        (cpu,) = drivers_for(system)
        cpu.write_reg(1, 5)
        assert cpu.read_reg(1) == 5

    def test_too_many_hosts_rejected(self):
        with pytest.raises(ValueError):
            build_multihost_system(n_hosts=5)


class TestSharedUnitPipelining:
    def test_scoreboard_isolates_cpu_workloads(self, duo):
        """Two CPUs' dependency chains interleave safely in one RTM."""
        system, (cpu0, cpu1) = duo
        cpu0.write_reg(1, 1)
        cpu1.write_reg(9, 1)
        for _ in range(5):
            cpu0.execute(ins.add(1, 1, 1, dst_flag=1))  # r1 doubles
            cpu1.execute(ins.add(9, 9, 9, dst_flag=2))  # r9 doubles
        assert cpu0.read_reg(1) == 32
        assert cpu1.read_reg(9) == 32
