"""Property: renaming must be invisible in the host result stream.

The paper's §II contract — "the stream of results returned to the
processor will be consistent with the stream of instructions that were
issued" — sharpened into the OoO acceptance criterion: for any program,
the GET/GETF result stream of the renaming machine is byte-identical to
the in-order machine's, on every simulation backend.  Both engines also
issue every decoded op exactly once, so their issue counts agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.system import build_system

N_REGS = 8
N_FLAGS = 8

REG = st.integers(0, N_REGS - 1)
FLAG = st.integers(0, N_FLAGS - 1)
VAL = st.integers(0, 0xFFFF_FFFF)

# A mix that exercises every hazard the engine reorders around: long-latency
# FP ops sharing the default dst_flag, integer ops, explicit fences, the
# register-reading primitives (COPY, CPFLAG, LOADIS) and mid-program GET/GETF
# probes whose stream position is the contract.
OPS = st.one_of(
    st.tuples(st.just("loadi"), REG, VAL),
    st.tuples(st.just("loadis"), REG, VAL),
    st.tuples(st.just("copy"), REG, REG),
    st.tuples(st.just("cpflag"), FLAG, FLAG),
    st.tuples(st.just("fadd"), REG, REG, REG),
    st.tuples(st.just("fmul"), REG, REG, REG),
    st.tuples(st.just("fmadd"), REG, REG, REG),
    st.tuples(st.just("add"), REG, REG, REG),
    st.tuples(st.just("xor"), REG, REG, REG),
    st.tuples(st.just("get"), REG),
    st.tuples(st.just("getf"), FLAG),
    st.tuples(st.just("fence"),),
)


def _instruction(op):
    kind = op[0]
    if kind == "loadi":
        return ins.loadi(op[1], op[2]), 0
    if kind == "loadis":
        return ins.loadis(op[1], op[2]), 0
    if kind == "copy":
        return ins.copy(op[1], op[2]), 0
    if kind == "cpflag":
        return ins.cpflag(op[1], op[2]), 0
    if kind == "fadd":
        return ins.fadd(op[1], op[2], op[3]), 0
    if kind == "fmul":
        return ins.fmul(op[1], op[2], op[3]), 0
    if kind == "fmadd":
        return ins.fmadd(op[1], op[2], op[3]), 0
    if kind == "add":
        return ins.add(op[1], op[2], op[3]), 0
    if kind == "xor":
        return ins.xor(op[1], op[2], op[3]), 0
    if kind == "get":
        return ins.get(op[1], tag=op[1]), 1
    if kind == "getf":
        return ins.getf(op[1], tag=op[1]), 1
    return ins.fence(), 0


def _result_stream(program, **build_kwargs):
    """The tagged result stream and the issue counts ``(issued_total,
    unit_dispatches, exec_ops)`` of one run."""
    system = build_system(lint="off", fp_units=True, **build_kwargs)
    drv = CoprocessorDriver(system)
    expected = 0
    for op in program:
        instr, yields = _instruction(op)
        drv.execute(instr)
        expected += yields
    # final architectural sweep: every register and flag, tagged by index
    for reg in range(N_REGS):
        drv.execute(ins.get(reg, tag=reg))
    for flag in range(N_FLAGS):
        drv.execute(ins.getf(flag, tag=flag))
    expected += N_REGS + N_FLAGS
    msgs = drv.wait_for(expected)
    stats = system.soc.rtm.dispatcher.stats
    issued = (stats.issued_total, stats.unit_dispatches, stats.exec_ops)
    return [(type(m).__name__, m.tag, m.value) for m in msgs], issued


class TestRenamingInvisible:
    @settings(max_examples=10, deadline=None)
    @given(
        backend=st.sampled_from(["event", "wheel-off", "compiled"]),
        program=st.lists(OPS, min_size=1, max_size=10),
    )
    def test_get_stream_byte_identical(self, backend, program):
        kwargs = {}
        if backend == "wheel-off":
            kwargs["wheel"] = False
        elif backend == "compiled":
            kwargs["backend"] = "compiled"
        baseline, in_order_issued = _result_stream(program, **kwargs)
        renamed, ooo_issued = _result_stream(program, ooo=True, **kwargs)
        assert renamed == baseline
        # each decoded op issues exactly once on either engine
        assert ooo_issued == in_order_issued
