"""Bit-level UART transceiver tests (the prototyping serial link, §III)."""

import pytest

from repro.hdl import Component, Simulator, Tracer
from repro.messages.uart import BITS_PER_FRAME, BYTES_PER_WORD, UartLink, UartRx, UartTx


class UartPair(Component):
    """TX wired to RX over the 1-bit line, with scripted traffic."""

    def __init__(self, divisor=4):
        super().__init__("up")
        self.tx = UartTx("tx", divisor, parent=self)
        self.rx = UartRx("rx", divisor, parent=self)
        self.to_send: list[int] = []
        self.received: list[int] = []

        @self.comb(always=True)
        def _drive():
            self.rx.line.set(self.tx.line.value)
            self.tx.inp.valid.set(1 if self.to_send else 0)
            if self.to_send:
                self.tx.inp.payload.set(self.to_send[0])
            self.rx.out.ready.set(1)

        @self.seq
        def _tick():
            if self.tx.inp.fires():
                self.to_send.pop(0)
            if self.rx.out.fires():
                self.received.append(self.rx.out.payload.value)


WORDS = [0x0000_0000, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x0123_4567, 0xA5A5_5A5A]


class TestUartPair:
    @pytest.mark.parametrize("divisor", [2, 4, 7])
    def test_words_survive_the_wire(self, divisor):
        pair = UartPair(divisor)
        sim = Simulator(pair)
        sim.reset()
        pair.to_send = list(WORDS)
        budget = (len(WORDS) + 1) * BYTES_PER_WORD * BITS_PER_FRAME * divisor + 100
        sim.run_until(lambda: len(pair.received) == len(WORDS), budget)
        assert pair.received == WORDS

    def test_line_idles_high(self):
        pair = UartPair(4)
        sim = Simulator(pair)
        sim.reset()
        sim.settle()
        assert pair.tx.line.value == 1
        sim.step(5)
        assert pair.tx.line.value == 1

    def test_line_toggles_during_transmission(self):
        pair = UartPair(4)
        sim = Simulator(pair)
        sim.reset()
        tracer = Tracer(sim, [pair.tx.line])
        pair.to_send = [0x0000_00AA]
        sim.step(4 * BITS_PER_FRAME * 4 + 20)
        assert tracer.count_transitions(pair.tx.line) >= 8

    def test_no_framing_errors_on_clean_line(self):
        pair = UartPair(3)
        sim = Simulator(pair)
        sim.reset()
        pair.to_send = list(WORDS)
        sim.run_until(lambda: len(pair.received) == len(WORDS), 50_000)
        assert pair.rx.framing_errors == 0

    def test_throughput_matches_baud(self):
        divisor = 4
        pair = UartPair(divisor)
        sim = Simulator(pair)
        sim.reset()
        pair.to_send = [1, 2, 3]
        start = sim.now
        sim.run_until(lambda: len(pair.received) == 3, 20_000)
        per_word = (sim.now - start) / 3
        nominal = BYTES_PER_WORD * BITS_PER_FRAME * divisor
        assert per_word >= nominal  # cannot beat the wire

    def test_divisor_validation(self):
        with pytest.raises(ValueError):
            UartTx("t", 0)
        with pytest.raises(ValueError):
            UartRx("r", 1)


class TestUartLinkInSystem:
    def test_full_coprocessor_over_serial(self):
        """The paper's actual setup: the whole framework behind a UART."""
        from repro.config import FrameworkConfig
        from repro.host import CoprocessorDriver
        from repro.hdl import Simulator as Sim
        from repro.messages.transceiver import HostPort, Receiver, Transmitter
        from repro.rtm.rtm import RegisterTransferMachine, _connect
        from repro.isa import instructions as ins

        class SerialSoc(Component):
            def __init__(self):
                super().__init__("soc")
                cfg = FrameworkConfig()
                self.config = cfg
                self.host = HostPort("host", parent=self)
                self.link = UartLink("link", divisor=2, parent=self)
                self.receiver = Receiver("receiver", parent=self)
                self.transmitter = Transmitter("transmitter", parent=self)
                self.rtm = RegisterTransferMachine("rtm", cfg, parent=self)
                _connect(self, self.host.tx, self.link.tx_down.inp)
                _connect(self, self.link.rx_down.out, self.receiver.chan)
                _connect(self, self.receiver.out, self.rtm.words_in)
                _connect(self, self.rtm.words_out, self.transmitter.inp)
                _connect(self, self.transmitter.chan, self.link.tx_up.inp)
                _connect(self, self.link.rx_up.out, self.host.rx)

            @property
            def busy(self):
                return bool(self.host.tx_pending or self.link.tx_down.busy
                            or self.link.tx_up.busy)

        soc = SerialSoc()
        sim = Sim(soc)
        sim.reset()

        class FakeBuilt:
            pass

        built = FakeBuilt()
        built.soc = soc
        built.sim = sim
        built.config = soc.config
        driver = CoprocessorDriver(built)
        # C1c: one write+GET round trip over the fastest-clocked 8N1 wire
        driver.write_reg(1, 42)
        start = driver.cycles
        assert driver.read_reg(1, max_cycles=500_000) == 42
        rt = driver.cycles - start
        assert rt == 576, f"C1c UART round trip: expected 576, got {rt}"
        driver.write_reg(1, 20)
        driver.write_reg(2, 22)
        driver.execute(ins.add(3, 1, 2, dst_flag=1))
        value = driver.read_reg(3, max_cycles=200_000)
        assert value == 42
        # the serial word time dominates everything (§III's argument)
        assert driver.cycles > 10 * soc.link.cycles_per_word
