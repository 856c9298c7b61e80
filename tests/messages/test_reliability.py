"""Unit tests for the sequence-numbered, checksummed frame trailer layer."""

import random

import pytest

from repro.messages import (
    NACK_NO_BASELINE,
    TRAILER_MAGIC,
    DataRecord,
    Exec,
    Framer,
    Halted,
    ReliableDeframer,
    ReliableFramer,
    Reset,
    WriteReg,
    crc16,
    make_nack_info,
    make_trailer,
    parse_nack_info,
    seq_before,
    split_trailer,
    trailer_crc,
)

MESSAGES = [Exec(0x0102_0304_0506_0708), WriteReg(3, 0xABCD), Reset(), Halted()]


def _deliveries(events):
    return [e[1] for e in events if e[0] == "deliver"]


def _crc16_bytes(data):
    """Bit-serial CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection,
    no final xor -- the definition ``crc16`` must reproduce."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def _crc16_words(words):
    """The oracle over 32-bit words, masked and least-significant byte first."""
    return _crc16_bytes(
        b for w in words for b in (int(w) & 0xFFFF_FFFF).to_bytes(4, "little"))


def _trailer_crc(seq, words):
    return _crc16_words(list(words) + [(TRAILER_MAGIC << 24) | ((seq & 0xFF) << 16)])


class TestCrcDefinition:
    def test_oracle_check_value(self):
        # the catalogued check value of CRC-16/CCITT-FALSE
        assert _crc16_bytes(b"123456789") == 0x29B1

    def test_empty(self):
        assert crc16([]) == _crc16_words([]) == 0xFFFF
        assert trailer_crc(9, []) == _trailer_crc(9, [])

    def test_seeded_word_lists(self):
        rng = random.Random(2024)
        for _ in range(300):
            words = [rng.getrandbits(32) for _ in range(rng.randrange(12))]
            seq = rng.randrange(256)
            assert crc16(words) == _crc16_words(words)
            assert trailer_crc(seq, words) == _trailer_crc(seq, words)

    def test_out_of_range_words_are_masked(self):
        words = [1 << 32, (1 << 40) | 0xBEEF, -1, -0x1234, 0x1_0000_0001]
        assert crc16(words) == _crc16_words(words)
        assert crc16(words) == crc16([w & 0xFFFF_FFFF for w in words])
        assert trailer_crc(300, words) == _trailer_crc(300, words)

    def test_generator_argument(self):
        words = [0x01020003, 0xDEAD, 0xBEEF]
        assert crc16(w for w in words) == _crc16_words(words)
        assert trailer_crc(7, (w for w in words)) == _trailer_crc(7, words)


class TestCrcAndTrailer:
    def test_crc_known_properties(self):
        assert crc16([]) == 0xFFFF
        a, b = crc16([1, 2, 3]), crc16([1, 2, 4])
        assert a != b
        assert crc16([1, 2, 3]) == a  # stable

    def test_trailer_roundtrip(self):
        frame = [0x01020003, 0xDEAD, 0xBEEF]
        t = make_trailer(0x7F, frame)
        magic, seq, crc = split_trailer(t)
        assert magic == TRAILER_MAGIC
        assert seq == 0x7F
        assert crc == trailer_crc(0x7F, frame)

    def test_crc_covers_the_seq_byte(self):
        # A bit flip in the trailer's seq field must not yield another
        # valid trailer — otherwise a fault can renumber an intact frame
        # and forge Go-Back-N ordering.
        frame = [0x01020003, 0xDEAD, 0xBEEF]
        t = make_trailer(5, frame)
        forged_seq = ((5 ^ 0x1) & 0xFF)
        forged = (t & ~(0xFF << 16)) | (forged_seq << 16)
        _, seq, crc = split_trailer(forged)
        assert crc != trailer_crc(seq, frame)

    def test_seq_before_wraps(self):
        assert seq_before(0, 1)
        assert seq_before(250, 3)       # modular wrap
        assert not seq_before(3, 250)
        assert not seq_before(5, 5)

    def test_nack_info_roundtrip(self):
        assert parse_nack_info(make_nack_info(42)) == (42, False)
        expected, no_baseline = parse_nack_info(make_nack_info(None))
        assert expected is None and no_baseline
        assert make_nack_info(None) & NACK_NO_BASELINE
        # a legacy BAD_MESSAGE info word is not a NACK
        assert parse_nack_info(0x0102_0003) is None


class TestReliableFramer:
    def test_appends_trailer_with_increasing_seq(self):
        f = ReliableFramer()
        plain = Framer()
        for i, msg in enumerate(MESSAGES):
            words = f.frame(msg)
            base = plain.frame(msg)
            assert words[:-1] == base
            magic, seq, crc = split_trailer(words[-1])
            assert magic == TRAILER_MAGIC
            assert seq == i == f.last_seq
            assert crc == trailer_crc(i, base)

    def test_seq_wraps_at_256(self):
        f = ReliableFramer(start_seq=254)
        seqs = [split_trailer(f.frame(Reset())[-1])[1] for _ in range(4)]
        assert seqs == [254, 255, 0, 1]


class TestReliableDeframer:
    def test_clean_stream_roundtrip(self):
        f, d = ReliableFramer(), ReliableDeframer()
        for msg in MESSAGES:
            d.push_all(f.frame(msg))
        got = _deliveries(d.take_events())
        assert got == MESSAGES
        assert d.stats.delivered == len(MESSAGES)
        assert d.stats.crc_failures == 0
        assert not d.mid_frame

    def test_corrupt_word_rejected_and_resynced(self):
        f, d = ReliableFramer(), ReliableDeframer()
        bad = f.frame(WriteReg(1, 0x55))
        bad[1] ^= 0x4  # flip a payload bit
        d.push_all(bad)
        d.push_all(f.frame(WriteReg(2, 0x66)))
        got = _deliveries(d.take_events())
        assert got == [WriteReg(2, 0x66)]
        assert d.stats.crc_failures >= 1
        assert d.stats.resyncs >= 1

    def test_corrupt_header_resynced(self):
        f, d = ReliableFramer(), ReliableDeframer()
        frame = f.frame(Reset())
        d.push(0xFF00_0000)  # unknown message type
        d.push_all(frame)
        assert _deliveries(d.take_events()) == [Reset()]
        assert d.stats.header_rejects >= 1

    def test_strict_order_gap_is_not_delivered(self):
        f = ReliableFramer()
        d = ReliableDeframer(strict_order=True)
        first, second, third = (f.frame(WriteReg(i, i)) for i in range(3))
        d.push_all(first)
        d.push_all(third)  # frame 1 lost in transit
        events = d.take_events()
        assert _deliveries(events) == [WriteReg(0, 0)]
        assert ("gap", 1, 2) in events
        assert d.stats.seq_gaps == 1
        # retransmission arrives: in-order delivery resumes
        d.push_all(second)
        d.push_all(third)
        assert _deliveries(d.take_events()) == [WriteReg(1, 1), WriteReg(2, 2)]

    def test_tolerant_mode_delivers_through_gaps(self):
        f = ReliableFramer()
        d = ReliableDeframer(strict_order=False)
        frames = [f.frame(WriteReg(i, i)) for i in range(3)]
        d.push_all(frames[0])
        d.push_all(frames[2])  # gap: frame 1 lost
        events = d.take_events()
        assert _deliveries(events) == [WriteReg(0, 0), WriteReg(2, 2)]
        assert d.stats.seq_gaps == 1

    def test_duplicate_detected(self):
        f = ReliableFramer()
        d = ReliableDeframer(strict_order=True)
        frame = f.frame(WriteReg(7, 9))
        d.push_all(frame)
        d.push_all(frame)  # byte-identical retransmission
        events = d.take_events()
        assert _deliveries(events) == [WriteReg(7, 9)]
        dups = [e for e in events if e[0] == "duplicate"]
        assert len(dups) == 1 and dups[0][1] == WriteReg(7, 9)
        assert d.stats.duplicates == 1

    def test_drop_head_unsticks_partial_frame(self):
        f, d = ReliableFramer(), ReliableDeframer()
        frame = f.frame(WriteReg(1, 2))
        d.push_all(frame[:-1])  # trailer lost: scanner waits forever
        assert d.mid_frame
        for _ in range(len(frame)):
            d.drop_head()
        assert not d.mid_frame
        assert d.stats.forced_drops >= 1
        # and the next intact frame still parses
        d.push_all(f.frame(WriteReg(3, 4)))
        assert _deliveries(d.take_events()) == [WriteReg(3, 4)]

    def test_never_raises_on_garbage(self):
        d = ReliableDeframer()
        for w in (0xFFFFFFFF, 0x00000000, 0x12345678, 0xC3C3C3C3) * 40:
            d.push(w)  # must not raise
        assert d.stats.words_dropped > 0

    def test_multiword_payload(self):
        f = ReliableFramer(data_words=2)
        d = ReliableDeframer(data_words=2)
        msg = WriteReg(1, 0x1_2345_6789)
        d.push_all(f.frame(msg))
        assert _deliveries(d.take_events()) == [msg]
