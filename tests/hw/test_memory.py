"""Unit tests for the backing-store memory models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryAccessError, ReproError
from repro.hw.memory import Flash, Memory, Sdram
from tests.helpers import make_imu_rig


class TestMemory:
    def test_roundtrip(self):
        mem = Memory("m", 64)
        mem.write(10, b"hello")
        assert mem.read(10, 5) == b"hello"

    def test_initialised_to_zero(self):
        mem = Memory("m", 16)
        assert mem.read(0, 16) == bytes(16)

    def test_out_of_range_read_rejected(self):
        mem = Memory("m", 16)
        with pytest.raises(MemoryAccessError):
            mem.read(12, 8)

    def test_out_of_range_write_rejected(self):
        mem = Memory("m", 16)
        with pytest.raises(MemoryAccessError):
            mem.write(15, b"ab")

    def test_negative_address_rejected(self):
        mem = Memory("m", 16)
        with pytest.raises(MemoryAccessError):
            mem.read(-1, 4)

    def test_zero_size_rejected(self):
        with pytest.raises(MemoryAccessError):
            Memory("m", 0)

    def test_word_roundtrip_little_endian(self):
        mem = Memory("m", 16)
        mem.write_word(4, 0x11223344, size=4)
        assert mem.read(4, 4) == bytes([0x44, 0x33, 0x22, 0x11])
        assert mem.read_word(4, size=4) == 0x11223344

    def test_half_and_byte_words(self):
        mem = Memory("m", 16)
        mem.write_word(0, 0xBEEF, size=2)
        mem.write_word(2, 0x7F, size=1)
        assert mem.read_word(0, size=2) == 0xBEEF
        assert mem.read_word(2, size=1) == 0x7F

    def test_unsupported_word_size_rejected(self):
        mem = Memory("m", 16)
        with pytest.raises(MemoryAccessError):
            mem.read_word(0, size=3)
        with pytest.raises(MemoryAccessError):
            mem.write_word(0, 1, size=8)

    def test_access_counters(self):
        mem = Memory("m", 16)
        mem.write(0, b"x")
        mem.read(0, 1)
        mem.read(0, 1)
        assert mem.writes == 1
        assert mem.reads == 2

    def test_fill(self):
        mem = Memory("m", 8)
        mem.fill(0xAA)
        assert mem.read(0, 8) == bytes([0xAA] * 8)

    def test_view_is_shared(self):
        mem = Memory("m", 8)
        mem.view()[3] = 99
        assert mem.read(3, 1) == bytes([99])


class TestWordValueRange:
    @pytest.mark.parametrize(
        "value, size", [(0x1FFFF, 2), (0x100, 1), (1 << 32, 4), (-1, 4), (-5, 1)]
    )
    def test_value_wider_than_the_word_names_value_and_size(self, value, size):
        mem = Memory("m", 16)
        with pytest.raises(MemoryAccessError) as info:
            mem.write_word(0, value, size)
        assert str(value) in str(info.value)
        assert f"{size}-byte" in str(info.value)
        assert mem.read(0, 16) == bytes(16)
        assert mem.writes == 0

    def test_narrow_coprocessor_write_of_a_wide_value_is_a_repro_error(self):
        rig = make_imu_rig([("write", 0, 0, 0x1FFFF, 2)])
        rig.imu.tlb.insert(0, 0, 1)
        with pytest.raises(ReproError):
            rig.run()

    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from((1, 2, 4)),
                st.integers(min_value=0, max_value=60),
                st.integers(min_value=0, max_value=(1 << 32) - 1),
            ),
            max_size=40,
        )
    )
    def test_word_ops_equal_byte_slices(self, ops):
        words = Memory("words", 64)
        bytewise = Memory("bytes", 64)
        for write, size, addr, value in ops:
            if write:
                value &= (1 << (8 * size)) - 1
                words.write_word(addr, value, size)
                bytewise.write(addr, value.to_bytes(size, "little"))
            else:
                expected = int.from_bytes(bytewise.read(addr, size), "little")
                assert words.read_word(addr, size) == expected
        assert words.read(0, 64) == bytewise.read(0, 64)
        assert (words.reads, words.writes) == (bytewise.reads, bytewise.writes)


class TestPresets:
    def test_sdram_board_size(self):
        assert Sdram().size == 64 * 1024 * 1024

    def test_flash_board_size(self):
        assert Flash().size == 4 * 1024 * 1024

    def test_flash_write_is_expensive(self):
        flash = Flash()
        assert flash.write_latency > flash.read_latency
