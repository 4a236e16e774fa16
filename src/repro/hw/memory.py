"""Byte-addressable backing-store models (SDRAM, Flash).

These are functional models with latency parameters: data lives in a
numpy byte array, and each access reports how many cycles of its
clock domain the access costs.  The EPXA1 board of the paper carries
64 MB of SDRAM and 4 MB of Flash; the defaults mirror that.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MemoryAccessError


class Memory:
    """A flat byte-addressable memory with simple access-latency data.

    Parameters
    ----------
    name:
        Human-readable identifier used in error messages.
    size:
        Capacity in bytes.
    read_latency / write_latency:
        Cycles charged per word access by bus models; the memory itself
        is functional and does not advance time.
    """

    def __init__(
        self,
        name: str,
        size: int,
        read_latency: int = 1,
        write_latency: int = 1,
    ) -> None:
        if size <= 0:
            raise MemoryAccessError(f"memory {name!r}: size must be positive")
        self.name = name
        self.size = size
        self.read_latency = read_latency
        self.write_latency = write_latency
        self._data = np.zeros(size, dtype=np.uint8)
        # Word accesses go through a byte view of the same buffer: no
        # numpy round-trip per 1/2/4-byte access.
        self._bytes = memoryview(self._data)
        self.reads = 0
        self.writes = 0

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise MemoryAccessError(
                f"memory {self.name!r}: access [{addr}, {addr + length}) "
                f"outside size {self.size}"
            )

    def read(self, addr: int, length: int) -> bytes:
        """Read *length* bytes starting at *addr*."""
        self._check(addr, length)
        self.reads += 1
        return self._data[addr : addr + length].tobytes()

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* starting at *addr*."""
        self._check(addr, len(data))
        self.writes += 1
        self._data[addr : addr + len(data)] = np.frombuffer(
            bytes(data), dtype=np.uint8
        )

    def read_word(self, addr: int, size: int = 4) -> int:
        """Read a little-endian word of 1, 2, or 4 bytes."""
        if size not in (1, 2, 4):
            raise MemoryAccessError(f"unsupported word size {size}")
        self._check(addr, size)
        self.reads += 1
        return int.from_bytes(self._bytes[addr : addr + size], "little")

    def write_word(self, addr: int, value: int, size: int = 4) -> None:
        """Write a little-endian word of 1, 2, or 4 bytes.

        *value* must be an unsigned integer that fits *size* bytes.
        """
        if size not in (1, 2, 4):
            raise MemoryAccessError(f"unsupported word size {size}")
        self._check(addr, size)
        try:
            data = int(value).to_bytes(size, "little")
        except OverflowError:
            raise MemoryAccessError(
                f"memory {self.name!r}: value {value} does not fit a "
                f"{size}-byte word"
            ) from None
        self.writes += 1
        self._bytes[addr : addr + size] = data

    def fill(self, value: int = 0) -> None:
        """Set every byte of the memory to *value*."""
        self._data[:] = value

    def view(self) -> np.ndarray:
        """Raw numpy view of the memory contents (shared, mutable)."""
        return self._data

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, size={self.size})"


class Sdram(Memory):
    """Off-chip SDRAM: cheap capacity, multi-cycle access."""

    def __init__(self, size: int = 64 * 1024 * 1024) -> None:
        super().__init__("sdram", size, read_latency=6, write_latency=6)


class Flash(Memory):
    """Flash memory holding coprocessor configuration bit-streams.

    Writes model programming latency; in the experiments Flash is only
    read (by ``FPGA_LOAD``) so the write latency rarely matters.
    """

    def __init__(self, size: int = 4 * 1024 * 1024) -> None:
        super().__init__("flash", size, read_latency=10, write_latency=500)
