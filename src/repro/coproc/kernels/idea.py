"""IDEA coprocessor core (Figure 9's hardware version).

"A complex coprocessor core running at 6 MHz with 3 pipeline stages is
designed for IDEA.  The IMU and IDEA's memory subsystem are running at
24 MHz and the synchronisation with the IDEA core is provided by a
stall mechanism" (§4.1).

The datapath reuses the reference round functions, so the core is
bit-exact with :func:`repro.apps.idea.encrypt`.  The 3-stage pipeline
is modelled as throughput: once the pipeline is full a round retires
every core cycle (``ROUND_CYCLES = 1``) instead of the several cycles a
purely serial FSM would need.  The paper notes the EPXA1's PLD was too
small to exploit more parallelism.

Parameters via the designated parameter page: word 0 is the block
count, words 1..52 are the 16-bit round subkeys — the software side
computes the key schedule, as in any driver for a block-cipher engine.
"""

from __future__ import annotations

from repro.apps.idea import NUM_SUBKEYS, output_transform, round_function
from repro.coproc.base import Behavior, Coprocessor
from repro.coproc.bitstream import Bitstream
from repro.hw.fpga import PldResources
from repro.sim.time import mhz

#: Object identifiers agreed between HW and SW designers.
OBJ_IN = 0
OBJ_OUT = 1

#: Cycles per round with the 3-stage pipeline full.
ROUND_CYCLES = 1
#: Cycles for the output transformation and the block sequencing state
#: (address increment, next-block dispatch).
FINAL_CYCLES = 3


class IdeaCore(Coprocessor):
    """IDEA ECB engine: 8-byte blocks in, 8-byte blocks out."""

    name = "idea"

    def behavior(self) -> Behavior:
        num_blocks = yield from self.read_param(0)
        subkeys = []
        for i in range(NUM_SUBKEYS):
            subkey = yield from self.read_param(1 + i)
            subkeys.append(subkey & 0xFFFF)
        yield from self.release_params()
        for block in range(num_blocks):
            base = block * 8
            lo = yield from self.read(OBJ_IN, base, size=4)
            hi = yield from self.read(OBJ_IN, base + 4, size=4)
            # The byte stream is big-endian 16-bit words; the 32-bit
            # data bus is little-endian, so unpack explicitly.
            raw = lo.to_bytes(4, "little") + hi.to_bytes(4, "little")
            x = (
                int.from_bytes(raw[0:2], "big"),
                int.from_bytes(raw[2:4], "big"),
                int.from_bytes(raw[4:6], "big"),
                int.from_bytes(raw[6:8], "big"),
            )
            # The core touches no port between the rounds and the
            # output transform, so they are one compute token.
            for round_index in range(8):
                keys = tuple(subkeys[round_index * 6 : round_index * 6 + 6])
                x = round_function(*x, keys)  # type: ignore[arg-type]
            x = output_transform(*x, tuple(subkeys[48:52]))  # type: ignore[arg-type]
            yield from self.compute(8 * ROUND_CYCLES + FINAL_CYCLES)
            out = b"".join(v.to_bytes(2, "big") for v in x)
            yield from self.write(
                OBJ_OUT, base, int.from_bytes(out[0:4], "little"), size=4
            )
            yield from self.write(
                OBJ_OUT, base + 4, int.from_bytes(out[4:8], "little"), size=4
            )


def bitstream(
    core_mhz: float = 6.0,
    interface_mhz: float = 24.0,
) -> Bitstream:
    """The IDEA bit-stream: 6 MHz core, 24 MHz IMU/memory subsystem."""
    return Bitstream(
        name="idea",
        core_factory=IdeaCore,
        core_frequency=mhz(core_mhz),
        interface_frequency=mhz(interface_mhz),
        resources=PldResources(logic_elements=3_900, memory_bits=24_576),
        length_bytes=160 * 1024,
    )
