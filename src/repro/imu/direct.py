"""Direct (non-virtualised) coprocessor interface — the baseline.

This models the paper's *typical coprocessor* version (Figures 3 and
9): the coprocessor addresses the dual-port RAM through fixed,
driver-programmed base offsets, with no TLB, no faults and no OS
involvement.  It is faster per access — a direct DP-RAM port needs no
translation cycles — but the whole working set must fit the physical
memory, which is exactly why Figure 9 marks the 16 KB and 32 KB IDEA
points "exceeds available memory".

The same port bundle as the IMU is exposed so that the identical
coprocessor kernel classes run against either interface; only the
*system* differs, which is the comparison the paper makes.
"""

from __future__ import annotations

from repro.coproc.ports import CoprocessorPorts
from repro.errors import CapacityError, HardwareError
from repro.hw.dpram import DualPortRam
from repro.sim.clock import UNBOUNDED


class DirectInterface:
    """Fixed-offset DP-RAM wrapper for a hand-integrated coprocessor.

    Parameters
    ----------
    dpram:
        The physical interface memory.
    access_cycles:
        Rising edges from request to data, inclusive (default 2: one to
        present the address, one for the synchronous DP-RAM read).
    """

    def __init__(self, dpram: DualPortRam, access_cycles: int = 2) -> None:
        if access_cycles < 2:
            raise HardwareError("access_cycles must be >= 2 (request + reply)")
        self.dpram = dpram
        self.access_cycles = access_cycles
        self.ports = CoprocessorPorts()
        self._bases: dict[int, tuple[int, int]] = {}
        self.param_regs: list[int] = []
        #: Request id of the last access taken (latched off CP_REQ).
        self.last_req = 0
        self._remaining = 0
        self._pending = False
        self._deferred = False
        self.reads = 0
        self.writes = 0
        self.ticks = 0
        self.done = False

    # -- driver-side configuration (the "platform-related details" a
    #    programmer of the typical version must manage by hand) --------

    def set_object_window(self, obj: int, base: int, size: int) -> None:
        """Map object *obj* to ``[base, base + size)`` in the DP-RAM.

        Raises :class:`CapacityError` if the window does not fit — the
        hard limit virtualisation removes.
        """
        if base < 0 or size < 0 or base + size > self.dpram.size:
            raise CapacityError(
                f"object {obj}: window [{base}, {base + size}) exceeds "
                f"DP-RAM size {self.dpram.size}"
            )
        self._bases[obj] = (base, size)

    def clear_windows(self) -> None:
        """Forget all object windows (between chunked invocations)."""
        self._bases.clear()

    def start_coprocessor(self) -> None:
        """Assert CP_START (driver launches the core)."""
        self.done = False
        self.ports.cp_start.set(1)

    # -- clocked behaviour --------------------------------------------

    def tick(self) -> None:
        """One rising edge of the interface clock domain."""
        self.ticks += 1
        self._deferred = False
        ports = self.ports
        if ports.cp_fin.value:
            self.done = True
        if self._pending:
            self._remaining -= 1
            if self._remaining <= 0:
                self._fire()
            return
        if ports.cp_access.value and ports.cp_req.value != self.last_req:
            self._detect()

    def _detect(self) -> None:
        """Take the pending request: the DP-RAM access fires
        ``access_cycles - 2`` edges later (at once for the default 2)."""
        ports = self.ports
        self.last_req = ports.cp_req.value
        ports.cp_tlbhit.set(0)
        latency = self.access_cycles - 2
        if latency <= 0:
            self._fire()
        else:
            self._pending = True
            self._remaining = latency

    def inert_edges(self) -> int:
        """Upcoming edges on which :meth:`tick` changes no signal.

        Unbounded with no access in flight, no new request and no FIN
        left to latch; the countdown left before the firing edge while
        an access is in flight.  A new request with ``access_cycles >
        2`` declares its detection edge and countdown, which
        :meth:`credit_edges` then performs (unless a CP_* port is
        observed, as for the :class:`~repro.imu.imu.Imu`); zero
        otherwise.
        """
        self._deferred = False
        ports = self.ports
        if ports.cp_fin.value and not self.done:
            return 0
        if self._pending:
            return self._remaining - 1 if self._remaining > 1 else 0
        if ports.cp_access.value and ports.cp_req.value != self.last_req:
            latency = self.access_cycles - 2
            if latency <= 0 or ports.observed:
                return 0
            self._deferred = True
            return latency
        return UNBOUNDED

    def credit_edges(self, edges: int) -> None:
        """Account *edges* skipped inert edges (see :meth:`inert_edges`)."""
        self.ticks += edges
        if self._deferred:
            self._deferred = False
            self._detect()
            edges -= 1
        if self._pending:
            self._remaining -= edges

    def _fire(self) -> None:
        ports = self.ports
        self._pending = False
        obj = ports.cp_obj.value
        addr = ports.cp_addr.value
        window = self._bases.get(obj)
        if window is None:
            raise HardwareError(f"object {obj} has no DP-RAM window configured")
        base, size = window
        access_size = ports.cp_size.value
        if addr + access_size > size:
            raise HardwareError(
                f"object {obj}: access at {addr} (+{access_size}) exceeds "
                f"window size {size}"
            )
        paddr = base + addr
        if ports.cp_wr.value:
            self.dpram.pld_write(paddr, ports.cp_dout.value, access_size)
            self.writes += 1
        else:
            ports.cp_din.set(self.dpram.pld_read(paddr, access_size))
            self.reads += 1
        ports.cp_tlbhit.set(1)

    def reset(self) -> None:
        """Reset handshake state for a fresh chunk invocation."""
        self._pending = False
        self._remaining = 0
        self._deferred = False
        self.done = False
        ports = self.ports
        ports.cp_start.set(0)
        ports.cp_tlbhit.set(0)
        ports.cp_fin.set(0)
        ports.cp_access.set(0)
        self.last_req = ports.cp_req.value
