"""Portable coprocessor framework.

A coprocessor core is written as a Python generator: **a bare
``yield`` is one rising edge of the core's clock**, playing the role of
one state of the VHDL finite state machine in Figure 5, and **yielding
a positive int** ``n`` — the token :meth:`Coprocessor.compute` yields —
is ``n`` edges of datapath work on which the core touches no port.
The token lets the clock domain run such a compute phase as one event
(see :mod:`repro.sim.clock`); a core made of bare yields is timed
exactly the same, edge by edge.  Cores interact with the
outside world only through the CP_* port helpers below, so — like the
paper's VHDL cores — they contain *no physical address and no knowledge
of the interface memory size*, and run unchanged against:

* an :class:`~repro.imu.imu.Imu` (the VIM-based system),
* a :class:`~repro.imu.direct.DirectInterface` (the typical,
  hand-integrated baseline).

The paper's elementary example (Figure 5) looks like this here::

    class VectorAdd(Coprocessor):
        def behavior(self):
            n = yield from self.read_param(0)
            yield from self.release_params()
            for i in range(n):
                a = yield from self.read(0, 4 * i)       # object A[]
                b = yield from self.read(1, 4 * i)       # object B[]
                yield from self.write(2, 4 * i, a + b)   # object C[]

No address calculation, no memory-size knowledge — the properties §3.4
calls out.
"""

from __future__ import annotations

from typing import Generator, Iterator

from repro.coproc.ports import DATA_BITS, PARAM_OBJECT, CoprocessorPorts
from repro.errors import CoprocessorError
from repro.sim.clock import UNBOUNDED

#: Generator type produced by coprocessor behaviours: each step yields
#: None (one edge) or a positive edge count (a compute token).
Behavior = Generator[int | None, None, None]

_DATA_MASK = (1 << DATA_BITS) - 1


class Coprocessor:
    """Base class of all coprocessor cores.

    Subclasses implement :meth:`behavior` as a generator and may use
    the ``read`` / ``write`` / ``read_param`` / ``compute`` helpers.
    The core is *bound* to an interface (IMU or direct wrapper) by the
    system builder, then driven one generator step per clock edge by
    :meth:`tick`.
    """

    #: Human-readable core name (subclasses override).
    name = "coprocessor"

    def __init__(self) -> None:
        self.ports: CoprocessorPorts | None = None
        self.iface = None
        self._gen: Behavior | None = None
        self.started = False
        self.finished = False
        self.cycles = 0
        self._compute_left = 0

    # -- wiring ---------------------------------------------------------

    def bind(self, iface) -> None:
        """Attach the core to an interface's port bundle."""
        self.iface = iface
        self.ports = iface.ports

    def _require_ports(self) -> CoprocessorPorts:
        if self.ports is None:
            raise CoprocessorError(f"core {self.name!r} is not bound to an interface")
        return self.ports

    # -- clocked behaviour -----------------------------------------------

    def tick(self) -> None:
        """One rising edge of the core clock.

        The core idles until ``CP_START``; afterwards each edge advances
        the behaviour generator by one step, or counts down the edges
        of the compute token it last yielded.  Exhaustion of the
        generator asserts ``CP_FIN`` automatically.
        """
        ports = self._require_ports()
        if self.finished:
            return
        if not self.started:
            if not ports.cp_start.value:
                return
            self.started = True
            self._gen = self.behavior()
        self.cycles += 1
        if self._compute_left:
            self._compute_left -= 1
            return
        try:
            edges = next(self._gen)  # type: ignore[arg-type]
        except StopIteration:
            self.finish()
            return
        if edges is not None and edges > 1:
            self._compute_left = edges - 1

    def inert_edges(self) -> int:
        """Upcoming edges on which :meth:`tick` only counts.

        The rest of a compute token; unbounded once finished.  Zero
        before the start, because ``CP_START`` is driven from outside.
        """
        if self.finished:
            return UNBOUNDED
        return self._compute_left if self.started else 0

    def credit_edges(self, edges: int) -> None:
        """Account *edges* skipped inert edges (see :meth:`inert_edges`)."""
        if not self.finished:
            self.cycles += edges
            self._compute_left -= edges

    def behavior(self) -> Behavior:
        """The core FSM; subclasses must override."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers

    def reset(self) -> None:
        """Return the core to its pre-start state (new execution)."""
        self._gen = None
        self.started = False
        self.finished = False
        self.cycles = 0
        self._compute_left = 0

    def finish(self) -> None:
        """Assert CP_FIN, signalling end of operation to the interface."""
        self.finished = True
        self._require_ports().cp_fin.set(1)

    # -- interface helpers (generators: cost is in core clock cycles) ----

    def read(self, obj: int, addr: int, size: int = 4) -> Generator[None, None, int]:
        """Read ``size`` bytes at byte address *addr* of object *obj*.

        The helper issues the request, then samples ``CP_TLBHIT`` every
        core cycle; a TLB miss therefore stalls the core here, without
        the core being aware of it — the paper's stall mechanism.
        """
        ports = self._require_ports()
        ports.issue(obj, addr, write=False, size=size)
        yield
        while not ports.cp_tlbhit.value:
            yield
        data = ports.cp_din.value
        ports.retire()
        return data

    def write(
        self, obj: int, addr: int, value: int, size: int = 4
    ) -> Generator[None, None, None]:
        """Write ``size`` bytes of *value* at byte address *addr*."""
        ports = self._require_ports()
        ports.issue(obj, addr, write=True, data=value & _DATA_MASK, size=size)
        yield
        while not ports.cp_tlbhit.value:
            yield
        ports.retire()

    def read_param(self, index: int) -> Generator[None, None, int]:
        """Read scalar parameter *index*.

        On an IMU, parameters live in the designated parameter-passing
        page (object :data:`~repro.coproc.ports.PARAM_OBJECT`); on a
        direct interface they come from driver-loaded registers — the
        typical system's ad-hoc equivalent.
        """
        param_regs = getattr(self.iface, "param_regs", None)
        if param_regs is not None:
            yield  # one cycle to latch the register
            try:
                return param_regs[index]
            except IndexError as exc:
                raise CoprocessorError(
                    f"core {self.name!r}: parameter {index} not loaded"
                ) from exc
        value = yield from self.read(PARAM_OBJECT, index * 4, 4)
        return value

    def release_params(self) -> Generator[None, None, None]:
        """Declare the parameter page consumed (§3.2).

        "When the parameters are read, the coprocessor ... invalidates
        the parameter-passing page, in this way making it available for
        data mapping purposes."  No-op on a direct interface.
        """
        if getattr(self.iface, "param_regs", None) is not None:
            return
            yield  # pragma: no cover
        self._require_ports().cp_param_done.set(1)
        yield

    def compute(self, cycles: int) -> Iterator[int]:
        """Model *cycles* clock cycles of datapath computation.

        Yields one *cycles*-edge token, which :meth:`tick` spends edge
        by edge; ``compute(0)`` takes no edge at all.
        """
        if cycles > 0:
            yield cycles
