"""Clock domains.

The paper's platform mixes several clocks: the ARM stripe at 133 MHz,
the adpcm coprocessor and its IMU at 40 MHz, the IDEA coprocessor at
6 MHz with its memory subsystem and IMU at 24 MHz.  A
:class:`ClockDomain` turns an :class:`~repro.sim.engine.Engine` event
stream into rising-edge callbacks for every component attached to it.

Domains can be paused.  While the OS services a page fault the fabric
clocks are paused by the runner — not because real hardware gates its
clock, but because ticking a stalled coprocessor contributes nothing to
the model and would dominate simulation run time.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.time import Frequency


class ClockDomain:
    """A periodic rising-edge source bound to an engine.

    Handlers attached with :meth:`attach` run in attachment order on
    every rising edge, which gives deterministic intra-cycle ordering
    (e.g. the IMU samples coprocessor outputs *after* the coprocessor
    has driven them if the coprocessor was attached first).
    """

    def __init__(self, engine: Engine, name: str, frequency: Frequency) -> None:
        self.engine = engine
        self.name = name
        self.frequency = frequency
        self.period_ps = frequency.period_ps
        self.cycles = 0
        self._handlers: list[Callable[[], None]] = []
        self._running = False
        self._next_event: int | None = None

    def attach(self, handler: Callable[[], None]) -> None:
        """Attach a rising-edge handler (called once per cycle)."""
        self._handlers.append(handler)

    def detach(self, handler: Callable[[], None]) -> None:
        """Remove a previously attached handler."""
        self._handlers.remove(handler)

    @property
    def running(self) -> bool:
        """True while the domain is generating edges."""
        return self._running

    def start(self) -> None:
        """Begin ticking.  The first edge fires one period from now."""
        if self._running:
            raise SimulationError(f"clock domain {self.name!r} already running")
        self._running = True
        self._next_event = self.engine.schedule(self.period_ps, self._tick)

    def stop(self) -> None:
        """Stop ticking.  Pending edge (if any) is cancelled."""
        if not self._running:
            return
        self._running = False
        if self._next_event is not None:
            self.engine.cancel(self._next_event)
            self._next_event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.cycles += 1
        for handler in self._handlers:
            handler()
        if self._running:
            self._next_event = self.engine.schedule(self.period_ps, self._tick)

    def elapsed_ps(self, cycles: int) -> int:
        """Duration of *cycles* edges of this clock in picoseconds."""
        return cycles * self.period_ps

    def __repr__(self) -> str:
        return f"ClockDomain({self.name!r}, {self.frequency})"
