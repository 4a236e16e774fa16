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

Inert-edge collapse
-------------------
Most edges change nothing but counters: a core in a compute phase only
counts down, an idle IMU only counts its ticks.  A handler may declare
such edges by being a bound method of an object that provides

* ``inert_edges()`` — how many of the *upcoming* edges its handler is
  provably inert on, given its own state and its inputs as they stand
  (:data:`UNBOUNDED` for "until an input changes");
* ``credit_edges(n)`` — account *n* skipped edges in bulk, leaving the
  object exactly as *n* executed inert edges would.

When every attached handler declares, the domain skips the minimum of
the declared windows, cut so that the skipped edges lie strictly
before the engine's next live event (the only thing that can change a
handler's inputs), and schedules the next executed edge directly.
Skipped edges are credited when they are passed — at the next
executed edge, or at :meth:`ClockDomain.stop` for those at or before
``engine.now`` — so ``cycles`` and the handlers' counters equal their
per-edge values whenever the domain is stopped or an edge runs.  Any
plain callable declares nothing and keeps its domain per-edge, which
makes attaching a no-op the equivalence oracle.
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.time import Frequency

#: ``inert_edges()`` answer of a handler that stays inert until one of
#: its inputs changes, i.e. until some other event runs.
UNBOUNDED = sys.maxsize


class ClockDomain:
    """A periodic rising-edge source bound to an engine.

    Handlers attached with :meth:`attach` run in attachment order on
    every rising edge, which gives deterministic intra-cycle ordering
    (e.g. the IMU samples coprocessor outputs *after* the coprocessor
    has driven them if the coprocessor was attached first).  Attach
    handlers while the domain is stopped.
    """

    def __init__(self, engine: Engine, name: str, frequency: Frequency) -> None:
        self.engine = engine
        self.name = name
        self.frequency = frequency
        self.period_ps = frequency.period_ps
        #: Rising edges passed while running, collapsed ones included.
        self.cycles = 0
        #: Edges whose handlers actually ran (``cycles`` minus skipped).
        self.executed = 0
        self._handlers: list[Callable[[], None]] = []
        self._inert: list[Callable[[], int]] = []
        self._credit: list[Callable[[int], None]] = []
        self._running = False
        self._next_event: int | None = None
        self._last_edge_ps = 0
        self._skipped = 0

    def attach(self, handler: Callable[[], None]) -> None:
        """Attach a rising-edge handler (called once per cycle)."""
        self._handlers.append(handler)
        self._bind_declarations()

    def detach(self, handler: Callable[[], None]) -> None:
        """Remove a previously attached handler."""
        self._handlers.remove(handler)
        self._bind_declarations()

    def _bind_declarations(self) -> None:
        owners = [getattr(handler, "__self__", None) for handler in self._handlers]
        if owners and all(
            hasattr(owner, "inert_edges") and hasattr(owner, "credit_edges")
            for owner in owners
        ):
            self._inert = [owner.inert_edges for owner in owners]
            self._credit = [owner.credit_edges for owner in owners]
        else:
            self._inert = []
            self._credit = []

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
        """Stop ticking.  Pending edge (if any) is cancelled.

        Collapsed edges at or before ``engine.now`` are credited; the
        rest never happened.
        """
        if not self._running:
            return
        self._running = False
        if self._skipped:
            passed = (self.engine.now - self._last_edge_ps) // self.period_ps
            self._credit_skipped(min(passed, self._skipped))
            self._skipped = 0
        if self._next_event is not None:
            self.engine.cancel(self._next_event)
            self._next_event = None

    def _credit_skipped(self, edges: int) -> None:
        if edges <= 0:
            return
        self.cycles += edges
        for credit in self._credit:
            credit(edges)

    def _tick(self) -> None:
        if not self._running:
            return
        if self._skipped:
            self._credit_skipped(self._skipped)
            self._skipped = 0
        self.cycles += 1
        self.executed += 1
        for handler in self._handlers:
            handler()
        if self._running:
            skip = self._window() if self._inert else 0
            self._last_edge_ps = self.engine.now
            self._skipped = skip
            self._next_event = self.engine.schedule(
                self.period_ps * (skip + 1), self._tick
            )

    def _window(self) -> int:
        """Upcoming edges every handler is inert on, before any event."""
        window = UNBOUNDED
        for inert in self._inert:
            edges = inert()
            if edges < window:
                if edges <= 0:
                    return 0
                window = edges
        next_ps = self.engine.peek()
        if next_ps is not None:
            before = (next_ps - self.engine.now - 1) // self.period_ps
            if before < window:
                return max(before, 0)
        # Inert until an input changes, but no event is left to change
        # one: run per-edge, so a livelock guard sees every edge.
        return 0 if window == UNBOUNDED else window

    def elapsed_ps(self, cycles: int) -> int:
        """Duration of *cycles* edges of this clock in picoseconds."""
        return cycles * self.period_ps

    def __repr__(self) -> str:
        return f"ClockDomain({self.name!r}, {self.frequency})"
