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
counts down, a core waiting for ``CP_TLBHIT`` only samples it, an idle
IMU only counts its ticks and a translating one counts down to its
firing edge.  A handler may declare such edges by being a bound method
of an object that provides

* ``inert_edges()`` — how many of the *upcoming* edges its handler is
  provably inert on, given its own state and its inputs as they stand
  (:data:`UNBOUNDED` for "until an input changes");
* ``credit_edges(n)`` — account *n* skipped edges in bulk, leaving the
  object exactly as *n* executed inert edges would.

"Inert" means the edge drives no signal another handler wakes on.  An
interface declares the detection edge of a pending request this way:
crediting it performs the detection, whose only wire effect is the
``CP_TLBHIT`` fall a waiting core ignores.

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

Peer domains
------------
A dual-domain design (IDEA's 6 MHz core and 24 MHz IMU) has two
domains whose handlers read each other's signals.  Cut at each
other's next scheduled edge, neither would ever skip much, so
:func:`link_peers` plans the two jointly instead.  Linked domains share
one engine event placed at their earliest *declared* first live edge:

* each domain declares from its own handlers, bounded by the next
  event outside the group;
* every domain's skipped edges are then cut strictly before the
  group's earliest live edge, since that edge may drive their inputs;
* an executed edge on which any :class:`~repro.sim.signal.Signal`
  changed (the module-level change counter moved) makes the other
  domains' declarations stale: they are credited the edges that have
  passed and declare afresh, as is a domain whose window was cut.

Edges of linked domains at one instant run one engine event at a
time, longest period first (the order per-edge scheduling gives them:
the slower domain's edge was scheduled earlier), then in link order.
The plan assumes every event outside the group that can land inside a
window is scheduled before the clocks start — as DMA completions are.

A domain without a peer keeps its own, cheaper scheduling
(``_window``): planned as a one-member group instead, the compute
benchmark's cells took about 4% more CPU time (2-vCPU Xeon VM,
CPython 3.11), the paging benchmark's about 2%.
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.errors import SimulationError
from repro.sim import signal as signals
from repro.sim.engine import Engine
from repro.sim.time import Frequency

#: ``inert_edges()`` answer of a handler that stays inert until one of
#: its inputs changes, i.e. until some other event runs.
UNBOUNDED = sys.maxsize

#: First-live-edge time of a linked domain inert until an input changes.
_NEVER = sys.maxsize


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
        # Set by link_peers: the joint plan, this domain's first live
        # edge in it, and whether a peer's edge cut its window short.
        self._group: _PeerGroup | None = None
        self._next_ps = 0
        self._cut = False

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
        if self._group is None:
            self._next_event = self.engine.schedule(self.period_ps, self._tick)
            return
        self._last_edge_ps = self.engine.now
        self._skipped = 0
        self._next_ps = self.engine.now + self.period_ps
        self._cut = False
        self._group.schedule()

    def stop(self) -> None:
        """Stop ticking.  Pending edge (if any) is cancelled.

        Collapsed edges at or before ``engine.now`` are credited; the
        rest never happened.
        """
        if not self._running:
            return
        self._running = False
        self._credit_passed(self.engine.now)
        self._skipped = 0
        if self._group is not None:
            self._group.schedule()
        elif self._next_event is not None:
            self.engine.cancel(self._next_event)
            self._next_event = None

    def _credit_skipped(self, edges: int) -> None:
        if edges <= 0:
            return
        self.cycles += edges
        for credit in self._credit:
            credit(edges)

    def _credit_passed(self, limit_ps: int) -> None:
        """Credit the skipped edges at or before *limit_ps*."""
        if not self._skipped:
            return
        passed = (limit_ps - self._last_edge_ps) // self.period_ps
        if passed > self._skipped:
            passed = self._skipped
        if passed > 0:
            self._credit_skipped(passed)
            self._skipped -= passed
            self._last_edge_ps += passed * self.period_ps

    def _tick(self) -> None:
        if not self._running:
            return
        if self._skipped:
            self._credit_skipped(self._skipped)
            self._skipped = 0
        self.cycles += 1
        self.executed += 1
        if self._group is not None:
            mark = signals.changes
            for handler in self._handlers:
                handler()
            self._group.plan(self, signals.changes != mark)
            return
        for handler in self._handlers:
            handler()
        if self._running:
            skip = self._window() if self._inert else 0
            self._last_edge_ps = self.engine.now
            self._skipped = skip
            self._next_event = self.engine.schedule(
                self.period_ps * (skip + 1), self._tick
            )

    def _declared(self) -> int:
        """Upcoming edges every handler declares inert (0 if any can't)."""
        if not self._inert:
            return 0
        window = UNBOUNDED
        for inert in self._inert:
            edges = inert()
            if edges < window:
                if edges <= 0:
                    return 0
                window = edges
        return window

    def _window(self) -> int:
        """Upcoming edges every handler is inert on, before any event."""
        window = self._declared()
        if not window:
            return 0
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


def link_peers(domains: list[ClockDomain]) -> None:
    """Plan two domains jointly (see "Peer domains" above).

    For two domains of one engine whose handlers read each other's
    signals.  Link them while they are stopped, in the order they are
    started, and start and stop them together: coincident edges then
    run in the order per-edge scheduling gives them.
    """
    if len(domains) != 2:
        raise SimulationError(
            f"link_peers links exactly two clock domains, got {len(domains)}"
        )
    _PeerGroup(domains)


class _PeerGroup:
    """The joint plan of linked domains: one engine event at the
    earliest first live edge among the running members."""

    def __init__(self, domains: list[ClockDomain]) -> None:
        first, second = domains
        if first.engine is not second.engine:
            raise SimulationError("linked clock domains must share one engine")
        if first is second or any(
            domain._group is not None or domain.running for domain in domains
        ):
            raise SimulationError(
                "link two distinct clock domains once, while stopped"
            )
        self.engine = domains[0].engine
        # Rank order at coincident edges (sorted() is stable).
        self.members = sorted(domains, key=lambda domain: -domain.period_ps)
        self._event: int | None = None
        self._event_ps: int | None = None
        for domain in domains:
            domain._group = self

    def schedule(self) -> None:
        """Keep the group's event at the earliest running member edge."""
        when = min(
            (member._next_ps for member in self.members if member._running),
            default=None,
        )
        if when == self._event_ps:
            return
        if self._event is not None:
            self.engine.cancel(self._event)
        self._event_ps = when
        self._event = (
            None if when is None else self.engine.schedule_at(when, self._edge)
        )

    def _edge(self) -> None:
        """Run the first-ranked member edge due now, then re-arm."""
        self._event = self._event_ps = None
        now = self.engine.now
        current = None
        for member in self.members:
            if not member._running:
                continue
            if current is None and member._next_ps == now:
                current = member
            else:
                # Credit the other members' edges before this instant
                # first: a skipped edge may have driven a wire the
                # current edge reads (a deferred detection drops
                # CP_TLBHIT).  None is at this instant — windows end
                # strictly before the group's first live edge.
                member._credit_passed(now - 1)
        if current is not None:
            current._tick()
        self.schedule()

    def plan(self, current: ClockDomain, changed: bool) -> None:
        """Re-plan after *current* executed the edge at ``engine.now``.

        *changed* tells whether that edge drove any signal.  The other
        member has been credited every edge before this instant.

        A group has exactly two members, which the staleness check
        below relies on: a wire that crediting the other member's
        skipped edges drove (in :meth:`_edge`) is one the current
        member has read since, and the other member's plan already
        counts its own credited effects.  With a third member such a
        change would go unseen by it.
        """
        now = self.engine.now
        bound = self.engine.peek()
        first = _NEVER
        for member in self.members:
            period = member.period_ps
            if member is current:
                member._last_edge_ps = now
            elif not member._running:
                continue
            elif member._next_ps == now or not (changed or member._cut):
                # Due right after this edge, or declared on inputs that
                # still stand (sound for two members: see above): keep
                # its plan.
                if member._next_ps < first:
                    first = member._next_ps
                continue
            skip = member._declared()
            if skip and bound is not None:
                before = (bound - member._last_edge_ps - 1) // period
                if before < skip:
                    skip = before if before > 0 else 0
            member._skipped = skip
            if skip == UNBOUNDED:
                member._next_ps = _NEVER
            else:
                member._next_ps = member._last_edge_ps + (skip + 1) * period
                if member._next_ps < first:
                    first = member._next_ps
        for member in self.members:
            if not member._running:
                continue
            if first == _NEVER:
                # Every member inert until an input changes, and no
                # event left to change one: run per-edge, so a livelock
                # guard sees every edge.
                member._skipped = 0
                member._next_ps = member._last_edge_ps + member.period_ps
                member._cut = False
            elif member._next_ps > first:
                before = (first - member._last_edge_ps - 1) // member.period_ps
                member._skipped = before if before > 0 else 0
                member._next_ps = (
                    member._last_edge_ps + (member._skipped + 1) * member.period_ps
                )
                member._cut = True
            else:
                member._cut = False
