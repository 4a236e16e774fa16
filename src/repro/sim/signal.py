"""Traced signals.

Signals are plain value holders with optional change observers.  They
exist for observability — the waveform of Figure 7 (clk, cp_addr,
cp_access, cp_tlbhit, cp_din) is captured by attaching a tracer to the
IMU/coprocessor port signals — and for making the port-level interface
of the paper explicit in code.

Every actual value change, on any signal, bumps the module-level
:data:`changes` counter.  Clock domains compare it across an edge to
learn whether the edge drove anything (see :mod:`repro.sim.clock`).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError

Observer = Callable[["Signal", int, int], None]

#: Actual value changes of every signal so far.  A module global, not a
#: class attribute: writing a class attribute on each change would
#: invalidate the type's attribute cache and slow every signal access.
changes = 0


class Signal:
    """A named, width-checked value with change observers.

    ``width`` is in bits; writes outside ``[0, 2**width)`` raise, which
    catches coprocessor cores that drive wider values than their ports.
    ``value`` is a plain attribute for reading; drive it with
    :meth:`set`, which checks the width and notifies observers.
    """

    def __init__(self, name: str, width: int = 1, init: int = 0) -> None:
        if width < 1:
            raise SimulationError(f"signal {name!r}: width must be >= 1")
        self.name = name
        self.width = width
        self._max = (1 << width) - 1
        if not 0 <= init <= self._max:
            raise SimulationError(f"signal {name!r}: init {init} out of range")
        #: Current value of the signal (read-only by convention).
        self.value = init
        self._observers: list[Observer] = []
        self._bundle: SignalBundle | None = None

    def set(self, value: int, time_ps: int = 0) -> None:
        """Drive a new value; observers fire only on actual changes."""
        if not 0 <= value <= self._max:
            raise SimulationError(
                f"signal {self.name!r}: value {value} exceeds {self.width} bits"
            )
        if value == self.value:
            return
        global changes
        changes += 1
        self.value = value
        for observer in self._observers:
            observer(self, time_ps, value)

    def observe(self, observer: Observer) -> None:
        """Attach a change observer ``(signal, time_ps, new_value)``."""
        self._observers.append(observer)
        if self._bundle is not None:
            self._bundle.observed += 1

    def unobserve(self, observer: Observer) -> None:
        """Detach a previously attached observer."""
        self._observers.remove(observer)
        if self._bundle is not None:
            self._bundle.observed -= 1

    def __bool__(self) -> bool:
        return bool(self.value)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, width={self.width}, value={self.value})"


class SignalBundle:
    """A named group of signals, iterable in declaration order.

    ``observed`` counts the observers attached to the bundle's signals,
    kept current by :meth:`Signal.observe` / :meth:`Signal.unobserve`,
    so "is anyone watching these wires?" costs one attribute read.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._signals: list[Signal] = []
        self.observed = 0

    def add(self, signal: Signal) -> Signal:
        """Register a signal with the bundle and return it."""
        self._signals.append(signal)
        signal._bundle = self
        self.observed += len(signal._observers)
        return signal

    def new(self, name: str, width: int = 1, init: int = 0) -> Signal:
        """Create, register, and return a new signal."""
        return self.add(Signal(f"{self.name}.{name}", width, init))

    def __iter__(self):
        return iter(self._signals)

    def __len__(self) -> int:
        return len(self._signals)
