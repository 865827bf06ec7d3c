"""The discrete-event simulation environment: virtual clock + event queue.

All distributed-system components in this repository (replicas, clients,
the network) run inside one :class:`Environment`. Virtual time is a float
in **milliseconds** throughout the code base, which matches the units the
paper's figures use.

Two interchangeable queue kernels back the environment (selected per
instance with ``Environment(kernel=...)``):

* ``calendar`` (default) — the bucketed timing-wheel in
  :mod:`repro.sim._calqueue`: O(1) pushes, far-future timers parked in
  cold buckets, same-timestamp bursts drained from one sorted snapshot.
* ``heap`` — the original single ``heapq`` ordered by ``(when, seq)``.

Both kernels deliver **identically ordered** event streams for the same
program (pinned by tests/test_sim_determinism.py), so replay lines and
figure results do not depend on the kernel choice. Both also agree on
withdrawal: a cancelled deferred callback or timer never fires, is never
counted, and leaves every other entry's tie order alone.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, Optional

from ._calqueue import CalendarQueue
from .events import AllOf, AnyOf, Callback, Event, Process, Timeout

__all__ = ["Environment", "Infeasible"]

KERNELS = ("calendar", "heap")

#: Kernel of an :class:`Environment` built without one. Nothing in the
#: program changes it; the test suite swaps it to replay whole ensembles
#: (which build their own environment) on the heap kernel as an oracle.
DEFAULT_KERNEL = "calendar"


class Infeasible(RuntimeError):
    """Raised when ``run(until=...)`` is asked to reach an unreachable state."""


class Environment:
    """Owns the virtual clock and the pending-event queue.

    Typical driver loop::

        env = Environment()
        env.process(client_main(env))
        env.run(until=10_000.0)      # run 10 simulated seconds
    """

    def __init__(self, kernel: Optional[str] = None):
        self._now = 0.0
        #: total events processed since construction; the ledger's
        #: ``bare_events_per_wall_s`` (benchmarks/ledger/micro.py)
        #: divides this by elapsed real time to get the kernel's events/s.
        self.events_processed = 0
        #: the run's observability plane (:class:`repro.obs.Observability`),
        #: installed by the first server whose config carries an
        #: ``ObsConfig``; None keeps every instrumentation point to a
        #: single attribute-read-plus-comparison.
        self.obs = None
        if kernel is None:
            kernel = DEFAULT_KERNEL
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}: expected {KERNELS}")
        self.kernel = kernel
        if kernel == "heap":
            self._cal: Optional[CalendarQueue] = None
            self._queue: list[tuple[float, int, Event]] = []
            self._seq = 0
            #: ids of withdrawn entries still in the heap; they are
            #: skipped, uncounted, when they reach the top. An id cannot
            #: be reused while the heap still holds its object.
            self._withdrawn: set[int] = set()
            #: every producer (schedule/defer/succeed/network delivery)
            #: files occurrences through this one bound callable.
            self._push = self._heap_push
            self._withdraw = self._heap_withdraw
        else:
            self._cal = CalendarQueue(self)
            self._push = self._cal.push
            #: take a pending entry filed for ``when`` back out of the
            #: queue (``Callback.cancel``, ``Timeout.cancel``); a no-op
            #: for one that already fired.
            self._withdraw = self._cal.remove

    def _heap_push(self, when: float, item: Any) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, item))

    def _heap_withdraw(self, when: float, item: Any) -> None:
        if when < self._now:
            return
        if when == self._now and not any(
                entry[2] is item for entry in self._queue):
            return      # it already fired at this instant
        self._withdrawn.add(id(item))

    def _heap_pop(self) -> Optional[Any]:
        """Pop the next live heap entry and advance the clock to it;
        None when only withdrawn entries (or nothing) remain."""
        queue = self._queue
        withdrawn = self._withdrawn
        while queue:
            when, _seq, event = heapq.heappop(queue)
            if withdrawn and id(event) in withdrawn:
                withdrawn.discard(id(event))
                continue
            self._now = when
            return event
        return None

    def _heap_skip_withdrawn(self) -> None:
        """Drop withdrawn entries from the top of the heap."""
        queue = self._queue
        withdrawn = self._withdrawn
        while queue and id(queue[0][2]) in withdrawn:
            withdrawn.discard(id(heapq.heappop(queue)[2]))

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def schedule(self, event: Event) -> None:
        """Queue ``event`` for processing at the current instant."""
        self._push(self._now, event)

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def defer(self, delay: float, fn, *args) -> Callback:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now.

        The cheap alternative to ``timeout().add_callback(...)`` for
        fire-and-forget work: no Event allocation, no callbacks list,
        no closure. The returned :class:`Callback` is not awaitable;
        its ``cancel()`` withdraws it from the queue.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        when = self._now + delay
        callback = Callback(fn, args, self, when)
        self._push(when, callback)
        return callback

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a generator as a simulation process."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        cal = self._cal
        if cal is None:
            event = self._heap_pop()
        else:
            event = cal.pop_one()
        if event is None:
            raise Infeasible("no scheduled events")
        self.events_processed += 1
        event._process()

    def queued(self) -> list:
        """Every pending occurrence (events and callbacks), unordered.

        An inspection aid for tests and memory probes: what the queue
        still holds, on either kernel.
        """
        cal = self._cal
        if cal is None:
            withdrawn = self._withdrawn
            return [entry[2] for entry in self._queue
                    if id(entry[2]) not in withdrawn]
        return cal.items()

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if the queue is empty."""
        cal = self._cal
        if cal is None:
            self._heap_skip_withdrawn()
            return self._queue[0][0] if self._queue else None
        return cal.peek()

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains,
        * a number — run until virtual time reaches that instant,
        * an :class:`Event` — run until that event is processed and return
          its value (re-raising its exception if it failed).
        """
        cal = self._cal
        if cal is not None:
            return self._run_calendar(cal, until)

        # The loops below inline step(): at hundreds of thousands of
        # events per run the per-event method call is measurable
        # (benchmarks/ledger/micro.py). events_processed is settled on
        # exit so the counter stays honest even if an event handler
        # raises.
        # Withdrawn entries are skipped without touching the clock or
        # the count.
        queue = self._queue
        pop = heapq.heappop
        withdrawn = self._withdrawn
        count = 0

        if until is None:
            try:
                while queue:
                    when, _seq, event = pop(queue)
                    if withdrawn and id(event) in withdrawn:
                        withdrawn.discard(id(event))
                        continue
                    self._now = when
                    count += 1
                    event._process()
            finally:
                self.events_processed += count
            return None

        if isinstance(until, Event):
            target = until
            try:
                while not target.processed:
                    event = self._heap_pop()
                    if event is None:
                        raise Infeasible(
                            "event queue drained before the awaited event triggered")
                    count += 1
                    event._process()
            finally:
                self.events_processed += count
            if not target.ok:
                raise target._value
            return target._value

        deadline = float(until)
        if deadline < self._now:
            raise ValueError("cannot run backwards in time")
        try:
            while queue and queue[0][0] <= deadline:
                when, _seq, event = pop(queue)
                if withdrawn and id(event) in withdrawn:
                    withdrawn.discard(id(event))
                    continue
                self._now = when
                count += 1
                event._process()
        finally:
            self.events_processed += count
        self._now = deadline
        return None

    def _run_calendar(self, cal: CalendarQueue, until: Optional[Any]) -> Any:
        if until is None:
            cal.drain(float("inf"), None)
            return None

        if isinstance(until, Event):
            status = cal.drain(float("inf"), until)
            if status == 0 and not until.processed:
                raise Infeasible(
                    "event queue drained before the awaited event triggered")
            if not until.ok:
                raise until._value
            return until._value

        deadline = float(until)
        if deadline < self._now:
            raise ValueError("cannot run backwards in time")
        cal.drain(deadline, None)
        self._now = deadline
        return None
