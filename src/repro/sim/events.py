"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-process model (as popularized by
simpy): a *process* is a Python generator that yields :class:`Event`
instances; the environment resumes the generator when the yielded event
triggers, sending the event's value back into the generator (or throwing
the event's exception).

Events move through three states:

* *pending* — created but not yet triggered,
* *triggered* — a value (or exception) has been set and the event has been
  scheduled on the environment's queue,
* *processed* — the environment has popped the event and run its callbacks.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Callback",
    "Process",
    "Interrupted",
    "AnyOf",
    "AllOf",
]

_PENDING = object()


def _noop() -> None:
    """What a cancelled :class:`Callback` runs."""


class Callback:
    """A lightweight one-shot scheduled callback.

    The hot paths of the simulation (network deliveries, resource
    completions) schedule hundreds of thousands of occurrences that
    nothing ever waits on. A full :class:`Event` costs an object with a
    callbacks list plus a closure per occurrence; this slotted wrapper
    carries just the function and its arguments. It is **not awaitable**
    — processes must not yield it; use :class:`Event` for that.

    ``env`` and ``when`` are set by :meth:`Environment.defer`, the one
    producer whose callbacks can be withdrawn again.
    """

    __slots__ = ("fn", "args", "env", "when")

    def __init__(self, fn: Callable[..., None], args: tuple = (),
                 env: Optional["Environment"] = None,  # noqa: F821
                 when: float = 0.0):
        self.fn = fn
        self.args = args
        self.env = env
        self.when = when

    def cancel(self) -> None:
        """Withdraw the callback: it never runs and is never counted.

        A deferred callback leaves the queue wherever it sits; every
        other entry keeps its sequence number and its tie order.
        Cancelling one that already ran, or cancelling twice, is a
        no-op. The function and its arguments are dropped either way,
        so a caller that keeps the handle holds nothing of the request.
        """
        self.fn = _noop
        self.args = ()
        env = self.env
        if env is not None:
            self.env = None
            env._withdraw(self.when, self)

    def _process(self) -> None:
        self.fn(*self.args)


class Interrupted(Exception):
    """Raised inside a process generator when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event carries either a value (success) or an exception (failure).
    Callbacks attached before the event is processed run exactly once, in
    attachment order, when the environment processes the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value or exception has been set."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError("event has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self): succeed() fires once per RPC reply
        # and per process exit, so the call overhead is hot.
        env = self.env
        env._push(env._now, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING:
            raise RuntimeError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._push(env._now, self)
        return self

    # -- callback plumbing -------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed virtual-time delay."""

    __slots__ = ("delay", "when")

    def __init__(self, env: "Environment", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        self.when = when = env._now + delay
        env._push(when, self)

    def cancel(self) -> None:
        """Withdraw a timer that lost its race: it never fires and is
        never counted, and every other entry keeps its tie order.

        Meant for a timer raced in an :class:`AnyOf` whose other
        constituent won (the condition has already let go of it). A
        timer something still waits on is refused with ``RuntimeError``;
        one that already fired is left alone. A withdrawn timer must not
        be waited on: it never triggers.
        """
        callbacks = self.callbacks
        if callbacks is None:
            return
        if callbacks:
            raise RuntimeError("cannot cancel a timer something waits on")
        self._value = None
        self.env._withdraw(self.when, self)


class Process(Event):
    """Wraps a generator; the process event triggers when the generator returns.

    The generator's ``return`` value becomes the event value; an uncaught
    exception inside the generator fails the event (and propagates out of
    :meth:`Environment.run` if nothing waits on the process).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):  # noqa: F821
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Kick off the process as an immediately-scheduled initialization.
        init = Event(env)
        init._ok = True
        init._value = None
        init.add_callback(self._resume)
        env.schedule(init)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its current yield."""
        if self.triggered:
            raise RuntimeError("cannot interrupt a completed process")
        target = self._target
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupted(cause)
        # Deliver the interrupt ahead of whatever the process is waiting on.
        if target is not None and not target.processed:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        interrupt_event.add_callback(self._resume)
        self.env.schedule(interrupt_event)

    def _resume(self, event: Event) -> None:
        self._target = None
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    exc = event._value
                    target = self._generator.throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - process death is an event
                self.fail(exc)
                return
            if not isinstance(target, Event):
                error = TypeError(
                    f"process yielded a non-event: {target!r} "
                    "(yield Event/Timeout/Process instances only)")
                event = Event(self.env)
                event._ok = False
                event._value = error
                continue
            if target.processed:
                # Already done: loop around synchronously.
                event = target
                continue
            target.add_callback(self._resume)
            self._target = target
            return


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):  # noqa: F821
        super().__init__(env)
        self.events = list(events)
        self._pending = len(self.events)
        for event in self.events:
            if event.env is not env:
                raise ValueError("all events must belong to the same environment")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            # add_callback runs immediately for already-processed events.
            event.add_callback(self._observe)
            if self.triggered:
                return

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        """Unsubscribe from every constituent still pending.

        Called once the condition has triggered, after which ``_observe``
        is a no-op: a losing constituent (say, the deadline a reply beat)
        no longer holds this condition, the winner and its value. The
        kernel does not withdraw it, since a caller may still hold and
        await it; the caller that owns a lost timer cancels it.
        """
        observe = self._observe
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is not None and observe in callbacks:
                callbacks.remove(observe)

    def _collect(self) -> dict[Event, Any]:
        # Timeouts carry their value from construction, so membership is
        # decided by *processed* (the event actually fired), not triggered.
        return {e: e._value for e in self.events if e.processed and e._ok}


class AnyOf(_Condition):
    """Triggers as soon as any constituent event triggers."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._collect())
        self._detach()


class AllOf(_Condition):
    """Triggers once every constituent event has triggered."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            self._detach()
            return
        self._pending -= 1
        if self._pending <= 0:
            self.succeed(self._collect())
