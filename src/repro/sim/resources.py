"""Serial resources: model a replica's CPU (or disk) as a FIFO server.

Coordination-service replicas process the request path on effectively one
thread (ZooKeeper's request-processor chain, BFT-SMaRt's ordered delivery
thread). Modelling that path as a FIFO queue with per-item service times
is what reproduces the paper's saturation throughput and the latency
growth under load in Figures 6–13.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from .environment import Environment
from .events import Callback

__all__ = ["FifoResource"]


def _idle() -> None:
    """Completion of an item nobody waits on."""


class FifoResource:
    """A single server that processes submitted work items in FIFO order.

    ``submit(cost_ms, fn, *args)`` runs ``fn(*args)`` once the item has
    been serviced. Utilization statistics are tracked so benchmarks can
    report saturation.
    """

    def __init__(self, env: Environment, name: str = "cpu"):
        self.env = env
        self.name = name
        self._queue: Deque[Tuple[float, Optional[Callable[..., None]],
                                 tuple]] = deque()
        self._busy = False
        self.busy_ms = 0.0
        self.items_served = 0

    @property
    def queue_length(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    def submit(self, cost_ms: float,
               fn: Optional[Callable[..., None]] = None, *args) -> None:
        """Enqueue a work item taking ``cost_ms``; ``fn(*args)`` runs
        when it completes (``fn`` None: the item only occupies the CPU).
        """
        if cost_ms < 0:
            raise ValueError(f"negative cost: {cost_ms!r}")
        self._queue.append((cost_ms, fn, args))
        if not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        """Start servicing the item at the head of the (non-empty) queue."""
        self._busy = True
        item = self._queue.popleft()
        cost_ms = item[0]
        self.busy_ms += cost_ms
        self.items_served += 1
        env = self.env
        env._push(env._now + cost_ms, Callback(self._finish, item))

    def _finish(self, _cost_ms: float, fn: Optional[Callable[..., None]],
                args: tuple) -> None:
        # The completion is a kernel occurrence of its own (one event
        # per item, callback or not), queued behind whatever is already
        # due at this instant and ahead of anything queued there later.
        env = self.env
        env._push(env._now, Callback(_idle if fn is None else fn, args))
        if self._queue:
            self._serve_next()
        else:
            self._busy = False

    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of ``elapsed_ms`` this resource spent busy."""
        if elapsed_ms <= 0:
            return 0.0
        return min(1.0, self.busy_ms / elapsed_ms)
