"""Shared client retry policy: jittered exponential backoff.

Both client families retry transient failures — the ZooKeeper client
backs off on ``ConnectionLoss`` during elections, the DepSpace client
retransmits its multicast until a reply quorum forms — and before this
module each carried its own copy of the delay logic. A
:class:`RetryPolicy` is the declarative spec (base, cap, growth,
jitter); :meth:`RetryPolicy.start` binds it to a deterministic
per-client RNG stream, yielding a :class:`Backoff` whose ``delay(n)``
is the wait before retry ``n``.

Determinism contract: for the historical ZooKeeper parameters
(``base_ms=50, cap_ms=800, multiplier=2, jitter=True``) and the seed
string ``f"zkclient-backoff-{node_id}"``, the delays — including the
exact RNG consumption order (jitter is drawn only for ``attempt > 0``)
— are byte-identical to the backoff loop previously inlined in
``zk/client.py``. The DepSpace retransmit timer is the degenerate
policy ``RetryPolicy(1000, 1000, 1, jitter=False)``: a constant delay
that consumes no randomness.

The request/reply waits that do *not* retransmit on a timer (the
ZooKeeper client's calls and probes) bound each attempt with
:func:`arm_deadline` instead: one deferred callback that answers the
call's future with :data:`TIMED_OUT`. The caller cancels it as soon as
the future settles, so a reply does not stay reachable from the event
queue for the rest of the deadline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy", "Backoff", "ZK_RETRY_POLICY", "DS_RETRY_POLICY",
           "TIMED_OUT", "arm_deadline"]


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry spec; ``start()`` binds it to an RNG stream."""

    base_ms: float = 50.0
    cap_ms: float = 800.0
    multiplier: float = 2.0
    #: scale delays after the first retry by ``0.5 + U[0, 1)`` so
    #: clients bounced by the same fault don't retry in lockstep. The
    #: first retry keeps the exact base delay (and draws no randomness),
    #: preserving the common fast-recovery path.
    jitter: bool = True

    def start(self, seed: str) -> "Backoff":
        """A backoff state whose jitter stream is derived from ``seed``.

        String-seeded so the stream is deterministic per client across
        processes (``hash()`` of a str is salted per interpreter).
        """
        return Backoff(self, random.Random(seed))

    def raw_delay_ms(self, attempt: int) -> float:
        """The capped exponential delay before jitter (attempt >= 0)."""
        return min(self.cap_ms, self.base_ms * (self.multiplier ** attempt))


class Backoff:
    """Per-client backoff state: a policy bound to a jitter RNG."""

    __slots__ = ("policy", "_rng")

    def __init__(self, policy: RetryPolicy, rng: random.Random):
        self.policy = policy
        self._rng = rng

    def delay(self, attempt: int) -> float:
        """Delay (ms) before retry number ``attempt`` (0-based)."""
        delay = self.policy.raw_delay_ms(attempt)
        if self.policy.jitter and attempt > 0:
            delay *= 0.5 + self._rng.random()
        return delay


#: The ZooKeeper client's ConnectionLoss backoff (historical values).
ZK_RETRY_POLICY = RetryPolicy(base_ms=50.0, cap_ms=800.0, multiplier=2.0,
                              jitter=True)

#: The DepSpace client's fixed retransmit timer expressed as a policy.
DS_RETRY_POLICY = RetryPolicy(base_ms=1000.0, cap_ms=1000.0, multiplier=1.0,
                              jitter=False)


#: The value a deadline delivers to a call's future in place of a reply.
TIMED_OUT = object()


def arm_deadline(env, delay_ms: float, pending: dict, key, future):
    """Answer ``future`` with :data:`TIMED_OUT` in ``delay_ms`` unless a
    reply settles it first; returns the deferred callback.

    On expiry ``key`` leaves ``pending`` (the caller's table of calls
    awaiting a reply). The ``triggered`` check also covers retries that
    reuse the key: a stale deadline holds the *old* future and must not
    pop the replacement. The caller ``cancel()``s the callback once its
    ``yield future`` returns: the entry stays queued and fires as a
    no-op, so the event stream is unchanged, but it no longer holds the
    future and the reply.
    """
    return env.defer(delay_ms, _expire, pending, key, future)


def _expire(pending: dict, key, future) -> None:
    if not future.triggered:
        pending.pop(key, None)
        future.succeed(TIMED_OUT)
