"""Four-letter-word-style introspection (``ruok``/``stat``/``mntr``/``wchs``).

ZooKeeper answers short diagnostic commands on its client port; the
analog here is a :class:`FourLetterRequest` message any live server
answers with a plain-text payload. The dispatch sits at the *end* of
each server's message ladder, so ordinary traffic never pays for it,
and no probe message exists unless a test or chaos run sends one —
default runs are untouched.

Servers implement the command set themselves (they know their own
state); this module owns the wire messages, the command list, and the
:func:`probe` helper that tests and chaos drivers use to ask a live
server for its state without reaching into private attributes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

__all__ = ["FOUR_LETTER_COMMANDS", "FourLetterRequest", "FourLetterReply",
           "probe"]

#: commands every introspectable server answers.
FOUR_LETTER_COMMANDS = ("ruok", "stat", "mntr", "wchs")

_probe_ids = itertools.count(1)


@dataclass
class FourLetterRequest:
    """Probe -> server: run one diagnostic command."""

    xid: int
    command: str


@dataclass
class FourLetterReply:
    """Server -> probe: the command's plain-text payload."""

    xid: int
    command: str
    payload: str


def probe(env, net, target: str, command: str,
          timeout_ms: float = 1000.0) -> str:
    """Ask a live server ``command``; returns the payload text.

    Registers a throwaway network endpoint, sends one request, and runs
    the simulation until the reply (or the timeout) arrives. Raises
    ``TimeoutError`` when the target never answers (crashed server).
    """
    node_id = f"obs-probe-{next(_probe_ids)}"
    done = env.event()

    def on_message(src: str, msg: object) -> None:
        if isinstance(msg, FourLetterReply) and not done.triggered:
            done.succeed(msg)

    net.register(node_id, on_message)
    net.send(node_id, target, FourLetterRequest(1, command))
    timer = env.timeout(timeout_ms)
    env.run(until=env.any_of([done, timer]))
    timer.cancel()
    if not done.triggered:
        raise TimeoutError(f"{target} did not answer {command!r} "
                           f"within {timeout_ms:g} ms")
    return done.value.payload
