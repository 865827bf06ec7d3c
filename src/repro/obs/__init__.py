"""Deterministic observability plane: traces, metrics, introspection.

Three pieces, all riding the simulation clock so instrumented runs stay
deterministic and replayable:

* :mod:`repro.obs.trace` — causal request traces keyed on the
  ``(client_node, xid)`` identity requests already carry (no wire-size
  changes), dumped as per-run JSONL and rendered by
  ``python -m repro.obs``;
* :mod:`repro.obs.metrics` — the counter/histogram registry the
  protocol layers report into;
* :mod:`repro.obs.introspect` — the four-letter-word endpoint
  (``ruok``/``stat``/``mntr``/``wchs``) live servers answer.

Everything is off by default: servers install the plane only when their
config carries an :class:`ObsConfig`, and every instrumentation point
is guarded by a single ``env.obs is None`` check that schedules nothing
and draws no randomness — the off path (and, for sim-side metrics, even
the on path) is byte-identical to an unobserved run.
"""

from .introspect import (FOUR_LETTER_COMMANDS, FourLetterReply,
                         FourLetterRequest, probe)
from .metrics import BUCKET_BOUNDS_MS, MetricsRegistry
from .report import (READ_MILESTONES, READ_PHASES, WRITE_MILESTONES,
                     WRITE_PHASES, breakdown, check_trace, format_breakdown,
                     format_waterfall, load_traces, phases_of)
from .trace import (M_DELIVER, M_INGRESS, M_PROPOSE, M_RECV, M_REPLY,
                    M_SEND, Observability, ObsConfig, Trace, Tracer)

__all__ = [
    "ObsConfig", "Observability", "Tracer", "Trace", "MetricsRegistry",
    "BUCKET_BOUNDS_MS", "FourLetterRequest", "FourLetterReply",
    "FOUR_LETTER_COMMANDS", "probe",
    "M_SEND", "M_INGRESS", "M_PROPOSE", "M_DELIVER", "M_REPLY", "M_RECV",
    "WRITE_MILESTONES", "WRITE_PHASES", "READ_MILESTONES", "READ_PHASES",
    "load_traces", "check_trace", "phases_of", "breakdown",
    "format_breakdown", "format_waterfall",
]
