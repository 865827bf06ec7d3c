"""Trace-file analysis: phase decomposition, waterfalls, well-formedness.

Consumed by ``python -m repro.obs`` (the CLI renderer),
``python -m repro.bench phases`` (the per-phase EXPERIMENTS.md table)
and the obs test suite. Works on
the dict form of traces — either ``Trace.to_dict()`` objects straight
from a live tracer or lines parsed back from a JSONL dump.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

from .trace import (M_DELIVER, M_INGRESS, M_PROPOSE, M_RECV, M_REPLY,
                    M_SEND)

__all__ = ["load_traces", "check_trace", "phases_of", "breakdown",
           "format_breakdown", "format_waterfall", "end_to_end_ms"]

#: canonical phase orders (the later milestone names the phase).
WRITE_MILESTONES = (M_SEND, M_INGRESS, M_PROPOSE, M_DELIVER, M_REPLY,
                    M_RECV)
WRITE_PHASES = ("ingress", "broadcast", "quorum", "apply", "reply")
READ_MILESTONES = (M_SEND, M_INGRESS, M_REPLY, M_RECV)
READ_PHASES = ("ingress", "execute", "reply")


def load_traces(path) -> List[dict]:
    traces = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                traces.append(json.loads(line))
    return traces


def end_to_end_ms(trace: dict) -> float:
    marks = trace["marks"]
    return marks[-1][1] - marks[0][1]


def check_trace(trace: dict) -> Optional[str]:
    """Well-formedness; returns a reason string or None when clean.

    * mark timestamps must be nondecreasing (they are appended in
      event-execution order, so a violation means a broken clock);
    * a finished trace must start at ``send`` and end at ``recv``;
    * a finished, non-retried trace must visit its canonical milestone
      sequence (write or read) in order;
    * aux spans must sit inside the trace's time envelope.
    """
    marks = trace["marks"]
    if not marks:
        return "no marks"
    times = [m[1] for m in marks]
    if any(b < a for a, b in zip(times, times[1:])):
        return "non-monotone mark timestamps"
    if not trace["done"]:
        return None               # abandoned in flight: nothing more to say
    if marks[0][0] != M_SEND or marks[-1][0] != M_RECV:
        return "finished trace does not span send..recv"
    if not trace["retried"] and trace["ok"]:
        names = [m[0] for m in marks]
        expected = (WRITE_MILESTONES if M_PROPOSE in names
                    else READ_MILESTONES)
        walk = iter(names)
        if not all(milestone in walk for milestone in expected):
            return (f"milestones {names} missing canonical order "
                    f"{expected}")
    for name, t0, t1, _node, _detail in trace.get("aux", ()):
        if t1 < t0:
            return f"aux span {name} ends before it starts"
        if t0 < times[0] or t1 > times[-1]:
            return f"aux span {name} escapes the trace envelope"
    return None


def phases_of(trace: dict) -> Optional[Dict[str, float]]:
    """Named phase durations for a finished, non-retried trace.

    Durations are deltas between consecutive canonical milestones, so
    ``sum(phases.values()) == end_to_end_ms(trace)`` exactly (floating
    addition aside). Returns None for traces that cannot be tiled
    (retried, unfinished, or missing milestones).
    """
    if not trace["done"] or trace["retried"]:
        return None
    names = [m[0] for m in trace["marks"]]
    times = [m[1] for m in trace["marks"]]
    milestones = (WRITE_MILESTONES if M_PROPOSE in names
                  else READ_MILESTONES)
    phase_names = (WRITE_PHASES if M_PROPOSE in names else READ_PHASES)
    stamps = []
    start = 0
    for milestone in milestones:
        try:
            index = names.index(milestone, start)
        except ValueError:
            return None
        stamps.append(times[index])
        start = index + 1
    return {phase: stamps[i + 1] - stamps[i]
            for i, phase in enumerate(phase_names)}


def _pct(ordered: List[float], p: float) -> float:
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def breakdown(traces: List[dict]) -> Dict[str, dict]:
    """Aggregate per-phase stats, split into write and read pipelines.

    Returns ``{"write": {phase: {count, mean_ms, p99_ms}, ...},
    "read": {...}}`` plus a ``_recon`` entry per pipeline recording how
    the phase sums reconcile against end-to-end latency.
    """
    samples: Dict[str, Dict[str, List[float]]] = {"write": {}, "read": {}}
    recon = {"write": [0.0, 0.0, 0], "read": [0.0, 0.0, 0]}
    for trace in traces:
        phases = phases_of(trace)
        if phases is None or not trace.get("ok"):
            continue
        pipeline = "write" if "quorum" in phases else "read"
        for phase, value in phases.items():
            samples[pipeline].setdefault(phase, []).append(value)
        recon[pipeline][0] += sum(phases.values())
        recon[pipeline][1] += end_to_end_ms(trace)
        recon[pipeline][2] += 1
    out: Dict[str, dict] = {}
    for pipeline, order in (("write", WRITE_PHASES), ("read", READ_PHASES)):
        rows = {}
        for phase in order:
            values = sorted(samples[pipeline].get(phase, []))
            if not values:
                continue
            rows[phase] = {
                "count": len(values),
                "mean_ms": sum(values) / len(values),
                "p99_ms": _pct(values, 99.0),
            }
        phase_sum, e2e_sum, count = recon[pipeline]
        rows["_recon"] = {
            "traces": count,
            "phase_sum_ms": phase_sum,
            "end_to_end_ms": e2e_sum,
        }
        out[pipeline] = rows
    return out


def format_breakdown(stats: Dict[str, dict]) -> str:
    lines = []
    for pipeline in ("write", "read"):
        rows = stats.get(pipeline, {})
        recon = rows.get("_recon", {})
        if not recon.get("traces"):
            continue
        lines.append(f"{pipeline} pipeline ({recon['traces']} traces):")
        for phase, row in rows.items():
            if phase == "_recon":
                continue
            lines.append(f"  {phase:<10} n={row['count']:<6} "
                         f"mean={row['mean_ms']:.4f} ms  "
                         f"p99={row['p99_ms']:.4f} ms")
        e2e = recon["end_to_end_ms"]
        drift = (abs(recon["phase_sum_ms"] - e2e) / e2e if e2e else 0.0)
        lines.append(f"  phase sum {recon['phase_sum_ms']:.4f} ms vs "
                     f"end-to-end {e2e:.4f} ms "
                     f"(drift {drift:.3%})")
    return "\n".join(lines) if lines else "no finished traces"


#: columns of a waterfall's bar.
WATERFALL_WIDTH = 48


def format_waterfall(trace: dict) -> str:
    """One trace as an offset-aligned waterfall of its marks."""
    marks = trace["marks"]
    t0, t1 = marks[0][1], marks[-1][1]
    span = (t1 - t0) or 1.0
    header = (f"trace {trace['trace_id']} {trace['op']} "
              f"client={trace['client']} xid={trace['xid']} "
              f"{'ok' if trace.get('ok') else 'failed'} "
              f"{t1 - t0:.4f} ms"
              f"{' (retried)' if trace.get('retried') else ''}")
    lines = [header]
    for phase, t, node, epoch, zxid in marks:
        offset = int((t - t0) / span * (WATERFALL_WIDTH - 1))
        bar = " " * offset + "|"
        extra = f" epoch={epoch}" if epoch else ""
        extra += f" zxid={zxid:#x}" if zxid else ""
        lines.append(f"  {phase:<8} +{t - t0:9.4f} ms  {bar:<{WATERFALL_WIDTH + 1}}"
                     f" {node}{extra}")
    for name, s0, s1, node, detail in trace.get("aux", ()):
        tag = f" {detail}" if detail else ""
        lines.append(f"  ~{name:<12} {s0 - t0:9.4f}..{s1 - t0:.4f} ms "
                     f"on {node}{tag}")
    return "\n".join(lines)
