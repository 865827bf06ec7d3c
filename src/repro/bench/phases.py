"""Per-phase request latency of the traced fig8 cell (EXPERIMENTS.md).

``python -m repro.bench phases`` runs the Figure-8 queue driver once per
consensus kernel with the observability plane attached, telescopes every
finished trace into its phases, and rewrites the ``obs-phases`` block of
EXPERIMENTS.md in place. The simulated numbers are deterministic, so a
rerun leaves the document byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from .workload import run_queue_workload

__all__ = ["run_phase_breakdown", "write_phase_table"]

CLIENTS = 32
MEASURE_MS = 500.0
PHASES_BEGIN = "<!-- obs-phases:begin -->"
PHASES_END = "<!-- obs-phases:end -->"
PHASES_DOC = Path("EXPERIMENTS.md")


def run_phase_breakdown() -> Dict[str, dict]:
    """Traced fig8 cells over Zab and Raft: per-phase latency breakdown.

    Runs the Figure-8 queue driver once per consensus kernel with the
    observability plane attached and telescopes every finished write
    trace into its ingress/broadcast/quorum/apply/reply phases. One
    traced run per kernel: the sim metrics are deterministic, and
    wall-clock speed is not what this mode measures.
    """
    from ..obs import ObsConfig, breakdown
    from ..zk.server import ZkConfig
    rows: Dict[str, dict] = {}
    for kernel in ("zab", "raft"):
        obs_cfg = ObsConfig()
        config = (ZkConfig(obs=obs_cfg) if kernel == "zab"
                  else ZkConfig(kernel="raft", obs=obs_cfg))
        run_queue_workload("zk", CLIENTS, measure_ms=MEASURE_MS,
                           config=config)
        traces = [t.to_dict() for t in obs_cfg.runtime.tracer.traces()]
        rows[kernel] = breakdown(traces)
    return rows


def write_phase_table(rows: Dict[str, dict]) -> None:
    """Record the per-phase table into EXPERIMENTS.md (idempotent).

    The table lives between sentinel comments so re-runs replace it in
    place; a document without the sentinels gets the section appended.
    """
    from ..obs import READ_PHASES, WRITE_PHASES
    lines = [PHASES_BEGIN,
             "### Per-phase request latency (traced fig8 cell)",
             "",
             f"Figure-8 queue driver, {CLIENTS} closed-loop clients, "
             f"{MEASURE_MS:g} ms measured window, tracing on "
             "(`ZkConfig(obs=ObsConfig())`). Phases telescope between "
             "consecutive trace milestones, so per-pipeline phase sums "
             "equal end-to-end latency exactly.",
             "",
             "| kernel | pipeline | phase | n | mean (ms) | p99 (ms) |",
             "|---|---|---|---:|---:|---:|"]
    for kernel, bd in rows.items():
        for pipeline, phases in (("write", WRITE_PHASES),
                                 ("read", READ_PHASES)):
            for phase in phases:
                row = bd[pipeline].get(phase)
                if row is None:
                    continue
                lines.append(
                    f"| {kernel} | {pipeline} | {phase} | {row['count']} "
                    f"| {row['mean_ms']:.4f} | {row['p99_ms']:.4f} |")
    for kernel, bd in rows.items():
        recon = bd["write"]["_recon"]
        lines.append("")
        lines.append(
            f"Reconciliation ({kernel}, write): phase sum "
            f"{recon['phase_sum_ms']:.4f} ms vs end-to-end "
            f"{recon['end_to_end_ms']:.4f} ms over {recon['traces']} "
            f"traces.")
    lines.append(PHASES_END)
    block = "\n".join(lines)
    text = PHASES_DOC.read_text() if PHASES_DOC.exists() else ""
    if PHASES_BEGIN in text and PHASES_END in text:
        head, rest = text.split(PHASES_BEGIN, 1)
        _, tail = rest.split(PHASES_END, 1)
        text = head + block + tail
    else:
        if text and not text.endswith("\n"):
            text += "\n"
        text += "\n" + block + "\n"
    PHASES_DOC.write_text(text)
