"""Wall-clock microbenchmark for the simulation kernel (BENCH_core.json).

The figure benchmarks report *simulated* metrics; this module measures
how fast the kernel itself chews through events in *real* time. The
``--workload`` flag picks the driver:

* ``fig8-queue`` (default) — the Figure-8 distributed-queue driver
  (``run_queue_workload``) with 32 closed-loop clients;
* ``read-heavy`` — the 90/10 read-dominated regular-client driver
  (``run_read_heavy_workload``), measured twice per system: the
  leader-only baseline (all clients pinned to replica 0) and the
  read-scaled configuration (``local_reads`` + 2 observers), with the
  ``sim_ops_per_s`` ratio recorded as ``read_scaling_x``.

Each row records, per system:

* ``events_per_wall_s`` — kernel events processed per wall-clock second
  (the headline number the perf work is judged on),
* ``sim_ops_per_s`` / ``mean_latency_ms`` / ``client_kb_per_op`` — the
  simulated figure-level metrics, so a kernel speedup that accidentally
  changes the modelled behaviour is caught immediately.

Usage::

    PYTHONPATH=src python -m repro.bench.wallclock --baseline   # once
    PYTHONPATH=src python -m repro.bench.wallclock              # after changes
    PYTHONPATH=src python -m repro.bench.wallclock --workload read-heavy

The first form records the pre-change baseline into ``BENCH_core.json``;
the second re-measures, stores the result next to the baseline, and
prints the speedup. The file accumulates across PRs so the trend stays
visible.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, Optional

from ..sim import Environment
from .workload import run_queue_workload, run_read_heavy_workload

__all__ = ["measure_queue", "measure_read_heavy", "measure_kernel",
           "measure_openloop", "measure_zipf_hot", "run_bench",
           "run_read_bench", "run_kernel_bench", "run_openloop_bench",
           "run_zipf_hot_bench", "run_phase_breakdown", "write_phase_table",
           "run_guard", "main"]

DEFAULT_OUTPUT = Path("BENCH_core.json")
CLIENTS = 32
MEASURE_MS = 500.0
SYSTEMS = ("zk", "ezk")
WORKLOADS = ("fig8-queue", "read-heavy", "kernel", "openloop", "zipf-hot")
READ_OBSERVERS = 2
#: zipf-hot saturation pair: enough offered load that the 3-replica
#: local-reads read path is the bottleneck in both cells, few wide
#: sessions so per-session hit rate is representative of a client that
#: actually rereads its hot keys.
ZIPF_HOT_SKEW = 1.2
ZIPF_HOT_MIX = {"read": 0.95, "write": 0.05}
#: --guard: fail when events/wall-s drops below this fraction of the
#: recorded row.
GUARD_THRESHOLD = 0.30


def _consensus_config(kernel: str):
    """ZkConfig selecting the consensus kernel; None for the Zab default.

    Returning None for "zab" keeps the default rows byte-identical to
    historical runs (the ensembles see no config object at all)."""
    if kernel == "zab":
        return None
    from ..zk.server import ZkConfig
    return ZkConfig(kernel=kernel)


def measure_queue(kind: str, config=None, repeat: int = 3,
                  clients: int = CLIENTS,
                  measure_ms: float = MEASURE_MS) -> Dict[str, float]:
    """Run the fig-8 queue driver ``repeat`` times; keep the fastest run.

    The simulated metrics are identical across repeats (the simulation
    is deterministic under a fixed seed); only the wall-clock numbers
    vary, and the minimum is the least noisy estimate of kernel cost.
    """
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run_queue_workload(kind, clients, measure_ms=measure_ms,
                                    config=config)
        wall_s = time.perf_counter() - start
        if best is None or wall_s < best["wall_s"]:
            best = {
                "wall_s": round(wall_s, 4),
                "sim_events": result.extra["sim_events"],
                "events_per_wall_s": round(
                    result.extra["sim_events"] / wall_s, 1),
                "sim_ops_per_s": round(result.throughput_ops, 2),
                "mean_latency_ms": round(result.mean_latency_ms, 4),
                "client_kb_per_op": round(result.client_kb_per_op, 4),
                "completed_ops": result.completed_ops,
            }
    return best


def run_bench(repeat: int = 3,
              kernel: str = "zab") -> Dict[str, Dict[str, float]]:
    """Measure every system over the ``kernel`` consensus backend
    ("zab"/"raft")."""
    consensus = _consensus_config(kernel)
    return {kind: measure_queue(kind, config=consensus, repeat=repeat)
            for kind in SYSTEMS}


def measure_read_heavy(kind: str, scaled: bool, repeat: int = 3,
                       clients: int = CLIENTS,
                       measure_ms: float = MEASURE_MS,
                       config=None) -> Dict[str, float]:
    """One read-heavy cell: leader-only baseline or read-scaled config."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run_read_heavy_workload(
            kind, clients, measure_ms=measure_ms,
            local_reads=scaled,
            n_observers=READ_OBSERVERS if scaled else 0,
            pin_leader=not scaled, config=config)
        wall_s = time.perf_counter() - start
        if best is None or wall_s < best["wall_s"]:
            best = {
                "wall_s": round(wall_s, 4),
                "sim_events": result.extra["sim_events"],
                "events_per_wall_s": round(
                    result.extra["sim_events"] / wall_s, 1),
                "sim_ops_per_s": round(result.throughput_ops, 2),
                "mean_latency_ms": round(result.mean_latency_ms, 4),
                "read_latency_ms": round(result.extra["read_ms"], 4),
                "write_latency_ms": round(result.extra["write_ms"], 4),
                "client_kb_per_op": round(result.client_kb_per_op, 4),
                "completed_ops": result.completed_ops,
            }
    return best


def run_read_bench(repeat: int = 3, kernel: str = "zab") -> Dict[str, Dict]:
    """Leader-only vs read-scaled rows per system, plus the scaling ratio."""
    config = _consensus_config(kernel)
    rows: Dict[str, Dict] = {}
    for kind in SYSTEMS:
        leader_only = measure_read_heavy(kind, scaled=False, repeat=repeat,
                                         config=config)
        scaled = measure_read_heavy(kind, scaled=True, repeat=repeat,
                                    config=config)
        rows[kind] = {
            "leader_only": leader_only,
            "local_reads+2obs": scaled,
            "read_scaling_x": round(
                scaled["sim_ops_per_s"] / leader_only["sim_ops_per_s"], 3),
        }
    return rows


def _kernel_spin(kernel: str, chains: int = 64,
                 horizon_ms: float = 2000.0) -> int:
    """Raw dispatch load: no protocol code, just the event queue.

    ``chains`` self-rescheduling callbacks at staggered sub-millisecond
    periods (the hot band), plus the RPC-deadline pattern that bloats a
    plain heap: every eighth hot event also schedules a one-shot timer
    3 s out that never becomes due within the horizon, so dead entries
    accumulate in the queue exactly like uncancelled per-call deadline
    timers do in the client. Returns events processed.
    """
    env = Environment(kernel=kernel)
    defer = env.defer

    def noop():
        pass

    def make(period: float):
        calls = 0

        def fire():
            nonlocal calls
            calls += 1
            if not calls % 8:
                defer(3000.0, noop)   # parked deadline, never due
            defer(period, fire)
        return fire

    for i in range(chains):
        period = 0.05 + (i % 20) * 0.037
        defer(period * (i + 1) / chains, make(period))
    env.run(until=horizon_ms)
    return env.events_processed


def measure_kernel(kernel: str, repeat: int = 3,
                   chains: int = 64,
                   horizon_ms: float = 2000.0) -> Dict[str, float]:
    """Events/wall-second of the bare queue kernel (no model code)."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        events = _kernel_spin(kernel, chains=chains, horizon_ms=horizon_ms)
        wall_s = time.perf_counter() - start
        if best is None or wall_s < best["wall_s"]:
            best = {
                "wall_s": round(wall_s, 4),
                "sim_events": events,
                "events_per_wall_s": round(events / wall_s, 1),
            }
    best["kernel"] = kernel
    return best


def run_kernel_bench(repeat: int = 3) -> Dict[str, Dict[str, float]]:
    """Raw-dispatch rows for both kernels."""
    return {kernel: measure_kernel(kernel, repeat=repeat)
            for kernel in ("heap", "calendar")}


def measure_openloop(kind: str, clients: int = 100_000,
                     ops_per_client_s: float = 0.5,
                     repeat: int = 2,
                     measure_ms: float = MEASURE_MS) -> Dict[str, float]:
    """One open-loop cell: ``clients`` modeled clients at the given rate."""
    from .openloop import Workload, run_openloop_workload
    workload = Workload(clients=clients, ops_per_client_s=ops_per_client_s)
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run_openloop_workload(kind, workload,
                                       measure_ms=measure_ms)
        wall_s = time.perf_counter() - start
        if best is None or wall_s < best["wall_s"]:
            best = {
                "wall_s": round(wall_s, 4),
                "modeled_clients": clients,
                "offered_ops_per_s": result.extra["offered_ops_per_s"],
                "achieved_ops_per_s": round(result.throughput_ops, 1),
                "sim_events": result.extra["sim_events"],
                "events_per_wall_s": round(
                    result.extra["sim_events"] / wall_s, 1),
                "p50_ms": round(result.p50_latency_ms, 4),
                "p99_ms": round(result.p99_latency_ms, 4),
                "p999_ms": round(result.p999_latency_ms, 4),
                "max_backlog": result.extra["max_backlog"],
            }
    return best


def run_openloop_bench(repeat: int = 2) -> Dict[str, Dict[str, float]]:
    return {kind: measure_openloop(kind, repeat=repeat) for kind in SYSTEMS}


def measure_zipf_hot(kind: str, cached: bool, skew: float = ZIPF_HOT_SKEW,
                     saturate: bool = True, repeat: int = 1,
                     measure_ms: float = 400.0) -> Dict[str, float]:
    """One zipf-hot cell: Zipf(skew) 95/5 reads, uniform write keys.

    ``saturate=True`` offers well past the 3-replica local-reads read
    ceiling so achieved *read throughput* is the capacity headline;
    ``saturate=False`` offers a light load so the read p50 isolates the
    per-request path (the sub-RTT cache-hit claim).
    """
    from .openloop import Workload, run_openloop_workload
    if saturate:
        clients, ops, sessions, inflight = 550_000, 1.0, 4, 256
    else:
        clients, ops, sessions, inflight = 200_000, 0.5, 16, 64
    workload = Workload(mix=dict(ZIPF_HOT_MIX), skew=skew, clients=clients,
                        ops_per_client_s=ops, keys=512,
                        cached_reads=cached, write_skew=0.0)
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run_openloop_workload(
            kind, workload, measure_ms=measure_ms, warmup_ms=150.0,
            n_observers=0, sessions=sessions,
            inflight_per_session=inflight)
        wall_s = time.perf_counter() - start
        if best is None or wall_s < best["wall_s"]:
            extra = result.extra
            best = {
                "wall_s": round(wall_s, 4),
                "offered_ops_per_s": extra["offered_ops_per_s"],
                "achieved_ops_per_s": round(result.throughput_ops, 1),
                "read_ops_per_s": round(extra["read_ops_per_s"], 1),
                "read_p50_ms": round(extra["read_p50_ms"], 4),
                "read_p99_ms": round(extra["read_p99_ms"], 4),
                "cache_hit_rate": round(
                    extra.get("cache_hit_rate", 0.0), 4),
                "sim_events": extra["sim_events"],
                "events_per_wall_s": round(
                    extra["sim_events"] / wall_s, 1),
            }
    return best


def run_zipf_hot_bench(skews=(0.6, 0.9, 1.2), repeat: int = 1
                       ) -> Dict[str, object]:
    """The zipf-hot section: saturation pair, latency pair, skew sweep.

    The headline ratio compares achieved read throughput with leases on
    vs the plain local-reads baseline on identical hardware (3 replicas,
    no observers) under the same saturating offered load.
    """
    baseline = measure_zipf_hot("zk", cached=False, repeat=repeat)
    cached = measure_zipf_hot("zk", cached=True, repeat=repeat)
    lat_baseline = measure_zipf_hot("zk", cached=False, saturate=False,
                                    repeat=repeat)
    lat_cached = measure_zipf_hot("zk", cached=True, saturate=False,
                                  repeat=repeat)
    sweep = {}
    for skew in skews:
        sweep[f"{skew:g}"] = {
            "baseline": measure_zipf_hot("zk", cached=False, skew=skew,
                                         saturate=False, repeat=repeat),
            "cached": measure_zipf_hot("zk", cached=True, skew=skew,
                                       saturate=False, repeat=repeat),
        }
    return {
        "mix": dict(ZIPF_HOT_MIX),
        "skew": ZIPF_HOT_SKEW,
        "saturated": {"baseline": baseline, "cached": cached},
        "light_load": {"baseline": lat_baseline, "cached": lat_cached},
        "read_speedup_x": round(
            cached["read_ops_per_s"] / baseline["read_ops_per_s"], 3),
        "read_p50_speedup_x": round(
            lat_baseline["read_p50_ms"] / lat_cached["read_p50_ms"], 1),
        "skew_sweep": sweep,
    }


PHASES_BEGIN = "<!-- obs-phases:begin -->"
PHASES_END = "<!-- obs-phases:end -->"
PHASES_DOC = Path("EXPERIMENTS.md")


def run_phase_breakdown(measure_ms: float = MEASURE_MS,
                        clients: int = CLIENTS) -> Dict[str, dict]:
    """Traced fig8 cells over Zab and Raft: per-phase latency breakdown.

    Runs the Figure-8 queue driver once per consensus kernel with the
    observability plane attached and telescopes every finished write
    trace into its ingress/broadcast/quorum/apply/reply phases. One
    traced repeat per kernel — the sim metrics are deterministic, and
    wall-clock speed is not what this mode measures.
    """
    from ..obs import ObsConfig, breakdown
    from ..zk.server import ZkConfig
    rows: Dict[str, dict] = {}
    for kernel in ("zab", "raft"):
        obs_cfg = ObsConfig()
        config = (ZkConfig(obs=obs_cfg) if kernel == "zab"
                  else ZkConfig(kernel="raft", obs=obs_cfg))
        run_queue_workload("zk", clients, measure_ms=measure_ms,
                           config=config)
        traces = [t.to_dict() for t in obs_cfg.runtime.tracer.traces()]
        rows[kernel] = breakdown(traces)
    return rows


def write_phase_table(rows: Dict[str, dict],
                      path: Path = PHASES_DOC) -> None:
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
    text = path.read_text() if path.exists() else ""
    if PHASES_BEGIN in text and PHASES_END in text:
        head, rest = text.split(PHASES_BEGIN, 1)
        _, tail = rest.split(PHASES_END, 1)
        text = head + block + tail
    else:
        if text and not text.endswith("\n"):
            text += "\n"
        text += "\n" + block + "\n"
    path.write_text(text)


def run_guard(payload: dict, threshold: float = GUARD_THRESHOLD) -> int:
    """Re-measure quickly; fail if any row regressed more than ``threshold``.

    Compares events/wall-second against the recorded ``current`` (fig8),
    ``raft``, ``kernel`` and ``zipf_hot`` rows in BENCH_core.json. A
    cell with no recorded row fails: a guard that skips it guards
    nothing. Returns a process exit code.
    """
    failures = []

    def check(label: str, recorded: Optional[dict], measured: dict) -> None:
        if not recorded:
            print(f"  {label:<18} no recorded row  MISSING")
            failures.append(label)
            return
        floor = recorded["events_per_wall_s"] * (1.0 - threshold)
        got = measured["events_per_wall_s"]
        verdict = "ok" if got >= floor else "REGRESSED"
        print(f"  {label:<18} recorded={recorded['events_per_wall_s']:>11.1f}"
              f"  measured={got:>11.1f}  floor={floor:>11.1f}  {verdict}")
        if got < floor:
            failures.append(label)

    current = payload.get("current", {})
    for kind in SYSTEMS:
        check(f"fig8:{kind}", current.get(kind),
              measure_queue(kind, repeat=2))
    # The Raft consensus kernel shares the guard: a regression confined
    # to the non-default backend must fail the same check. Rows are
    # recorded by ``--workload fig8-queue --kernel raft``.
    raft_rows = payload.get("raft", {})
    for kind in SYSTEMS:
        check(f"raft:{kind}", raft_rows.get(kind),
              measure_queue(kind, config=_consensus_config("raft"),
                            repeat=2))
    kernel_rows = payload.get("kernel", {})
    for kernel in ("heap", "calendar"):
        check(f"kernel:{kernel}", kernel_rows.get(kernel),
              measure_kernel(kernel, repeat=2))
    zipf = payload.get("zipf_hot", {}).get("light_load", {})
    # The cache path (leases + client cache + revocation) is hot-loop
    # code too: guard its kernel throughput like the others.
    check("zipf_hot:cached", zipf.get("cached"),
          measure_zipf_hot("zk", cached=True, saturate=False, repeat=1))
    if failures:
        print(f"wallclock guard FAILED: {', '.join(failures)} missing or "
              f">{threshold:.0%} below the recorded rows")
        return 1
    print("wallclock guard passed")
    return 0


def _load(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", action="store_true",
                        help="record this run as the pre-change baseline")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--workload", choices=WORKLOADS,
                        default="fig8-queue",
                        help="driver to measure (default: fig8-queue)")
    parser.add_argument("--kernel", choices=("zab", "raft"), default="zab",
                        help="consensus backend for the fig8-queue and "
                             "read-heavy drivers (default: zab; raft rows "
                             "are recorded in their own sections)")
    parser.add_argument("--guard", action="store_true",
                        help="re-measure and fail if events/wall-s dropped "
                             f">{GUARD_THRESHOLD:.0%} below recorded rows")
    parser.add_argument("--phases", action="store_true",
                        help="run traced fig8 cells (zab + raft) and record "
                             "the per-phase latency table into "
                             f"{PHASES_DOC}")
    parser.add_argument("--skew", default="0.6,0.9,1.2",
                        help="comma-separated Zipf exponents for the "
                             "zipf-hot skew sweep (default: 0.6,0.9,1.2)")
    args = parser.parse_args(argv)

    if args.guard:
        return run_guard(_load(args.output))

    if args.phases:
        rows = run_phase_breakdown()
        write_phase_table(rows)
        for kernel, bd in rows.items():
            recon = bd["write"]["_recon"]
            print(f"  {kernel:<5} write traces={recon['traces']:>4}  "
                  f"phase sum={recon['phase_sum_ms']:.4f} ms  "
                  f"end-to-end={recon['end_to_end_ms']:.4f} ms")
        print(f"phase table recorded -> {PHASES_DOC}")
        return 0

    if args.workload == "kernel":
        rows = run_kernel_bench(repeat=args.repeat)
        payload = _load(args.output)
        payload["kernel"] = rows
        for kernel, row in rows.items():
            print(f"  {kernel:<9} events/s={row['events_per_wall_s']:>12.1f}")
        if rows["heap"]["events_per_wall_s"]:
            ratio = (rows["calendar"]["events_per_wall_s"]
                     / rows["heap"]["events_per_wall_s"])
            print(f"  calendar/heap = {ratio:.2f}x")
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        return 0

    if args.workload == "openloop":
        rows = run_openloop_bench(repeat=args.repeat)
        payload = _load(args.output)
        payload["openloop"] = {
            "measure_ms": MEASURE_MS,
            "systems": rows,
        }
        for kind, row in rows.items():
            print(f"  {kind:<5} clients={row['modeled_clients']:,}  "
                  f"offered={row['offered_ops_per_s']:>9.1f} ops/s  "
                  f"achieved={row['achieved_ops_per_s']:>9.1f} ops/s  "
                  f"p50/p99/p999={row['p50_ms']:.3f}/{row['p99_ms']:.3f}/"
                  f"{row['p999_ms']:.3f} ms  wall={row['wall_s']:.2f}s")
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        return 0

    if args.workload == "zipf-hot":
        skews = tuple(float(s) for s in args.skew.split(",") if s)
        section = run_zipf_hot_bench(skews=skews, repeat=args.repeat)
        payload = _load(args.output)
        payload["zipf_hot"] = section
        sat = section["saturated"]
        print(f"  saturated: baseline={sat['baseline']['read_ops_per_s']:>10.1f}"
              f" reads/s  cached={sat['cached']['read_ops_per_s']:>10.1f}"
              f" reads/s  speedup={section['read_speedup_x']:.2f}x"
              f"  (hit rate {sat['cached']['cache_hit_rate']:.1%})")
        light = section["light_load"]
        print(f"  light:     p50 baseline={light['baseline']['read_p50_ms']:.4f}"
              f" ms  cached={light['cached']['read_p50_ms']:.4f} ms"
              f"  ({section['read_p50_speedup_x']:.0f}x)")
        for skew, pair in section["skew_sweep"].items():
            print(f"  skew={skew:<4} hit={pair['cached']['cache_hit_rate']:.1%}"
                  f"  p50={pair['cached']['read_p50_ms']:.4f} ms"
                  f"  (baseline {pair['baseline']['read_p50_ms']:.4f} ms)")
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        return 0

    if args.workload == "read-heavy":
        rows = run_read_bench(repeat=args.repeat, kernel=args.kernel)
        payload = _load(args.output)
        section = ("read_heavy" if args.kernel == "zab"
                   else f"read_heavy_{args.kernel}")
        payload[section] = {
            "clients": CLIENTS,
            "measure_ms": MEASURE_MS,
            "observers": READ_OBSERVERS,
            "systems": rows,
        }
        for kind, row in rows.items():
            print(f"  {kind:<5} leader-only="
                  f"{row['leader_only']['sim_ops_per_s']:>10.1f} ops/s  "
                  f"local_reads+{READ_OBSERVERS}obs="
                  f"{row['local_reads+2obs']['sim_ops_per_s']:>10.1f} ops/s  "
                  f"scaling={row['read_scaling_x']:.2f}x")
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        return 0

    rows = run_bench(repeat=args.repeat, kernel=args.kernel)
    payload = _load(args.output)
    if args.kernel != "zab":
        # Non-default kernels live in their own section: the baseline /
        # current / speedup bookkeeping below tracks the Zab default.
        payload[args.kernel] = rows
        for kind, row in rows.items():
            print(f"  {args.kernel}:{kind:<6} "
                  f"events/s={row['events_per_wall_s']:>12.1f}  "
                  f"sim tput={row['sim_ops_per_s']:>9.1f} ops/s  "
                  f"lat={row['mean_latency_ms']:.3f} ms")
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        return 0
    payload.setdefault("workload", "fig8-queue")
    payload.setdefault("clients", CLIENTS)
    payload.setdefault("measure_ms", MEASURE_MS)

    if args.baseline or "baseline" not in payload:
        payload["baseline"] = rows
        print(f"baseline recorded -> {args.output}")
    else:
        payload["current"] = rows
        speedup = {}
        for kind, row in rows.items():
            base = payload["baseline"].get(kind)
            if base:
                speedup[kind] = round(
                    row["events_per_wall_s"] / base["events_per_wall_s"], 3)
        payload["speedup_events_per_wall_s"] = speedup
        print(f"speedup vs baseline: {speedup}")

    for kind, row in rows.items():
        print(f"  {kind:<9} events/s={row['events_per_wall_s']:>12.1f}  "
              f"sim tput={row['sim_ops_per_s']:>9.1f} ops/s  "
              f"lat={row['mean_latency_ms']:.3f} ms  "
              f"KB/op={row['client_kb_per_op']:.3f}")

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
