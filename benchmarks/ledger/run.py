#!/usr/bin/env python3
"""The performance ledger: this repository's benchmark of record.

    python3 benchmarks/ledger/run.py --workload NAME [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]
    python3 benchmarks/ledger/run.py --all [--trace 0|1] [--out DIR]
    python3 benchmarks/ledger/run.py --compare A.json B.json [--same-commit]

``--trace 0`` (the default) measures the end-to-end metrics with nothing
attached: a fresh ensemble is built and run repeatedly under one seed
for ``--seconds`` of wall time and at least :data:`MIN_REPEATS` times,
the simulated metrics of all repeats must be identical, and the wall
metrics are medians over the repeats.
``--trace 1`` measures every per-layer metric in three more repeats (one
plain, one under the wall-ledger hook, one with the program's own
observability plane on) plus a few microbenchmarks, and writes the
layer spans to ``DIR/<workload>.spans.jsonl``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. A failed output check is named on standard error and the
exit code is 1. Names, units, directions and regression bounds live in
``BENCHMARK.json`` at the repository root — the single list this file
reads, so it cannot print a metric the contract does not know.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: the seed runs use unless told otherwise, and the one held back: no
#: change is tuned against it, every later claim is verified on it.
DEFAULT_SEED = 11
HELD_OUT_SEED = 1987

#: a wall median and its quartiles need this many repeats however slow
#: the host is.
MIN_REPEATS = 5

#: keys of ``Cell.sim_metrics`` the traced repeats must reproduce
#: exactly (the hook and the obs plane may not change what is simulated).
SIM_KEYS = ("n_ops", "ops_attempted", "ops_failed", "sim_ops_per_s",
            "sim_mean_ms", "sim_p50_ms", "sim_p99_ms", "client_kb_per_op",
            "max_stall_ms", "msgs_per_op", "bytes_per_op")


def _load_program() -> float:
    """Import the program and the ledger's modules; returns seconds taken.

    The checkout's ``src`` goes on the path so the command needs no
    environment. Without it there is nothing to measure: exit non-zero.
    """
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"ledger: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    import layers  # noqa: F401
    import micro  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - start


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------

class Repeat:
    """One fresh ensemble, set up, measured and checked.

    ``raw_setup_s`` and ``raw_measure_s`` are wall seconds as the clock
    gave them; ``setup_s`` and ``measure_s`` are those divided by the
    host's slowdown while they ran (see ``hostref.py``).
    """

    def __init__(self, name: str, seed: int, window_ms: Optional[float],
                 obs=None, wrap: Optional[Callable] = None):
        from hostref import HostReference
        from workloads import make_cell
        clock = time.perf_counter
        gc.collect()        # the previous ensemble is garbage, not ballast
        host = HostReference()
        host.sample()
        start = clock()
        cell = make_cell(name, seed, window_ms=window_ms, obs=obs)
        cell.setup()
        self.raw_setup_s = clock() - start
        host.sample()
        self.raw_measure_s = 0.0
        resumed = clock()

        def pause():
            nonlocal resumed
            self.raw_measure_s += clock() - resumed
            host.sample()
            resumed = clock()

        if wrap is None:
            cell.measure(pause)
        else:
            wrap(cell.measure)      # hooked: one stretch, no reference inside
        self.raw_measure_s += clock() - resumed
        host.sample()
        self.host_x = host.slowdown
        self.setup_s = self.raw_setup_s / self.host_x
        self.measure_s = self.raw_measure_s / self.host_x
        self.sim = cell.finish()
        #: only the obs repeat is looked into afterwards
        self.cell = cell if obs is not None else None

    @property
    def wall_us_per_op(self) -> float:
        return self.measure_s * 1e6 / self.sim["ops_measured"]

    @property
    def raw_wall_us_per_op(self) -> float:
        return self.raw_measure_s * 1e6 / self.sim["ops_measured"]


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _require_same(check: str, first: dict, other: dict, keys) -> None:
    from workloads import CheckFailed
    for key in keys:
        if first[key] != other[key]:
            raise CheckFailed(check, f"{key} differs between repeats of one "
                              f"seed: {first[key]!r} vs {other[key]!r}")


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def run_end_to_end(name: str, seed: int, seconds: float,
                   window_ms: Optional[float], import_s: float) -> dict:
    begun = time.perf_counter()
    runs: List[Repeat] = []
    while True:
        run = Repeat(name, seed, window_ms)
        runs.append(run)
        if len(runs) > 1:
            _require_same("repeats_identical", runs[0].sim, run.sim,
                          runs[0].sim)
        spent = time.perf_counter() - begun
        if len(runs) >= MIN_REPEATS and \
                spent + spent / len(runs) > seconds:
            break
    sim = runs[0].sim
    wall = _quartiles([run.wall_us_per_op for run in runs])
    setup = _quartiles([run.setup_s for run in runs])
    values = {
        "sim_ops_per_s": sim["sim_ops_per_s"],
        "sim_p50_ms": sim["sim_p50_ms"],
        "sim_p99_ms": sim["sim_p99_ms"],
        "client_kb_per_op": sim["client_kb_per_op"],
        "wall_us_per_op": wall["median"],
        "setup_s": import_s / runs[0].host_x + setup["median"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "workload": name, "seed": seed, "repeats": len(runs),
        "sim": sim, "values": values,
        "spread": {"wall_us_per_op": wall, "setup_s": setup},
        "host_x": statistics.median(run.host_x for run in runs),
        #: the same two medians as the clock gave them, unscaled
        "raw": {
            "wall_us_per_op": statistics.median(
                run.raw_wall_us_per_op for run in runs),
            "setup_s": import_s + statistics.median(
                run.raw_setup_s for run in runs),
        },
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

#: per-layer metric prefix -> (pipeline, phase) of ``repro.obs.breakdown``
PHASES = {
    "consensus.broadcast_ms": ("write", "broadcast"),
    "consensus.quorum_ms": ("write", "quorum"),
    "server.write.ingress_ms": ("write", "ingress"),
    "server.write.apply_ms": ("write", "apply"),
    "server.read.ingress_ms": ("read", "ingress"),
    "server.read.execute_ms": ("read", "execute"),
}


def run_traced(name: str, seed: int, window_ms: Optional[float],
               out_dir: Path) -> dict:
    from layers import LAYERS, WallLedger, write_spans
    from micro import run_micro
    from repro.obs import ObsConfig, breakdown

    base = Repeat(name, seed, window_ms)

    ledger = WallLedger()
    profiled = Repeat(name, seed, window_ms, wrap=ledger.run)
    _require_same("hook_inert", base.sim, profiled.sim, SIM_KEYS)
    spans_path = out_dir / f"{name}.spans.jsonl"
    write_spans(str(spans_path), name, ledger)

    obs_config = ObsConfig()
    traced = Repeat(name, seed, window_ms, obs=obs_config)
    _require_same("obs_inert", base.sim, traced.sim, SIM_KEYS)
    cell = traced.cell
    plane = obs_config.runtime
    traces = [trace.to_dict() for trace in plane.tracer.traces()
              if trace.done and trace.marks[-1][1] >= cell.start]
    table = breakdown(traces)
    counters = cell.obs_delta

    sim = base.sim
    ops = sim["n_ops"]
    wall_us = base.wall_us_per_op
    values: Dict[str, float] = {}

    total_ns = ledger.total_ns
    for i, layer in enumerate(LAYERS):
        share = ledger.self_ns[i] / total_ns
        values[f"{layer}.wall_share"] = share
        # Scaled to the untraced run, so the layers sum to its
        # wall_us_per_op and not to the hook-inflated one.
        values[f"{layer}.wall_us_per_op"] = share * wall_us
        values[f"{layer}.calls_per_op"] = \
            ledger.calls[i] / profiled.sim["ops_measured"]

    def total(*names: str) -> float:
        return sum(counters.get(n, 0.0) for n in names)

    absent = {"mean_ms": 0.0, "p99_ms": 0.0, "count": 0}
    for prefix, (pipeline, phase) in PHASES.items():
        row = table[pipeline].get(phase, absent)
        values[prefix + ".mean"] = row["mean_ms"]
        values[prefix + ".p99"] = row["p99_ms"]
    reply = [table[pipeline].get("reply", absent)
             for pipeline in ("write", "read")]
    replies = sum(row["count"] for row in reply) or 1

    # DepSpace counts a request at every replica; per replica it is
    # comparable with ZooKeeper's once-per-request counters.
    replicas = len(getattr(cell.ensemble, "replicas", ())) or 1
    ordered = total("ds.ordered") / replicas
    proposals = (total("zab.proposals", "raft.proposals") + ordered) / ops

    values.update({
        "sim.kernel.events_per_op": sim["events_per_op"],
        "sim.kernel.events_per_wall_s":
            sim["measured_events"] / base.measure_s,
        "sim.network.msgs_per_op": sim["msgs_per_op"],
        "sim.network.bytes_per_op": sim["bytes_per_op"],
        "sim.network.dropped": total("net.dropped"),
        "consensus.proposals_per_op": proposals,
        "consensus.ops_per_proposal": 1.0 / proposals if proposals else 0.0,
        "consensus.elections": total("zab.elections", "raft.elections"),
        "consensus.leaderships":
            total("zab.leaderships", "raft.leaderships"),
        "consensus.failover_ms": traced.sim.get("failover_ms", 0.0),
        "consensus.catchup_ms": traced.sim.get("catchup_ms", 0.0),
        "server.reads_per_op":
            (total("zk.reads") + total("ds.fast_reads") / replicas) / ops,
        "server.writes_per_op": (total("zk.writes") + ordered) / ops,
        "server.forwards_per_op": total("zk.forwards") / ops,
        "server.watch_deliveries": total("zk.watch_deliveries"),
        "server.lease_grants": total("leases.granted"),
        "server.lease_denied": total("leases.denied"),
        "ext.execs_per_op": sim["ext_execs_per_op"],
        "ext.matches_per_op": sim["ext_matches_per_op"],
        "client.reply_ms.mean":
            sum(row["mean_ms"] * row["count"] for row in reply) / replies,
        "client.reply_ms.p99": max(row["p99_ms"] for row in reply),
        "client.cache_hit_rate":
            total("client.cache_hits") / max(1, sim["reads_in_window"]),
        "client.retries_per_op": total("client.retries") / ops,
        "client.max_stall_ms": sim["max_stall_ms"],
        "client.failed_op_share": sim["failed_op_share"],
        "driver.backlog_max": sim["backlog_max"],
        "driver.host_slowdown_x": base.host_x,
        "driver.profile_overhead_x": profiled.measure_s / base.measure_s,
        "obs.trace_overhead_x": traced.measure_s / base.measure_s,
    })
    values.update(run_micro())
    return {"workload": name, "seed": seed, "sim": sim, "values": values,
            "spans": str(spans_path), "spans_kept": len(ledger.spans),
            "spans_dropped": ledger.spans_dropped}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _emit(result: dict, specs: List[dict], out_dir: Optional[Path],
          traced: bool) -> None:
    """Print every metric by name and unit, then the contract's last line."""
    sim, values = result["sim"], result["values"]
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  "
          + (f"traced  spans={result['spans']} "
             f"(kept {result['spans_kept']}, dropped {result['spans_dropped']})"
             if traced else f"repeats={result['repeats']}  "
             f"host_slowdown_x={result['host_x']:.3f}"))
    print(f"   n_ops={sim['n_ops']}  ops_attempted={sim['ops_attempted']}  "
          f"ops_failed={sim['ops_failed']}  "
          f"failed_op_share={sim['failed_op_share']:.6f}  "
          f"max_stall_ms={sim['max_stall_ms']:.4f}  "
          f"backlog_max={sim['backlog_max']}")
    metrics = {}
    for spec in specs:
        metric = spec["name"]
        if metric not in values:
            raise KeyError(f"{metric} is in BENCHMARK.json but the ledger "
                           "did not measure it")
        value = float(values[metric])
        if not math.isfinite(value):
            raise ValueError(f"{metric} is {value}")
        metrics[metric] = {"value": value, "unit": spec["unit"]}
        line = f"   {metric:<36} {value:>16.6f} {spec['unit']}"
        spread = result.get("spread", {}).get(metric)
        if spread is not None:
            line += (f"   (raw {result['raw'][metric]:.4f}; "
                     f"per repeat: q1 {spread['q1']:.4f} "
                     f"median {spread['median']:.4f} q3 {spread['q3']:.4f})")
        print(line)
    last = {"correct": True, "attempted": int(sim["ops_attempted"]),
            "failed": int(sim["ops_failed"]), "metrics": metrics}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        record = dict(last, workload=name, seed=result["seed"],
                      repeats=result.get("repeats", 1),
                      host_slowdown_x=result.get("host_x"),
                      raw=result.get("raw", {}),
                      spread=result.get("spread", {}), sim=sim)
        suffix = "layers" if traced else "run"
        with open(out_dir / f"{name}.{suffix}.json", "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(last))


def run_workload(name: str, args, contract: dict, import_s: float) -> bool:
    from workloads import CheckFailed
    out_dir = Path(args.out) if args.out else None
    try:
        if args.trace:
            result = run_traced(name, args.seed, args.window_ms,
                                out_dir or HERE / "out")
            specs = contract["per_layer"]
        else:
            result = run_end_to_end(name, args.seed, args.seconds,
                                    args.window_ms, import_s)
            specs = contract["end_to_end"]
    except CheckFailed as failure:
        print(f"ledger: {name}: CHECK FAILED: {failure}", file=sys.stderr)
        return False
    _emit(result, specs, out_dir, bool(args.trace))
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one after the other")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall budget for the repeats of one run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="directory for result and span files")
    parser.add_argument("--window-ms", type=float, default=None,
                        help="override the simulated window (smoke test)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out directories or result files")
    parser.add_argument("--same-commit", action="store_true",
                        help="with --compare: fail unless every simulated "
                             "metric is identical and every wall metric "
                             "is inside its bound")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare
        return compare(args.compare[0], args.compare[1], load_contract(),
                       same_commit=args.same_commit)

    contract = load_contract()
    if args.all:
        # One fresh process per workload, as the benchmark's driver
        # runs them: set-up time and peak memory are per process.
        forward = [arg for arg in (argv if argv is not None else sys.argv[1:])
                   if arg != "--all"]
        codes = [subprocess.run([sys.executable, __file__, "--workload",
                                 workload["name"], *forward]).returncode
                 for workload in contract["workloads"]]
        return max(codes)

    import_s = _load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} "
                     "(or use --all)")
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    return 0 if run_workload(args.workload, args, contract, import_s) else 1


if __name__ == "__main__":
    sys.exit(main())
