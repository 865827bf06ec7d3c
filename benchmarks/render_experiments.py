#!/usr/bin/env python3
"""Render EXPERIMENTS.md from the JSON results the benchmarks saved.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/render_experiments.py
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS = Path(__file__).parent / "results"
TARGET = Path(__file__).parent.parent / "EXPERIMENTS.md"
#: everything from this heading on is maintained outside this script.
FIRST_FOREIGN_HEADING = "## Open-loop tail latency & kernel wall-clock"

#: Paper-side facts per experiment, quoted from §6 (and §7 for context).
PAPER = {
    "Figure 6": (
        "Shared counter, 1–50 clients. ZooKeeper/DepSpace reach only "
        "modest throughput that *drops* as clients grow (each increment "
        "is a read + conditional write that must be retried under "
        "contention); EZK/EDS scale to ~25k ops/s with ~2 ms (EZK) and "
        "~3 ms (EDS) latency at 50 clients. EZK beats ZooKeeper by ~20x."
    ),
    "Figure 8": (
        "Distributed queue, each client adds then removes one (empty) "
        "element. Only one concurrent remover succeeds per round in the "
        "traditional recipe, so cost per successful op grows with "
        "clients; extension costs are contention-independent. EZK beats "
        "ZooKeeper 17x; EDS beats DepSpace 24x. DepSpace clients send "
        "far more data (requests go to all 3f+1 replicas)."
    ),
    "Figure 10": (
        "Distributed barrier, 2–50 clients. Extension entry needs one "
        "blocking call; traditional entry needs the register/count/block "
        "sequence plus two extra remote calls after the last arrival. "
        "EZK/EDS win on both latency and data sent at every size."
    ),
    "Figure 12": (
        "Leader election stress (a new leader immediately abdicates). "
        "EZK/EDS achieve more leader changes per second; signaling "
        "latency is ~25% (EZK) and ~45% (EDS) lower because the "
        "traditional client needs an extra remote call (T15) to confirm "
        "its election after being notified."
    ),
    "Figure 13": (
        "Queue experiment plus 30 regular clients (15 readers/15 "
        "writers, 256-byte objects). Regular *write* latency rises with "
        "queue throughput (shared ordered path, bigger extension scans); "
        "regular *read* latency is mostly unaffected (read fast path)."
    ),
    "§6.2 overhead": (
        "With no extensions triggered, regular operations pay < 0.4% "
        "latency overhead for the extensibility machinery."
    ),
}

DIVERGENCES = {
    "Figure 6": (
        "Our EZK/ZK factor exceeds the paper's, and our DepSpace "
        "baseline degrades harder. The cause is unexplained until a "
        "sensitivity sweep over the calibrated cost constants is run: "
        "request batching, once the suspect, was measured to help in "
        "none of 21 cells and was removed. Winners, monotonic shapes, "
        "and the EZK>EDS ordering all match."
    ),
    "Figure 12": (
        "Our DepSpace baseline polls for deletions (DepSpace exposes no "
        "deletion notification to clients), so the EDS advantage is "
        "larger than the paper's 45%. The EZK-vs-ZooKeeper signaling "
        "gap reproduces the paper's mechanism exactly: the one extra "
        "confirmation RPC (T15)."
    ),
    "Figure 10": (
        "Traditional-barrier latency shapes match; our absolute "
        "latencies are lower than the paper's because simulated CPUs "
        "never contend with JVM overheads."
    ),
}


#: Hand-recorded follow-ups printed after a figure's own comparisons.
FOLLOW_UPS = {
    "Figure 8": """\
**Zab vs. Raft (consensus-kernel axis).** The tables above run the
default kernels (Zab for zk/ezk, PBFT for ds/eds). With the kernel
swapped via `ZkConfig(kernel="raft")` — reproduced by
`PYTHONPATH=src python -m repro.bench.wallclock --workload fig8-queue
--kernel raft`, which records its rows under the `raft` section of
`BENCH_core.json` so the default rows stay byte-identical — the fig8
queue cell (32 clients) is within ~1.5% of Zab:

| system | kernel | throughput (ops/s) | mean latency (ms) | client KB/op |
|---|---|---|---|---|
| zk  | zab  | 904.0   | 36.94 | 7.850 |
| zk  | raft | 890.0   | 37.44 | 7.929 |
| ezk | zab  | 11118.0 | 2.879 | 0.219 |
| ezk | raft | 11108.0 | 2.896 | 0.220 |

The read-heavy local-reads cell (`--workload read-heavy --kernel
raft`) shows the one shape difference the kernels have: Raft followers
learn the commit index from the *next* AppendEntries rather than
Zab's immediate Commit fan-out, so follower reads trail the leader by
up to one heartbeat and read scaling lands slightly lower —
zk 57,076 → 156,828 ops/s (2.75x) and ezk 57,070 → 156,786 ops/s
(2.75x) over Raft, vs. 2.85x for both over Zab. Same ordering
guarantees, one heartbeat more staleness on the read path.
""",
}


def _foreign_tail() -> str:
    """Sections of the current EXPERIMENTS.md this script does not own.

    Later PRs record their tables below the fault phase (some through
    their own tools, e.g. ``wallclock --phases``); re-rendering keeps
    them verbatim instead of truncating the document.
    """
    if not TARGET.exists():
        return ""
    text = TARGET.read_text()
    start = text.find(FIRST_FOREIGN_HEADING)
    return text[start:] if start >= 0 else ""


def load() -> dict:
    figures = {}
    for path in sorted(RESULTS.glob("*.json")):
        data = json.loads(path.read_text())
        figures[data["name"]] = data
    return figures


def row_table(figure: dict) -> list[str]:
    lines = [
        "| system | clients | throughput (ops/s) | mean latency (ms) "
        "| client KB/op | extra |",
        "|---|---|---|---|---|---|",
    ]
    for system, results in figure["series"].items():
        for r in results:
            extra = ", ".join(
                f"{k}={v:.3f}" for k, v in r.get("extra", {}).items())
            lines.append(
                f"| {system} | {r['clients']} | {r['throughput_ops']:.0f} "
                f"| {r['mean_latency_ms']:.3f} | {r['client_kb_per_op']:.3f} "
                f"| {extra} |")
    return lines


def main() -> None:
    figures = load()
    out = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Every table and figure of the paper's evaluation (§6), "
        "regenerated by `pytest benchmarks/ --benchmark-only` on the "
        "simulated substrate and rendered by "
        "`benchmarks/render_experiments.py`. Absolute values are not "
        "comparable to the authors' Gigabit-Ethernet cluster; the "
        "compared quantity is the *shape*: who wins, by roughly what "
        "factor, and how each curve moves with the number of clients.",
        "",
        "Tables 1 and 2 are regenerated by `benchmarks/test_tables.py` "
        "(`print_table1` / `print_table2`); Table 1 additionally marks "
        "which rows this repository implements, and Table 2's mappings "
        "are asserted against the live adapters.",
        "",
    ]
    order = ["Figure 6", "Figure 8", "Figure 10", "Figure 12",
             "Figure 13", "§6.2 overhead"]
    for name in order:
        figure = figures.get(name)
        out.append(f"## {name}")
        out.append("")
        out.append(f"**Paper.** {PAPER[name]}")
        out.append("")
        if figure is None:
            out.append("*(no saved results — run the benchmarks first)*")
            out.append("")
            continue
        out.append(f"**Measured** ({figure['description']}):")
        out.append("")
        out.extend(row_table(figure))
        out.append("")
        if figure["notes"]:
            out.append("**Headline comparisons:**")
            out.append("")
            for note in figure["notes"]:
                out.append(f"* {note}")
            out.append("")
        if name in DIVERGENCES:
            out.append(f"**Divergences.** {DIVERGENCES[name]}")
            out.append("")
        if name in FOLLOW_UPS:
            out.append(FOLLOW_UPS[name])
    out.append("## Ablations")
    out.append("")
    out.append(
        "`benchmarks/test_ablations.py` (real-time micro-benchmarks) "
        "checks the §4 design choices: verifying at registration instead "
        "of per invocation (~90x cheaper per call in our runs), the "
        "budget proxy's modest cost vs. the optional settrace step "
        "limiter (~10x, which is why it is off by default), cheap "
        "filtering of unacknowledged clients, and §6.3's replication "
        "payload asymmetry (EZK's multi-transaction tracks the state "
        "delta and is independent of how much state the extension "
        "*read*; EDS replicates only the fixed-size request).")
    out.append("")
    out.extend([
        "## Fault phase (chaos harness)",
        "",
        "**Paper.** §5–§6 assume the coordination kernels keep their "
        "recipe guarantees across the failures the protocols are built "
        "for; the paper evaluates performance, not fault-handling, so "
        "this phase is our own validation gate rather than a figure "
        "reproduction.",
        "",
        "**Measured** (`PYTHONPATH=src python -m repro.chaos --system X "
        "--recipe Y --seed N`; full matrix: `CHAOS_FULL=1 PYTHONPATH=src "
        "python -m pytest tests/test_chaos_explorer.py -m slow`):",
        "",
        "| matrix | cells | seeds/cell | result |",
        "|---|---|---|---|",
        "| {zk, ezk, ds, eds} × {counter, queue, barrier, election} "
        "| 16 | 25 | all pass (0 invariant violations, 0 divergent "
        "replicas) |",
        "",
        "Each seeded schedule injects 1–3 fault windows (leader/follower "
        "crashes with restart, symmetric and one-way partitions, "
        "drop/delay bursts) before a heal-and-drain phase; histories are "
        "checked with the recipe invariants of DESIGN.md §8.4 and "
        "replica state is compared after quiescence. Failing seeds print "
        "a verbatim replay line; the same seed reproduces a "
        "byte-identical history (`tests/test_chaos_replay.py`).",
        "",
        "**Client-visible outage vs election time** (leader crash; "
        "`python3 benchmarks/ledger/run.py --workload "
        "zk_raft_failover_open --seed N --trace 1` for the ledger rows, "
        "`python -m repro.chaos --system zk --recipe failover --seed 3` "
        "for the chaos rows). Before PR 12 a write a follower had "
        "forwarded to the dead leader waited out the client's 3 s RPC "
        "deadline; now the follower re-routes it when the new leader "
        "appears (DESIGN.md §10.8), so the outage tracks the election:",
        "",
        "| cell | election (crash → established) | outage before "
        "| outage after | p99 before | p99 after |",
        "|---|---:|---:|---:|---:|---:|",
        "| ledger `zk_raft_failover_open`, seed 11 (2k ops/s open loop, "
        "max stall) | 301 ms | 2915 ms | 217 ms | 2883 ms | 184 ms |",
        "| ledger `zk_raft_failover_open`, held-out seed 1987 | 451 ms "
        "| 2907 ms | 360 ms | 2875 ms | 327 ms |",
        "| chaos `failover`, zk over Zab, seed 3 (slowest client call) "
        "| 261 ms | 3000 ms | 251 ms | — | — |",
        "| chaos `failover`, zk over Raft, seed 3 (slowest client call) "
        "| 251 ms | 3027 ms | 306 ms | — | — |",
        "",
        "The ledger's stall is shorter than the election because its 128 "
        "request slots take ~90 ms to fill with stranded writes while "
        "local reads keep completing; `client.retries_per_op` falls "
        "from 0.0064 to 0 (no session times out and hops replicas) and "
        "p50 drops 0.84 → 0.32 ms because the sessions stay on their "
        "replica and it is the new leader — on every seed, not by luck "
        "of the timeouts: Raft's ranked pre-vote (DESIGN.md §12) elects "
        "the `(log, id)`-highest survivor, as Zab does, whichever "
        "follower timed out first (46 seeds tried, 46 times `zk2`; with "
        "timeouts alone picking the winner p50 flipped 0.32/0.83 ms "
        "from seed to seed). In the "
        "Raft chaos cell a re-routed forward reaches the leader-elect "
        "before it is established and is bounced once, so the outage "
        "is the election plus one 50 ms client backoff step. The chaos "
        "\"before\" column is the same cell with "
        "`ZkServer._reroute_stranded` disabled — the mutant the "
        "failover-budget check must catch "
        "(`tests/test_chaos_smoke.py`).",
        "",
    ])
    tail = _foreign_tail()
    TARGET.write_text("\n".join(out) + ("\n" + tail if tail else ""))
    print(f"wrote {TARGET} ({len(out)} lines)")


if __name__ == "__main__":
    main()
