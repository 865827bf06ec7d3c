"""Smoke test of the ledger: ``python3 -m pytest benchmarks/ledger -q``.

Not in tier-1 ``testpaths``. Every workload runs through the real
command line with a 50 ms simulated window (the measured numbers mean
nothing at that size; their presence, names, units and determinism do).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SIM = ("sim_ops_per_s", "sim_p50_ms", "sim_p99_ms", "client_kb_per_op")


def ledger(*args: str) -> dict:
    """Run the contract's command; returns the JSON of its last line."""
    done = subprocess.run(
        CONTRACT["command"] + ["--window-ms", "50", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_names_what_the_ledger_runs():
    import workloads
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in CONTRACT["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_determinism(workload):
    first = ledger("--workload", workload, "--seed", "5", "--trace", "0")
    assert first["correct"] is True
    assert first["attempted"] >= 1 and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for spec in CONTRACT["end_to_end"]:
        got = first["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert got["value"] > 0
    again = ledger("--workload", workload, "--seed", "5")
    other = ledger("--workload", workload, "--seed", "6")
    same = [first["metrics"][m]["value"] == again["metrics"][m]["value"]
            for m in SIM]
    differs = [first["metrics"][m]["value"] != other["metrics"][m]["value"]
               for m in SIM]
    assert all(same), "same seed, same commit: simulated metrics must match"
    assert any(differs), "another seed must give other simulated metrics"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload, tmp_path):
    out = ledger("--workload", workload, "--seed", "5", "--trace", "1",
                 "--out", str(tmp_path))
    assert set(out["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    for spec in CONTRACT["per_layer"]:
        assert out["metrics"][spec["name"]]["unit"] == spec["unit"]
    shares = [v["value"] for k, v in out["metrics"].items()
              if k.endswith(".wall_share")]
    assert len(shares) == 8
    assert abs(sum(shares) - 1.0) <= 0.01
    assert out["metrics"]["driver.profile_overhead_x"]["value"] > 0
    assert out["metrics"]["obs.trace_overhead_x"]["value"] > 0
    if workload == "zk_raft_failover_open":
        assert out["metrics"]["ext.wall_share"]["value"] == 0
    spans = (tmp_path / f"{workload}.spans.jsonl").read_text().splitlines()
    header, body = json.loads(spans[0]), [json.loads(s) for s in spans[1:]]
    assert header["spans"] == len(body) > 0
    for span in body[:1000]:
        assert span["end_ns"] >= span["start_ns"]
        assert span["parent"] is None or span["parent"] < span["id"]


def test_continuity_with_bench_core():
    """The ledger's queue driver reproduces the recorded BENCH_core row."""
    from workloads import QueueClosed
    recorded = json.loads((ROOT / "BENCH_core.json").read_text())
    row = recorded["current"]["ezk"]
    cell = QueueClosed(32, "ezk", "continuity", clients=32, tagged=False,
                       window_ms=500.0)
    cell.setup()
    cell.measure()
    sim = cell.finish()
    assert round(sim["sim_ops_per_s"], 2) == row["sim_ops_per_s"] == 11118.0
    assert round(sim["sim_mean_ms"], 4) == row["mean_latency_ms"] == 2.8794


def test_failed_check_is_loud():
    """A violated output check raises by name; nothing is skipped."""
    from workloads import CheckFailed, QueueClosed
    cell = QueueClosed(5, "ezk", "broken", clients=4, window_ms=20.0)
    cell.setup()
    cell.measure()
    cell.issued += 1                           # one op never completed
    with pytest.raises(CheckFailed, match="ops_failed"):
        cell.finish()
    cell.removed[0] = cell.removed[1]          # one element delivered twice
    with pytest.raises(CheckFailed, match="queue_exactly_once"):
        cell.finish()


def test_compare_verdicts():
    from compare import verdict
    assert verdict(worse=0.20, spread=0.01, bound=0.10) == "regressed"
    assert verdict(worse=-0.20, spread=0.01, bound=0.10) == "improved"
    assert verdict(worse=0.05, spread=0.01, bound=0.10) == "unchanged"
    assert verdict(worse=-0.005, spread=0.01, bound=0.10) == "unchanged"
    assert verdict(worse=0.20, spread=0.15, bound=0.10) == "unresolved"
