"""``run.py --compare A B``: two sets of end-to-end results, side by side.

``A`` is the base and ``B`` the candidate; each is a directory written
by ``--out`` (its ``<workload>.run.json`` files) or one such file. One
row per workload and end-to-end metric — those of ``BENCHMARK.json``,
then ``max_stall_ms`` and ``failed_op_share`` (see :data:`MAX_STALL`):

* ``worse`` is how much ``B`` is worse than ``A`` as a share of ``A``
  (negative: better), by the metric's own direction;
* ``spread`` is the inter-quartile range of a side's repeats as a share
  of the value it reported, the wider of the two sides — simulated
  metrics repeat exactly, so theirs is 0;
* the verdict is ``unresolved`` when the spread exceeds the bound (the
  run cannot tell), ``regressed`` when ``worse`` exceeds the bound,
  ``improved`` when ``B`` is better by more than twice the spread (and
  a tenth of the bound), and ``unchanged`` otherwise. One comparison is
  a screen, not a claim: a claim needs the paired protocol;
* ``failed_op_share`` has an absolute bound of 0: ``B`` regressed if it
  fails a larger share of the ops it attempted than ``A``.

Every ratio is printed with its base (the ``A`` column).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

__all__ = ["compare", "load_results", "verdict"]

#: metrics in the simulated currency: same commit + same seed => same bits.
SIM_METRICS = ("sim_ops_per_s", "sim_p50_ms", "sim_p99_ms",
               "client_kb_per_op", "max_stall_ms")

#: End-to-end for a user, but not in ``BENCHMARK.json``'s end-to-end
#: list, which is also compared *across* seeds and can hold neither a
#: metric that is 0 (``failed_op_share``) nor one that is Poisson
#: extreme-gap noise from seed to seed (``max_stall_ms`` on the
#: fault-free open loop). Between two runs of one seed both are exact,
#: so they are compared here, from each record's simulated numbers.
MAX_STALL = {"name": "max_stall_ms", "better": "lower", "bound": 0.02}


def load_results(path: str) -> Dict[str, dict]:
    """``{workload: record}`` from an ``--out`` directory or one file."""
    target = Path(path)
    files = sorted(target.glob("*.run.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"ledger: no *.run.json under {path}")
    results = {}
    for file in files:
        with open(file) as handle:
            record = json.load(handle)
        results[record["workload"]] = record
    return results


def _value(record: dict, metric: str) -> float:
    if metric in record["metrics"]:
        return record["metrics"][metric]["value"]
    return record["sim"][metric]


def _spread(record: dict, metric: str) -> float:
    quartiles = record.get("spread", {}).get(metric)
    if not quartiles:
        return 0.0
    return (quartiles["q3"] - quartiles["q1"]) / _value(record, metric)


def verdict(worse: float, spread: float, bound: float) -> str:
    if spread > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    # bound / 10 is the noise floor of metrics taken once per run
    # (peak_rss_mb has no repeats, so its spread reads 0).
    if -worse > max(2 * spread, bound / 10):
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str, contract: dict,
            same_commit: bool = False) -> int:
    """Print the table; returns the process exit code.

    Non-zero when any row regressed. With ``same_commit`` (the A/A
    criterion) also non-zero when a simulated metric is not identical
    between equal seeds or any row is not ``unchanged``/``improved``.
    """
    a, b = load_results(path_a), load_results(path_b)
    bad = []
    print(f"{'workload':<24}{'metric':<18}{'A (base)':>16}{'B':>16}"
          f"{'worse':>9}{'spread':>9}{'bound':>7}  verdict")
    for workload in sorted(set(a) & set(b)):
        same_seed = a[workload]["seed"] == b[workload]["seed"]
        for spec in contract["end_to_end"] + [MAX_STALL]:
            metric, bound = spec["name"], spec["bound"]
            base = _value(a[workload], metric)
            new = _value(b[workload], metric)
            change = (new - base) / base
            worse = change if spec["better"] == "lower" else -change
            spread = max(_spread(a[workload], metric),
                         _spread(b[workload], metric))
            word = verdict(worse, spread, bound)
            note = ""
            if metric in SIM_METRICS and same_seed:
                note = " identical" if new == base else " DIFFERENT"
            print(f"{workload:<24}{metric:<18}{base:>16.6f}{new:>16.6f}"
                  f"{worse:>+9.2%}{spread:>9.2%}{bound:>7.0%}  {word}{note}")
            if word == "regressed" or (same_commit and (
                    word == "unresolved" or note == " DIFFERENT")):
                bad.append(f"{workload}/{metric}: {word}{note}")
        sim_a, sim_b = a[workload]["sim"], b[workload]["sim"]
        base, new = sim_a["failed_op_share"], sim_b["failed_op_share"]
        word = ("regressed" if new > base else
                "improved" if new < base else "unchanged")
        print(f"{workload:<24}{'failed_op_share':<18}{base:>16.6f}{new:>16.6f}"
              f"{new - base:>+9.4f}{0:>9.2%}{'0 abs':>7}  {word}"
              f"  ({sim_a['ops_failed']}/{sim_a['ops_attempted']} vs "
              f"{sim_b['ops_failed']}/{sim_b['ops_attempted']} ops)")
        if word == "regressed":
            bad.append(f"{workload}/failed_op_share: regressed")
    for workload in sorted(set(a) ^ set(b)):
        print(f"{workload:<24}only in {'A' if workload in a else 'B'}")
    if bad:
        print("ledger: compare FAILED: " + "; ".join(bad))
        return 1
    return 0
