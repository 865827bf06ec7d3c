"""Render a trace dump: waterfalls + per-phase latency breakdown.

Usage::

    PYTHONPATH=src python -m repro.obs trace.jsonl
    PYTHONPATH=src python -m repro.obs trace.jsonl --waterfall 5
    PYTHONPATH=src python -m repro.obs trace.jsonl --check

``--check`` validates every trace (monotone marks, canonical milestone
order, aux spans inside the envelope) and exits 1 on the first defect —
the CI ``obs-smoke`` job leans on it.
"""

from __future__ import annotations

import argparse
import sys

from .report import (breakdown, check_trace, format_breakdown,
                     format_waterfall, load_traces)


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs", description="render a JSONL trace dump")
    parser.add_argument("path", help="trace file (one JSON trace per line)")
    parser.add_argument("--waterfall", type=int, default=0, metavar="N",
                        help="print per-request waterfalls for the first "
                             "N finished traces")
    parser.add_argument("--check", action="store_true",
                        help="validate well-formedness; exit 1 on defects")
    args = parser.parse_args()

    traces = load_traces(args.path)
    print(f"{len(traces)} traces "
          f"({sum(1 for t in traces if t['done'])} finished, "
          f"{sum(1 for t in traces if t['retried'])} retried)")

    if args.check:
        defects = 0
        for trace in traces:
            reason = check_trace(trace)
            if reason is not None:
                defects += 1
                print(f"MALFORMED trace {trace['trace_id']}: {reason}")
        if defects:
            print(f"{defects} malformed traces")
            return 1
        print("all traces well-formed")

    shown = 0
    for trace in traces:
        if shown >= args.waterfall:
            break
        if trace["done"]:
            print(format_waterfall(trace))
            shown += 1

    print(format_breakdown(breakdown(traces)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
