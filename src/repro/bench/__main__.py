"""Command-line entry point: regenerate any table/figure from the shell.

Usage::

    python -m repro.bench table1
    python -m repro.bench fig6 --clients 1 10 50 --measure-ms 400
    python -m repro.bench all
    python -m repro.bench phases    # rewrites EXPERIMENTS.md's phase table
"""

from __future__ import annotations

import argparse
import sys

from . import figures


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures, or the "
                    "traced fig8 phase table in EXPERIMENTS.md.")
    parser.add_argument(
        "target",
        choices=["table1", "table2", "fig6", "fig8", "fig10", "fig12",
                 "fig13", "overhead", "all", "phases"],
        help="which table/figure to regenerate ('all' excludes phases)")
    parser.add_argument(
        "--clients", type=int, nargs="+", default=None,
        help="client counts to sweep (default: 1 10 30 50)")
    parser.add_argument(
        "--measure-ms", type=float, default=400.0,
        help="simulated measurement window per cell (default 400)")
    args = parser.parse_args()

    if args.target == "phases":
        from .phases import PHASES_DOC, run_phase_breakdown, write_phase_table
        rows = run_phase_breakdown()
        write_phase_table(rows)
        for kernel, bd in rows.items():
            recon = bd["write"]["_recon"]
            print(f"  {kernel:<5} write traces={recon['traces']:>4}  "
                  f"phase sum={recon['phase_sum_ms']:.4f} ms  "
                  f"end-to-end={recon['end_to_end_ms']:.4f} ms")
        print(f"phase table recorded -> {PHASES_DOC}")
        return 0

    def run_figure(builder, **kwargs):
        figure = builder(**kwargs)
        figures.print_result(figure)

    sweeps = {
        "fig6": lambda: run_figure(figures.figure6, counts=args.clients,
                                   measure_ms=args.measure_ms),
        "fig8": lambda: run_figure(figures.figure8, counts=args.clients,
                                   measure_ms=args.measure_ms),
        "fig10": lambda: run_figure(figures.figure10, counts=args.clients,
                                    measure_ms=args.measure_ms),
        "fig12": lambda: run_figure(figures.figure12, counts=args.clients,
                                    measure_ms=args.measure_ms),
        "fig13": lambda: run_figure(figures.figure13,
                                    queue_counts=args.clients,
                                    measure_ms=args.measure_ms),
        "overhead": lambda: run_figure(figures.overhead_regular_ops,
                                       measure_ms=args.measure_ms),
        "table1": figures.print_table1,
        "table2": figures.print_table2,
    }
    targets = list(sweeps) if args.target == "all" else [args.target]
    for target in targets:
        sweeps[target]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
