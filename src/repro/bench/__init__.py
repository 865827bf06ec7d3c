"""Benchmark harness: workload drivers and table/figure generators.

``repro.bench.figures`` has one entry point per table and figure of the
paper's evaluation; ``repro.bench.workload`` holds the underlying
closed-loop drivers; ``repro.bench.systems`` builds the four evaluated
systems; ``repro.bench.phases`` writes the traced fig8 phase table.
"""

from .figures import (FigureResult, client_counts, figure6, figure8,
                      figure10, figure12, figure13, overhead_regular_ops,
                      print_result, print_table1, print_table2, table1,
                      table2)
from .systems import EXTENSIBLE, SYSTEMS, make_coords, make_ensemble, run_all
from .workload import (WorkloadResult, run_barrier_workload,
                       run_counter_workload, run_election_workload,
                       run_queue_with_regular_clients, run_queue_workload,
                       run_regular_op_latency)

__all__ = [
    "SYSTEMS", "EXTENSIBLE", "make_ensemble", "make_coords", "run_all",
    "WorkloadResult",
    "run_counter_workload", "run_queue_workload", "run_barrier_workload",
    "run_election_workload", "run_queue_with_regular_clients",
    "run_regular_op_latency",
    "FigureResult", "client_counts", "print_result",
    "table1", "table2", "print_table1", "print_table2",
    "figure6", "figure8", "figure10", "figure12", "figure13",
    "overhead_regular_ops",
]
