"""Replay one chaos run from the command line.

The repro line printed by a failing test lands here::

    PYTHONPATH=src python -m repro.chaos --system ezk --recipe queue --seed 17

Exit status 0 when the checker passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from ..bench.systems import SYSTEMS
from ..obs import ObsConfig
from .explorer import RECIPES, run_chaos
from .failover import FAILOVER_SCENARIO, run_failover_chaos
from .storms import SESSION_SCENARIOS, run_session_chaos


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.chaos", description="replay one seeded chaos run")
    parser.add_argument("--system", required=True, choices=SYSTEMS)
    parser.add_argument("--recipe", required=True,
                        choices=RECIPES + SESSION_SCENARIOS
                        + (FAILOVER_SCENARIO,))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--kernel", choices=("zab", "pbft", "raft"),
                        default=None,
                        help="consensus kernel (default: family default — "
                             "zab for zk/ezk, pbft for ds/eds)")
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--ops", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--history", action="store_true",
                        help="dump the full canonical history")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a causal trace of the replay as JSONL "
                             "(render with: python -m repro.obs PATH)")
    args = parser.parse_args(argv)

    obs_cfg = ObsConfig() if args.trace else None
    if args.recipe == FAILOVER_SCENARIO:
        run = run_failover_chaos(args.system, args.seed,
                                 kernel=args.kernel, obs=obs_cfg)
    elif args.recipe in SESSION_SCENARIOS:
        run = run_session_chaos(args.system, args.recipe, args.seed,
                                kernel=args.kernel, obs=obs_cfg)
    else:
        run = run_chaos(args.system, args.recipe, args.seed,
                        n_clients=args.clients, ops_per_client=args.ops,
                        rounds=args.rounds, kernel=args.kernel, obs=obs_cfg)
    if obs_cfg is not None and obs_cfg.runtime is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(obs_cfg.runtime.tracer.dump_jsonl())
        print(f"# trace written to {args.trace}")
    print(f"# {run.repro}")
    print("-- schedule --")
    print(run.schedule.describe())
    print("-- nemesis --")
    for line in run.nemesis_log:
        print(line)
    if args.history:
        print("-- history --")
        print(run.history.canonical())
    print("-- verdict --")
    print("PASS" if run.ok else f"FAIL: {run.result.reason}")
    return 0 if run.ok else 1


if __name__ == "__main__":
    sys.exit(main())
