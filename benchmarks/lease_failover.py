"""Failover stalls in a lease ensemble, per kernel and seed.

A new leader in a lease ensemble fences its own writes for one lease
term plus grace (``recovery_until``), and it holds an inherited log
suffix from its first record proposed held (DESIGN.md §11 item 3). This
script times what clients see across a leader crash in three
scenarios on a 3-replica zk ensemble with ``LeaseConfig()``:

* ``mixed`` — six ``cached_reads`` readers (one read per ~1 ms), three
  writers (a ``set_data`` then a plain read of the same key per ~8 ms)
  and two ``sync`` clients (per ~25 ms) over eight keys, Zipf-like.
  The leader is crashed at 600 ms, at the first instant a follower
  holds a logged but uncommitted record. Reported: crash -> new
  established leader, and the slowest call of each kind that returned
  after the crash (``ryw`` is the writer's read of its own write).
* ``unheld`` — one write to a key nobody leases; the leader is crashed
  once the followers logged it, before they learn it committed.
  Reported: crash -> the write's reply.
* ``held@<ms>`` — a write to a key a reader leases; the leader is
  crashed that long after the write was issued (its revoke in flight,
  or acked). Reported: crash -> the write's reply.

Usage::

    python3 benchmarks/lease_failover.py [--seeds 1,2,3] [--kernels zab,raft]

Simulated time only, so the numbers are identical on every host.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.zk import ZkEnsemble  # noqa: E402
from repro.zk.errors import ZkError  # noqa: E402
from repro.zk.leases import LeaseConfig  # noqa: E402
from repro.zk.server import ZkConfig  # noqa: E402

KEYS = [f"/k{i}" for i in range(8)]
CRASH_AT_MS = 600.0
END_MS = 2600.0
GAPS_MS = {"read": 1.0, "write": 8.0, "sync": 25.0}


def ensemble(kernel: str, seed: int) -> ZkEnsemble:
    ens = ZkEnsemble(n_replicas=3, seed=seed, config=ZkConfig(
        kernel=kernel, leases=LeaseConfig()))
    ens.start()
    return ens


def finish(env, generator):
    return env.run(until=env.process(generator))


def crash_when_suffix_logged(ens, leader) -> float:
    """Crash ``leader`` once a follower logged a record it has not yet
    seen commit; returns the crash time."""
    followers = [server for server in ens.servers if server is not leader]
    while not any(server.broadcast.last_zxid > server.broadcast.committed_zxid
                  for server in followers):
        ens.env.run(until=ens.env.now + 0.01)
    leader.crash()
    return ens.env.now


def mixed(kernel: str, seed: int) -> dict:
    ens = ensemble(kernel, seed)
    env, ids, rng = ens.env, ens.replica_ids, random.Random(seed)
    calls = []                              # (kind, invoked, returned)

    def client(kind, replica):
        c = ens.client(replica=replica, cached_reads=kind == "read")

        def body():
            yield from c.connect()
            yield env.timeout(max(0.0, 150.0 - env.now))
            while env.now < END_MS:
                key = KEYS[min(int(rng.expovariate(1.0)), len(KEYS) - 1)]
                t0 = env.now
                try:
                    if kind == "read":
                        yield from c.get_data(key)
                    elif kind == "sync":
                        yield from c.sync()
                    else:
                        yield from c.set_data(key, b"x")
                        calls.append(("write", t0, env.now))
                        t0 = env.now
                        yield from c.get_data(key)
                except ZkError:
                    pass
                calls.append(("ryw" if kind == "write" else kind, t0,
                              env.now))
                yield env.timeout(rng.uniform(0.5, 1.5) * GAPS_MS[kind])
        env.process(body())

    setup = ens.client(replica=ids[0])

    def create_keys():
        yield from setup.connect()
        for key in KEYS:
            yield from setup.create(key, b"0")

    finish(env, create_keys())
    for i in range(6):
        client("read", ids[i % 3])
    for i in range(3):
        client("write", ids[i % 3])
    client("sync", ids[1])
    client("sync", ids[2])
    env.run(until=CRASH_AT_MS)
    victim = ens.leader
    crashed = crash_when_suffix_logged(ens, victim)
    elected = None
    while env.now < END_MS + 500.0:
        env.run(until=env.now + 1.0)
        if elected is None and ens.leader not in (None, victim):
            elected = env.now - crashed
    row = {"election": elected}
    for kind in ("read", "write", "ryw", "sync"):
        row[kind] = max((t1 - t0 for k, t0, t1 in calls
                         if k == kind and t1 >= crashed), default=None)
    return row


def unheld(kernel: str, seed: int) -> dict:
    ens = ensemble(kernel, seed)
    env = ens.env
    writer = ens.client(replica="zk2")

    def setup():
        yield from writer.connect()
        yield from writer.create("/cold", b"old")

    finish(env, setup())
    leader = ens.leader
    before = leader.broadcast.last_zxid
    update = env.process(writer.set_data("/cold", b"new"))
    while leader.broadcast.last_zxid == before:
        env.run(until=env.now + 0.01)
    crashed = crash_when_suffix_logged(ens, leader)
    env.run(until=update)
    return {"reply": env.now - crashed}


def held(kernel: str, seed: int, delay_ms: float) -> dict:
    ens = ensemble(kernel, seed)
    env = ens.env
    reader = ens.client(replica="zk1", cached_reads=True)
    writer = ens.client(replica="zk2")

    def setup():
        yield from reader.connect()
        yield from writer.connect()
        yield from reader.create("/hot", b"old")
        for _ in range(3):
            yield from reader.get_data("/hot")

    finish(env, setup())
    leader = ens.leader
    update = env.process(writer.set_data("/hot", b"new"))
    env.run(until=env.now + delay_ms)
    leader.crash()
    crashed = env.now
    env.run(until=update)
    return {"reply": env.now - crashed}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--kernels", default="zab,raft")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    scenarios = [("mixed", mixed), ("unheld", unheld)] + [
        (f"held@{d:g}", lambda k, s, d=d: held(k, s, d)) for d in (0.2, 0.5)]
    for kernel in args.kernels.split(","):
        for name, scenario in scenarios:
            for seed in seeds:
                row = scenario(kernel, seed)
                cells = "  ".join(
                    f"{key}={'-' if value is None else f'{value:.1f}'}"
                    for key, value in row.items())
                print(f"{kernel:4s}  {name:9s}  seed={seed:<4d}  {cells}  ms",
                      flush=True)


if __name__ == "__main__":
    main()
