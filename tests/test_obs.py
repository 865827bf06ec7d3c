"""Observability plane: determinism, trace well-formedness, phase
reconciliation, metrics, and the four-letter introspection endpoint.

The load-bearing guarantees:

* **off path is inert** — a run without ``ObsConfig`` must produce
  byte-identical simulated metrics and event counts to the pre-obs
  code (the figure JSONs and BENCH_core.json depend on it);
* **on path is transparent** — tracing and metrics are dict writes
  only, so an instrumented run's *simulated* behaviour is identical
  to an uninstrumented one;
* **traces are deterministic** — two same-seed runs dump
  byte-identical JSONL;
* **phases telescope** — per-trace phase sums equal end-to-end
  latency exactly (the ISSUE tolerance is 1%; construction gives 0).
"""

from __future__ import annotations

import json

import pytest

from repro.bench.workload import run_queue_workload
from repro.obs import (FOUR_LETTER_COMMANDS, ObsConfig, breakdown,
                       check_trace, format_breakdown, format_waterfall,
                       phases_of, probe)
from repro.zk import ZkEnsemble
from repro.zk.server import ZkConfig

CLIENTS = 8
MEASURE_MS = 200.0


def _traced_fig8(kernel: str = "zab", seed: int = 32):
    """One traced fig8 queue cell; returns (workload result, obs plane)."""
    obs_cfg = ObsConfig()
    config = (ZkConfig(obs=obs_cfg) if kernel == "zab"
              else ZkConfig(kernel=kernel, obs=obs_cfg))
    result = run_queue_workload("zk", CLIENTS, measure_ms=MEASURE_MS,
                                seed=seed, config=config)
    assert obs_cfg.runtime is not None, "servers never installed the plane"
    return result, obs_cfg.runtime


@pytest.fixture(scope="module")
def traced_cell():
    return _traced_fig8()


@pytest.fixture(scope="module")
def traced_dicts(traced_cell):
    _, obs = traced_cell
    return [t.to_dict() for t in obs.tracer.traces()]


class TestOffPathInert:
    def test_obs_on_matches_obs_off_exactly(self):
        """Tracing must not perturb the simulation by one event."""
        off = run_queue_workload("zk", CLIENTS, measure_ms=MEASURE_MS)
        on, _ = _traced_fig8()
        assert on.completed_ops == off.completed_ops
        assert on.throughput_ops == off.throughput_ops
        assert on.mean_latency_ms == off.mean_latency_ms
        assert on.client_kb_per_op == off.client_kb_per_op
        assert on.extra["sim_events"] == off.extra["sim_events"]

    def test_default_config_leaves_env_unobserved(self):
        ensemble = ZkEnsemble(n_replicas=3, seed=7)
        ensemble.start()
        assert ensemble.env.obs is None


class TestTraceWellFormedness:
    def test_traces_exist_and_parse(self, traced_cell, traced_dicts):
        _, obs = traced_cell
        assert len(traced_dicts) > 100
        for line in obs.tracer.dump_jsonl().splitlines():
            json.loads(line)

    def test_every_trace_well_formed(self, traced_dicts):
        defects = [d for d in map(check_trace, traced_dicts) if d]
        assert defects == [], defects[:5]

    def test_write_and_read_pipelines_present(self, traced_dicts):
        shapes = {("quorum" in (phases_of(t) or {}))
                  for t in traced_dicts if phases_of(t)}
        assert shapes == {True, False}, "expected both write and read traces"

    def test_phase_sums_reconcile(self, traced_dicts):
        bd = breakdown(traced_dicts)
        for pipeline in ("write", "read"):
            recon = bd[pipeline]["_recon"]
            assert recon["traces"] > 0
            assert recon["phase_sum_ms"] == pytest.approx(
                recon["end_to_end_ms"], rel=0.01)

    def test_renderers_produce_text(self, traced_dicts):
        text = format_breakdown(breakdown(traced_dicts))
        assert "write pipeline" in text and "drift" in text
        waterfall = format_waterfall(traced_dicts[0])
        assert "send" in waterfall and "recv" in waterfall


class TestDeterminism:
    def test_same_seed_runs_dump_identical_jsonl(self):
        _, obs_a = _traced_fig8(seed=32)
        _, obs_b = _traced_fig8(seed=32)
        assert obs_a.tracer.dump_jsonl() == obs_b.tracer.dump_jsonl()

    def test_metrics_snapshots_identical(self):
        _, obs_a = _traced_fig8(seed=32)
        _, obs_b = _traced_fig8(seed=32)
        assert obs_a.metrics.snapshot() == obs_b.metrics.snapshot()


class TestRaftCell:
    def test_raft_traces_reconcile_too(self):
        _, obs = _traced_fig8(kernel="raft")
        traces = [t.to_dict() for t in obs.tracer.traces()]
        defects = [d for d in map(check_trace, traces) if d]
        assert defects == [], defects[:5]
        recon = breakdown(traces)["write"]["_recon"]
        assert recon["traces"] > 0
        assert recon["phase_sum_ms"] == pytest.approx(
            recon["end_to_end_ms"], rel=0.01)


class TestMetrics:
    def test_protocol_counters_flow(self, traced_cell):
        _, obs = traced_cell
        for name in ("zab.proposals", "zab.commits", "zab.deliveries",
                     "zk.reads", "zk.writes", "sessions.created",
                     "net.msgs_sent", "net.bytes_sent"):
            assert obs.metrics.total(name) > 0, name

    def test_latency_histogram_populated(self, traced_cell):
        _, obs = traced_cell
        buckets = obs.metrics.histograms[("client.latency_ms", "")]
        assert sum(buckets) > 0


class TestIntrospection:
    @pytest.fixture(scope="class")
    def live_zk(self):
        obs_cfg = ObsConfig()
        ensemble = ZkEnsemble(n_replicas=3, seed=11,
                              config=ZkConfig(obs=obs_cfg))
        ensemble.start()
        client = ensemble.client()

        def work():
            yield from client.connect()
            yield from client.create("/probe", b"x")
            yield from client.get_data("/probe", watch=True)

        proc = ensemble.env.process(work())
        ensemble.env.run(until=proc)
        return ensemble

    def test_all_four_letter_words_answer(self, live_zk):
        for target in live_zk.replica_ids:
            for command in FOUR_LETTER_COMMANDS:
                payload = probe(live_zk.env, live_zk.net, target, command)
                assert payload

    def test_ruok(self, live_zk):
        assert probe(live_zk.env, live_zk.net,
                     live_zk.replica_ids[0], "ruok") == "imok"

    def test_stat_reports_role_and_zxid(self, live_zk):
        payload = probe(live_zk.env, live_zk.net,
                        live_zk.replica_ids[0], "stat")
        assert "mode:" in payload and "zxid:" in payload

    def test_mntr_carries_registry_counters(self, live_zk):
        payload = probe(live_zk.env, live_zk.net,
                        live_zk.replica_ids[0], "mntr")
        assert "zk_server_state\t" in payload
        assert "zab.proposals\t" in payload

    def test_wchs_counts_watches(self, live_zk):
        payload = probe(live_zk.env, live_zk.net,
                        live_zk.replica_ids[0], "wchs")
        assert "Total watches: 1" in payload

    def test_unknown_command_is_answered_not_dropped(self, live_zk):
        payload = probe(live_zk.env, live_zk.net,
                        live_zk.replica_ids[0], "xxxx")
        assert "unknown command" in payload

    def test_crashed_server_times_out(self, live_zk):
        victim = live_zk.replica_ids[-1]
        server = next(s for s in live_zk.servers
                      if s.node_id == victim)
        server.crash()
        with pytest.raises(TimeoutError):
            probe(live_zk.env, live_zk.net, victim, "ruok",
                  timeout_ms=200.0)
        server.recover()


class TestFailoverReroute:
    """The obs plane shows where a failover write waited."""

    @pytest.fixture(params=("zab", "raft"))
    def stranded(self, request):
        """A write relayed to a leader that just died, not yet rescued."""
        from repro.raft import RaftConfig

        obs_cfg = ObsConfig()
        config = ZkConfig(kernel=request.param, obs=obs_cfg,
                          raft=RaftConfig(seed=7))
        ensemble = ZkEnsemble(n_replicas=3, seed=7, config=config)
        ensemble.start()
        env = ensemble.env
        client = ensemble.client(replica=ensemble.replica_ids[-1])

        def setup():
            yield from client.connect()
            yield from client.create("/a", b"0")

        env.run(until=env.process(setup()))
        ensemble.leader.crash()
        call = env.process(client.set_data("/a", b"1"))
        env.run(until=env.now + 1.0)
        return ensemble, obs_cfg.runtime, client, call

    def test_four_letter_words_count_outstanding_forwards(self, stranded):
        ensemble, _obs, client, _call = stranded
        stat = probe(ensemble.env, ensemble.net, client.replica, "stat")
        assert "outstanding_forwards: 1" in stat
        mntr = probe(ensemble.env, ensemble.net, client.replica, "mntr")
        assert "zk_outstanding_forwards\t1" in mntr

    def test_reroute_counter_and_aux_span(self, stranded):
        ensemble, obs, client, call = stranded
        relayed_at = ensemble.env.now - 1.0
        ensemble.env.run(until=call)
        assert obs.metrics.total("zk.forwards_rerouted") == 1
        assert obs.metrics.total("zk.forwards_bounced") == 0
        trace = next(t.to_dict() for t in obs.tracer.traces()
                     if t.client == client.node_id and t.op == "SetDataOp")
        assert check_trace(trace) is None
        (name, t0, t1, node, _detail), = trace["aux"]
        assert (name, node) == ("reroute", client.replica)
        assert t0 == pytest.approx(relayed_at, abs=0.5)
        # The span ends when the election did: it *is* the wait.
        assert t1 - t0 > 100.0
        assert t1 <= trace["marks"][-1][1]
        assert "~reroute" in format_waterfall(trace)
        stat = probe(ensemble.env, ensemble.net, client.replica, "stat")
        assert "outstanding_forwards: 0" in stat

    def test_role_change_with_no_leader_bounces(self, stranded):
        ensemble, obs, client, call = stranded
        origin = ensemble.server(client.replica)
        # A role change that leaves nobody to route to hands the request
        # back; the client backs off and retries once a leader exists.
        origin.broadcast.leader_id = None
        origin._on_role_change()
        assert obs.metrics.total("zk.forwards_bounced") == 1
        assert not origin._relayed
        assert ensemble.env.run(until=call).version == 1


class TestDepSpace:
    @pytest.mark.parametrize("kernel", ("pbft", "raft"))
    def test_traced_ds_run(self, kernel):
        from repro.depspace import DsEnsemble
        from repro.depspace.server import DsConfig

        obs_cfg = ObsConfig()
        ensemble = DsEnsemble(f=1, seed=11,
                              config=DsConfig(kernel=kernel, obs=obs_cfg))
        ensemble.start()
        client = ensemble.client()

        def work():
            for i in range(6):
                yield from client.out("k", i)
            value = yield from client.rdp("k", 0)
            return value

        proc = ensemble.env.process(work())
        assert ensemble.env.run(until=proc) == ("k", 0)

        obs = obs_cfg.runtime
        traces = [t.to_dict() for t in obs.tracer.traces()]
        defects = [d for d in map(check_trace, traces) if d]
        assert defects == []
        # Ordered requests carry propose/deliver marks, so the BFT row
        # decomposes like the Zab and Raft ones: agreement is its own
        # pair of phases instead of hiding inside "execute".
        write = breakdown(traces)["write"]
        recon = write["_recon"]
        assert recon["traces"] == 7
        assert recon["phase_sum_ms"] == pytest.approx(
            recon["end_to_end_ms"], rel=0.01)
        assert write["broadcast"]["mean_ms"] > 0
        assert write["quorum"]["mean_ms"] > 0
        assert obs.metrics.total("ds.requests") > 0
        assert obs.metrics.total("ds.ordered") > 0
        payload = probe(ensemble.env, ensemble.net,
                        ensemble.replica_ids[0], "mntr")
        assert "ds_exec_seq\t" in payload


class TestChaosTrace:
    def test_traced_chaos_replay_matches_untraced_verdict(self):
        from repro.chaos.explorer import run_chaos

        plain = run_chaos("zk", "counter", 17)
        obs_cfg = ObsConfig()
        traced = run_chaos("zk", "counter", 17, obs=obs_cfg)
        assert traced.ok == plain.ok
        assert traced.history.canonical() == plain.history.canonical()
        traces = [t.to_dict() for t in obs_cfg.runtime.tracer.traces()]
        assert traces
        defects = [d for d in map(check_trace, traces) if d]
        assert defects == []
