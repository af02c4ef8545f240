"""Multi-host dispatch: wire protocol, streamed lane blocks, bitwise
reassembly, robustness.

The load-bearing suites mirror the executor's equivalence contract one
transport out: a campaign dispatched over localhost worker agents —
uneven splits, chunked streaming, a worker killed mid-campaign — must
reproduce the single-process :func:`repro.batch.sweep.run_batch_series`
result bit for bit.  Dispatch is a transport optimisation, never a
numerics change.
"""

import dataclasses
import logging
import pickle
import socket
import subprocess
import sys
import threading
from multiprocessing.connection import Client

import numpy as np
import pytest

from repro.batch.sweep import BatchSweepResult, run_batch_series
from repro.dist import (
    DEFAULT_AUTHKEY,
    PROTOCOL_VERSION,
    Dispatcher,
    WorkerAgent,
    probe_hosts,
    probe_link_overhead,
    run_distributed,
    shard_digest,
)
from repro.dist.protocol import (
    MSG_PING,
    MSG_PONG,
    MSG_RUN,
    format_address,
    parse_address,
    recv_message,
    send_message,
    set_nodelay,
)
from repro.errors import DistError, DistTimeoutError, ParameterError
from repro.parallel import (
    BlockBudget,
    EnsembleSpec,
    iter_shard_blocks,
    plan_lane_blocks,
    run_scenario_grid,
    run_sharded,
)
from repro.parallel import blocks as blocks_module
from repro.parallel.blocks import merge_shard_counters, run_spec
from repro.parallel.executor import prepare_job
from repro.parallel.spec import DriveSpec
from repro.sched import CostModel, ExecutionPlan, enumerate_candidates
from repro.scenarios import scenario_samples

from test_parallel import assert_results_bitwise_equal
from test_sched import synthetic_calibration

#: The deliberately awkward geometry: 7 lanes, 3 shards, 2 hosts.
N_CORES = 7
H_MAX = 1000.0
STEP = 120.0


def reference_result(n_cores=N_CORES, seed=0):
    spec = EnsembleSpec(family="timeless", n_cores=n_cores, seed=seed)
    h = scenario_samples("major-loop", H_MAX, STEP, n_cores=n_cores)
    return run_batch_series(spec.build_batch(), h)


@pytest.fixture
def fleet():
    """Two in-process localhost worker agents."""
    with WorkerAgent() as a, WorkerAgent() as b:
        a.start()
        b.start()
        yield [a.address, b.address]


class TestProtocol:
    def test_parse_format_roundtrip(self):
        assert parse_address("127.0.0.1:7501") == ("127.0.0.1", 7501)
        assert format_address(("127.0.0.1", 7501)) == "127.0.0.1:7501"

    def test_parse_rejects_malformed(self):
        for bad in ("no-port", ":123", "host:notaport"):
            with pytest.raises(DistError):
                parse_address(bad)

    def test_recv_deadline_expires(self):
        from multiprocessing import Pipe

        parent, child = Pipe()
        try:
            with pytest.raises(DistTimeoutError):
                recv_message(parent, 0.05)
            send_message(child, ("ping",))
            assert recv_message(parent, 1.0) == ("ping",)
        finally:
            parent.close()
            child.close()


class TestLaneBlocks:
    def test_plan_tiles_range_in_order(self):
        assert plan_lane_blocks(3, 10, 3) == [(3, 6), (6, 9), (9, 10)]
        assert plan_lane_blocks(0, 4, None) == [(0, 4)]
        assert plan_lane_blocks(0, 4, 99) == [(0, 4)]

    def test_plan_rejects_bad_ranges(self):
        with pytest.raises(ParameterError):
            plan_lane_blocks(4, 4, 2)
        with pytest.raises(ParameterError):
            plan_lane_blocks(0, 4, 0)

    @pytest.mark.parametrize("chunk_lanes", [1, 2, 5, None])
    def test_chunked_shard_is_bitwise_identical(self, chunk_lanes):
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(
            ensemble,
            _drive(),
            1,
            1,
            chunk_lanes=chunk_lanes,
        )
        (spec,) = job.specs
        parts = list(iter_shard_blocks(spec))
        reassembled = BatchSweepResult(
            h=spec.build_samples(),
            m=np.concatenate([p.m for p in parts], axis=1),
            b=np.concatenate([p.b for p in parts], axis=1),
            updated=np.concatenate([p.updated for p in parts], axis=1),
            extras={
                key: np.concatenate([p.extras[key] for p in parts], axis=1)
                for key in parts[0].extras
            },
            counters=merge_shard_counters(
                [p.counters for p in parts], [p.width for p in parts]
            ),
            family=spec.family,
        )
        assert_results_bitwise_equal(reference_result(), reassembled)
        assert_results_bitwise_equal(reference_result(), run_spec(spec))

    @pytest.mark.parametrize("family", ["timeless", "preisach", "time-domain"])
    def test_chunked_shard_runs_once_and_yields_owned_blocks(
        self, family, monkeypatch
    ):
        """One kernel run per shard, however many blocks it streams,
        and every block owns exactly its own lanes' bytes."""
        ensemble = EnsembleSpec(family=family, n_cores=N_CORES)
        job = prepare_job(ensemble, _drive(), 2, 1, chunk_lanes=2)
        spec = job.specs[0]
        assert spec.width > 2  # several blocks per shard
        whole = run_spec(dataclasses.replace(spec, chunk_lanes=None))

        calls = []
        real = blocks_module.run_batch_series

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(blocks_module, "run_batch_series", counting)
        blocks = list(iter_shard_blocks(spec))
        assert len(calls) == 1
        assert [(blk.start, blk.stop) for blk in blocks] == plan_lane_blocks(
            spec.start, spec.stop, 2
        )

        samples = whole.m.shape[0]
        for blk in blocks:
            ra, rb = blk.start - spec.start, blk.stop - spec.start
            columns = {"m": blk.m, "b": blk.b, "updated": blk.updated}
            columns.update(
                (f"extras.{key}", value) for key, value in blk.extras.items()
            )
            expected_nbytes = 0
            for name, arr in columns.items():
                assert arr.shape == (samples, blk.width), name
                assert arr.flags.c_contiguous and arr.base is None, name
                expected_nbytes += arr.size * arr.itemsize
            assert sorted(blk.extras) == sorted(whole.extras)
            assert sorted(blk.counters) == sorted(whole.counters)
            for key, counter in blk.counters.items():
                assert counter.shape == (blk.width,), key
                assert counter.base is None, key
                assert np.array_equal(counter, whole.counters[key][ra:rb]), key
                expected_nbytes += counter.nbytes
            assert np.array_equal(blk.m, whole.m[:, ra:rb], equal_nan=True)
            assert np.array_equal(blk.updated, whole.updated[:, ra:rb])
            for key, value in blk.extras.items():
                assert np.array_equal(
                    value, whole.extras[key][:, ra:rb], equal_nan=True
                ), key
            assert blk.nbytes == expected_nbytes
            # What a worker sends is this block's bytes plus a small
            # fixed framing, never the rest of the shard.
            wire = len(pickle.dumps(blk))
            assert blk.nbytes <= wire <= blk.nbytes + 4096

    def test_budget_tracks_peak_and_rejects_oversize(self):
        budget = BlockBudget(100)
        budget.acquire(60)
        budget.acquire(40)
        budget.release(60)
        budget.release(40)
        assert budget.peak == 100
        assert budget.in_flight == 0
        with pytest.raises(ParameterError, match="ceiling"):
            budget.acquire(101)
        with pytest.raises(ParameterError):
            BlockBudget(0)

    def test_unlimited_budget_never_blocks(self):
        budget = BlockBudget(None)
        budget.acquire(10**12)
        budget.release(10**12)
        assert budget.peak == 10**12

    def test_stray_notify_cannot_over_release_the_budget(self):
        """``acquire`` re-checks its predicate after every wake
        (``wait_for``), so a stray ``notify_all`` — over-notification,
        a spurious wakeup — never admits bytes past the ceiling."""
        budget = BlockBudget(100)
        budget.acquire(90)
        admitted = threading.Event()

        def contender():
            budget.acquire(20)
            admitted.set()
            budget.release(20)

        thread = threading.Thread(target=contender, daemon=True)
        thread.start()
        for _ in range(5):
            with budget._cond:
                budget._cond.notify_all()
        # The waiter must still be parked: 90 + 20 > 100.
        assert not admitted.wait(0.2)
        assert budget.in_flight == 90
        budget.release(90)
        assert admitted.wait(5.0), "waiter never admitted after release"
        thread.join(5.0)
        assert budget.in_flight == 0
        assert budget.peak <= 100


def _drive():
    return DriveSpec(
        scenario="major-loop", h_max=H_MAX, driver_step=STEP
    )


class TestShardDigest:
    def test_execution_shape_never_changes_the_digest(self):
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(ensemble, _drive(), 1, 1)
        (spec,) = job.specs
        base = shard_digest(spec)
        assert base is not None
        reshaped = dataclasses.replace(spec, threads=4, chunk_lanes=2)
        assert shard_digest(reshaped) == base

    def test_lane_range_changes_the_digest(self):
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(ensemble, _drive(), 3, 1)
        digests = [shard_digest(spec) for spec in job.specs]
        assert len(set(digests)) == len(digests)


class TestRunDistributed:
    @pytest.mark.parametrize("n_workers,chunk_lanes", [
        (None, None),   # one shard per host, unchunked
        (3, None),      # uneven: 3 shards over 2 hosts
        (3, 2),         # uneven + streamed lane blocks
    ])
    def test_bitwise_identical_to_single_process(
        self, fleet, n_workers, chunk_lanes
    ):
        result = run_distributed(
            EnsembleSpec(family="timeless", n_cores=N_CORES),
            scenario="major-loop",
            h_max=H_MAX,
            driver_step=STEP,
            hosts=fleet,
            n_workers=n_workers,
            chunk_lanes=chunk_lanes,
        )
        assert_results_bitwise_equal(reference_result(), result)

    def test_zero_reachable_hosts_degrades_to_local(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.dist.dispatch"):
            result = run_distributed(
                EnsembleSpec(family="timeless", n_cores=N_CORES),
                scenario="major-loop",
                h_max=H_MAX,
                driver_step=STEP,
                hosts=["127.0.0.1:9"],  # discard port: refused, fast
                connect_timeout_s=1.0,
            )
        assert_results_bitwise_equal(reference_result(), result)
        assert any(
            "degrading to the local executor" in record.message
            for record in caplog.records
        )

    def test_empty_hosts_rejected(self):
        with pytest.raises(ParameterError, match="at least one"):
            run_distributed(
                EnsembleSpec(family="timeless", n_cores=N_CORES),
                scenario="major-loop",
                h_max=H_MAX,
                hosts=[],
            )

    def test_killed_worker_requeues_onto_survivor(self, caplog):
        agent_a = WorkerAgent().start()
        agent_b = WorkerAgent().start()
        try:
            ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
            job = prepare_job(ensemble, _drive(), 3, 1, chunk_lanes=2)
            with caplog.at_level(
                logging.WARNING, logger="repro.dist.dispatch"
            ):
                with Dispatcher(
                    [agent_a.address, agent_b.address], deadline_s=30.0
                ) as dispatcher:
                    assert dispatcher.n_live == 2
                    # Kill one agent after the handshake: its serving
                    # thread loses the connection mid-job and the shard
                    # must requeue onto the survivor.
                    agent_a.stop()
                    (result,) = dispatcher.run_jobs([job])
            assert_results_bitwise_equal(reference_result(), result)
            assert any(
                "requeueing shard" in record.message
                for record in caplog.records
            )
        finally:
            agent_a.stop()
            agent_b.stop()

    def test_streamed_blocks_respect_buffer_ceiling(self, fleet):
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(ensemble, _drive(), 2, 1, chunk_lanes=1)
        sample_count = len(job.h_full)
        # Generous enough for one single-lane block, far below the
        # full (samples, 7) result buffer.
        ceiling = 64 * sample_count
        with Dispatcher(fleet, max_buffer_bytes=ceiling) as dispatcher:
            (result,) = dispatcher.run_jobs([job])
        assert_results_bitwise_equal(reference_result(), result)
        assert 0 < dispatcher.budget.peak <= ceiling

    def test_identical_shard_requests_coalesce(self, fleet, caplog):
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        jobs = [prepare_job(ensemble, _drive(), 2, 1) for _ in range(2)]
        with caplog.at_level(logging.INFO, logger="repro.dist.dispatch"):
            with Dispatcher(fleet) as dispatcher:
                results = dispatcher.run_jobs(jobs)
        for result in results:
            assert_results_bitwise_equal(reference_result(), result)
        assert any(
            "coalesced 2 duplicate shard request(s)" in record.message
            for record in caplog.records
        )

    def test_worker_side_error_raises_dist_error(self, fleet):
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(ensemble, _drive(), 1, 1)
        # Corrupt the rebuild route: deterministic worker-side failure,
        # which must surface as DistError — never a retry.
        job.specs[0] = dataclasses.replace(
            job.specs[0], ensemble=None, payload={"bogus": True}
        )
        with Dispatcher(fleet) as dispatcher:
            with pytest.raises(DistError, match="failed\\s+worker-side"):
                dispatcher.run_jobs([job])

    def test_retries_exhausted_drains_locally(self, caplog):
        agent = WorkerAgent().start()
        try:
            ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
            job = prepare_job(ensemble, _drive(), 1, 1)
            with caplog.at_level(
                logging.WARNING, logger="repro.dist.dispatch"
            ):
                with Dispatcher(
                    [agent.address], retries=0, deadline_s=30.0
                ) as dispatcher:
                    agent.stop()  # the whole fleet dies pre-dispatch
                    (result,) = dispatcher.run_jobs([job])
            assert_results_bitwise_equal(reference_result(), result)
            assert any(
                "draining them through the local executor" in record.message
                for record in caplog.records
            )
        finally:
            agent.stop()


class TestProbe:
    def test_link_overhead_is_positive_seconds(self, fleet):
        overhead = probe_link_overhead(fleet[0], repeats=3)
        assert 0.0 < overhead < 5.0

    def test_probe_hosts_omits_unreachable(self, fleet):
        overheads = probe_hosts(
            [fleet[0], "127.0.0.1:9"], repeats=2, timeout_s=1.0
        )
        assert set(overheads) == {fleet[0]}
        assert overheads[fleet[0]] > 0.0

    def test_probe_validates_parameters(self, fleet):
        with pytest.raises(ParameterError):
            probe_link_overhead(fleet[0], repeats=0)
        with pytest.raises(ParameterError):
            probe_link_overhead(fleet[0], payload_bytes=0)

    def test_unreachable_probe_raises(self):
        with pytest.raises(DistError, match="unreachable"):
            probe_link_overhead("127.0.0.1:9", timeout_s=1.0)


class TestExecutorRouting:
    def test_run_sharded_hosts_matches_single_process(self, fleet):
        result = run_sharded(
            EnsembleSpec(family="timeless", n_cores=N_CORES),
            scenario="major-loop",
            h_max=H_MAX,
            driver_step=STEP,
            hosts=fleet,
            n_workers=3,
            chunk_lanes=3,
        )
        assert_results_bitwise_equal(reference_result(), result)

    def test_hosts_excludes_local_pool_arguments(self, fleet):
        with pytest.raises(ParameterError, match="remote shards"):
            run_sharded(
                EnsembleSpec(family="timeless", n_cores=N_CORES),
                scenario="major-loop",
                h_max=H_MAX,
                hosts=fleet,
                mp_context="spawn",
            )

    def test_chunked_serial_run_is_bitwise_identical(self):
        result = run_sharded(
            EnsembleSpec(family="timeless", n_cores=N_CORES),
            scenario="major-loop",
            h_max=H_MAX,
            driver_step=STEP,
            n_workers=1,
            chunk_lanes=2,
        )
        assert_results_bitwise_equal(reference_result(), result)

    def test_hosted_plan_routes_through_dispatch(self, fleet):
        plan = ExecutionPlan(
            backend="numpy", n_workers=3, hosts=tuple(fleet)
        )
        result = run_sharded(
            EnsembleSpec(family="timeless", n_cores=N_CORES),
            scenario="major-loop",
            h_max=H_MAX,
            driver_step=STEP,
            plan=plan,
        )
        assert_results_bitwise_equal(reference_result(), result)


class TestGridRouting:
    def test_grid_over_hosts_matches_local_grid(self, fleet):
        kwargs = dict(
            families=["timeless"],
            scenarios=["major-loop"],
            h_max_values=[H_MAX, 2 * H_MAX],
            n_cores=5,
            driver_step=STEP,
        )
        local = run_scenario_grid(**kwargs, n_workers=1)
        hosted = run_scenario_grid(**kwargs, hosts=fleet)
        assert len(local) == len(hosted)
        for ours, theirs in zip(local, hosted):
            assert ours.key == theirs.key
            assert_results_bitwise_equal(ours.result, theirs.result)

    def test_grid_hosts_excludes_plan_and_service(self, fleet):
        kwargs = dict(
            families=["timeless"],
            scenarios=["major-loop"],
            h_max_values=[H_MAX],
            n_cores=4,
        )
        with pytest.raises(ParameterError, match="run_sharded"):
            run_scenario_grid(**kwargs, hosts=fleet, plan="auto")
        with pytest.raises(ParameterError):
            run_scenario_grid(**kwargs, hosts=fleet, mp_context="spawn")


class TestPlannerPlacement:
    def test_plan_validates_host_thread_exclusivity(self):
        with pytest.raises(ParameterError, match="single-threaded"):
            ExecutionPlan(
                backend="numpy",
                n_workers=2,
                threads_per_worker=2,
                hosts=("a:1", "b:2"),
            )

    def test_describe_names_the_placement(self):
        plan = ExecutionPlan(backend="numpy", n_workers=2, hosts=("a:1", "b:2"))
        assert plan.describe().endswith("@2h")

    def test_candidates_include_priced_distributed_plan(self):
        model = CostModel.from_calibration(synthetic_calibration())
        hosts = ("10.0.0.5:7501", "10.0.0.6:7501")
        candidates = enumerate_candidates(
            model, "timeless", lanes=64, samples=256, hosts=hosts
        )
        dist_plans = [c for c in candidates if c.source == "auto-dist"]
        assert len(dist_plans) >= 1
        plan = dist_plans[0]
        assert plan.hosts == hosts
        assert plan.n_workers == len(hosts)
        assert plan.threads_per_worker == 1
        assert plan.predicted_seconds is not None

    def test_link_overhead_raises_the_distributed_price(self):
        model = CostModel.from_calibration(synthetic_calibration())
        hosts = ("10.0.0.5:7501", "10.0.0.6:7501")

        def dist_price(link_overhead_s):
            candidates = enumerate_candidates(
                model, "timeless", lanes=64, samples=256,
                hosts=hosts, link_overhead_s=link_overhead_s,
            )
            (plan,) = [c for c in candidates if c.source == "auto-dist"]
            return plan.predicted_seconds

        assert dist_price(10.0) > dist_price(0.0)
        # A slow enough link makes local plans win outright.
        slow = enumerate_candidates(
            model, "timeless", lanes=64, samples=256,
            hosts=hosts, link_overhead_s=1e6,
        )
        assert slow[0].source != "auto-dist"

    def test_per_host_models_price_heterogeneous_fleets(self):
        local = CostModel.from_calibration(synthetic_calibration())
        slow = CostModel.from_calibration(
            synthetic_calibration(coeffs={("numpy", 1): (1e-3, 1e-4)})
        )
        hosts = ("fast:1", "slow:2")

        def makespan(host_models):
            candidates = enumerate_candidates(
                local, "timeless", lanes=64, samples=256,
                hosts=hosts, host_models=host_models,
            )
            (plan,) = [c for c in candidates if c.source == "auto-dist"]
            return plan.predicted_seconds

        assert makespan({"slow:2": slow}) > makespan(None)

    def test_unpriceable_placement_is_skipped_not_guessed(self):
        # The model only knows numpy: a fleet is priced per backend, so
        # every candidate that does appear must carry a real price.
        model = CostModel.from_calibration(synthetic_calibration())
        candidates = enumerate_candidates(
            model, "timeless", lanes=64, samples=256,
            hosts=("a:1",), host_models={"a:1": model},
        )
        assert all(c.predicted_seconds is not None for c in candidates)


def _nodelay(conn) -> int:
    with socket.fromfd(
        conn.fileno(), socket.AF_INET, socket.SOCK_STREAM
    ) as sock:
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def _ping(address: str):
    conn = Client(
        parse_address(address), family="AF_INET", authkey=DEFAULT_AUTHKEY
    )
    try:
        send_message(conn, (MSG_PING,))
        return recv_message(conn, 5.0)
    finally:
        conn.close()


class TestNoDelay:
    """Every dist socket runs with Nagle off.  Pinned on the socket
    option itself, never on timing, so the suite's verdict cannot
    depend on host noise."""

    def test_dispatcher_and_agent_connections_set_nodelay(self):
        with WorkerAgent() as a, WorkerAgent() as b:
            with Dispatcher([a.address, b.address]) as dispatcher:
                assert dispatcher.n_live == 2
                for conn in dispatcher._workers.values():
                    assert _nodelay(conn) == 1
                # The pong proves each agent is past set_nodelay.
                for agent in (a, b):
                    assert _nodelay(agent._active_conn) == 1

    def test_probe_connection_sets_nodelay(self, fleet, monkeypatch):
        seen = []

        def spy(conn):
            set_nodelay(conn)
            seen.append(_nodelay(conn))

        monkeypatch.setattr("repro.dist.probe.set_nodelay", spy)
        assert probe_link_overhead(fleet[0], repeats=1) > 0.0
        assert seen == [1]

    def test_probe_link_reset_omits_the_host(self, fleet, monkeypatch):
        def reset(conn):
            raise ConnectionResetError("connection reset by peer")

        monkeypatch.setattr("repro.dist.probe.set_nodelay", reset)
        with pytest.raises(DistError, match="dropped"):
            probe_link_overhead(fleet[0], repeats=1)
        assert probe_hosts(fleet, repeats=1) == {}

    @pytest.mark.parametrize(
        "hook,real",
        [
            ("set_nodelay", set_nodelay),
            ("iter_shard_blocks", iter_shard_blocks),
        ],
        ids=["set_nodelay", "iter_shard_blocks"],
    )
    def test_agent_survives_a_dropped_connection(
        self, hook, real, monkeypatch, caplog
    ):
        """A peer reset right after the handshake (``set_nodelay``) or
        mid-stream (the block generator) closes only that connection;
        the serve loop keeps accepting."""
        calls = []

        def reset_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise ConnectionResetError("connection reset by peer")
            return real(*args)

        monkeypatch.setattr(f"repro.dist.worker.{hook}", reset_once)
        (spec,) = prepare_job(
            EnsembleSpec(family="timeless", n_cores=N_CORES), _drive(), 1, 1
        ).specs
        with WorkerAgent() as agent:
            with caplog.at_level(logging.WARNING, logger="repro.dist.worker"):
                conn = Client(
                    parse_address(agent.address), family="AF_INET",
                    authkey=DEFAULT_AUTHKEY,
                )
                try:
                    with pytest.raises((EOFError, OSError)):
                        send_message(conn, (MSG_PING,))
                        recv_message(conn, 5.0)
                        send_message(conn, (MSG_RUN, "digest", spec))
                        recv_message(conn, 5.0)
                finally:
                    conn.close()
                # The agent closed that connection before the client
                # saw EOF, so a dead serve loop would already be gone;
                # checking first keeps a regression from hanging the
                # next handshake forever.
                agent._thread.join(0.5)
                assert agent._thread.is_alive(), "the serve loop died"
                assert _ping(agent.address) == (MSG_PONG, PROTOCOL_VERSION)
        assert any(
            "connection dropped" in record.message
            for record in caplog.records
        )

    def test_failed_handshake_option_is_an_unreachable_host(
        self, fleet, monkeypatch, caplog
    ):
        def reset(conn):
            raise ConnectionResetError("connection reset by peer")

        monkeypatch.setattr("repro.dist.dispatch.set_nodelay", reset)
        with caplog.at_level(logging.WARNING, logger="repro.dist.dispatch"):
            with Dispatcher(fleet) as dispatcher:
                assert dispatcher.n_live == 0
        assert any(
            "failed the handshake" in record.message
            for record in caplog.records
        )


@pytest.fixture
def subprocess_fleet():
    """Two ``python -m repro.dist.worker`` agents on ephemeral ports,
    addresses scraped from their banner lines.  They inherit the
    environment, so ``REPRO_BACKEND`` picks their backend too."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.dist.worker", "--bind",
             "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        for _ in range(2)
    ]
    try:
        prefix = "repro-dist worker listening on "
        hosts = []
        for proc in procs:
            banner = proc.stdout.readline().strip()
            assert banner.startswith(prefix), banner
            hosts.append(banner[len(prefix):])
        yield procs, hosts
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()


class TestSubprocessFleet:
    def test_bitwise_and_survives_an_agent_killed_after_handshake(
        self, subprocess_fleet
    ):
        procs, hosts = subprocess_fleet
        ensemble = EnsembleSpec(family="timeless", n_cores=12, seed=7)
        step = float(ensemble.build_batch().driver_step_hint())
        drive = DriveSpec(scenario="major-loop", h_max=10e3, driver_step=step)
        serial = run_batch_series(
            ensemble.build_batch(), drive.full_samples(ensemble.n_cores)
        )

        # Healthy fleet: both agents compute, reassembly is bitwise.
        healthy = run_distributed(
            ensemble, scenario="major-loop", h_max=10e3, driver_step=step,
            hosts=hosts, n_workers=2,
        )
        assert_results_bitwise_equal(serial, healthy)

        # Kill one agent after the handshake: its shard requeues onto
        # the survivor and the result is still bitwise.
        with Dispatcher(hosts, deadline_s=30.0) as dispatcher:
            assert dispatcher.n_live == 2
            procs[0].kill()
            procs[0].wait(timeout=10)
            (result,) = dispatcher.run_jobs(
                [prepare_job(ensemble, drive, 2, 1)]
            )
        assert_results_bitwise_equal(serial, result)


class TestWorkerAgent:
    def test_ping_echo_and_version(self, fleet):
        conn = Client(
            parse_address(fleet[0]), family="AF_INET", authkey=DEFAULT_AUTHKEY
        )
        try:
            send_message(conn, ("ping",))
            assert recv_message(conn, 5.0) == ("pong", PROTOCOL_VERSION)
            send_message(conn, ("echo", b"abc"))
            assert recv_message(conn, 5.0) == ("echo", b"abc")
            send_message(conn, ("frobnicate",))
            reply = recv_message(conn, 5.0)
            assert reply[0] == "error"
            assert "frobnicate" in reply[2]
        finally:
            conn.close()

    def test_dispatcher_shutdown_stops_the_fleet(self):
        with WorkerAgent() as a, WorkerAgent() as b:
            dispatcher = Dispatcher([a.address, b.address])
            assert dispatcher.n_live == 2
            assert dispatcher.shutdown_workers() == 2
            assert dispatcher.n_live == 0
            # Both serve loops observed MSG_SHUTDOWN and closed up.
            assert a._closed.wait(5.0) and b._closed.wait(5.0)

    def test_wrong_authkey_never_kills_the_agent(self, fleet):
        from multiprocessing import AuthenticationError

        with pytest.raises((AuthenticationError, OSError, EOFError)):
            conn = Client(
                parse_address(fleet[0]), family="AF_INET", authkey=b"wrong"
            )
            conn.close()
        # The agent survives the failed handshake and keeps serving.
        assert probe_link_overhead(fleet[0], repeats=1) > 0.0

    def test_cli_worker_serves_a_campaign(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.dist.worker", "--bind",
             "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = proc.stdout.readline().strip()
            prefix = "repro-dist worker listening on "
            assert banner.startswith(prefix)
            address = banner[len(prefix):]
            result = run_distributed(
                EnsembleSpec(family="timeless", n_cores=N_CORES),
                scenario="major-loop",
                h_max=H_MAX,
                driver_step=STEP,
                hosts=[address],
                chunk_lanes=3,
            )
            assert_results_bitwise_equal(reference_result(), result)
        finally:
            proc.kill()
            proc.wait(timeout=10)
