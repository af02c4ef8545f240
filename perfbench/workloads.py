"""The workloads: one client each, closed loop, seeded streams.

Every workload maps stream keys (:mod:`streams`) to concrete requests
with the run's seed, sets itself up (imports, fixed ensembles, pool or
agents), serves requests through one library entry point, and can
recompute any request in process with ``run_batch_series`` for the
bitwise check.  The library is imported inside :meth:`Workload.setup`
so that set-up time includes the imports.

All ensembles are fixed (``ENSEMBLE_SEED``); the run's seed only picks
the drives each key stands for, so set-up does the same work on every
run and the stream decides the rest.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict, deque
from pathlib import Path

from streams import iter_stream
from spans import Recorder

FAMILIES = ("timeless", "preisach", "time-domain")
ENSEMBLE_SEED = 2006
BACKEND = "numpy"  # the bitwise tier; cache keys include the backend


def result_hash(result) -> str:
    """Content hash of the bits the correctness gate compares."""
    digest = hashlib.sha256()
    for arr in (result.m, result.b, result.updated):
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def result_bytes(result) -> int:
    """Bytes of one result's per-sample channels and counters."""
    total = result.m.nbytes + result.b.nbytes + result.updated.nbytes
    total += sum(arr.nbytes for arr in result.extras.values())
    total += sum(arr.nbytes for arr in result.counters.values())
    return total


class Outcome:
    """What the client saw for one request: its latency, the digests of
    its results (the results themselves are dropped at once), and, in a
    traced run, how long the in-process replay took."""

    __slots__ = ("request", "latency", "end", "hashes", "lane_steps",
                 "nbytes", "replay", "error")

    def __init__(self, request, latency, results=(), error=None):
        self.end = time.perf_counter()  # made as the request completes
        self.request = request
        self.latency = latency
        self.hashes = tuple(result_hash(r) for r in results)
        self.lane_steps = sum(r.m.size for r in results)
        self.nbytes = sum(result_bytes(r) for r in results)
        self.replay = 0.0
        self.error = error


class Workload:
    """Shared shape of a workload; subclasses fill in the entry point."""

    name = ""
    replay_span = "replay"
    #: Whether the path serves repeated requests without recomputing.
    reuses = False
    n_cores = 8
    #: Stream geometry (see :mod:`streams`).  Only the service has an
    #: LRU, sized to ``capacity``; the fleet uses a short geometry so
    #: its few requests still reach every class.
    capacity, hot, slack = 4, 1, 0

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    # -- request design -------------------------------------------------

    def _rng(self, key: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{key}")

    def scale(self, key: int) -> float:
        """The key's drive scale, within 5% of 1.  Amplitude and driver
        step both scale with it, so every key has the same sample count
        and costs the same; only the results differ."""
        return 1 + 0.05 * self._rng(key).random()

    def cells(self, key: int) -> list:
        """``(EnsembleSpec, DriveSpec)`` pairs one request delivers."""
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- serving -------------------------------------------------------------

    def call(self, key: int) -> list:
        """Serve one request through the entry point; results in
        :meth:`cells` order."""
        raise NotImplementedError

    def traced_call(self, key: int, rec: Recorder) -> list:
        """:meth:`call` with a span around each layer call it makes."""
        raise NotImplementedError

    def run(self, seconds, stream, rec=None, expected=None):
        """Closed loop, one client: back-to-back requests for
        ``seconds``; returns the outcomes.

        With a recorder, each request goes through :meth:`traced_call`
        and is then replayed in process (:meth:`reference`, under the
        ``replay_span``), outside its latency; the replay's digests go
        to ``expected`` for the bitwise check."""
        outcomes = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            request = next(stream)
            t0 = time.perf_counter()
            try:
                if rec is None:
                    results = self.call(request.key)
                else:
                    with rec.serving(request.index):
                        results = self.traced_call(request.key, rec)
            except Exception as exc:  # a failed request is counted
                outcomes.append(Outcome(request, 0.0, error=repr(exc)))
                continue
            outcome = Outcome(request, time.perf_counter() - t0, results)
            del results  # only digests outlive the request
            outcomes.append(outcome)
            if rec is not None:
                t1 = time.perf_counter()
                with rec.serving(request.index), rec.span(self.replay_span):
                    replay = self.reference(request.key, rec)
                outcome.replay = time.perf_counter() - t1
                expected.setdefault(
                    request.key, tuple(result_hash(r) for r in replay)
                )
        return outcomes

    def run_traced(self, seconds, stream, rec, expected):
        return self.run(seconds, stream, rec, expected)

    # -- the in-process reference -----------------------------------------

    def reference(self, key: int, rec: "Recorder | None" = None) -> list:
        """Recompute one request with ``run_batch_series``, cell by
        cell, through ``build_batch`` -> ``full_samples`` ->
        ``run_batch_series``; spans go to ``rec`` when given."""
        from repro.batch.sweep import run_batch_series

        rec = rec or Recorder()
        out = []
        for spec, drive in self.cells(key):
            with rec.span("models.build"):
                batch = spec.build_batch()
            with rec.span("scenarios.drive"):
                samples = drive.full_samples(spec.n_cores)
            with rec.span(f"batch.series.{spec.family}"):
                result = run_batch_series(batch, samples)
            rec.add(f"lane_steps.{spec.family}", result.m.size)
            out.append(result)
        return out

    def stats(self) -> "dict | None":
        """Counters snapshot the design checks compare (if any)."""
        return None

    def design_checks(self, outcomes, before, after) -> list[str]:
        """Counts the design fixes that the run must reproduce exactly;
        one line per mismatch."""
        return []


def _import_library() -> None:
    import repro.batch.sweep  # noqa: F401
    import repro.parallel.executor  # noqa: F401


def _build_fixed_ensembles(families, n_cores) -> float:
    """Build each fixed ensemble once (Preisach identification is the
    costly part and is cached per process); returns identify seconds."""
    from repro.parallel.spec import EnsembleSpec

    identify = 0.0
    for family in families:
        t0 = time.perf_counter()
        EnsembleSpec(family, n_cores, ENSEMBLE_SEED, BACKEND).build_batch()
        if family == "preisach":
            identify = time.perf_counter() - t0
    return identify


class FleetDispatch(Workload):
    """``run_sharded(hosts=...)`` over two localhost agent processes;
    every request connects afresh."""

    name = "fleet-dispatch"
    replay_span = "dist.local"
    # Four lane blocks per shard: every request then meets the same
    # small-message stall on the wire (with one block per shard about a
    # quarter of requests skip it, which makes the median bimodal).
    n_cores = 32
    chunk_lanes = 4
    n_agents = 2
    driver_step = 0.04 * 10e3
    #: Filled by traced requests: the dispatcher's buffer high-water
    #: mark and the lane blocks one request streams.
    peak_buffer = 0
    blocks = None

    def cells(self, key):
        from repro.parallel.spec import DriveSpec, EnsembleSpec

        scale = self.scale(key)
        return [
            (
                EnsembleSpec("timeless", self.n_cores, ENSEMBLE_SEED, BACKEND),
                DriveSpec(
                    scenario="major-loop", h_max=10e3 * scale,
                    driver_step=self.driver_step * scale,
                ),
            )
        ]

    def setup(self) -> None:
        _import_library()
        from repro.parallel.executor import run_sharded

        self._run_sharded = run_sharded
        self.identify_s = 0.0
        _build_fixed_ensembles(("timeless",), self.n_cores)
        self.agents = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.dist.worker", "--bind", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            for _ in range(self.n_agents)
        ]
        self.hosts = []
        for agent in self.agents:
            # Readiness signal: the agent's first stdout line names its
            # bound address once it listens.
            banner = agent.stdout.readline()
            if "listening on" not in banner:
                raise RuntimeError(f"worker agent failed to start: {banner!r}")
            self.hosts.append(banner.split()[-1])
        for host in self.hosts:
            # Warm each agent (lazy imports, first ensemble build) with
            # one request of its own, outside every timed phase.
            spec, drive = self.cells(-1)[0]
            self._run_sharded(
                spec, scenario=drive.scenario, h_max=drive.h_max,
                driver_step=drive.driver_step, hosts=[host],
                chunk_lanes=self.chunk_lanes,
            )

    def call(self, key):
        spec, drive = self.cells(key)[0]
        return [
            self._run_sharded(
                spec, scenario=drive.scenario, h_max=drive.h_max,
                driver_step=drive.driver_step, hosts=self.hosts,
                chunk_lanes=self.chunk_lanes,
            )
        ]

    def traced_call(self, key, rec):
        """``run_sharded(hosts=...)`` replayed through the calls it
        makes: ``prepare_job`` -> ``Dispatcher(hosts)`` -> ``run_jobs``
        -> ``close``."""
        from repro.dist.dispatch import Dispatcher
        from repro.parallel.blocks import plan_lane_blocks
        from repro.parallel.executor import prepare_job

        spec, drive = self.cells(key)[0]
        with rec.span("parallel.prepare"):
            job = prepare_job(
                spec, drive, len(self.hosts), 1, chunk_lanes=self.chunk_lanes
            )
        with rec.span("dist.connect"):
            dispatcher = Dispatcher(self.hosts)
        try:
            with rec.span("dist.run_jobs"):
                result = dispatcher.run_jobs([job])[0]
        finally:
            with rec.span("dist.close"):
                dispatcher.close()
        self.peak_buffer = max(self.peak_buffer, dispatcher.budget.peak)
        self.blocks = sum(
            len(plan_lane_blocks(s.start, s.stop, s.chunk_lanes))
            for s in job.specs
        )
        return [result]

    def design_checks(self, outcomes, before, after):
        """A traced run counts the lane blocks each request streams."""
        designed = self.n_cores // self.chunk_lanes
        if self.blocks is not None and self.blocks != designed:
            return [f"dist.blocks: expected {designed}, got {self.blocks}"]
        return []

    def close(self) -> None:
        agents = getattr(self, "agents", [])
        if not agents:
            return
        from repro.dist.dispatch import Dispatcher

        try:
            if getattr(self, "hosts", None):
                with Dispatcher(self.hosts) as dispatcher:
                    dispatcher.shutdown_workers()
        finally:
            # Reap every agent even when the shutdown handshake failed.
            for agent in agents:
                try:
                    agent.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    agent.kill()
                    agent.wait()
                agent.stdout.close()
            self.agents = []


class ServiceMix(Workload):
    """Two requests always in flight against one warm
    ``HysteresisService``: memory hits, spill hits, misses and
    coalescing duplicates, as the stream fixes them."""

    name = "service-mix"
    reuses = True
    capacity, hot, slack = 16, 4, 12
    n_workers = 2
    in_flight = 2

    def cells(self, key):
        from repro.models.registry import get_family
        from repro.parallel.spec import DriveSpec, EnsembleSpec

        family = get_family(FAMILIES[key % len(FAMILIES)])
        scale = self.scale(key)
        return [
            (
                EnsembleSpec(family.name, self.n_cores, ENSEMBLE_SEED, BACKEND),
                DriveSpec(
                    scenario="major-loop", h_max=family.h_scale * scale,
                    driver_step=0.04 * family.h_scale * scale,
                ),
            )
        ]

    def setup(self) -> None:
        _import_library()
        from repro.service.api import HysteresisService

        # Ensembles first: the pool forks after, so its workers inherit
        # the Preisach identification instead of redoing it.
        self.identify_s = _build_fixed_ensembles(FAMILIES, self.n_cores)
        self.spill_dir = self.out_dir / f"spill-{os.getpid()}"
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        self.service = HysteresisService(
            self.n_workers,
            mp_context="fork",
            cache_entries=self.capacity,
            cache_dir=self.spill_dir,
            dispatch_threads=self.in_flight,
        )

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
            self.service = None
        if getattr(self, "spill_dir", None) is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    def stats(self) -> dict:
        return dict(
            self.service.cache.stats,
            computed=len(list(self.spill_dir.glob("*.npz"))),
        )

    def run(self, seconds, stream, rec=None, expected=None):
        """Two requests in flight for ``seconds``; spans (when ``rec``
        is given) come from :meth:`run_traced`'s wrappers, and the
        bitwise check recomputes afterwards, so ``expected`` is unused."""
        return asyncio.run(self._client(seconds, stream, rec))

    def run_traced(self, seconds, stream, rec, expected):
        """:meth:`run` with spans around the public calls a request
        makes: ``digest_for``, ``cache.get`` / ``put`` (and their spill
        ``load_result`` / ``save_result``), ``prepare_job`` and
        ``pool.execute``.  A dispatch thread serves one request at a
        time, so its spans are attributed from the digest it looks up."""
        import repro.parallel.executor as executor
        import repro.service.cache as cache_module

        service, cache = self.service, self.service.cache
        waiting: dict = defaultdict(deque)  # digest -> request ids
        lock = threading.Lock()
        digest_for, get = service.digest_for, cache.get

        def traced_digest(spec, drive):
            with rec.span("service.digest"):
                digest = digest_for(spec, drive)
            with lock:
                waiting[digest].append(rec.request)
            return digest

        def traced_get(digest):
            with lock:
                queue = waiting.get(digest)
                rec.bind(queue.popleft() if queue else None)
            with rec.span("service.cache_get"):
                return get(digest)

        patches = [
            (service, "digest_for", traced_digest),
            (cache, "get", traced_get),
            (cache, "put", rec.wrap("service.cache_put", cache.put)),
            (service.pool, "execute",
             rec.wrap("service.pool_execute", service.pool.execute)),
            (cache_module, "load_result",
             rec.wrap("service.spill_load", cache_module.load_result)),
            (cache_module, "save_result",
             rec.wrap("service.spill_save", cache_module.save_result)),
            (executor, "prepare_job",
             rec.wrap("parallel.prepare", executor.prepare_job)),
        ]
        saved = [(obj, name, obj.__dict__.get(name)) for obj, name, _ in patches]
        for obj, name, fn in patches:
            setattr(obj, name, fn)
        try:
            return self.run(seconds, stream, rec)
        finally:
            for obj, name, original in saved:
                if original is None:
                    delattr(obj, name)
                else:
                    setattr(obj, name, original)

    async def _client(self, seconds, stream, rec):
        service = self.service
        outcomes: list[Outcome] = []
        inflight: set = set()

        async def one(request):
            spec, drive = self.cells(request.key)[0]
            t0 = time.perf_counter()
            try:
                if rec is None:
                    future = service.submit(spec, drive)
                else:
                    with rec.serving(request.index):
                        future = service.submit(spec, drive)
                result = await future
            except Exception as exc:  # a failed request is counted
                outcomes.append(Outcome(request, 0.0, error=repr(exc)))
                return
            outcomes.append(Outcome(request, time.perf_counter() - t0, [result]))

        async def free(slots: int) -> None:
            while len(inflight) > self.in_flight - slots:
                done, _ = await asyncio.wait(
                    inflight, return_when=asyncio.FIRST_COMPLETED
                )
                inflight.difference_update(done)

        deadline = time.perf_counter() + seconds
        hits_phase = False
        while time.perf_counter() < deadline:
            request = next(stream)
            if (request.kind == "hit") != hits_phase:
                # Hits and computing requests are served in separate
                # phases, so hit latency measures the hit path: a hit
                # that overlaps a computation's GIL-bound phases (result
                # assembly, spill save) takes milliseconds instead of a
                # fraction of one.  Draining also makes the hot keys
                # exist before the first hit.
                await free(self.in_flight)
                hits_phase = not hits_phase
            batch = [request]
            if request.kind == "dup":
                # Both copies leave together, into two free slots, so
                # the second finds the first still computing.
                batch.append(next(stream))
            await free(len(batch))
            for item in batch:
                inflight.add(asyncio.ensure_future(one(item)))
        await asyncio.gather(*inflight)
        return outcomes

    def design_checks(self, outcomes, before, after):
        """Cache-stat deltas against the stream's classes.

        The second copy of a dup pair waits on its peer only while the
        peer is still computing.  A thread the host stalls for longer
        than one computation finds the peer's result already cached and
        counts as a memory hit instead, so the split between coalesced
        and hit is measured (``late``), not fixed.  Everything else is.
        """
        kinds = Counter(o.request.kind for o in outcomes if o.error is None)
        pairs = kinds["dup"] // 2
        delta = {
            k: after[k] - before[k]
            for k in ("hits", "misses", "disk_hits", "computed")
        }
        late = delta["hits"] - kinds["hit"] - kinds["spill"]
        # Every fresh key is spilled once, whoever computed it.
        expected = {
            "lookups": sum(kinds.values()),
            "disk_hits": kinds["spill"],
            "computed": kinds["miss"] + pairs,
        }
        seen = dict(delta, lookups=delta["hits"] + delta["misses"])
        problems = [
            f"{name}: expected {expected[name]}, got {seen[name]}"
            for name in expected
            if expected[name] != seen[name]
        ]
        if not 0 <= late <= pairs:
            problems.append(
                f"hits: expected {kinds['hit'] + kinds['spill']} plus at "
                f"most {pairs} late duplicates, got {delta['hits']}"
            )
        if late:
            print(f"  {late} of {pairs} duplicates found their peer's "
                  "result cached and did not coalesce")
        return problems


WORKLOADS = {w.name: w for w in (ServiceMix, FleetDispatch)}


def children_peak_rss_mib() -> float:
    """Peak RSS of the reaped child processes: pool workers, agents."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stream_for(workload: Workload):
    return iter_stream(
        workload.seed,
        capacity=workload.capacity,
        hot=workload.hot,
        slack=workload.slack,
    )
