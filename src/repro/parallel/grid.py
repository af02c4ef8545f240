"""Sharded scenario grids: families × scenarios × amplitudes, one pool.

:func:`run_scenario_grid` is the high-level entry for sweep campaigns
(the MagNet-Challenge shape: many materials, many drives, many
amplitudes).  Every grid cell — one ``(family, scenario, h_max)``
combination over an ``n_cores`` registry ensemble — is itself sharded,
and **all** cells' shard tasks funnel through one shared worker pool,
chunked so only a bounded number of cells hold shared-memory buffers
at a time.  Each cell's result is bitwise identical to running that
cell alone through :func:`repro.batch.sweep.run_batch_series`.

Grids **dedupe** before computing: callers composing ``h_max_values``
from overlapping sources (a default ladder plus a spot-check list)
historically paid for every duplicate combination; now each unique
``(family, scenario, h_max)`` cell is computed once and duplicates are
served the same result object (the collapse is logged).

A grid can also run through a :class:`~repro.service.api.HysteresisService`
via ``service=``: unique cells are first looked up in the service's
content-addressed cache, only the misses are planned and computed (on
the service's persistent warm pool), and fresh results are inserted so
the next campaign starts warm.  The service deliberately stays
duck-typed here — :mod:`repro.parallel.grid` never imports
:mod:`repro.service`, which sits *above* it in the layer stack.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Sequence

from repro.backend import resolve_backend
from repro.batch.sweep import BatchSweepResult
from repro.errors import ParameterError
from repro.parallel.executor import (
    execute_jobs_pooled,
    prepare_job,
    resolve_workers,
    run_job_serial,
)
from repro.parallel.spec import DriveSpec, EnsembleSpec

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridCell:
    """One completed grid cell."""

    family: str
    scenario: str
    h_max: float
    result: BatchSweepResult

    @property
    def key(self) -> tuple[str, str, float]:
        return (self.family, self.scenario, self.h_max)


def _plan_cells(
    families: Sequence[str],
    scenarios: Sequence[str],
    h_max_values: Sequence[float],
    n_cores: int,
    seed: int,
    driver_step: float | None,
    backend_name: str,
) -> list[tuple[tuple[str, str, float], EnsembleSpec, object, DriveSpec]]:
    """Lightweight ``(key, spec, source, drive)`` descriptor per cell.

    Only the driver-step hints are resolved eagerly (one per family —
    the same full-recipe resolution ``run_sharded`` performs); when a
    family's ensemble had to be built for its hint, it becomes that
    family's shard source directly, so neither the parent nor the
    workers construct it again.  The heavyweight per-cell work — full
    sample matrices, shared buffers — happens lazily, chunk by chunk.
    The spec rides along even when a built batch is the source: it is
    the stable recipe the service layer digests for cache keys.

    Every cell's spec is stamped with ``backend_name`` — the backend
    :func:`run_scenario_grid` resolved once at entry — so cells
    prepared later in the campaign cannot re-read a changed
    ``REPRO_BACKEND`` environment and split one grid across backends.
    """
    cells = []
    for family in families:
        spec = EnsembleSpec(
            family=family, n_cores=n_cores, seed=seed, backend=backend_name
        )
        source: object = spec
        step = driver_step
        if step is None:
            source = spec.build_batch()
            step = source.driver_step_hint()
        for scenario in scenarios:
            for h_max in h_max_values:
                drive = DriveSpec(
                    scenario=scenario,
                    h_max=float(h_max),
                    driver_step=float(step),
                )
                cells.append(
                    ((family, scenario, float(h_max)), spec, source, drive)
                )
    return cells


def _dedupe_cells(planned):
    """Collapse duplicate cell keys, preserving first-seen order.

    Returns ``(unique, order)`` where ``unique`` maps each key to its
    ``(spec, source, drive)`` descriptor and ``order`` is the original
    key sequence (duplicates included) for final result assembly.
    """
    unique: dict = {}
    order = []
    for key, spec, source, drive in planned:
        if key not in unique:
            unique[key] = (spec, source, drive)
        order.append(key)
    collapsed = len(order) - len(unique)
    if collapsed:
        _log.info(
            "run_scenario_grid collapsed %d duplicate cell(s): computing "
            "%d unique of %d requested",
            collapsed,
            len(unique),
            len(order),
        )
    return unique, order


def run_scenario_grid(
    families: Sequence[str],
    scenarios: Sequence[str],
    h_max_values: Sequence[float],
    n_cores: int,
    *,
    seed: int = 0,
    driver_step: float | None = None,
    backend: str | None = None,
    n_workers: int | None = None,
    min_shard: int = 1,
    chunk_cells: int = 8,
    mp_context: str | None = None,
    plan=None,
    service=None,
    chunk_lanes: int | None = None,
    hosts=None,
) -> list[GridCell]:
    """Run the full grid, sharded, through one worker pool.

    Parameters mirror :func:`repro.parallel.executor.run_sharded`;
    ``driver_step=None`` resolves one hint per family from its full
    registry ensemble (which is then sharded directly rather than
    rebuilt).  ``backend`` selects the array backend for every cell
    (``None``: the ``REPRO_BACKEND`` environment default) — resolved
    **once here at grid entry** and stamped into every cell's
    :class:`~repro.parallel.spec.EnsembleSpec`, so a mid-campaign
    environment change cannot split one grid across backends (cells
    are prepared lazily, chunk by chunk, long after this call starts).
    ``chunk_cells`` bounds how many cells hold live sample matrices
    and shared-memory buffers at once — large grids stream through the
    pool chunk by chunk instead of materialising every cell up front.

    Duplicate ``(family, scenario, h_max)`` combinations are collapsed
    before planning: each unique cell is computed once and every
    duplicate position in the returned list carries the same result.

    ``plan`` applies one calibrated execution plan to the whole grid
    (the one-campaign / one-configuration invariant above is why a grid
    takes a single plan, not one per cell): ``"auto"`` picks the shape
    minimising the summed predicted cost across every cell
    (:func:`repro.sched.planner.plan_grid`); an explicit
    :class:`~repro.sched.planner.ExecutionPlan` applies verbatim.  A
    plan owns the backend and pool-width axes, so it is mutually
    exclusive with ``backend`` / ``n_workers``, and it is clamped to
    this host exactly as in :func:`~repro.parallel.executor.run_sharded`.

    ``service`` routes the grid through a live
    :class:`~repro.service.api.HysteresisService`: unique cells are
    looked up in its content-addressed cache first, **only the misses**
    are planned (spin-up-free — the service's pool is already warm) and
    computed on the service's persistent pool, and fresh results are
    cached for the next campaign.  The service owns the pool, so
    ``n_workers`` / ``mp_context`` are mutually exclusive with it; and
    because the backend is part of the cache key (numpy's bitwise tier
    and numba's rtol tier must never cross-serve), ``plan="auto"``
    under a service prices only the width/thread axes — the backend
    pins to ``backend`` (or the environment default) before lookup.

    ``chunk_lanes`` streams every cell's shards in bounded lane blocks
    (:mod:`repro.parallel.blocks`) — bitwise-neutral; it bounds the bytes
    a consumer holds per block, not a worker's shard result.
    ``hosts`` dispatches the whole campaign across ``"host:port"``
    :mod:`repro.dist` worker agents instead of a local pool: unique
    cells flow through one shared dispatcher (its digest-keyed dedup
    table spans the campaign), ``n_workers`` names the per-cell shard
    count (default: one per host), and an unreachable fleet degrades
    to the local serial executor with a logged warning.

    Returns one :class:`GridCell` per combination, in
    ``families × scenarios × h_max_values`` order.
    """
    if not (families and scenarios and h_max_values):
        raise ParameterError(
            "run_scenario_grid needs at least one family, scenario and h_max"
        )
    if chunk_cells < 1:
        raise ParameterError(f"chunk_cells must be >= 1, got {chunk_cells}")
    if hosts is not None:
        if service is not None:
            raise ParameterError(
                "pass either hosts= or service=, not both: a remote fleet "
                "and a local service pool cannot share one campaign"
            )
        if mp_context is not None:
            raise ParameterError(
                "mp_context applies to the local one-shot pool; repro.dist "
                "workers already run in their own processes"
            )
        if plan is not None:
            raise ParameterError(
                "pass either hosts= or plan=, not both: multi-host "
                "placement plans route through run_sharded(plan=...)"
            )
        return _run_grid_distributed(
            families, scenarios, h_max_values, n_cores, seed, driver_step,
            backend, n_workers, min_shard, chunk_cells, chunk_lanes, hosts,
        )
    if service is not None:
        if n_workers is not None:
            raise ParameterError(
                "pass either service= or n_workers=, not both: the "
                "service's pool owns the pool width"
            )
        if mp_context is not None:
            raise ParameterError(
                "mp_context applies to the one-shot pool the grid creates; "
                "a service's pool already carries its start method"
            )
        return _run_grid_service(
            families, scenarios, h_max_values, n_cores, seed, driver_step,
            backend, min_shard, chunk_cells, plan, service, chunk_lanes,
        )
    threads = 1
    if plan is not None:
        if backend is not None or n_workers is not None:
            raise ParameterError(
                "pass either plan= or explicit backend=/n_workers=, not "
                "both: a plan owns those axes"
            )
        from repro.parallel.executor import available_cpus
        from repro.sched.planner import ExecutionPlan
        from repro.sched.planner import plan_grid as _plan_grid

        if isinstance(plan, ExecutionPlan):
            chosen = plan
        elif plan == "auto":
            # Workload cells for the planner: each cell's drive length,
            # estimated from a single-lane build of its scenario (row
            # counts depend on h_max and driver_step, not on the lane
            # count — planning never pays for full-width matrices).
            probe = _plan_cells(
                families, scenarios, h_max_values, n_cores, seed,
                driver_step, resolve_backend(None).name,
            )
            unique_probe, _ = _dedupe_cells(probe)
            workloads = [
                (key[0], n_cores, len(drive.full_samples(1)))
                for key, (_, _, drive) in unique_probe.items()
            ]
            chosen = _plan_grid(workloads, min_shard=min_shard)
        else:
            raise ParameterError(
                f"plan must be an ExecutionPlan or 'auto', got {plan!r}"
            )
        workers = resolve_workers(chosen.n_workers)
        threads = max(
            1, min(chosen.threads_per_worker, available_cpus() // workers)
        )
        backend_name = resolve_backend(chosen.backend).name
    else:
        workers = resolve_workers(n_workers)
        backend_name = resolve_backend(backend).name
    planned = _plan_cells(
        families, scenarios, h_max_values, n_cores, seed, driver_step,
        backend_name,
    )
    unique, order = _dedupe_cells(planned)

    results: dict = {}
    todo = list(unique.items())
    if workers == 1:
        for key, (_, source, drive) in todo:
            job = prepare_job(
                source, drive, workers, min_shard, threads,
                chunk_lanes=chunk_lanes,
            )
            results[key] = run_job_serial(job)
    else:
        ctx = get_context(mp_context)
        with ctx.Pool(processes=workers) as pool:
            for offset in range(0, len(todo), chunk_cells):
                chunk = todo[offset : offset + chunk_cells]
                jobs = [
                    prepare_job(
                        source, drive, workers, min_shard, threads,
                        chunk_lanes=chunk_lanes,
                    )
                    for _, (_, source, drive) in chunk
                ]
                for (key, _), result in zip(
                    chunk, execute_jobs_pooled(pool, jobs)
                ):
                    results[key] = result
    return [GridCell(*key, results[key]) for key in order]


def _run_grid_distributed(
    families,
    scenarios,
    h_max_values,
    n_cores,
    seed,
    driver_step,
    backend,
    n_workers,
    min_shard,
    chunk_cells,
    chunk_lanes,
    hosts,
):
    """The ``hosts=`` route: every unique cell through one shared
    :class:`~repro.dist.dispatch.Dispatcher`, chunked like the local
    pooled path so only ``chunk_cells`` cells hold output buffers at a
    time.  An unreachable fleet degrades to the local serial executor
    with a logged warning — the campaign always completes."""
    # Lazy upward import: repro.dist sits above this package in the
    # layer stack, and host-less grids never pay for (or depend on) it.
    from repro.dist.dispatch import Dispatcher

    backend_name = resolve_backend(backend).name
    planned = _plan_cells(
        families, scenarios, h_max_values, n_cores, seed, driver_step,
        backend_name,
    )
    unique, order = _dedupe_cells(planned)
    n_shards = len(hosts) if n_workers is None else n_workers

    def make_job(source, drive):
        return prepare_job(
            source, drive, n_shards, min_shard, chunk_lanes=chunk_lanes
        )

    results: dict = {}
    todo = list(unique.items())
    with Dispatcher(hosts) as dispatcher:
        if dispatcher.n_live == 0:
            _log.warning(
                "no repro.dist worker reachable at %s; running the grid "
                "on the local executor", ", ".join(hosts),
            )
            for key, (_, source, drive) in todo:
                results[key] = run_job_serial(make_job(source, drive))
        else:
            for offset in range(0, len(todo), chunk_cells):
                chunk = todo[offset : offset + chunk_cells]
                jobs = [
                    make_job(source, drive)
                    for _, (_, source, drive) in chunk
                ]
                for (key, _), result in zip(
                    chunk, dispatcher.run_jobs(jobs)
                ):
                    results[key] = result
    return [GridCell(*key, results[key]) for key in order]


def _run_grid_service(
    families,
    scenarios,
    h_max_values,
    n_cores,
    seed,
    driver_step,
    backend,
    min_shard,
    chunk_cells,
    plan,
    service,
    chunk_lanes=None,
):
    """The ``service=`` route: cache lookups, then misses on the warm
    pool.  The backend is resolved *before* planning — it is part of
    every cache key, so the planner may only choose width/threads."""
    backend_name = resolve_backend(backend).name
    planned = _plan_cells(
        families, scenarios, h_max_values, n_cores, seed, driver_step,
        backend_name,
    )
    unique, order = _dedupe_cells(planned)

    results: dict = {}
    pending = []
    for key, (spec, source, drive) in unique.items():
        digest = service.digest_for(spec, drive)
        hit = service.cache.get(digest)
        if hit is not None:
            results[key] = hit
        else:
            pending.append((key, digest, source, drive))
    if len(unique) - len(pending):
        _log.info(
            "run_scenario_grid served %d of %d unique cell(s) from cache",
            len(unique) - len(pending),
            len(unique),
        )

    threads = 1
    workers = service.pool.n_workers
    if plan is not None and pending:
        if backend is not None and plan != "auto":
            raise ParameterError(
                "pass either plan= or backend=, not both: an explicit "
                "plan owns the backend axis"
            )
        from repro.parallel.executor import available_cpus
        from repro.sched.planner import ExecutionPlan
        from repro.sched.planner import plan_grid as _plan_grid

        if isinstance(plan, ExecutionPlan):
            if resolve_backend(plan.backend).name != backend_name:
                raise ParameterError(
                    "a cached grid's backend is part of its cache keys: "
                    f"plan backend {plan.backend!r} conflicts with the "
                    f"grid backend {backend_name!r}"
                )
            chosen = plan
        elif plan == "auto":
            workloads = [
                (key[0], n_cores, len(drive.full_samples(1)))
                for key, _, _, drive in pending
            ]
            chosen = _plan_grid(
                workloads,
                min_shard=min_shard,
                warm_pool=True,
                backend=backend_name,
            )
        else:
            raise ParameterError(
                f"plan must be an ExecutionPlan or 'auto', got {plan!r}"
            )
        workers = min(resolve_workers(chosen.n_workers), workers)
        threads = max(
            1, min(chosen.threads_per_worker, available_cpus() // workers)
        )

    for offset in range(0, len(pending), chunk_cells):
        chunk = pending[offset : offset + chunk_cells]
        jobs = [
            prepare_job(
                source, drive, workers, min_shard, threads,
                chunk_lanes=chunk_lanes,
            )
            for _, _, source, drive in chunk
        ]
        for (key, digest, _, _), result in zip(
            chunk, service.pool.execute(jobs)
        ):
            # Hand the *frozen* cache entry onward so duplicates and
            # later campaigns all see the same read-only arrays.
            results[key] = service.cache.put(digest, result)
    return [GridCell(*key, results[key]) for key in order]
