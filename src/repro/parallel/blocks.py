"""Bounded lane-block streaming for shard execution.

A :class:`~repro.parallel.spec.ShardSpec` produces one
``(samples, width)`` result.  This module splits that result's lane
axis into contiguous **lane blocks** for the trip to whoever consumes
it: the shard runs **once** (the fused kernel's per-sample cost is
paid once, not once per block), and each block carries contiguous
copies of its own columns and the matching slice of the per-lane
counters.  Concatenating the blocks back in lane order is the same
column concatenation the sharded executor already relies on, so
chunked execution is **bitwise identical** to the unchunked shard run.

``chunk_lanes`` therefore bounds what crosses a boundary at once — the
bytes on the wire and the consumer's resident result buffers — while
the shard width (chosen by :func:`repro.parallel.plan.plan_shards`)
bounds the executing process's compute and memory: a worker holds its
whole shard result while it streams, exactly as an unchunked run does.

One code path serves both transports: the local executor's serial and
pooled paths iterate the same :func:`iter_shard_blocks` generator the
:mod:`repro.dist` workers stream over sockets, and
:class:`BlockBudget` gives any consumer a hard ceiling on resident
result-buffer bytes (with a high-water mark for the tests to pin).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.batch.sweep import BatchSweepResult, run_batch_series
from repro.errors import ParameterError
from repro.parallel.spec import ShardSpec


@dataclass(frozen=True)
class LaneBlock:
    """One streamed slice of a shard's result: absolute lanes
    ``[start, stop)`` of the full ensemble.

    Arrays are per-sample columns for exactly this lane range;
    ``counters`` are the tiny per-lane ``(width,)`` slices of the shard
    run's counters for the same lanes.  Blocks are self-describing
    (absolute lane range plus payload), so writing one into a
    full-width output buffer is idempotent — a re-dispatched shard may
    rewrite its blocks after a worker death without corrupting
    anything.
    """

    start: int
    stop: int
    m: np.ndarray
    b: np.ndarray
    updated: np.ndarray
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    counters: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def width(self) -> int:
        return self.stop - self.start

    @property
    def nbytes(self) -> int:
        """Resident result-buffer bytes this block holds."""
        total = self.m.nbytes + self.b.nbytes + self.updated.nbytes
        total += sum(arr.nbytes for arr in self.extras.values())
        total += sum(np.asarray(arr).nbytes for arr in self.counters.values())
        return total


def plan_lane_blocks(
    start: int, stop: int, chunk_lanes: int | None
) -> list[tuple[int, int]]:
    """Contiguous absolute lane ranges covering ``[start, stop)``, each
    at most ``chunk_lanes`` wide (``None``: one block, the whole range).

    Blocks tile the range in lane order with the remainder on the final
    block, so the plan is a pure function of ``(start, stop,
    chunk_lanes)`` — both sides of a socket derive the identical block
    sequence without negotiating it.
    """
    if stop <= start:
        raise ParameterError(
            f"lane range [{start}, {stop}) is empty; nothing to block"
        )
    if chunk_lanes is None:
        return [(start, stop)]
    if chunk_lanes < 1:
        raise ParameterError(
            f"chunk_lanes must be >= 1, got {chunk_lanes}"
        )
    return [
        (a, min(a + chunk_lanes, stop))
        for a in range(start, stop, chunk_lanes)
    ]


def run_spec(spec: ShardSpec) -> BatchSweepResult:
    """One shard, in whatever process this runs in — with the spec's
    lane-thread count pinned for exactly the duration of the run, so a
    plan's thread choice never leaks into unrelated work (and pooled
    shards, which always carry ``threads=1``, explicitly pin the
    children single-threaded rather than trusting ambient state).

    ``chunk_lanes`` plays no part here: it shapes how a result is
    streamed (:func:`iter_shard_blocks`), never what is computed.
    """
    from repro.backend import thread_limit

    with thread_limit(spec.threads):
        return run_batch_series(spec.build_batch(), spec.build_samples())


def iter_shard_blocks(spec: ShardSpec):
    """Yield a shard's result as :class:`LaneBlock`\\ s in lane order.

    The shard runs once through :func:`run_spec`; each
    :func:`plan_lane_blocks` range is then yielded as a block owning
    contiguous copies of exactly its own columns (``m``, ``b``,
    ``updated``, every extras channel) and the ``[start, stop)`` slice
    of each per-lane counter, so a block's ``nbytes`` and its pickled
    size stay per-block however wide the shard is.  The whole shard
    result stays resident in this process until the generator is
    exhausted.  The ``thread_limit`` of the run never spans a
    ``yield``, so consumer code between blocks runs under ambient
    threading.
    """
    part = run_spec(spec)
    bounds = plan_lane_blocks(spec.start, spec.stop, spec.chunk_lanes)
    if len(bounds) == 1:
        # One block is the whole run: hand its buffers over uncopied.
        yield LaneBlock(
            start=spec.start,
            stop=spec.stop,
            m=part.m,
            b=part.b,
            updated=part.updated,
            extras=part.extras,
            counters=part.counters,
        )
        return
    for a, b in bounds:
        ra, rb = a - spec.start, b - spec.start
        yield LaneBlock(
            start=a,
            stop=b,
            m=part.m[:, ra:rb].copy(),
            b=part.b[:, ra:rb].copy(),
            updated=part.updated[:, ra:rb].copy(),
            extras={k: v[:, ra:rb].copy() for k, v in part.extras.items()},
            counters={k: v[ra:rb].copy() for k, v in part.counters.items()},
        )


def merge_shard_counters(
    shard_counters: "list[dict[str, np.ndarray]]",
    widths: "list[int]",
) -> dict[str, np.ndarray]:
    """Concatenate per-shard counter dicts over the union of keys.

    A key a shard never registered (lazily appearing counters may fire
    on some lanes only) fills with zeros of that shard's width — the
    same value the full-width model would report for lanes that never
    triggered it.
    """
    keys: dict[str, np.dtype] = {}
    for counters in shard_counters:
        for key, value in counters.items():
            keys.setdefault(key, np.asarray(value).dtype)
    return {
        key: np.concatenate(
            [
                np.asarray(counters.get(key, np.zeros(width, dtype=dtype)))
                for counters, width in zip(shard_counters, widths)
            ]
        )
        for key, dtype in sorted(keys.items())
    }


class BlockBudget:
    """A hard ceiling on in-flight result-buffer bytes, with a
    high-water mark.

    Consumers ``acquire(nbytes)`` before holding a block and
    ``release(nbytes)`` once its payload has landed in the output
    buffers; acquire blocks (back-pressure, not failure) until enough
    in-flight bytes drain.  A single block larger than the ceiling is a
    configuration error — admitting it would make the ceiling a lie —
    so it raises instead of deadlocking.  ``peak`` records the largest
    in-flight total ever admitted, the number the bounded-memory tests
    pin below the configured ceiling.
    """

    def __init__(self, ceiling_bytes: int | None = None) -> None:
        if ceiling_bytes is not None and ceiling_bytes < 1:
            raise ParameterError(
                f"ceiling_bytes must be >= 1, got {ceiling_bytes}"
            )
        self.ceiling_bytes = ceiling_bytes
        self._in_flight = 0
        self._peak = 0
        self._cond = threading.Condition()

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    @property
    def peak(self) -> int:
        with self._cond:
            return self._peak

    def acquire(self, nbytes: int) -> None:
        if self.ceiling_bytes is not None and nbytes > self.ceiling_bytes:
            raise ParameterError(
                f"one {nbytes}-byte block exceeds the "
                f"{self.ceiling_bytes}-byte result-buffer ceiling; "
                "lower chunk_lanes or raise the ceiling"
            )
        with self._cond:
            if self.ceiling_bytes is not None:
                self._cond.wait_for(
                    lambda: self._in_flight + nbytes <= self.ceiling_bytes
                )
            self._in_flight += nbytes
            self._peak = max(self._peak, self._in_flight)

    def release(self, nbytes: int) -> None:
        with self._cond:
            self._in_flight = max(0, self._in_flight - nbytes)
            self._cond.notify_all()
