"""The traced run and the per-layer metrics it reports.

Half of ``--seconds`` runs untraced (the baseline for the tracing
overhead), the other half with spans (:mod:`spans`) around every call
the workload makes into a layer.  Per-layer metrics are medians of span
durations, self times (a span's duration minus its children's), exact
computed counts, and cache-stat deltas.  A metric of a layer that the
workload's path does not run reads 0.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from spans import Recorder
from workloads import FAMILIES

#: name -> unit, in report order.
PER_LAYER = {
    "models.identify_s": "s",
    "models.build_ms": "ms",
    "scenarios.drive_ms": "ms",
    "batch.series_ms": "ms",
    **{f"batch.ns_per_lane_step.{f}": "ns" for f in FAMILIES},
    "batch.lane_steps": "count",
    "batch.result_bytes": "bytes",
    "service.digest_us": "us",
    "service.cache_get_us": "us",
    "service.spill_load_ms": "ms",
    "parallel.prepare_ms": "ms",
    "service.pool_execute_ms": "ms",
    "service.spill_save_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.hit_ratio": "ratio",
    "service.disk_hit_ratio": "ratio",
    "service.coalesced": "count",
    "dist.connect_ms": "ms",
    "dist.run_jobs_ms": "ms",
    "dist.ms_per_block": "ms",
    "dist.peak_buffer_bytes": "bytes",
    "dist.blocks": "count",
    "dist.wire_bytes": "bytes",
    "dist.local_ms": "ms",
    "dist.overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
    "children_peak_rss_mib": "MiB",
    "error_rate": "ratio",
}


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def traced_run(workload, stream, seconds: float) -> dict:
    half = seconds / 2
    before = workload.stats()
    baseline = workload.run(half, stream)
    mid = workload.stats()
    rec = Recorder()
    expected: dict = {}
    traced = workload.run_traced(half, stream, rec, expected)
    after = workload.stats()
    outcomes = baseline + traced
    return {
        "outcomes": outcomes,
        "baseline": baseline,
        "traced": traced,
        "checks": workload.design_checks(outcomes, before, after),
        "failed": sum(o.error is not None for o in outcomes),
        "expected": expected,
        "rec": rec,
        "stats": (mid, after),
    }


def _overhead_latencies(workload, outcomes):
    """The latencies the overhead ratio compares: misses on the
    service (hits are dominated by thread hand-offs), all requests on
    the fleet."""
    ok = [o for o in outcomes if o.error is None]
    if workload.name == "service-mix":
        ok = [o for o in ok if o.request.latency_class == "miss"]
    return [o.latency for o in ok]


def per_layer(workload, result, expected, error_rate) -> dict:
    rec: Recorder = result["rec"]
    spans = rec.by_name()
    own = rec.self_ns()
    traced = [o for o in result["traced"] if o.error is None]
    # The stream's first request: its counts are fixed by the seed.
    first = result["outcomes"][0]
    by_request: dict = {}
    for span in rec.spans:
        if span.request is not None:
            by_request.setdefault(span.request, []).append(span)

    def durations(name, scale=1e-6):  # ns -> ms by default
        return [s.ns * scale for s in spans.get(name, [])]

    series = [s for f in FAMILIES for s in spans.get(f"batch.series.{f}", [])]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({
        "models.identify_s": workload.identify_s,
        "models.build_ms": _median(durations("models.build")),
        "scenarios.drive_ms": _median(durations("scenarios.drive")),
        "batch.series_ms": _median([s.ns * 1e-6 for s in series]),
        "batch.lane_steps": first.lane_steps,
        "batch.result_bytes": first.nbytes,
        "parallel.prepare_ms": _median(durations("parallel.prepare")),
        "children_peak_rss_mib": result["children_rss"],
        "error_rate": error_rate,
    })
    for family in FAMILIES:
        steps = rec.counts.get(f"lane_steps.{family}", 0)
        if steps:
            values[f"batch.ns_per_lane_step.{family}"] = (
                sum(durations(f"batch.series.{family}", 1.0)) / steps
            )

    if workload.name == "service-mix":
        classes = {o.request.index: o.request.latency_class for o in traced}
        mid, after = result["stats"]
        delta = {k: after[k] - mid[k] for k in after}
        lookups = delta["hits"] + delta["misses"]
        values.update({
            "service.digest_us": _median(durations("service.digest", 1e-3)),
            "service.cache_get_us": _median([
                own[s.id] * 1e-3
                for s in spans.get("service.cache_get", [])
                if classes.get(s.request) == "hit"
            ]),
            "service.spill_load_ms": _median(durations("service.spill_load")),
            "service.pool_execute_ms": _median(
                durations("service.pool_execute")
            ),
            "service.spill_save_ms": _median(durations("service.spill_save")),
            "service.queue_wait_ms": _median([
                (o.latency - _covered(by_request.get(o.request.index, [])))
                * 1e3
                for o in traced
                if o.request.latency_class == "miss"
            ]),
            "service.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "service.disk_hit_ratio": (
                delta["disk_hits"] / delta["hits"] if delta["hits"] else 0.0
            ),
            "service.coalesced": delta["misses"] - delta["computed"],
        })

    if workload.name == "fleet-dispatch":
        connect = _median(durations("dist.connect"))
        run_jobs = _median(durations("dist.run_jobs"))
        local = _median(durations("dist.local"))
        values.update({
            "dist.connect_ms": connect,
            "dist.run_jobs_ms": run_jobs,
            "dist.ms_per_block": run_jobs / workload.blocks,
            "dist.peak_buffer_bytes": workload.peak_buffer,
            "dist.blocks": workload.blocks,
            "dist.wire_bytes": first.nbytes,
            "dist.local_ms": local,
            "dist.overhead_ratio": (connect + run_jobs) / local,
        })

    base = _overhead_latencies(workload, result["baseline"])
    with_spans = _overhead_latencies(workload, traced)
    if base and with_spans:
        values["trace.overhead_ratio"] = (
            statistics.median(with_spans) / statistics.median(base)
        )
    values["trace.unattributed_share"] = _account(rec, traced, own)

    path = Path(workload.out_dir) / f"spans-{workload.name}-{workload.seed}.jsonl"
    rec.dump(path)
    print(f"spans written to {path}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def _covered(spans) -> float:
    """Seconds a request spent inside its own top-level spans."""
    return sum(s.ns for s in spans if s.parent is None) * 1e-9


def _account(rec: Recorder, traced, own) -> float:
    """Print where the traced requests' time went, layer by layer, and
    return the unattributed share.

    Each request's time is its latency plus its in-process replay.  Its
    spans' self times add up to the part attributed to layers; the rest
    (client loop, hashing, thread hand-offs, waiting on the pool or a
    coalesced peer) is the unattributed remainder, so the table sums to
    the total by construction."""
    indices = {o.request.index for o in traced}
    total_ns = sum(o.latency + o.replay for o in traced) * 1e9
    per_layer: dict = {}
    for span in rec.spans:
        if span.request in indices:
            per_layer[span.name] = per_layer.get(span.name, 0) + own[span.id]
    attributed = sum(per_layer.values())
    remainder = total_ns - attributed
    print(f"traced requests: {len(traced)}, time {total_ns * 1e-6:.1f} ms")
    print(f"  {'layer (self time)':<28} {'ms':>10} {'share':>7}")
    for name, ns in sorted(per_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<28} {ns * 1e-6:>10.1f} {ns / total_ns:>7.1%}")
    print(f"  {'unattributed':<28} {remainder * 1e-6:>10.1f} "
          f"{remainder / total_ns:>7.1%}")
    return remainder / total_ns if total_ns else 0.0
