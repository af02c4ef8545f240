"""The repository benchmark: two closed-loop workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs half the time untraced and half with spans around
every layer call, and reports the per-layer metrics (spans are written
to ``.perfbench/spans-<workload>-<seed>.jsonl``).  Every delivered
result is checked bitwise against an in-process ``run_batch_series``
recomputation, and the counts the request stream fixes by design are
checked exactly; any mismatch makes the command exit 1.  Human-readable
lines come first; the last stdout line is one JSON object.

Set-up time is the median of ``SETUP_RUNS`` set-ups, each measured in
a fresh process from interpreter start-up to readiness: this process's
own, then ``SETUP_RUNS - 1`` probes started after the measured phase.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time starts before any import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_RUNS = 3
CLASSES = ("hit", "spill", "miss")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> "int | None":
    """The highest whole percentile with at least ten samples beyond."""
    if n < 20:
        return None
    return int(math.floor(100.0 * (1.0 - 10.0 / n)))


def describe(label: str, seconds: list) -> str:
    """One report line: median, tail percentile and sample count."""
    ms = [s * 1e3 for s in seconds]
    tail = tail_percentile(len(ms))
    tail_text = f"p{tail} {percentile(ms, tail):.3f} ms" if tail else "no tail"
    return (
        f"  {label:<12} n={len(ms):<5} p50 {percentile(ms, 50):.3f} ms  "
        f"{tail_text}"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up, report the set-up time and exit",
    )
    return parser.parse_args(argv)


def probe_setups(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, one after another."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [
                sys.executable, __file__, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--setup-probe",
            ],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker: the helper
    process that the first shared-memory segment starts.  Nothing
    waits for it otherwise, so it would be left behind, unreaped,
    when this process exits."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def verify(workload, outcomes, expected, rec=None) -> int:
    """Recompute every distinct delivered key in process and compare
    bitwise; returns the number of mismatching deliveries."""
    from workloads import result_hash

    failed = 0
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        key = outcome.request.key
        if key not in expected:
            expected[key] = tuple(
                result_hash(r) for r in workload.reference(key, rec)
            )
        if outcome.hashes != expected[key]:
            failed += 1
            print(f"  MISMATCH request {outcome.request.index} key {key}")
    return failed


def latency_metrics(outcomes, reuse: bool) -> dict:
    """Percentiles per stream class, plus ``latency_*`` over the
    requests that wait on a computation: every request where nothing is
    reused, the miss class where the system reuses results."""
    by_class = {
        name: [o.latency for o in outcomes if o.request.latency_class == name]
        for name in CLASSES
    }
    every = [
        o.latency for o in outcomes
        if not reuse or o.request.latency_class == "miss"
    ]
    print("latency (untraced, whole timed phase):")
    print(describe("computed", every))
    for name in CLASSES:
        print(describe(name, by_class[name]))
    ms = lambda values, q: percentile(values, q) * 1e3  # noqa: E731
    return {
        "latency_p50_ms": ms(every, 50),
        "latency_p90_ms": ms(every, 90),
        "hit_p50_ms": ms(by_class["hit"], 50),
        "spill_p50_ms": ms(by_class["spill"], 50),
        "miss_p50_ms": ms(by_class["miss"], 50),
        "miss_p90_ms": ms(by_class["miss"], 90),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the repository root; src/repro not found",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    # Worker agents are separate interpreters; they find the library
    # the same way.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )
    import layers
    from workloads import WORKLOADS, children_peak_rss_mib, stream_for

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        stream = stream_for(workload)
        if args.trace:
            result = layers.traced_run(workload, stream, args.seconds)
        else:
            result = untraced_run(workload, stream, args)
    finally:
        try:
            workload.close()
        finally:
            stop_resource_tracker()
    result["children_rss"] = children_peak_rss_mib()

    expected = result.pop("expected")
    failed = result["failed"] + verify(
        workload, result["outcomes"], expected, result.get("rec")
    )
    failed += len(result["checks"])
    for problem in result["checks"]:
        print(f"  DESIGN CHECK FAILED {problem}")
    attempted = len(result["outcomes"])
    metrics = (
        layers.per_layer(workload, result, expected, failed / attempted)
        if args.trace
        else end_to_end(
            workload, result, setup_s, probe_setups(args, SETUP_RUNS - 1)
        )
    )
    print(f"{args.workload}: attempted {attempted}, failed {failed}, "
          f"error_rate {failed / attempted:.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def untraced_run(workload, stream, args) -> dict:
    before = workload.stats()
    outcomes = workload.run(args.seconds, stream)
    checks = workload.design_checks(outcomes, before, workload.stats())
    return {
        "outcomes": outcomes,
        "checks": checks,
        "failed": sum(o.error is not None for o in outcomes),
        "expected": {},
    }


def end_to_end(workload, result, setup_s: float, probes: list) -> dict:
    from workloads import self_peak_rss_mib

    ok = [o for o in result["outcomes"] if o.error is None]
    timed_s = max(o.end for o in ok) - min(o.end - o.latency for o in ok)
    setups = [setup_s] + probes
    print("set-up (s): " + ", ".join(f"{s:.3f}" for s in setups))
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "lane_steps_per_s": (sum(o.lane_steps for o in ok) / timed_s, "1/s"),
    }
    for name, value in latency_metrics(ok, workload.reuses).items():
        values[name] = (value, "ms")
    values["peak_rss_mib"] = (self_peak_rss_mib(), "MiB")
    print(f"children peak RSS: {result['children_rss']:.1f} MiB")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
