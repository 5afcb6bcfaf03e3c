"""Benchmark command: host time of the library, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fabric_des --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
Host speed on a shared machine drifts by tens of percent over minutes,
so every end-to-end time is scaled to a reference speed: a fixed
pure-Python loop is timed before every set-up sample and unit and once
at the end, and host seconds are multiplied by ``REFERENCE_S`` over the
run's median loop time. At reference speed the scaled time equals the
host time.
``--trace 1`` alternates plain and traced units: traced units record
spans around the library's public calls, the per-layer metrics come from
those spans, and the tracing overhead is the traced minus the plain
median unit time. Spans are written to ``.perfbench_out/``.

Every unit's outputs are checked; any failed or wrong unit or job makes
``correct`` false and the exit code 1. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics, measured untraced on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
}

#: Per-layer metrics, measured in the traced mode. A layer a workload
#: never calls in the measuring process reads 0.
PER_LAYER = {
    "network.build_fabric_s": "s",
    "engine.run_s": "s",
    "engine.us_per_event": "us",
    "engine.events": "count",
    "fabricsim.summarize_s": "s",
    "fabricsim.other_s": "s",
    "mc.scenario_trace_s": "s",
    "mc.arrivals": "count",
    "engine.schedule_batch_s": "s",
    "engine.batch_inserted": "count",
    "workloads.search_s": "s",
    "workloads.memory_s": "s",
    "resilience.copies_per_request": "copies/request",
    "generator.make_dataset_s": "s",
    "generator.datasets_built": "count",
    "generator.distinct_ratio": "ratio",
    "frameworks.executor_run_s": "s",
    "workloads.analytic_runner_s": "s",
    "service.submit_ms": "ms",
    "service.queue_ms": "ms",
    "runner.execute_ms": "ms",
    "service.fetch_ms": "ms",
    "runner.cache_hits": "count",
    "runner.pool_spawns": "count",
    "service.coalesced": "count",
    "service.shed": "count",
    "runner.cache_hit_ratio": "ratio",
    "trace.overhead_s": "s",
}

OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: How many times set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Host seconds :func:`reference_loop` takes at the reference speed; it
#: took 0.09-0.12 s on the 2-vCPU Xeon VM the committed figures come from.
REFERENCE_S = 0.1
REFERENCE_ITERATIONS = 375_000


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop: the speed reference.

    Dict updates and lookups, integer arithmetic, string allocation and
    a sort, like the interpreter-bound work of the library itself.
    """
    started = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 4095] = i
        total += table.get((i * 7) & 4095, 0) % 13
    sorted(str(i * 7919 % 100_003) for i in range(REFERENCE_ITERATIONS // 4))
    return time.perf_counter() - started


def measure(workload, seconds: float, trace: bool, setup_repeats: int) -> dict:
    """Set up, then run units until ``seconds`` of unit time have passed.

    Untraced, the reference loop runs before every set-up sample and
    unit and once at the end. In the traced mode units alternate plain
    and traced, ending on a traced one, and there is no reference loop.
    Returns the outcomes, host seconds, loop times and the tracer.
    """
    from perfbench.tracing import Tracer, swapped

    setup, references = [], []
    for _ in range(0 if trace else setup_repeats):
        references.append(reference_loop())
        setup.append(workload.setup_sample())
    workload.start()
    tracer = Tracer()
    plain, traced_units = [], []
    raised = 0
    elapsed = 0.0
    index = 0
    while elapsed < seconds or (trace and index % 2 == 1):
        gc.collect()
        if not trace:
            references.append(reference_loop())
        is_traced = trace and index % 2 == 1
        tracer.unit = index
        mark = len(tracer.spans)
        started = time.perf_counter()
        try:
            if is_traced:
                with swapped(workload.targets(tracer)), tracer.span("unit"):
                    outcome = workload.unit(tracer)
            else:
                outcome = workload.unit(None)
        except Exception:
            # The run is already wrong; stop rather than time a broken
            # library again.
            print(f"perfbench: unit {index} raised:\n"
                  f"{traceback.format_exc(limit=3)}", file=sys.stderr)
            raised = 1
            break
        took = time.perf_counter() - started
        elapsed += took
        index += 1
        for problem in outcome.problems:
            print(f"perfbench: unit {index - 1}: {problem}", file=sys.stderr)
        if is_traced:
            spans = tracer.spans[mark:]
            layers = (
                workload.layer_values(spans, outcome)
                if not outcome.failed else {}
            )
            traced_units.append((outcome, took, layers))
        else:
            plain.append((outcome, took))
    if not trace:
        references.append(reference_loop())
    return {"setup": setup, "plain": plain, "traced": traced_units,
            "references": references, "raised": raised, "tracer": tracer}


def end_to_end(workload, run: dict) -> dict:
    scale = REFERENCE_S / statistics.median(run["references"])
    return {
        "setup_s": statistics.median(run["setup"]) * scale,
        "wall_s": statistics.median(t for _, t in run["plain"]) * scale,
        "peak_rss_mb": workload.peak_rss_mb(),
        "ops_per_s": statistics.median(
            o.ops / t for o, t in run["plain"]
        ) / scale,
    }


def per_layer(workload, run: dict) -> dict:
    rows = [layers for _, _, layers in run["traced"] if layers]
    values = {
        name: statistics.median(row.get(name, 0.0) for row in rows) if rows else 0.0
        for name in PER_LAYER
    }
    values.update(workload.run_layer_values())
    values["trace.overhead_s"] = (
        statistics.median(t for _, t, _ in run["traced"])
        - statistics.median(t for _, t in run["plain"])
    )
    return values


def print_layer_table(run: dict) -> None:
    from perfbench.tracing import unit_layers

    spans = run["tracer"].spans
    n_units = max(1, len(run["traced"]))
    unit_s = sum(t for _, t, _ in run["traced"]) / n_units
    print(f"per-layer host time, mean per traced unit ({n_units} units, "
          f"{unit_s:.4f} s each):")
    print(f"  {'span':34s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}")
    for name, row in sorted(unit_layers(spans).items(),
                            key=lambda item: -item[1]["self_s"]):
        print(f"  {name:34s} {row['calls'] / n_units:8.1f} "
              f"{row['total_s'] / n_units:10.4f} {row['self_s'] / n_units:10.4f} "
              f"{100 * row['self_s'] / n_units / unit_s:6.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="problem sizes; 'tiny' is for the self-test")
    parser.add_argument("--expected",
                        help="expected outputs to check against (default: "
                        "the committed perfbench/expected.json)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro is missing; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import EXPECTED_PATH, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(args.expected or EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    workload = WORKLOADS[args.workload](args.profile, args.seed, expected)
    try:
        run = measure(workload, args.seconds, bool(args.trace),
                      SETUP_REPEATS if args.profile == "full" else 1)
        units = PER_LAYER if args.trace else END_TO_END
        values = {}
        if run["plain"] and (run["traced"] or not args.trace):
            values = (per_layer if args.trace else end_to_end)(workload, run)
    finally:
        workload.close()

    outcomes = [o for o, _ in run["plain"]] + [o for o, _, _ in run["traced"]]
    attempted = sum(o.attempted for o in outcomes) + run["raised"]
    failed = sum(o.failed for o in outcomes) + run["raised"]
    print(f"workload {workload.name} (profile {args.profile}, seed "
          f"{args.seed}, input seed {workload.input_seed}): "
          f"{len(outcomes)} units; ops_per_s is {workload.op}")
    if args.trace and values:
        print_layer_table(run)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.jsonl")
        written = run["tracer"].write(path)
        print(f"wrote {written} spans to {os.path.relpath(path, ROOT)}")
    elif values:
        extra = workload.extra_metrics([o for o, _ in run["plain"]])
        extra["host_wall_s"] = (
            statistics.median(t for _, t in run["plain"]), "s (unscaled)"
        )
        extra["reference_loop_s"] = (
            statistics.median(run["references"]),
            f"s (median of {len(run['references'])}; scale = "
            f"{REFERENCE_S} s / this)",
        )
        for name, (value, unit) in extra.items():
            print(f"  {name:32s} {value} {unit}")
    print(f"  {'error_rate':32s} {failed / attempted:.6f} ratio "
          f"({failed} failed / {attempted} attempted)")
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
