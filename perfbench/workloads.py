"""The benchmark's four workloads.

Each workload drives the library through its public calls and is
measured in repeated identical *units*. Why each workload exists, and
which layer it isolates or bypasses, is written down in
``perfbench/README.md``; the short form is in each class docstring.

All host-time numbers are host seconds. Simulated statistics (virtual
latencies, availabilities) are outputs to check, never metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from perfbench.tracing import Tracer, count, traced, unit_layers

#: ``--seed`` picks one of this many committed input seeds,
#: so every run's outputs can be checked against committed values.
N_INPUT_SEEDS = 16

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED_PATH = os.path.join(ROOT, "perfbench", "expected.json")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")


@dataclass
class UnitOutcome:
    """What one unit did: operations attempted and failed, work done."""

    attempted: int = 1
    failed: int = 0
    ops: float = 0.0
    problems: List[str] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)


def digest(value: Any) -> str:
    """SHA-256 of the sorted-key JSON form of ``value``."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _count_events(record, args, _result) -> None:
    count(record, "events", args[0].events_processed)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[max(1, rank) - 1]


class Workload:
    """One measured workload, run in repeated identical units."""

    name = ""
    #: What ``ops_per_s`` counts on this workload, as a metric name.
    op = ""

    def __init__(self, profile: str, seed: int,
                 expected: Optional[Dict[str, Any]] = None) -> None:
        self.profile = profile
        self.seed = seed
        self.input_seed = seed % N_INPUT_SEEDS
        self.expected = expected

    def setup_sample(self) -> float:
        """Host seconds of one complete set-up, undone afterwards."""
        raise NotImplementedError

    def start(self) -> None:
        """Set up for the units that follow (untimed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever set-up acquired."""

    def unit(self, tracer: Optional[Tracer]) -> UnitOutcome:
        """Run one unit; ``tracer`` is given in the traced mode only."""
        raise NotImplementedError

    def targets(self, tracer: Tracer) -> List[tuple]:
        """``(owner, attribute, replacement)`` swaps for the traced mode."""
        return []

    def layer_values(self, spans: List[Dict[str, Any]],
                     outcome: UnitOutcome) -> Dict[str, float]:
        """Per-layer metrics of one traced unit."""
        raise NotImplementedError

    def run_layer_values(self) -> Dict[str, float]:
        """Per-layer metrics that exist once per run (server counters)."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak resident set of the process doing the work, in MiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extra_metrics(self, outcomes: List[UnitOutcome]) -> Dict[str, tuple]:
        """Workload-specific figures for the printed table: name -> (value, unit)."""
        return {}


class InProcess(Workload):
    """A workload that calls the library in the measuring process.

    A set-up sample is a fresh interpreter that imports the library and
    computes the tiny profile once, which pays every first-call cost;
    :meth:`start` does the same in the measuring process.
    """

    #: Name of the span around the library call in the traced mode.
    root_span = ""

    def setup_sample(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
        ))
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "perfbench.probe", self.name,
             str(self.seed)],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
        return time.perf_counter() - started

    def start(self):
        type(self)("tiny", self.seed).compute()

    def compute(self) -> Any:
        """The library call one unit makes."""
        raise NotImplementedError

    def check(self, result: Any) -> UnitOutcome:
        """Compare ``result`` with the committed expected values."""
        raise NotImplementedError

    def unit(self, tracer):
        with tracer.span(self.root_span) if tracer else nullcontext():
            result = self.compute()
        return self.check(result)

    def expect(self, key: str) -> Any:
        table = (self.expected or {}).get(self.name, {}).get(self.profile, {})
        if key not in table:
            raise KeyError(
                f"no committed expected value for {self.name}/"
                f"{self.profile}/{key}; run perfbench/record_expected.py"
            )
        return table[key]


class FabricDes(InProcess):
    """``simulate_fabric`` on a k=16 fat tree, all requests pending at t=0.

    Stresses the DES calendar (``Simulator._push`` / ``insort``) and the
    per-event dispatch of the fabric transport callbacks.
    """

    name = "fabric_des"
    op = "events_per_s"
    root_span = "fabricsim.simulate_fabric"
    SIZES = {"full": (16, 30_000), "tiny": (4, 300)}

    def compute(self):
        from repro.workloads import fabricsim

        k, n_requests = self.SIZES[self.profile]
        return fabricsim.simulate_fabric(fabricsim.FabricWorkload(
            k=k, n_requests=n_requests, seed=self.input_seed
        ))

    @staticmethod
    def expected_value(result) -> Dict[str, Any]:
        return {"metrics": result.metrics,
                "events": result.diagnostics["events_processed"]}

    def check(self, result):
        got = self.expected_value(result)
        want = self.expect(str(self.input_seed))
        problems = []
        if got["metrics"] != want["metrics"]:
            problems.append(
                f"fabric metrics differ: trace_sha256 "
                f"{got['metrics'].get('trace_sha256')} != "
                f"{want['metrics'].get('trace_sha256')}"
            )
        if got["events"] != want["events"]:
            problems.append(
                f"events_processed {got['events']} != {want['events']}"
            )
        return UnitOutcome(failed=int(bool(problems)), ops=got["events"],
                           problems=problems)

    def targets(self, tracer):
        from repro.engine.sim import Simulator
        from repro.workloads import fabricsim

        return [
            (fabricsim, "build_fabric",
             traced(tracer, fabricsim.build_fabric, "network.build_fabric")),
            (fabricsim, "summarize",
             traced(tracer, fabricsim.summarize, "fabricsim.summarize")),
            (Simulator, "run",
             traced(tracer, Simulator.run, "engine.run", _count_events)),
        ]

    def layer_values(self, spans, outcome):
        layers = unit_layers(spans)
        run = layers["engine.run"]
        return {
            "network.build_fabric_s": layers["network.build_fabric"]["total_s"],
            "engine.run_s": run["total_s"],
            "engine.events": run["events"],
            "engine.us_per_event": run["total_s"] / run["events"] * 1e6,
            "fabricsim.summarize_s": layers["fabricsim.summarize"]["total_s"],
            "fabricsim.other_s": layers[self.root_span]["self_s"],
        }


class ChaosLoad(InProcess):
    """X17 ``chaos_load_exhibit`` at its default config.

    The same engine used differently: batch arrival generation in
    ``repro.mc.traffic``, ``schedule_batch`` bulk injection, generator
    processes, ``Resource`` queues, hedging and faults.
    """

    name = "chaos_load"
    op = "requests_per_s"
    root_span = "workloads.chaos_load_exhibit"
    SIZES = {
        "full": {},
        "tiny": {"search_horizon_s": 0.2, "memory_horizon_s": 0.2},
    }

    def compute(self):
        from repro.workloads import scenario

        return scenario.chaos_load_exhibit(
            seed=self.input_seed, **self.SIZES[self.profile]
        )

    expected_value = staticmethod(digest)

    def check(self, metrics):
        problems = []
        got, want = digest(metrics), self.expect(str(self.input_seed))
        if got != want:
            problems.append(f"chaos_load metrics digest {got} != {want}")
        requests = sum(
            value for key, value in metrics.items()
            if key.endswith(".n_requests") or key.endswith(".n_reads")
        )
        return UnitOutcome(failed=int(bool(problems)), ops=requests,
                           problems=problems, detail={"metrics": metrics})

    def targets(self, tracer):
        from repro.engine.sim import Simulator
        from repro.workloads import scenario

        def arrivals(record, _args, result):
            count(record, "arrivals", len(result["times_s"]))

        def inserted(record, _args, result):
            count(record, "inserted", result)

        return [
            (scenario, "run_search_load",
             traced(tracer, scenario.run_search_load, "workloads.search")),
            (scenario, "run_memory_load",
             traced(tracer, scenario.run_memory_load, "workloads.memory")),
            (scenario, "scenario_trace",
             traced(tracer, scenario.scenario_trace, "mc.scenario_trace",
                    arrivals)),
            (Simulator, "schedule_batch",
             traced(tracer, Simulator.schedule_batch, "engine.schedule_batch",
                    inserted)),
            (Simulator, "run",
             traced(tracer, Simulator.run, "engine.run", _count_events)),
        ]

    def layer_values(self, spans, outcome):
        layers = unit_layers(spans)
        metrics = outcome.detail["metrics"]
        requests = copies = 0.0
        for key, value in metrics.items():
            if key.startswith("search.") and key.endswith(".n_requests"):
                requests += value
                copies += value * metrics[
                    key[: -len("n_requests")] + "copies_per_request"
                ]
        run = layers["engine.run"]
        return {
            "mc.scenario_trace_s": layers["mc.scenario_trace"]["total_s"],
            "mc.arrivals": layers["mc.scenario_trace"]["arrivals"],
            "engine.schedule_batch_s": layers["engine.schedule_batch"]["total_s"],
            "engine.batch_inserted": layers["engine.schedule_batch"]["inserted"],
            "engine.run_s": run["total_s"],
            "engine.events": run["events"],
            "engine.us_per_event": run["total_s"] / run["events"] * 1e6,
            "workloads.search_s": layers["workloads.search"]["total_s"],
            "workloads.memory_s": layers["workloads.memory"]["total_s"],
            "resilience.copies_per_request": copies / requests,
        }


class SuiteE12(InProcess):
    """The E12 R9 suite: ``compare_architectures`` over four architectures.

    Stresses ``workloads.generator`` and ``frameworks``; never touches
    the DES calendar, the runner or the service. The suite's datasets
    are fixed by the library, so ``--seed`` does not change this input.
    """

    name = "suite_e12"
    op = "suite_runs_per_s"
    root_span = "workloads.run_e12"
    SIZES = {"full": 2, "tiny": 1}

    def compute(self):
        from repro.runner import entrypoints

        return entrypoints.run_e12(
            {"scale": self.SIZES[self.profile]}, 0
        ).metrics

    expected_value = staticmethod(digest)

    def check(self, metrics):
        problems = []
        got, want = digest(metrics), self.expect("all")
        if got != want:
            problems.append(f"suite_e12 metrics digest {got} != {want}")
        runs = sum(1 for key in metrics if key.startswith("sim_time_s."))
        return UnitOutcome(failed=int(bool(problems)), ops=runs,
                           problems=problems)

    def targets(self, tracer):
        from repro.frameworks.batch import BatchExecutor
        from repro.workloads import suite

        def dataset_digest(record, _args, result):
            record["digest"] = hashlib.sha256(
                pickle.dumps(result.partitions, protocol=4)
            ).hexdigest()

        original = suite.standard_suite

        def standard_suite():
            return [
                replace(definition, make_dataset=traced(
                    tracer, definition.make_dataset,
                    "generator.make_dataset", dataset_digest,
                )) if definition.runner is None else replace(
                    definition, runner=traced(
                        tracer, definition.runner, "workloads.analytic_runner"
                    ),
                )
                for definition in original()
            ]

        return [
            (suite, "standard_suite", standard_suite),
            (BatchExecutor, "run",
             traced(tracer, BatchExecutor.run, "frameworks.executor_run")),
        ]

    def layer_values(self, spans, outcome):
        layers = unit_layers(spans)
        datasets = [s for s in spans if s["name"] == "generator.make_dataset"]
        return {
            "generator.make_dataset_s": layers["generator.make_dataset"]["total_s"],
            "generator.datasets_built": len(datasets),
            "generator.distinct_ratio": (
                len({s["digest"] for s in datasets}) / len(datasets)
            ),
            "frameworks.executor_run_s": layers["frameworks.executor_run"]["total_s"],
            "workloads.analytic_runner_s": (
                layers["workloads.analytic_runner"]["total_s"]
            ),
        }


class ServiceJobs(Workload):
    """One closed-loop client against ``python -m repro serve --jobs 1``.

    Jobs are 2-shard ``--quick`` grids of E1; three fresh jobs (cache
    miss) to one repeat of an earlier job (cache hit). The only workload
    where the service and runner layers dominate.
    """

    name = "service_jobs"
    op = "jobs_per_s"
    EXHIBIT = "E1"
    ROUNDS = {"full": 10, "tiny": 1}
    FRESH_PER_ROUND = 3
    SEEDS_PER_JOB = 2
    #: Bound on each HTTP round trip and event-stream read, in seconds.
    TIMEOUT_S = 20.0

    def __init__(self, profile, seed, expected=None) -> None:
        super().__init__(profile, seed, expected)
        self.overrides: Optional[Dict[str, Any]] = None
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self.cache_dir: Optional[str] = None
        self.rng = random.Random(seed)
        # Job seeds are disjoint between ``--seed`` values; the first pair
        # goes to the warm-up job.
        self.next_seed = self.SEEDS_PER_JOB * 100_000 * (seed % 10_000)
        self.originals: List[tuple] = []
        self.repeats = 0
        self.rss_mb = 0.0

    def setup_sample(self):
        started = time.perf_counter()
        self.start()
        took = time.perf_counter() - started
        self.close()
        return took

    def start(self) -> None:
        """Start a server on a fresh cache directory, run one warm-up job."""
        from repro.client import ServiceClient

        os.makedirs(TMP_DIR, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="service-", dir=TMP_DIR)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", self.cache_dir],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        ready = json.loads(self.proc.stdout.readline() or "{}")
        if ready.get("event") != "ready":
            self.close()
            raise RuntimeError("repro serve did not report ready")
        self.client = ServiceClient(ready["url"], timeout_s=self.TIMEOUT_S,
                                    client_id="perfbench", retry_policy=None)
        outcome = self._job(self._fresh_seeds(), None)
        if outcome["problems"]:
            raise RuntimeError(f"warm-up job failed: {outcome['problems']}")

    def close(self) -> None:
        proc, self.proc = self.proc, None
        if proc is not None:
            try:
                if proc.poll() is None and self.client is not None:
                    self.rss_mb = _peak_rss_mb(proc.pid)
                    self.client.shutdown()
                proc.communicate(timeout=30)
            except Exception:
                proc.kill()
                proc.communicate()
                raise
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def peak_rss_mb(self):
        if self.proc is not None and self.proc.poll() is None:
            return _peak_rss_mb(self.proc.pid)
        return self.rss_mb

    def _fresh_seeds(self) -> tuple:
        first = self.next_seed
        self.next_seed += self.SEEDS_PER_JOB
        return tuple(range(first, self.next_seed))

    def _job(self, seeds, tracer: Optional[Tracer],
             original: Optional[str] = None) -> Dict[str, Any]:
        """Submit one grid, stream its events to the end, fetch the result."""
        from repro.errors import ServiceError

        span = tracer.span if tracer else (lambda *a, **k: nullcontext({}))
        problems: List[str] = []
        transport = False
        execute = None
        document = None
        started = time.perf_counter()
        kind = "miss" if original is None else "hit"
        with span("service.job", seeds=list(seeds), kind=kind):
            try:
                with span("service.submit"):
                    envelope = self.client.submit(
                        self.EXHIBIT, seeds=seeds, quick=True,
                        overrides=[self.overrides] if self.overrides else None,
                    )
                with span("service.stream") as stream_span:
                    for event in self.client.stream_events(
                        envelope["job_id"], timeout_s=self.TIMEOUT_S
                    ):
                        if event.get("type") == "span" and event.get("name") == "execute":
                            execute = event
                with span("service.fetch"):
                    final = self.client.job(envelope["job_id"])
            except ServiceError as exc:
                problems.append(f"job {list(seeds)}: {exc.code}: {exc}")
                transport = exc.code in ("connection", "timeout")
            else:
                result = final.get("result") or {}
                document = json.dumps(result.get("document"), sort_keys=True)
                shards = (result.get("document") or {}).get("results", [])
                if final.get("state") != "done" or result.get("status") != "ok":
                    problems.append(
                        f"job {list(seeds)} ended {final.get('state')}/"
                        f"{result.get('status')}"
                    )
                elif len(shards) != len(seeds) or any(
                    shard.get("status") != "ok" for shard in shards
                ):
                    problems.append(f"job {list(seeds)}: a shard is not ok")
                if original is not None and document != original:
                    problems.append(
                        f"repeat of {list(seeds)} differs from its original"
                    )
        latency_ms = (time.perf_counter() - started) * 1e3
        if tracer and execute is not None:
            # Server times are relative to job creation, which happens
            # while the POST is handled: place them from the stream start.
            base = stream_span["start"]
            queue_end = min(base + execute["start_s"], stream_span["end"])
            tracer.add("service.queue", base, queue_end, stream_span["id"],
                       clock="server")
            tracer.add("runner.execute", queue_end,
                       min(base + execute["end_s"], stream_span["end"]),
                       stream_span["id"], clock="server")
        return {"problems": problems, "latency_ms": latency_ms,
                "document": document, "transport": transport}

    def unit(self, tracer):
        outcome = UnitOutcome(attempted=0, detail={"miss": [], "hit": []})
        per_round = self.FRESH_PER_ROUND + 1
        for index in range(self.ROUNDS[self.profile] * per_round):
            repeat = index % per_round == self.FRESH_PER_ROUND
            if not repeat:
                seeds, original = self._fresh_seeds(), None
            elif self.originals:
                seeds, original = self.rng.choice(self.originals)
                self.repeats += 1
            else:
                continue
            job = self._job(seeds, tracer, original)
            outcome.attempted += 1
            outcome.detail["hit" if repeat else "miss"].append(job["latency_ms"])
            if job["problems"]:
                outcome.failed += 1
                outcome.problems += job["problems"]
                if job["transport"]:
                    break  # the server is gone or hung: stop the unit
            elif not repeat:
                self.originals.append((seeds, job["document"]))
        outcome.ops = outcome.attempted
        return outcome

    def layer_values(self, spans, outcome):
        by_id = {s["id"]: s for s in spans}

        def median_ms(name, kind=None):
            values = []
            for record in spans:
                if record["name"] != name:
                    continue
                job = record
                while job["name"] != "service.job":
                    job = by_id[job["parent"]]
                if kind is None or job.get("kind") == kind:
                    values.append((record["end"] - record["start"]) * 1e3)
            return statistics.median(values) if values else 0.0

        return {
            "service.submit_ms": median_ms("service.submit"),
            "service.queue_ms": median_ms("service.queue"),
            "runner.execute_ms": median_ms("runner.execute", "miss"),
            "service.fetch_ms": median_ms("service.fetch"),
        }

    def run_layer_values(self):
        counters = self.client.metrics()["metrics"]["counters"]
        hits = counters.get("runner.cache_hits", 0)
        return {
            "runner.cache_hits": hits,
            "runner.pool_spawns": counters.get("runner.pool_spawns", 0),
            "service.coalesced": counters.get("service.coalesced", 0),
            "service.shed": counters.get("service.shed", 0),
            "runner.cache_hit_ratio": (
                hits / (self.SEEDS_PER_JOB * self.repeats)
                if self.repeats else 0.0
            ),
        }

    def extra_metrics(self, outcomes):
        misses = [v for o in outcomes for v in o.detail["miss"]]
        hits = [v for o in outcomes for v in o.detail["hit"]]
        extra = {}
        if misses:
            extra["miss_p50_ms"] = (percentile(misses, 0.50), "ms")
            extra["miss_p90_ms"] = (percentile(misses, 0.90), "ms")
        if hits:
            extra["hit_p50_ms"] = (percentile(hits, 0.50), "ms")
        extra["samples"] = (f"{len(misses)} misses, {len(hits)} hits", "")
        return extra


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


WORKLOADS = {cls.name: cls for cls in (FabricDes, ChaosLoad, SuiteE12, ServiceJobs)}
