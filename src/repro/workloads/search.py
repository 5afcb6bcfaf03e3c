"""Catapult-style search-ranking service (experiment E2).

The paper's flagship evidence for Big Data hardware specialization is
Microsoft's Catapult deployment: FPGA acceleration of Bing ranking
yielding "a 29% reduction in tail latency". This module reproduces the
*mechanism* with a discrete-event model of a ranking service:

- requests arrive Poisson at a configurable QPS;
- a pool of CPU workers runs feature extraction (lognormal service);
- document ranking then runs either on the same CPU worker (baseline,
  long and variable) or on a pipelined FPGA (accelerated: the CPU worker
  is released early and the FPGA stage is fast and near-deterministic).

Offloading shortens and de-variances the critical stage *and* frees CPU
workers, which is exactly where P99 improvements come from. The E2 bench
reports the paper-vs-measured P99 reduction at iso-throughput and the
throughput gain at iso-SLA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.engine import Observability, RandomStream, Resource, Simulator
from repro.errors import ModelError


@dataclass(frozen=True)
class SearchServiceConfig:
    """Service-time and capacity parameters (2016-plausible magnitudes)."""

    n_cpu_workers: int = 16
    frontend_median_s: float = 3.0e-3
    frontend_sigma: float = 0.4
    cpu_rank_median_s: float = 2.0e-3
    cpu_rank_sigma: float = 0.55
    fpga_rank_s: float = 0.8e-3
    fpga_pipeline_slots: int = 8
    fpga_jitter_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.n_cpu_workers < 1 or self.fpga_pipeline_slots < 1:
            raise ModelError("worker and slot counts must be >= 1")
        if min(
            self.frontend_median_s, self.cpu_rank_median_s, self.fpga_rank_s
        ) <= 0:
            raise ModelError("service times must be positive")


@dataclass
class SearchRunResult:
    """Latency samples of one simulated run."""

    latencies_s: List[float]
    qps: float
    accelerated: bool

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds."""
        import numpy as np

        if not self.latencies_s:
            raise ModelError("run produced no samples")
        return float(np.percentile(self.latencies_s, q))

    @property
    def p50_s(self) -> float:
        """Median latency."""
        return self.percentile(50)

    @property
    def p99_s(self) -> float:
        """The Catapult metric: 99th-percentile latency."""
        return self.percentile(99)


def run_search_service(
    qps: float,
    n_requests: int,
    accelerated: bool,
    config: SearchServiceConfig = SearchServiceConfig(),
    seed: int = 2016,
    observability: Optional[Observability] = None,
) -> SearchRunResult:
    """Simulate ``n_requests`` through the service at ``qps``.

    With an :class:`~repro.engine.Observability` attached the run emits
    per-stage spans (request/frontend/rank), worker-pool gauges and a
    latency histogram (named ``search.<cpu|fpga>.*`` by mode); without
    one the instrumentation is free.
    """
    if qps <= 0:
        raise ModelError(f"qps must be positive, got {qps}")
    if n_requests < 1:
        raise ModelError("need at least one request")
    sim = Simulator(observability=observability)
    arrivals = RandomStream(seed, "arrivals")
    service = RandomStream(seed, "service")
    # Metric names carry the mode: a gauge must be time-ordered, and
    # one Observability may watch a cpu run and then an fpga run.
    mode = "fpga" if accelerated else "cpu"
    cpu_pool = Resource(
        sim, capacity=config.n_cpu_workers, name=f"search.{mode}.cpu_pool"
    )
    fpga_pool = Resource(
        sim, capacity=config.fpga_pipeline_slots,
        name=f"search.{mode}.fpga_pool",
    )
    latencies: List[float] = []

    def request(sim, arrived_s: float):
        with sim.span("search.request", subsystem="workloads.search"):
            yield cpu_pool.acquire()
            with sim.span("search.frontend", subsystem="workloads.search"):
                yield sim.timeout(
                    service.lognormal(
                        config.frontend_median_s, config.frontend_sigma
                    )
                )
            if accelerated:
                # Hand off to the FPGA and free the CPU worker immediately.
                cpu_pool.release()
                with sim.span("search.fpga_rank", subsystem="workloads.search"):
                    yield fpga_pool.acquire()
                    yield sim.timeout(
                        service.lognormal(
                            config.fpga_rank_s, config.fpga_jitter_sigma
                        )
                    )
                    fpga_pool.release()
            else:
                with sim.span("search.cpu_rank", subsystem="workloads.search"):
                    yield sim.timeout(
                        service.lognormal(
                            config.cpu_rank_median_s, config.cpu_rank_sigma
                        )
                    )
                cpu_pool.release()
            latencies.append(sim.now - arrived_s)

    def source(sim):
        for _ in range(n_requests):
            sim.spawn(request(sim, sim.now), name="search.request")
            yield sim.timeout(arrivals.exponential(1.0 / qps))

    sim.spawn(source(sim), name="search.source")
    sim.run()
    if len(latencies) != n_requests:
        raise ModelError("not all requests completed")
    if observability is not None:
        registry = observability.registry
        registry.counter("search.requests").inc(len(latencies))
        histogram = registry.histogram(f"search.{mode}.latency_s")
        for latency in latencies:
            histogram.observe(latency)
    return SearchRunResult(latencies, qps, accelerated)


def tail_latency_reduction(
    qps: float,
    n_requests: int = 20_000,
    config: SearchServiceConfig = SearchServiceConfig(),
    seed: int = 2016,
    observability: Optional[Observability] = None,
) -> dict:
    """The E2 headline: P99 with and without the FPGA at iso-throughput.

    ``observability`` is attached to both runs (see
    :func:`run_search_service`).
    """
    baseline = run_search_service(
        qps, n_requests, False, config, seed, observability
    )
    accelerated = run_search_service(
        qps, n_requests, True, config, seed, observability
    )
    reduction = 1.0 - accelerated.p99_s / baseline.p99_s
    return {
        "qps": qps,
        "p99_cpu_s": baseline.p99_s,
        "p99_fpga_s": accelerated.p99_s,
        "p50_cpu_s": baseline.p50_s,
        "p50_fpga_s": accelerated.p50_s,
        "tail_reduction": reduction,
    }


def max_qps_within_sla(
    sla_p99_s: float,
    accelerated: bool,
    n_requests: int = 10_000,
    config: SearchServiceConfig = SearchServiceConfig(),
    seed: int = 2016,
    qps_lo: float = 100.0,
    qps_hi: float = 50_000.0,
    tolerance: float = 0.02,
) -> float:
    """Highest sustainable QPS whose P99 stays under ``sla_p99_s``.

    Bisection on offered load; the Catapult deployment's second claim was
    serving ~2x the throughput at equivalent tail latency.
    """
    if sla_p99_s <= 0:
        raise ModelError("SLA must be positive")

    def meets(qps: float) -> bool:
        result = run_search_service(qps, n_requests, accelerated, config, seed)
        return result.p99_s <= sla_p99_s

    if not meets(qps_lo):
        raise ModelError(f"SLA unattainable even at {qps_lo} qps")
    if meets(qps_hi):
        return qps_hi
    lo, hi = qps_lo, qps_hi
    while hi / lo > 1.0 + tolerance:
        mid = (lo * hi) ** 0.5
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return lo
