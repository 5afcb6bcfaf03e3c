"""The experiment registry: every paper exhibit and claim, indexed.

Maps each experiment id from DESIGN.md to its paper anchor, the modules
implementing it, the benchmark that regenerates it, the expected
*shape* of the result (who wins, roughly by how much) and, for runnable
exhibits, the entrypoint with its declared default and ``--quick``
config. EXPERIMENTS.md is generated from this registry, and the test
suite asserts registry consistency (benches exist, modules import).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import RegistryError

#: Knobs of the full X16 self-chaos exhibit (its non-probe config).
CHAOS_DEFAULTS: Dict[str, Any] = {
    "inner_seeds": 3,       # seeds per inner grid
    "jobs": 2,              # pool width of the inner grids
    "probe_sleep_s": 0.2,   # per-shard sleep: the kill window
    "service_sleep_s": 2.0, # shard sleep of the job the service loses
    "kill_after_done": 1,   # journalled shard-dones before parent kill
    "deadline_s": 120.0,    # watchdog for every external wait
}


@dataclass(frozen=True)
class Experiment:
    """One reproducible exhibit or claim.

    ``entrypoint`` is a dotted ``"module:function"`` path to a runnable
    ``(config, seed) -> RunResult`` callable (empty when the exhibit is
    only reachable through its benchmark). ``defaults`` declares every
    config key the entrypoint reads, at its full problem size;
    ``quick`` holds the reduced sizes of ``--quick`` smoke runs.
    """

    experiment_id: str
    paper_anchor: str
    claim: str
    expected_shape: str
    modules: Tuple[str, ...]
    bench: str
    entrypoint: str = ""
    defaults: Mapping[str, Any] = field(default_factory=dict, hash=False)
    quick: Mapping[str, Any] = field(default_factory=dict, hash=False)

    @property
    def runnable(self) -> bool:
        """Whether a programmatic entrypoint is registered."""
        return bool(self.entrypoint)

    def config(
        self, override: Optional[Mapping[str, Any]] = None, quick: bool = False
    ) -> Dict[str, Any]:
        """The effective run config: defaults, then quick sizes, then
        ``override``.

        Raises :class:`~repro.errors.RegistryError` naming any override
        key the experiment does not declare, so a typo is an error
        rather than a silently ignored (but recorded) setting.
        """
        override = dict(override or {})
        unknown = sorted(set(override) - set(self.defaults))
        if unknown:
            raise RegistryError(
                f"experiment {self.experiment_id!r} does not declare config "
                f"key(s) {unknown}; declared: {sorted(self.defaults)}"
            )
        merged = copy.deepcopy(dict(self.defaults))
        if quick:
            merged.update(self.quick)
        merged.update(override)
        return merged

    def resolve_entrypoint(self):
        """Import and return the entrypoint callable.

        Raises :class:`~repro.errors.RegistryError` when the experiment
        has none registered or the path does not resolve.
        """
        if not self.entrypoint:
            raise RegistryError(
                f"experiment {self.experiment_id!r} has no entrypoint"
            )
        from repro.runner.pool import resolve_entrypoint

        return resolve_entrypoint(self.entrypoint)


EXPERIMENTS: List[Experiment] = [
    Experiment(
        "T1", "Table 1",
        "The consortium spans architecture, databases, silicon IP and analytics across academia/industry/SME",
        "every required capability covered by >=1 partner; all three partner kinds present",
        ("repro.ecosystem.actors", "repro.ecosystem.collaboration"),
        "benchmarks/test_bench_consortium.py",
    ),
    Experiment(
        "F1", "Figure 1",
        "RETHINK big uniquely owns Big Data hardware+networking among the ETP/PPP landscape",
        "exactly RETHINK-big covers those two scopes; no uncovered scope areas",
        ("repro.ecosystem.collaboration",),
        "benchmarks/test_bench_ecosystem.py",
    ),
    Experiment(
        "E1", "Abstract / SV.A",
        "89 interviews, 70 companies; the four Key Findings hold in aggregate",
        "counts exact; findings 1-4 all hold on the calibrated corpus",
        ("repro.survey.corpus", "repro.survey.analysis"),
        "benchmarks/test_bench_survey.py",
        entrypoint="repro.runner.entrypoints:run_e1",
        defaults={"n_interviews": 89, "n_companies": 70},
    ),
    Experiment(
        "E2", "SI (Catapult)",
        "FPGA offload cuts search-ranking tail latency ~29% at iso-throughput",
        "P99 reduction in the 15-45% band at the operating point; larger under overload; ~2x QPS at iso-SLA",
        ("repro.engine", "repro.workloads.search"),
        "benchmarks/test_bench_catapult.py",
        entrypoint="repro.runner.entrypoints:run_e2",
        defaults={"qps": 2_000.0, "n_requests": 12_000, "sla_s": 0.012,
                  "sla_requests": 4_000},
        quick={"n_requests": 800, "sla_requests": 400},
    ),
    Experiment(
        "E3", "SV.B R4",
        "Specialized hardware raises throughput/node ~10x on suitable analytics kernels",
        "best accelerator >=5x CPU on compute-bound blocks; <2x on memory-bound",
        ("repro.node.roofline", "repro.analytics.blocks"),
        "benchmarks/test_bench_accelerator_gain.py",
        entrypoint="repro.runner.entrypoints:run_e3",
        defaults={"batch": 50_000_000},
    ),
    Experiment(
        "E4", "SIV.B.2",
        "GPGPU ROI is negative for low-utilization SME deployments",
        "NPV < 0 below a utilization breakeven in (0,1); breakeven falls as speedup rises",
        ("repro.econ.roi",),
        "benchmarks/test_bench_gpgpu_roi.py",
        entrypoint="repro.runner.entrypoints:run_e4",
        defaults={
            "hardware_usd": 50_000.0,
            "port_effort_person_months": 9.0,
            "speedup": 4.0,
            "baseline_compute_value_usd_per_year": 250_000.0,
            "accelerator_power_w": 2_400.0,
            "horizon_years": 3,
        },
    ),
    Experiment(
        "E5", "SIV.B.3",
        "SiP beats SoC below a crossover volume; interface upgrades are far cheaper on SiP",
        "crossover in the 10^5-10^8 unit range; SiP upgrade cost <30% of SoC's",
        ("repro.econ.soc_sip", "repro.econ.silicon"),
        "benchmarks/test_bench_soc_sip.py",
        entrypoint="repro.runner.entrypoints:run_e5",
        defaults={"advanced_node": "16nm", "mature_node": "28nm"},
    ),
    Experiment(
        "E6", "SIV.A.1",
        "Bare-metal/white-box switching undercuts branded TCO; in-house NOS needs hyperscale",
        "branded most expensive at all fleet sizes; bare-metal crosses white-box at a fleet-size threshold",
        ("repro.network.switch", "repro.econ.cost"),
        "benchmarks/test_bench_switch_tco.py",
        entrypoint="repro.runner.entrypoints:run_e6",
        defaults={"fleets": [50, 200, 1_000, 5_000, 20_000]},
    ),
    Experiment(
        "E7", "SIV.A.2",
        "SDN makes 10,000 switches look like one: policy rollout ~constant vs fleet size",
        "SDN rollout flat within a wave; legacy rollout linear; speedup grows with fleet",
        ("repro.network.sdn", "repro.network.nfv"),
        "benchmarks/test_bench_sdn.py",
        entrypoint="repro.runner.entrypoints:run_e7",
        defaults={"n_rules": 10},
    ),
    Experiment(
        "E8", "SIV.A.3",
        "Disaggregation reduces stranding and upgrade cost",
        "composable places >=10% more of a skewed job mix; per-dimension refresh <=40% of server refresh",
        ("repro.cluster.disaggregation",),
        "benchmarks/test_bench_disaggregation.py",
        entrypoint="repro.runner.entrypoints:run_e8",
        defaults={"n_demands": 3_000, "n_servers": 24,
                  "n_refresh_servers": 1_000},
        quick={"n_demands": 600},
    ),
    Experiment(
        "E9", "SIV.A.3 / R3",
        "400GbE+ appliances arrive after 2020; cost/Gbps improves monotonically",
        "forecast volume year > 2020; usd/gbps strictly decreasing across generations",
        ("repro.network.link", "repro.core.adoption"),
        "benchmarks/test_bench_ethernet_roadmap.py",
        entrypoint="repro.runner.entrypoints:run_e9",
        defaults={"funded_multiplier": 1.8},
    ),
    Experiment(
        "E10", "R11",
        "Heterogeneity-aware scheduling beats naive placement on mixed device pools",
        "HEFT makespan < FIFO makespan; gap grows with device heterogeneity",
        ("repro.scheduler",),
        "benchmarks/test_bench_scheduling.py",
        entrypoint="repro.runner.entrypoints:run_e10",
        defaults={"width": 10, "work": 8_000_000},
    ),
    Experiment(
        "E11", "R10",
        "Accelerated building blocks speed up framework pipelines end to end",
        "offload policy beats cpu-only on regex/gemm-heavy plans at scale; identical results",
        ("repro.frameworks", "repro.analytics.blocks"),
        "benchmarks/test_bench_offload.py",
        entrypoint="repro.runner.entrypoints:run_e11",
        defaults={"n_docs": 4_000, "n_partitions": 8},
        quick={"n_docs": 600},
    ),
    Experiment(
        "E12", "R9",
        "A standard suite compares architectures side by side",
        "five workloads x four architectures; accelerated architectures win the acceleratable workloads only",
        ("repro.workloads.suite",),
        "benchmarks/test_bench_suite.py",
        entrypoint="repro.runner.entrypoints:run_e12",
        defaults={"scale": 20},
        quick={"scale": 4},
    ),
    Experiment(
        "E13", "SIV.B.2 / SV.A(4)",
        "GPGPU and server-CPU markets are extremely concentrated; lock-in is NRE-protected",
        "HHI > 9000 for both; leader shares >95%; years-protected > 1 for realistic codebases",
        ("repro.ecosystem.market",),
        "benchmarks/test_bench_market.py",
        entrypoint="repro.runner.entrypoints:run_e13",
        defaults={"annual_license_usd": 250_000.0},
    ),
    Experiment(
        "E14", "R2",
        "HPC/Big Data convergence: science streams run on Big Data stacks; accelerators raise per-node rates",
        "GPU-class device sustains >2x CPU trigger rate at large batches",
        ("repro.workloads.streams", "repro.frameworks.streaming"),
        "benchmarks/test_bench_convergence.py",
        entrypoint="repro.runner.entrypoints:run_e14",
        defaults={"n_events": 500_000},
        quick={"n_events": 20_000},
    ),
    Experiment(
        "E15", "SIV.C",
        "No common abstraction reaches all hardware; native-everywhere porting cost is prohibitive",
        "best universal model (OpenCL) misses >=1 device; native-everywhere effort >=10x portable",
        ("repro.node.programmability",),
        "benchmarks/test_bench_portability.py",
        entrypoint="repro.runner.entrypoints:run_e15",
        defaults={"n_kernels": 10},
    ),
    Experiment(
        "E16", "SV.B",
        "The twelve recommendations rank by survey+model evidence; a budget portfolio selects coherently",
        "benchmarks (R9) and accelerator derisking (R4) rank near the top; knapsack >= greedy",
        ("repro.core.recommendations", "repro.core.prioritize"),
        "benchmarks/test_bench_recommendations.py",
        entrypoint="repro.runner.entrypoints:run_e16",
        defaults={"budgets_meur": [50.0, 100.0, 200.0, 335.0]},
    ),
    # --- extensions beyond the paper's explicit claims -------------------
    Experiment(
        "X1", "SIV.A.3 (implied)",
        "Disaggregation presupposes graceful fabric degradation under failures",
        "fat-tree bisection declines smoothly and stays connected; single-spine designs partition",
        ("repro.network.failures",),
        "benchmarks/test_bench_resilience.py",
    ),
    Experiment(
        "X2", "R11 (dynamic)",
        "Work-conserving shared allocation beats FIFO whole-pool allocation on job streams",
        "shared never loses on mean completion time; gain >1.3x under load",
        ("repro.scheduler.online",),
        "benchmarks/test_bench_dynamic_allocation.py",
        entrypoint="repro.runner.entrypoints:run_x2",
        defaults={"n_jobs": 10, "mean_interarrival_s": 0.002,
                  "work": 1_000_000},
    ),
    Experiment(
        "X3", "R11 (edge) / SIII (IoT back-end)",
        "Selective pipelines belong at the edge; unselective compute belongs in the data center",
        "split/edge wins at <=1% selectivity; dc-only wins unselective heavy compute",
        ("repro.workloads.edge",),
        "benchmarks/test_bench_edge.py",
    ),
    Experiment(
        "X4", "R6 (new FPGA entrant)",
        "An EU FPGA entrant's break-even depends sharply on public subsidy",
        "upfront >$80M; break-even year strictly decreases with subsidy",
        ("repro.ecosystem.entry",),
        "benchmarks/test_bench_market_entry.py",
    ),
    Experiment(
        "X5", "SIV.C (frameworks)",
        "Stragglers dominate BSP stage time; speculation and dataset caching recover it",
        "stage time grows with width; speculation >1.3x; caching speedup grows with iterations",
        ("repro.frameworks.faults", "repro.frameworks.iterative"),
        "benchmarks/test_bench_faults.py",
    ),
    Experiment(
        "X7", "SIV.A.2 (SDN payoff)",
        "A size-aware central controller beats oblivious ECMP hashing on elephant flows",
        "least-loaded placement never slower, lower link imbalance, wins under collision-prone fan-out",
        ("repro.network.loadbalance",),
        "benchmarks/test_bench_loadbalance.py",
        entrypoint="repro.runner.entrypoints:run_x7",
        defaults={"k": 4, "n_flows": 8, "flow_mb": 250},
    ),
    Experiment(
        "X9", "SV.A Finding 2 (wait-for-commodity)",
        "Waiting for commodity pricing is a coordination failure; seeded deployments un-stall the cascade",
        "zero seed -> zero adoption at launch price; a finite minimum seed flips the market; adoption monotone in seed",
        ("repro.core.waiting_game",),
        "benchmarks/test_bench_waiting_game.py",
    ),
    Experiment(
        "X8", "SVI ('the next 10 years')",
        "Scored from 2026, the roadmap's technology calls land within ~1-2 years; risk ratings were informative",
        "mean |error| < 2.5y over arrived tech; neuromorphic still not-yet; NVM withdrawn; troubled bets were rated riskier",
        ("repro.core.retrospective",),
        "benchmarks/test_bench_hindsight.py",
    ),
    Experiment(
        "X6", "SV.B (forecasting honesty)",
        "Technology-risk widens forecast bands; coordinated funding buys years, most for immature tech",
        "neuromorphic band >3x mature tech's; years-gained positive everywhere, largest at low TRL",
        ("repro.core.scenarios",),
        "benchmarks/test_bench_scenarios.py",
    ),
    Experiment(
        "X10", "methodology (engine observability)",
        "Span tracing and metrics make instrumented runs inspectable at <10% disabled-path overhead",
        "disabled-observability event loop within 1.1x of an uninstrumented kernel; enabled runs record spans for every stage",
        ("repro.engine.observability", "repro.reporting.traces"),
        "benchmarks/test_bench_observability.py",
    ),
    Experiment(
        "X12", "SI (Catapult) + SIV.A.3 (dependable fabrics)",
        "Hedging/retry/failover recover most fault-inflated tail latency for single-digit-percent extra work",
        "chaos p99 recovery above 50% at <2x issued work; resilient availability strictly above policy-off under the same fault schedule; host outages routed around with the kill/waste cost reported",
        (
            "repro.engine.faults",
            "repro.engine.resilience",
            "repro.workloads.chaos",
            "repro.scheduler.online",
        ),
        "benchmarks/test_bench_chaos.py",
        entrypoint="repro.runner.entrypoints:run_x12",
        defaults={"n_requests": 4_000, "n_reads": 2_500, "n_jobs": 24},
        quick={"n_requests": 600, "n_reads": 400, "n_jobs": 10},
    ),
    Experiment(
        "X11", "methodology (incremental flow repair)",
        "Localized max-min repair after a fault beats re-solving the whole fabric from scratch",
        "repair answers bit-identical to full solves; repair count dominates full-solve fallbacks on sparse fault schedules",
        ("repro.network.flows", "repro.engine.observability"),
        "benchmarks/perfsuite.py",
        entrypoint="repro.runner.entrypoints:run_x11",
        defaults={"k": 4, "n_flows": 12, "flow_mb": 100},
    ),
    Experiment(
        "X14", "SIV.A (scale-out fabrics) + methodology (parallel DES)",
        "A conservatively synchronized sharded engine simulates 10k-switch fabrics bit-for-bit with the sequential engine, faster in wall-clock",
        "merged sharded trace byte-identical to the single-process trace at any shard count, under randomized fault schedules; >=3x wall-clock at 4 workers on a k=30+ fat tree",
        (
            "repro.engine.sharded",
            "repro.workloads.fabricsim",
            "repro.runner.pool",
        ),
        "benchmarks/test_bench_sharded.py",
        entrypoint="repro.runner.entrypoints:run_x14",
        defaults={
            "fabric": "fat-tree",
            "k": 90,
            "n_requests": 1_000_000,
            "duration_s": 4e-3,
            "shards": 4,
            "inline": False,
            "with_faults": True,
            "trace_out": "",
        },
        quick={"k": 8, "n_requests": 8_000, "duration_s": 2e-3, "shards": 2},
    ),
    Experiment(
        "X15", "SII.B (datacenter services) + SIV.B (admission control)",
        "An experiment service with a bounded admission queue and request coalescing keeps served P99 latency bounded under millions-of-users traffic and spine faults, at the cost of explicit sheds",
        "open admission P99 exceeds bounded-queue P99 by >=25% under spine-fault degradation; bounded sheds <5% of requests; coalescing plus result caching absorbs >=80% of offered executions",
        (
            "repro.workloads.servicesim",
            "repro.service.schema",
            "repro.engine.faults",
        ),
        "benchmarks/test_bench_service.py",
        entrypoint="repro.runner.entrypoints:run_x15",
        defaults={
            "n_requests": 50_000,
            "arrival_rate_hz": 2_000.0,
            "n_workers": 8,
            "queue_cap": 48,
            "per_client_cap": 4,
        },
        quick={"n_requests": 3_000},
    ),
    Experiment(
        "X16", "SIV.B (resilient services) + methodology (fault injection)",
        "A write-ahead job journal plus worker-crash containment make the experiment runner and service crash-safe: any SIGKILL schedule merges to the byte-identical canonical document of an undisturbed run",
        "worker SIGKILLs are contained and retried without poisoning sibling shards (two kills quarantine the shard); a grid SIGKILLed mid-run resumes from the journal to byte-identical results.json; a killed service re-admits its journaled jobs on restart and serves resubmitted completed work entirely from cache",
        (
            "repro.workloads.selfchaos",
            "repro.runner.journal",
            "repro.service.server",
        ),
        "benchmarks/test_bench_selfchaos.py",
        entrypoint="repro.runner.entrypoints:run_x16",
        defaults={"probe": False, "sleep_s": 0.0, "crash_marker_dir": None,
                  **CHAOS_DEFAULTS},
        quick={"inner_seeds": 2, "probe_sleep_s": 0.1,
               "service_sleep_s": 1.0},
    ),
    Experiment(
        "X17", "SIII.B (provisioning for real traffic) + SII (Catapult tails)",
        "The resilience headline claims survive realistic traffic: hedging still recovers the straggler-inflated P99 and the dependable fabric still buys availability under diurnal, flash-crowd and heavy-tailed load generated as vectorized scenario batch draws",
        "hedging wins the P99 race in every traffic regime with >=50% tail recovery; the resilient memory policy wins availability in every regime; the full chaos x load matrix is deterministic at any --jobs",
        (
            "repro.mc.traffic",
            "repro.workloads.scenario",
            "repro.engine.sim",
        ),
        "benchmarks/test_bench_traffic.py",
        entrypoint="repro.runner.entrypoints:run_x17",
        defaults={
            "base_qps": 700.0,
            "search_horizon_s": 4.0,
            "base_read_hz": 400.0,
            "memory_horizon_s": 5.0,
        },
        quick={"search_horizon_s": 0.8, "memory_horizon_s": 1.0},
    ),
]


def registry() -> Dict[str, Experiment]:
    """Experiment id -> experiment, validated for uniqueness."""
    out: Dict[str, Experiment] = {}
    for experiment in EXPERIMENTS:
        if experiment.experiment_id in out:
            raise RegistryError(
                f"duplicate experiment id: {experiment.experiment_id}"
            )
        out[experiment.experiment_id] = experiment
    return out


def get_experiment(experiment_id: str) -> Experiment:
    """Lookup with a helpful error."""
    table = registry()
    if experiment_id not in table:
        raise RegistryError(f"unknown experiment: {experiment_id!r}")
    return table[experiment_id]
