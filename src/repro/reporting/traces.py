"""Instrumented experiment runs: ``python -m repro trace <experiment>``.

Runs a registered experiment's own entrypoint, at the experiment's
declared default config, with an :class:`~repro.engine.Observability`
attached, then renders a run report -- a per-subsystem breakdown (span
counts, span time, engine event steps), the hottest spans, the metric
registry snapshot and the run's metrics as the headline -- and can
export the span buffer as ``trace.jsonl``.

An experiment is traceable when its entrypoint accepts an
``observability`` keyword; there is no separate trace code path, so a
trace explains exactly the run that ``python -m repro run`` produces.
The ``seed`` follows the runner convention: it is added to each
entrypoint's legacy base seed, so seed 0 reproduces the seed-0 run.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.engine import Observability
from repro.errors import RegistryError
from repro.reporting.experiments import (
    EXPERIMENTS,
    Experiment,
    get_experiment,
)
from repro.reporting.tables import render_table


@dataclass
class TraceReport:
    """The artifacts of one instrumented experiment run."""

    experiment_id: str
    observability: Observability
    headline: Dict[str, Any] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, Any]:
        """The run's full metrics/span snapshot (plain dicts)."""
        return self.observability.snapshot()

    def write_jsonl(self, path: str) -> int:
        """Export the span buffer to ``path``; returns lines written.

        The first line is a header object carrying the experiment id
        and run totals, so a trace file is self-describing.
        """
        snapshot = self.snapshot()
        header = {
            "experiment": self.experiment_id,
            "spans_recorded": snapshot["spans"]["recorded"],
            "spans_dropped": snapshot["spans"]["dropped"],
            "events_processed": snapshot.get("events_processed", 0),
            "sim_time": snapshot.get("sim_time", 0.0),
        }
        return self.observability.export_jsonl(path, header=header)


def _accepts_observability(experiment: Experiment) -> bool:
    """Whether the experiment's entrypoint takes ``observability``."""
    if not experiment.runnable:
        return False
    entrypoint = experiment.resolve_entrypoint()
    return "observability" in inspect.signature(entrypoint).parameters


def traceable_experiments() -> List[str]:
    """Ids of experiments whose entrypoint accepts ``observability``,
    sorted.

    Derived from the registered entrypoints (not a hardcoded list), so
    newly instrumented experiments appear automatically.
    """
    return sorted(
        e.experiment_id for e in EXPERIMENTS if _accepts_observability(e)
    )


def run_trace(experiment_id: str, seed: int = 0) -> TraceReport:
    """Run ``experiment_id`` instrumented; raises for untraceable ids.

    Calls the registered entrypoint at the experiment's default config
    (:meth:`~repro.reporting.experiments.Experiment.config`) with a
    fresh :class:`~repro.engine.Observability`; the run's metrics are
    the report's headline. A failing run raises rather than being
    captured, so the error surfaces with its traceback.
    """
    experiment = get_experiment(experiment_id)  # validates the id
    if not _accepts_observability(experiment):
        raise RegistryError(
            f"experiment {experiment_id!r} is not traceable; "
            f"choose from {traceable_experiments()}"
        )
    observability = Observability()
    result = experiment.resolve_entrypoint()(
        experiment.config(), seed, observability=observability
    )
    return TraceReport(
        experiment_id=experiment.experiment_id,
        observability=observability,
        headline=dict(result.metrics),
    )


def render_trace_report(report: TraceReport) -> str:
    """The run report: subsystems, hottest spans, metrics, headline."""
    experiment = get_experiment(report.experiment_id)
    snapshot = report.snapshot()
    parts: List[str] = [
        f"trace: {experiment.experiment_id} ({experiment.paper_anchor}) "
        f"-- {experiment.claim}",
    ]

    by_subsystem = report.observability.spans.by_tag(
        "subsystem", default="(untagged)"
    )
    steps = snapshot["steps_by_subsystem"]
    names = sorted(set(by_subsystem) | set(steps))
    if names:
        total_time = sum(total for _, total in by_subsystem.values()) or 1.0
        rows = []
        for name in names:
            count, span_time = by_subsystem.get(name, (0, 0.0))
            rows.append([
                name, count, span_time, steps.get(name, 0),
                span_time / total_time,
            ])
        parts.append(render_table(
            ["subsystem", "spans", "span time (s)", "event steps", "share"],
            rows, title="per-subsystem breakdown",
        ))

    hottest = snapshot["spans"]["hottest"]
    if hottest:
        rows = [
            [h["name"], h["count"], h["total"], h["total"] / h["count"]]
            for h in hottest
        ]
        parts.append(render_table(
            ["span", "count", "total (s)", "mean (s)"], rows,
            title="hottest spans (top 5 by total time)",
        ))

    if snapshot["counters"]:
        rows = [[name, value] for name, value in snapshot["counters"].items()]
        parts.append(render_table(["counter", "value"], rows,
                                  title="counters"))
    if snapshot["gauges"]:
        rows = [
            [name, stats["last"], stats["mean"], stats["max"]]
            for name, stats in snapshot["gauges"].items()
        ]
        parts.append(render_table(["gauge", "last", "mean", "max"], rows,
                                  title="gauges (time-weighted)"))
    if snapshot["histograms"]:
        rows = [
            [name, stats["count"], stats["mean"], stats["p50"], stats["p99"]]
            for name, stats in snapshot["histograms"].items()
        ]
        parts.append(render_table(
            ["histogram", "count", "mean", "p50", "p99"], rows,
            title="histograms",
        ))

    if report.headline:
        rows = [[name, value] for name, value in report.headline.items()]
        parts.append(render_table(["headline metric", "value"], rows,
                                  title="experiment headline"))

    totals = (
        f"spans: {snapshot['spans']['recorded']} recorded, "
        f"{snapshot['spans']['dropped']} dropped, "
        f"{snapshot['spans']['open']} open | "
        f"events: {snapshot.get('events_processed', 0)} | "
        f"errors: {len(snapshot['errors'])}"
    )
    parts.append(totals)
    return "\n\n".join(parts)
