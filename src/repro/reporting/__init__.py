"""Reporting: ASCII tables, the experiment registry, and trace runs."""

from repro.reporting.experiments import (
    EXPERIMENTS,
    Experiment,
    get_experiment,
    registry,
)
from repro.reporting.tables import format_value, render_records, render_table
from repro.reporting.traces import (
    TraceReport,
    render_trace_report,
    run_trace,
    traceable_experiments,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "TraceReport",
    "format_value",
    "get_experiment",
    "registry",
    "render_records",
    "render_table",
    "render_trace_report",
    "run_trace",
    "traceable_experiments",
]
