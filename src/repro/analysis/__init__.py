"""Experiment harness: runners, metrics, sweeps, tables, exact OPT."""

from repro.analysis.chaos import ChaosCell, ChaosReport, run_chaos, run_chaos_cell
from repro.analysis.metrics import (
    Aggregate,
    RunMetrics,
    aggregate,
    fit_power_law,
    geometric_decay_rate,
    metrics_from_result,
)
from repro.analysis.opt import exact_opt, opt_lower_bound, opt_or_bound
from repro.analysis.runner import ExperimentRunner
from repro.analysis.stats import DistributionSummary, InstanceStats, describe_instance
from repro.analysis.sweep import Sweep, SweepPoint, SweepResult
from repro.analysis.tables import format_cell, render_kv, render_table

__all__ = [
    "ChaosCell",
    "ChaosReport",
    "run_chaos",
    "run_chaos_cell",
    "RunMetrics",
    "metrics_from_result",
    "Aggregate",
    "aggregate",
    "fit_power_law",
    "geometric_decay_rate",
    "exact_opt",
    "opt_lower_bound",
    "opt_or_bound",
    "ExperimentRunner",
    "Sweep",
    "SweepPoint",
    "SweepResult",
    "render_table",
    "DistributionSummary",
    "InstanceStats",
    "describe_instance",
    "render_kv",
    "format_cell",
]
