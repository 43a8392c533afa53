"""Evaluation harness: metrics, uniform planner runner, per-figure
experiment functions, and plain-text reporting."""

from .experiments import (
    ABLATION_VARIANTS,
    ablation_study,
    case_study,
    dataset_statistics,
    demand_partitions,
    effect_of_k,
    effect_of_q,
    opt_comparison,
    scaled_alpha,
    time_vs_alpha,
    time_vs_c,
    travel_cost_experiment,
)
from .export import load_rows_json, rows_to_csv, rows_to_json
from .geojson import GeoJsonWriter, route_to_geojson
from .visualize import MapRenderer, render_case_study
from .metrics import (
    approximation_ratio,
    connectivity,
    mean_walk_to_nearest_stop,
    uncovered_demand_coverage,
    utility,
    walking_cost,
)
from .reporting import format_series, format_table, print_and_save, save_report
from .runner import EBRRPlanner, default_planners, run_planners
from .sensitivity import seed_robustness

__all__ = [
    "walking_cost",
    "connectivity",
    "utility",
    "approximation_ratio",
    "uncovered_demand_coverage",
    "mean_walk_to_nearest_stop",
    "EBRRPlanner",
    "default_planners",
    "run_planners",
    "seed_robustness",
    "effect_of_k",
    "effect_of_q",
    "opt_comparison",
    "travel_cost_experiment",
    "time_vs_c",
    "time_vs_alpha",
    "ablation_study",
    "ABLATION_VARIANTS",
    "case_study",
    "dataset_statistics",
    "demand_partitions",
    "scaled_alpha",
    "rows_to_csv",
    "MapRenderer",
    "render_case_study",
    "rows_to_json",
    "load_rows_json",
    "GeoJsonWriter",
    "route_to_geojson",
    "format_table",
    "format_series",
    "save_report",
    "print_and_save",
]
