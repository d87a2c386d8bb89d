"""Experiment harness regenerating every evaluation table and figure."""

from ..worlds import MASSD_GROUP1, MASSD_GROUP2, TESTBED_SERVER_NAMES
from .catalogue import BY_ID, CATALOGUE, Experiment, fidelity
from .experiments import (
    MassdArm,
    MatmulArm,
    PAPER_SIZE_GROUPS,
    bandwidth_probe_table,
    knee_slopes,
    locate_knee,
    massd_experiment,
    matmul_experiment,
    matrix_benchmark,
    resource_usage,
    rtt_vs_size,
    shaper_calibration,
    six_paths,
)
from .reporting import ComparisonRow, format_comparison, format_table, series_to_text

__all__ = [
    "Experiment",
    "CATALOGUE",
    "BY_ID",
    "fidelity",
    "rtt_vs_size",
    "knee_slopes",
    "locate_knee",
    "six_paths",
    "bandwidth_probe_table",
    "PAPER_SIZE_GROUPS",
    "resource_usage",
    "matrix_benchmark",
    "matmul_experiment",
    "MatmulArm",
    "shaper_calibration",
    "massd_experiment",
    "MassdArm",
    "MASSD_GROUP1",
    "MASSD_GROUP2",
    "TESTBED_SERVER_NAMES",
    "format_table",
    "format_comparison",
    "ComparisonRow",
    "series_to_text",
]
