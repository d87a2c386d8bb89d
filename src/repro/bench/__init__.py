"""Experiment harness regenerating every evaluation table and figure."""

from ..worlds import MASSD_GROUP1, MASSD_GROUP2, TESTBED_SERVER_NAMES
from .experiments import (
    MassdArm,
    MatmulArm,
    PAPER_SIZE_GROUPS,
    bandwidth_probe_table,
    knee_slopes,
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
    "rtt_vs_size",
    "knee_slopes",
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
