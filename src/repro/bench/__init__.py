"""Benchmark harness: suite runners, calibration, and per-figure drivers."""

from repro.bench.calibration import EffortScale, scale_for_budget, PAPER_TIMEOUT_SECONDS
from repro.bench.runner import (
    InstanceRecord,
    SuiteStatistics,
    run_suite,
    suite_statistics,
)
from repro.bench.tables import (
    format_table,
    format_dict_table,
    format_scatter,
    format_box_stats,
)
from repro.bench.reporting import build_experiments_md
from repro.bench.experiments import (
    Fig3Result,
    Fig4Result,
    Table2Result,
    EndToEndResult,
    fig3_propagation_frequency,
    fig4_policy_scatter,
    table1_dataset_statistics,
    table2_classification,
    default_table2_models,
    fig7_table3_end_to_end,
    oracle_end_to_end,
    cactus_plot_data,
    CactusResult,
)

__all__ = [
    "EffortScale",
    "scale_for_budget",
    "PAPER_TIMEOUT_SECONDS",
    "InstanceRecord",
    "SuiteStatistics",
    "run_suite",
    "suite_statistics",
    "format_table",
    "format_dict_table",
    "format_scatter",
    "format_box_stats",
    "Fig3Result",
    "Fig4Result",
    "Table2Result",
    "EndToEndResult",
    "fig3_propagation_frequency",
    "fig4_policy_scatter",
    "table1_dataset_statistics",
    "table2_classification",
    "default_table2_models",
    "fig7_table3_end_to_end",
    "oracle_end_to_end",
    "build_experiments_md",
    "cactus_plot_data",
    "CactusResult",
]
