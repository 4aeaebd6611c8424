"""Statistics substrate: frequency tables, diversity, inference, rank agreement."""

from repro.stats.correlation import (
    align_tables,
    kendall_tau,
    rank_biased_overlap,
    spearman_rho,
)
from repro.stats.diversity import (
    evenness_report,
    gini_coefficient,
    herfindahl_index,
    shannon_entropy,
    shannon_evenness,
    simpson_index,
)
from repro.stats.frequency import FrequencyTable, crosstab
from repro.stats.proportions import (
    jeffreys_interval,
    share_table,
    two_proportion_test,
    wilson_interval,
)
from repro.stats.inference import (
    TestResult,
    bootstrap_share_ci,
    chi_square_gof,
    chi_square_homogeneity,
    g_test_gof,
    permutation_tvd_test,
    total_variation_distance,
)
from repro.stats.sketch import QuantileSketch, RunningStat
from repro.stats.fanout import (
    StatCell,
    StatSpec,
    StatSweepResult,
    StatTask,
    run_stat_sweep,
    share_ci_tasks,
)

__all__ = [
    "FrequencyTable",
    "QuantileSketch",
    "RunningStat",
    "StatCell",
    "StatSpec",
    "StatSweepResult",
    "StatTask",
    "TestResult",
    "run_stat_sweep",
    "share_ci_tasks",
    "align_tables",
    "bootstrap_share_ci",
    "chi_square_gof",
    "chi_square_homogeneity",
    "crosstab",
    "evenness_report",
    "g_test_gof",
    "gini_coefficient",
    "herfindahl_index",
    "kendall_tau",
    "permutation_tvd_test",
    "rank_biased_overlap",
    "shannon_entropy",
    "shannon_evenness",
    "simpson_index",
    "spearman_rho",
    "total_variation_distance",
    "jeffreys_interval",
    "share_table",
    "two_proportion_test",
    "wilson_interval",
]
