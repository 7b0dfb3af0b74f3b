"""Finite-horizon stability and sensitivity statistics for symbolic systems.

The library builds distinguished points of full shifts (a nested block
construction with long zero runs, Sturmian rotation codings, regular
Toeplitz skeletons, Champernowne-style concatenations, periodic points),
samples their cylinders by occurrence shifts, and computes truncated-metric
statistics: diameter series and the averages, densities and sliding-window
maxima read off them, a mean-equicontinuity modulus from two-point diameter
series, envelope support counts, word-complexity entropy, and a
simultaneous near-return probe. The `shiftlab` CLI wraps everything into
reproducible, byte-stable experiment reports.
"""

from .core import (
    BudgetError,
    DEFAULT_DEPTH_CAP,
    FiniteWord,
    HorizonError,
    OccurrenceIndex,
    PrecisionError,
    SizingError,
    SymbolicSequence,
    factor_counts,
    factors,
    occurrences,
    save_sequence,
    window_groups,
)
from .generate import (
    GENERATORS,
    MAX_SYMBOLS,
    NestedBlockMeta,
    RotationParams,
    auto_zero_run,
    build,
    champernowne,
    full_shift_point,
    nested_block_meta,
    nested_block_sequence,
    periodic,
    sturmian,
    toeplitz_regular,
)
from .recurrence import RecurrenceResult, multi_recurrence_search
from .stability import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    ComplexityCurve,
    DiamSeries,
    HierarchyReport,
    ModulusCurve,
    StabilityVerdict,
    SupportCounts,
    banach_diam_mean_test,
    classify_hierarchy,
    covering_words,
    default_window_lengths,
    diam_mean_avg_test,
    diam_mean_density_test,
    diam_mean_sensitivity_test,
    diam_series,
    diam_series_from_positions,
    entropy_complexity,
    frequent_stability_test,
    mean_eq_modulus,
    nonzero_support_counts,
    stable_in_mean_test,
)

__version__ = "0.1.0"
