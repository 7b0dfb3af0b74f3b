"""Finite-horizon stability and sensitivity statistics for symbolic systems.

The library builds distinguished points of full shifts (a nested block
construction with long zero runs, Sturmian rotation codings, regular
Toeplitz skeletons, Champernowne-style concatenations, periodic points),
samples their cylinders by occurrence shifts, and computes truncated-metric
statistics: diameter series, Besicovitch averages, density and sliding
window variants, envelope support counts, word-complexity entropy, and a
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
    TruncatedDistance,
    factors,
    metric_distance,
    occurrences,
    save_sequence,
    window_codes,
)
from .density import (
    DensityEstimate,
    IndexSet,
    banach_density,
    default_prefix_schedule,
    default_window_lengths,
    upper_density,
)
from .generate import (
    GENERATORS,
    MAX_SYMBOLS,
    NestedBlockMeta,
    NestedBlockParams,
    RotationParams,
    ToeplitzParams,
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
    BesicovitchEstimate,
    ClassifyParams,
    ComplexityCurve,
    DiamSeries,
    HierarchyReport,
    ModulusCurve,
    StabilityVerdict,
    SupportCounts,
    banach_diam_mean_test,
    besicovitch,
    classify_hierarchy,
    covering_words,
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
