"""Audit whether an expert's predictions carry information beyond recorded features.

The test pairs records with nearby feature vectors, repeatedly swaps the
paired predictions at random, and compares the observed loss against the
resulting swap distribution. A small tau statistic rejects the conditional
independence of outcomes and predictions given features, which means no model
trained on those features alone can reproduce what the expert is doing.
"""

from .bounds import (
    DensityEvaluationFailure,
    KnownDensity,
    OddsRatioSource,
    Smoothness,
    ValidityBound,
    adjusted_threshold,
    epsilon_star,
    tv_coin_bound,
    type1_bound,
    validity_bound,
)
from .core import (
    Dataset,
    DistanceMetric,
    ExpertTestError,
    IncompatibleLoss,
    LossSpec,
    dataset_loss,
    derive_seed,
    stream,
)
from .engine import (
    LossOverflow,
    NonBinaryData,
    SwapCounts,
    TestConfig,
    TestResult,
    classify_swaps,
    exact_binary_p,
    expert_test,
    expert_test_with_matching,
)
from .matching import (
    Matching,
    PairDistanceSummary,
    TooManyPairs,
    greedy_match,
    pair_distance_summary,
)
from .synthgen import (
    DegenerateRegression,
    ExpertiseConfig,
    MseComparison,
    MseSummary,
    PowerCell,
    StudyResult,
    ToyExampleConfig,
    Type1Cell,
    gen_expertise_pairs,
    gen_toy,
    gen_validity_cube,
    linear_rescale,
    mse_comparison,
    run_power_curve,
    run_power_vs_L,
    run_toy_study,
    run_type1_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DistanceMetric",
    "ExpertTestError",
    "IncompatibleLoss",
    "LossSpec",
    "dataset_loss",
    "derive_seed",
    "stream",
    "Matching",
    "PairDistanceSummary",
    "TooManyPairs",
    "greedy_match",
    "pair_distance_summary",
    "TestConfig",
    "TestResult",
    "SwapCounts",
    "LossOverflow",
    "NonBinaryData",
    "expert_test",
    "expert_test_with_matching",
    "classify_swaps",
    "exact_binary_p",
    "KnownDensity",
    "Smoothness",
    "OddsRatioSource",
    "ValidityBound",
    "DensityEvaluationFailure",
    "epsilon_star",
    "type1_bound",
    "adjusted_threshold",
    "tv_coin_bound",
    "validity_bound",
    "ToyExampleConfig",
    "ExpertiseConfig",
    "DegenerateRegression",
    "gen_toy",
    "gen_expertise_pairs",
    "gen_validity_cube",
    "linear_rescale",
    "MseSummary",
    "MseComparison",
    "mse_comparison",
    "StudyResult",
    "PowerCell",
    "Type1Cell",
    "run_toy_study",
    "run_power_curve",
    "run_power_vs_L",
    "run_type1_curve",
]
