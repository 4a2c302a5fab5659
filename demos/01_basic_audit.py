"""Audit a forecaster on tabular data, end to end.

We build a small synthetic audit: features come in duplicated pairs that are
useless for predicting the outcome, but the simulated expert gets the right
answer 80% of the time, so they must be drawing on something the features
don't contain. The test should notice.
"""

from experttest import (
    DistanceMetric,
    ExpertiseConfig,
    LossSpec,
    TestConfig,
    expert_test,
    gen_expertise_pairs,
)
from experttest.cli import render_report_table, run_report

data = gen_expertise_pairs(ExpertiseConfig(n=600, delta=0.3, seed=7))
print(f"dataset: n={data.n}, d={data.d}, binary outcomes={data.is_binary()}")

cfg = TestConfig(
    L=150,              # number of matched pairs to swap
    K=1000,             # resampled datasets
    alpha=0.05,
    loss=LossSpec.zero_one(),
    master_seed=2024,
)
result = expert_test(data, cfg, DistanceMetric.euclidean())

print(f"observed loss        : {result.observed_loss:.4f}")
print(f"mismatched pairs     : {result.mismatch_count}")
print(f"swap classification  : {result.binary_swap_counts}")
print(f"tau                  : {result.tau:.4f}")
print(f"effective p-value    : {result.effective_p:.4f}")
print(f"reject H0            : {result.rejected}")

# sweeping L shows how evidence accumulates with more pairs
print()
report = run_report(
    data, [25, 50, 100, 150, 300], K=1000, alpha=0.05,
    loss=LossSpec.zero_one(), metric=DistanceMetric.euclidean(), master_seed=2024,
)
print(render_report_table(report))
