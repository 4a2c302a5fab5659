"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; the Monte Carlo criteria use fixed
master seeds so the whole suite is deterministic.
"""

import numpy as np
from _oracles import brute_force_optimal_matching
from scipy import stats

from experttest.bounds import adjusted_threshold, type1_bound
from experttest.core import Dataset, DistanceMetric, LossSpec, derive_seed
from experttest.engine import (
    TestConfig,
    classify_swaps,
    exact_binary_p,
    expert_test,
)
from experttest.matching import Matching, greedy_match
from experttest.synthgen import (
    ExpertiseConfig,
    gen_expertise_pairs,
    mse_comparison,
    run_power_curve,
    run_power_vs_L,
    run_toy_study,
    run_type1_curve,
)

L2 = DistanceMetric.euclidean()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_toy_power():
    res = run_toy_study(
        n=1000, trials=100, L=100, K=100, alpha=0.05, include_u=False, master_seed=20260809
    )
    rate = res.rejection_rate
    report(
        "criterion 1: toy power",
        0.86 <= rate <= 0.99,
        f"rejection rate {rate:.2f} in [0.86, 0.99]",
    )


def test_criterion_02_toy_validity_with_private_signal_observed():
    res = run_toy_study(
        n=1000, trials=100, L=100, K=100, alpha=0.05, include_u=True, master_seed=20260809
    )
    rate = res.rejection_rate
    report(
        "criterion 2: toy validity",
        rate <= 0.10,
        f"false rejection rate {rate:.2f} <= 0.10",
    )


def test_criterion_03_mse_table():
    # independent oracle first: one huge Monte Carlo draw pins the population
    # values of all three columns before the per-trial means are checked
    rng = np.random.default_rng(123456)
    n = 10**6
    x = rng.uniform(-2, 2, n)
    u = rng.uniform(-1, 1, n)
    y = x + u + rng.standard_normal(n)
    y_hat = np.sign(x) + np.sign(u) + rng.standard_normal(n)
    oracle_algo = ((y - x) ** 2).mean()
    oracle_human = ((y - y_hat) ** 2).mean()
    vh = y_hat - y_hat.mean()
    beta = (vh * (y - y.mean())).sum() / (vh * vh).sum()
    c = y.mean() - beta * y_hat.mean()
    oracle_rescaled = ((y - beta * y_hat - c) ** 2).mean()

    targets = (4 / 3, 8 / 3, 8 / 3 - (3 / 2) ** 2 / 3)
    oracle = (oracle_algo, oracle_human, oracle_rescaled)
    assert all(abs(o - t) < 0.02 for o, t in zip(oracle, targets)), oracle

    res = mse_comparison(n=1000, trials=100, seed=1)
    means = (res.algorithm.mean, res.human.mean, res.rescaled.mean)
    ok = all(abs(m - t) <= 0.10 for m, t in zip(means, targets))
    report(
        "criterion 3: mse table",
        ok,
        "means (%.3f, %.3f, %.3f) within 0.10 of (1.333, 2.667, 1.917)" % means,
    )


def test_criterion_04_power_vs_delta():
    big = run_power_curve(
        [1200], [0.10], lambda n: n // 8, K=100, alpha=0.05, trials=100, master_seed=3
    )[0].rate
    small = run_power_curve(
        [200], [0.10, 0.25], lambda n: n // 8, K=100, alpha=0.05, trials=100, master_seed=3
    )
    small_10, small_25 = small[0].rate, small[1].rate
    ok = big >= 0.80 and small_10 < 0.80 and small_25 >= 0.75
    report(
        "criterion 4: power vs delta",
        ok,
        f"n=1200 d=.10: {big:.2f} >= 0.80; n=200 d=.10: {small_10:.2f} < 0.80; "
        f"n=200 d=.25: {small_25:.2f} >= 0.75",
    )


def test_criterion_05_power_vs_L():
    L_values = list(range(20, 201, 20))
    trials = 500
    cells = run_power_vs_L(
        n=600, delta=0.2, L_values=L_values, K=100, alpha=0.05, trials=trials, master_seed=5
    )
    rates = [c.rate for c in cells]
    at_40 = rates[1]
    # nondecreasing within twice the Monte Carlo standard error of the gap
    monotone = True
    for a, b in zip(rates, rates[1:]):
        se = np.sqrt((a * (1 - a) + b * (1 - b)) / trials)
        if b < a - 2 * se:
            monotone = False
    ok = 0.70 <= at_40 <= 0.90 and monotone
    report(
        "criterion 5: power vs L",
        ok,
        f"power at L=40: {at_40:.3f} in [0.70, 0.90]; curve {rates} monotone within 2 MC se",
    )


def test_criterion_06_type1_inflation():
    cells = run_type1_curve(
        n=500, L_values=[25, 250], K=50, alpha=0.05, trials=50, master_seed=2
    )
    low, high = cells[0].rate, cells[1].rate
    ok = high >= 0.95 and low <= 0.15
    report(
        "criterion 6: type-I inflation",
        ok,
        f"false rejection {high:.2f} >= 0.95 at L=250; {low:.2f} <= 0.15 at L=25",
    )


def test_criterion_07_greedy_two_approximation():
    rng = np.random.default_rng(7777)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        dim = int(rng.integers(1, 4))
        L = int(rng.integers(1, max(n // 4, 1) + 1))
        x = rng.random((n, dim))
        d = Dataset(x, np.zeros(n), np.zeros(n))
        greedy_max = max(greedy_match(d, L, L2).distances)
        optimal_2L = brute_force_optimal_matching(d, 2 * L, L2)
        if greedy_max > optimal_2L:
            violations += 1
    report(
        "criterion 7: greedy 2-approximation",
        violations == 0,
        f"{violations} violations over 200 random instances",
    )


def test_criterion_08_tau_uniform_under_null():
    K = 20
    taus = []
    for s in range(1000):
        ds = gen_expertise_pairs(
            ExpertiseConfig(n=400, delta=0.0, seed=derive_seed(42, 0, s))
        )
        cfg = TestConfig(
            L=100, K=K, alpha=0.05, loss=LossSpec.zero_one(),
            master_seed=derive_seed(42, 1, s),
        )
        taus.append(expert_test(ds, cfg, L2).tau)
    counts = np.bincount([round(t * K) for t in taus], minlength=K + 1)
    pvalue = stats.chisquare(counts).pvalue
    report(
        "criterion 8: tau uniformity",
        pvalue > 0.01,
        f"chi-square p = {pvalue:.3f} > 0.01 over {K + 1} atoms, 1000 seeds",
    )


def _paired_binary_dataset(increase, decrease, neutral):
    y, p = [], []
    for _ in range(increase):
        y += [0.0, 1.0]
        p += [0.0, 1.0]
    for _ in range(decrease):
        y += [0.0, 1.0]
        p += [1.0, 0.0]
    for _ in range(neutral):
        y += [0.0, 0.0]
        p += [0.0, 1.0]
    n = len(y)
    return Dataset(np.repeat(np.arange(n // 2, dtype=float), 2), y, p)


def test_criterion_09_analytic_matches_monte_carlo():
    rng = np.random.default_rng(2468)
    worst = 0.0
    for trial in range(20):
        a = int(rng.integers(0, 13))
        b = int(rng.integers(0, 13 - a))
        # the exhaustive mask oracle validates the closed form itself
        total = 0.0
        for mask in range(2 ** (a + b)):
            x = (mask & ((1 << a) - 1)).bit_count()
            y = (mask >> a).bit_count()
            total += 1.0 if x < y else (0.5 if x == y else 0.0)
        oracle = total / 2 ** (a + b)
        expected = exact_binary_p(a, b)
        assert expected == oracle, (a, b)

        ds = _paired_binary_dataset(a, b, neutral=2)
        L = ds.n // 2
        taus = np.array([
            expert_test(
                ds,
                TestConfig(L=L, K=40, alpha=0.05, loss=LossSpec.zero_one(),
                           master_seed=derive_seed(23, trial, s)),
                L2,
            ).tau
            for s in range(400)
        ])
        se = taus.std(ddof=1) / np.sqrt(taus.size)
        gap = abs(taus.mean() - expected)
        worst = max(worst, gap - 3 * se)
        assert gap <= 3 * se + 1e-12, (a, b, gap, se)
    report(
        "criterion 9: analytic vs monte carlo",
        worst <= 1e-12,
        "20 random (increase, decrease) configurations within 3 MC standard errors",
    )


def test_criterion_10_loss_class_robustness():
    losses = [
        LossSpec.zero_one(),
        LossSpec.weighted_binary(1, 5),
        LossSpec.weighted_binary(5, 1),
        LossSpec.weighted_binary(1, 1),
    ]
    ok = True
    for seed, delta in [(1, 0.05), (2, 0.2), (3, 0.45)]:
        ds = gen_expertise_pairs(ExpertiseConfig(n=400, delta=delta, seed=seed))
        m = greedy_match(ds, 100, L2)
        baseline_counts = classify_swaps(ds, m)
        results = [
            expert_test(
                ds,
                TestConfig(L=100, K=500, alpha=0.05, loss=lo, master_seed=4242),
                L2,
            )
            for lo in losses
        ]
        ok &= all(r.tau == results[0].tau for r in results)
        ok &= all(r.binary_swap_counts == baseline_counts for r in results)
    report(
        "criterion 10: loss-class robustness",
        ok,
        "run-for-run tau and swap classification identical across zero-one and "
        "weighted (1,5), (5,1), (1,1)",
    )


TYPE1_CASES = [
    # (alpha, eps, L, K, theorem1, union)
    (0.05, 0.0, 1, 1000, 0.050999000999000999, 0.050999000999000999),
    (0.05, 0.01, 10, 1000, 0.146616925990196509, 0.150999000999000999),
    (0.05, 0.01, 1, 999, 0.061, 0.061),
    (0.01, 0.002, 25, 499, 0.0608181992888868538, 0.062),
    (0.10, 0.05, 5, 99, 0.3362190625, 0.36),
    (0.05, 0.5, 1, 1, 1.0, 1.0),
    (0.20, 0.001, 100, 200, 0.300182977264400411, 0.304975124378109453),
    (0.05, 0.0475113, 5, 999, 0.26703051206832441, 0.2885565),
    (0.30, 0.25, 3, 19, 0.928125, 1.0),
    (0.05, 0.1, 50, 50, 1.0, 1.0),
]

ADJUSTED_CASES = [
    # (alpha, C, max_distance, L, K, expected)
    (0.05, 1.0, 0.0, 2, 999, 0.049),
    (0.05, 1.0, 0.1, 5, 999, 0.0),
    (0.05, 0.0, 0.7, 3, 99, 0.04),
    (0.20, 0.5, 0.01, 3, 199, 0.187537390627037886),
    (0.10, 2.0, 0.005, 10, 499, 0.0493491180492573628),
    (0.30, 0.25, 0.02, 50, 999, 0.181635260195533295),
    (0.05, 3.0, 0.001, 20, 9999, 0.0203674123180019983),
    (0.15, 1.5, 0.04, 8, 299, 0.0),
    (0.05, 1.0, 0.3, 1, 19, 0.0),
    (0.25, 0.1, 0.25, 12, 1999, 0.111028293756444959),
]


def test_criterion_11_bound_arithmetic():
    worst = 0.0
    for alpha, eps, L, K, theorem1, union in TYPE1_CASES:
        got_t, got_u = type1_bound(alpha, eps, L, K)
        worst = max(worst, abs(got_t - theorem1), abs(got_u - union))
    for alpha, C, dist, L, K, expected in ADJUSTED_CASES:
        got = adjusted_threshold(alpha, C, Matching([(0, 1)], [dist]), L, K)
        worst = max(worst, abs(got - expected))
    report(
        "criterion 11: bound arithmetic",
        worst <= 1e-12,
        f"max |error| = {worst:.2e} over 10 + 10 hand-computed tuples",
    )
