"""Synthetic data generators and the runners behind the numerical studies.

Three generative worlds:

* the toy expert, whose predictions use a private signal the features omit
  (or include, to study the null);
* the paired-expertise world, where features are uninformative duplicates and
  a knob ``delta`` controls how often the expert beats a coin flip;
* the validity cube, where the null holds by construction but no two feature
  vectors coincide, exercising the test's approximation error.

Every runner derives all of its seeds from one master seed, so grids can be
evaluated cell by cell in any order with deterministic results.
"""

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .core import (
    Dataset,
    DistanceMetric,
    ExpertTestError,
    LossSpec,
    derive_seed,
    stream,
)
from .engine import TestConfig, expert_test_with_matching
from .matching import greedy_match

__all__ = [
    "DegenerateRegression",
    "ToyExampleConfig",
    "ExpertiseConfig",
    "gen_toy",
    "gen_expertise_pairs",
    "gen_validity_cube",
    "linear_rescale",
    "MseSummary",
    "MseComparison",
    "mse_comparison",
    "StudyResult",
    "run_toy_study",
    "PowerCell",
    "run_power_curve",
    "run_power_vs_L",
    "Type1Cell",
    "run_type1_curve",
]


class DegenerateRegression(ExpertTestError):
    """Predictions had zero variance, so no linear rescaling exists."""


# seed-derivation domains, one per runner
_TOY, _MSE, _POWER, _POWER_L, _TYPE1 = range(5)


@dataclass(frozen=True)
class ToyExampleConfig:
    """Toy expert world.

    Features hold x (and also u when ``include_u_in_features`` is set, which
    makes the null hypothesis hold with respect to the observed features).
    """

    n: int
    seed: int
    include_u_in_features: bool = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")


@dataclass(frozen=True)
class ExpertiseConfig:
    """Paired-expertise world with expertise knob delta in [0, 1/2]."""

    n: int
    delta: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2:
            raise ValueError("n must be even and at least 2")
        if not 0.0 <= self.delta <= 0.5:
            raise ValueError("delta must lie in [0, 1/2]")


def gen_toy(cfg: ToyExampleConfig) -> Dataset:
    """Draw the toy expert world.

    x ~ U([-2, 2]) and a private signal u ~ U([-1, 1]) drive the outcome
    y = x + u + e1, while the expert coarsens both: y_hat = sign(x) + sign(u)
    + e2, with independent standard normal noises e1, e2. sign(0) is 0.
    """
    rng = stream(cfg.seed)
    n = cfg.n
    x = rng.uniform(-2.0, 2.0, n)
    u = rng.uniform(-1.0, 1.0, n)
    e1 = rng.standard_normal(n)
    e2 = rng.standard_normal(n)
    y = x + u + e1
    y_hat = np.sign(x) + np.sign(u) + e2
    features = np.column_stack([x, u]) if cfg.include_u_in_features else x
    return Dataset(features, y, y_hat)


def gen_expertise_pairs(cfg: ExpertiseConfig) -> Dataset:
    """Draw the paired-expertise world.

    Features come in exact duplicates [1, 1, 2, 2, ...] and outcomes alternate
    [0, 1, 0, 1, ...], so features are uninformative and every matched pair is
    exact. Within each pair the expert's predictions equal the true (y1, y2)
    with probability 1/2 + delta and the swapped (y2, y1) otherwise.
    """
    half = cfg.n // 2
    x = np.repeat(np.arange(1, half + 1, dtype=np.float64), 2)
    y = np.tile([0.0, 1.0], half)
    correct = stream(cfg.seed).random(half) < 0.5 + cfg.delta
    y_hat = np.empty(cfg.n)
    y_hat[0::2] = np.where(correct, 0.0, 1.0)
    y_hat[1::2] = np.where(correct, 1.0, 0.0)
    return Dataset(x, y, y_hat)


def gen_validity_cube(n: int, seed: int) -> Dataset:
    """Draw the validity cube, where the null holds by construction.

    x is uniform over [0, 10]^3 and both y and y_hat equal the coordinate sum
    plus independent standard normal noise, so y and y_hat are conditionally
    independent given x but no two feature vectors ever coincide.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = stream(seed)
    x = rng.uniform(0.0, 10.0, (n, 3))
    e1 = rng.standard_normal(n)
    e2 = rng.standard_normal(n)
    s = x.sum(axis=1)
    return Dataset(x, s + e1, s + e2)


# ---------------------------------------------------------------------------
# Forecast accuracy comparison
# ---------------------------------------------------------------------------


def linear_rescale(y: np.ndarray, y_hat: np.ndarray) -> tuple[float, float, float]:
    """Best in-sample linear correction of the predictions.

    Least-squares fit of y on y_hat returns ``(beta, c, mse)`` with mse the
    in-sample mean squared error of ``beta * y_hat + c`` -- a lower bound on
    what any recentering/rescaling of the predictions could achieve.

    Raises
    ------
    DegenerateRegression
        If the predictions have zero variance.
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    vh = y_hat - y_hat.mean()
    denom = (vh * vh).sum()
    if denom == 0.0:
        raise DegenerateRegression("predictions are constant within this sample")
    beta = float((vh * (y - y.mean())).sum() / denom)
    c = float(y.mean() - beta * y_hat.mean())
    resid = y - beta * y_hat - c
    return beta, c, float((resid * resid).mean())


@dataclass(frozen=True)
class MseSummary:
    """Mean over trials plus a 2-standard-deviation half width."""

    mean: float
    two_sd: float


@dataclass(frozen=True)
class MseComparison:
    n: int
    trials: int
    algorithm: MseSummary
    human: MseSummary
    rescaled: MseSummary


def mse_comparison(n: int, trials: int, seed: int) -> MseComparison:
    """Accuracy of the feature-only algorithm vs the expert on toy-world draws.

    Per trial: the algorithm predicts E[y | x] = x; the expert prediction is
    the generated y_hat; the rescaled column applies :func:`linear_rescale`.
    Reports each mean squared error averaged over trials, plus/minus two
    standard deviations across trials.
    """
    if n < 10:
        raise ValueError("n must be at least 10")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    cols = np.empty((trials, 3))
    for t in range(trials):
        ds = gen_toy(ToyExampleConfig(n=n, seed=derive_seed(seed, _MSE, t)))
        x = ds.x[:, 0]
        algo = float(((ds.y - x) ** 2).mean())
        human = float(((ds.y - ds.y_hat) ** 2).mean())
        _, _, rescaled = linear_rescale(ds.y, ds.y_hat)
        cols[t] = (algo, human, rescaled)
    means = cols.mean(axis=0)
    sds = cols.std(axis=0, ddof=1)
    return MseComparison(
        n=n,
        trials=trials,
        algorithm=MseSummary(float(means[0]), float(2 * sds[0])),
        human=MseSummary(float(means[1]), float(2 * sds[1])),
        rescaled=MseSummary(float(means[2]), float(2 * sds[2])),
    )


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyResult:
    """Per-trial taus of a repeated test run."""

    taus: tuple[float, ...]
    alpha: float

    @property
    def trials(self) -> int:
        return len(self.taus)

    @property
    def rejections(self) -> int:
        return sum(1 for t in self.taus if t <= self.alpha)

    @property
    def rejection_rate(self) -> float:
        return self.rejections / len(self.taus)


@dataclass(frozen=True)
class PowerCell:
    """One cell of a power grid: empirical rejection frequency."""

    n: int
    delta: float
    L: int
    trials: int
    rejections: int

    @property
    def rate(self) -> float:
        return self.rejections / self.trials


@dataclass(frozen=True)
class Type1Cell:
    """One point of the false-rejection curve on null data."""

    L: int
    trials: int
    rejections: int

    @property
    def rate(self) -> float:
        return self.rejections / self.trials


def run_toy_study(
    n: int,
    trials: int,
    L: int,
    K: int,
    alpha: float,
    include_u: bool,
    master_seed: int,
) -> StudyResult:
    """Repeatedly test toy-world draws with squared error loss.

    With ``include_u`` false the expert's private signal is hidden from the
    matching, so rejections measure power; with it true the null holds with
    respect to the feature space and rejections measure false discoveries.
    """
    taus = _trial_taus(
        lambda seed: gen_toy(ToyExampleConfig(n=n, seed=seed, include_u_in_features=include_u)),
        [L], K, alpha, LossSpec.squared_error(), trials, master_seed, _TOY,
    )
    return StudyResult(tuple(taus[:, 0].tolist()), alpha)


def run_power_curve(
    n_values: Sequence[int],
    delta_values: Sequence[float],
    L_rule: Callable[[int], int],
    K: int,
    alpha: float,
    trials: int,
    master_seed: int,
) -> list[PowerCell]:
    """Empirical rejection frequency over an (n, delta) grid of expertise worlds.

    ``L_rule`` maps each sample size to the number of pairs (for example
    ``lambda n: n // 8``). Zero-one loss. An empty grid is a ``ValueError``.
    """
    if not len(n_values):
        raise ValueError("need at least one n value")
    if not len(delta_values):
        raise ValueError("need at least one delta value")
    cells = []
    for i, n in enumerate(n_values):
        L = L_rule(n)
        for j, delta in enumerate(delta_values):
            taus = _trial_taus(
                lambda seed: gen_expertise_pairs(ExpertiseConfig(n=n, delta=delta, seed=seed)),
                [L], K, alpha, LossSpec.zero_one(), trials, master_seed, _POWER, i, j,
            )
            rejections = int((taus <= alpha).sum())
            cells.append(PowerCell(n=n, delta=delta, L=L, trials=trials, rejections=rejections))
    return cells


def run_power_vs_L(
    n: int,
    delta: float,
    L_values: Sequence[int],
    K: int,
    alpha: float,
    trials: int,
    master_seed: int,
) -> list[PowerCell]:
    """Empirical power as a function of the number of pairs, at fixed (n, delta).

    All L values share each trial's dataset and one greedy matching prefix,
    which keeps per-L comparisons tight; every cell is still bit-identical to
    a standalone run at that L. Zero-one loss.
    """
    taus = _trial_taus(
        lambda seed: gen_expertise_pairs(ExpertiseConfig(n=n, delta=delta, seed=seed)),
        L_values, K, alpha, LossSpec.zero_one(), trials, master_seed, _POWER_L,
    )
    return [
        PowerCell(n=n, delta=delta, L=int(L), trials=trials, rejections=r)
        for L, r in zip(L_values, (taus <= alpha).sum(axis=0).tolist())
    ]


def run_type1_curve(
    n: int,
    L_values: Sequence[int],
    K: int,
    alpha: float,
    trials: int,
    master_seed: int,
) -> list[Type1Cell]:
    """False-rejection frequency on the validity cube as L grows.

    Squared error loss. The null holds by construction, so any excess over
    alpha is the approximation error induced by mismatched pairs; rates
    climb toward 1 as L approaches n/2.
    """
    taus = _trial_taus(
        lambda seed: gen_validity_cube(n, seed),
        L_values, K, alpha, LossSpec.squared_error(), trials, master_seed, _TYPE1,
    )
    return [
        Type1Cell(L=int(L), trials=trials, rejections=r)
        for L, r in zip(L_values, (taus <= alpha).sum(axis=0).tolist())
    ]


def _trial_taus(
    draw: Callable[[int], Dataset],
    L_values: Sequence[int],
    K: int,
    alpha: float,
    loss: LossSpec,
    trials: int,
    master_seed: int,
    domain: int,
    *cell: int,
) -> np.ndarray:
    """The trial loop behind every runner: a (trials, len(L_values)) array of tau.

    Trial t tests ``draw(derive_seed(master_seed, domain, 0, *cell, t))`` at
    every L, all under ``derive_seed(master_seed, domain, 1, *cell, t)`` and
    on prefixes of one greedy matching at the largest L, so each entry is
    bit-identical to a standalone ``expert_test`` of that trial's data.
    Greedy matching depends on the features alone, so a trial whose features
    equal the previous trial's reuses its matching. Euclidean metric; a
    runner's rejections are ``taus <= alpha``, as in ``TestResult.rejected``.
    """
    L_values = [int(L) for L in L_values]
    if not L_values:
        raise ValueError("need at least one L value")
    if trials < 1:
        raise ValueError("need at least one trial")
    metric = DistanceMetric.euclidean()
    taus = np.empty((trials, len(L_values)))
    x = full = None
    for t in range(trials):
        ds = draw(derive_seed(master_seed, domain, 0, *cell, t))
        if full is None or not np.array_equal(ds.x, x):
            x, full = ds.x, greedy_match(ds, max(L_values), metric)
        seed = derive_seed(master_seed, domain, 1, *cell, t)
        # largest L first: the engine keeps the mask it draws, and a smaller L
        # at the same seed and K reads a prefix of it instead of drawing again
        for j, L in sorted(enumerate(L_values), key=itemgetter(1), reverse=True):
            cfg = TestConfig(L=L, K=K, alpha=alpha, loss=loss, metric=metric, master_seed=seed)
            taus[t, j] = expert_test_with_matching(ds, full.prefix(L), cfg).tau
    return taus
