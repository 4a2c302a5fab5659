"""Computable validity machinery: epsilon-star, type-I bounds, adjusted thresholds.

The test is exactly valid when every matched pair has identical features. With
mismatched pairs, the per-pair swap probability implied by the conditional
prediction density deviates from 1/2; epsilon-star is the worst such
deviation, and it drives two computable excess type-I bounds plus a
conservative correction of the rejection threshold.
"""

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import Dataset, ExpertTestError
from .matching import Matching

__all__ = [
    "DensityEvaluationFailure",
    "KnownDensity",
    "Smoothness",
    "OddsRatioSource",
    "ValidityBound",
    "epsilon_star",
    "type1_bound",
    "adjusted_threshold",
    "tv_coin_bound",
    "validity_bound",
]


class DensityEvaluationFailure(ExpertTestError):
    """The user-supplied conditional density could not be evaluated on a pair."""


@dataclass(frozen=True)
class KnownDensity:
    """Conditional density q(y_hat | x) of predictions given features.

    ``evaluator(x, y_hat)`` must return a strictly positive, finite density.
    Mainly useful in synthetic studies where the prediction rule is known by
    construction; with real data the density would have to be estimated
    externally.
    """

    evaluator: Callable[[np.ndarray, float], float]


@dataclass(frozen=True)
class Smoothness:
    """Lipschitz-style bound on how fast q(. | x) can change across feature space.

    With constant ``C``, the odds ratio of any pair at distance t is confined
    to [(1 + C*t)**-2, (1 + C*t)**2].
    """

    C: float

    def __post_init__(self) -> None:
        # C = inf is allowed: it admits any odds ratio, so the bound is trivial
        if not self.C >= 0:
            raise ValueError(f"smoothness constant C must be nonnegative, got {self.C}")


OddsRatioSource = Union[KnownDensity, Smoothness]


@dataclass(frozen=True)
class ValidityBound:
    """Bundle of the computable validity quantities for one (matching, config)."""

    epsilon_star: float
    theorem1_bound: float
    union_bound: float
    adjusted_threshold: float


def _deviation(r: float) -> float:
    """|1/(1+r) - 1/2|, the swap-probability deviation implied by odds ratio r."""
    return abs(1.0 / (1.0 + r) - 0.5)


def _interval_deviation(c: float, dist: float) -> float:
    # worst case over the odds-ratio interval; both endpoints give the same
    # deviation because r and 1/r imply mirrored swap probabilities
    if dist == 0.0:
        return 0.0  # an identical pair, even at c = inf, where c * dist is NaN
    # squared by multiplication, which overflows to inf where float ** raises
    root = 1.0 + c * dist
    hi = root * root
    return max(_deviation(hi), _deviation(1.0 / hi))


def epsilon_star(d: Dataset, m: Matching, src: OddsRatioSource) -> float:
    """Worst per-pair deviation of the implied swap probability from 1/2.

    With a :class:`KnownDensity`, the odds ratio of each pair is evaluated at
    its observed features and predictions. With :class:`Smoothness`, each
    pair's odds ratio is only known to lie in an interval determined by the
    pair's distance, and the worst case over that interval is taken.
    Identical pairs (distance 0) contribute 0 either way.
    """
    if isinstance(src, Smoothness):
        # the deviation grows with distance, so the last (largest) pair is the worst
        return _interval_deviation(src.C, m.max_distance)

    pi, pj = m.pairs.T
    worst = 0.0
    for a, b in zip(pi, pj):
        xa, xb = d.x[a], d.x[b]
        ya, yb = float(d.y_hat[a]), float(d.y_hat[b])
        try:
            num = src.evaluator(xa, ya) * src.evaluator(xb, yb)
            den = src.evaluator(xa, yb) * src.evaluator(xb, ya)
        except Exception as exc:
            raise DensityEvaluationFailure(f"density evaluation raised: {exc}") from exc
        if not (np.isfinite(num) and np.isfinite(den)) or num <= 0 or den <= 0:
            raise DensityEvaluationFailure(
                "conditional density must be strictly positive and finite on the support"
            )
        worst = max(worst, _deviation(num / den))
    return worst


def type1_bound(alpha: float, epsilon_star: float, L: int, K: int) -> tuple[float, float]:
    """Both excess type-I bounds, clipped to [0, 1].

    Returns ``(theorem1, union)`` where::

        theorem1 = alpha + (1 - (1 - eps)**L) + 1/(K+1)
        union    = alpha + eps * L          + 1/(K+1)

    The union form is looser (it linearizes the coupling term) but easier to
    manipulate; the two coincide when eps is 0. Bad inputs raise ``ValueError``.
    """
    return _theorem1(alpha, epsilon_star, L, K)[:2]


def adjusted_threshold(alpha: float, C: float, m: Matching, L: int, K: int) -> float:
    """Rejection threshold corrected so the test holds exactly nominal size.

    Uses the matching's maximum pair distance and the smoothness constant to
    bound epsilon-star, then lowers the threshold by the excess type-I terms:
    ``max(0, alpha - (1 - (1 - eps)**L) - 1/(K+1))``. Conservative, possibly
    zero: then Theorem 1 leaves no level at this configuration. A zero is
    not a verdict; ``tau <= 0`` still holds whenever ``tau`` is 0. Bad
    alpha, L or K raise ``ValueError``, as in :func:`type1_bound`.
    """
    eps = _interval_deviation(Smoothness(C).C, m.max_distance)  # Smoothness validates C
    return _theorem1(alpha, eps, L, K)[2]


def _theorem1(alpha: float, eps: float, L: int, K: int) -> tuple[float, float, float]:
    """Theorem 1's bound, the union bound and the corrected level: ``alpha`` less both excess terms, clipped at 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not 0.0 <= eps <= 0.5:
        raise ValueError("epsilon_star must lie in [0, 1/2]")
    if L < 1 or K < 1:
        raise ValueError("L and K must be at least 1")
    coupling, slack = _coupling(eps, L), 1.0 / (K + 1)
    theorem1 = min(1.0, max(0.0, alpha + coupling + slack))
    union = min(1.0, max(0.0, alpha + eps * L + slack))
    return theorem1, union, max(0.0, alpha - coupling - slack)


def _coupling(eps: float, L: int) -> float:
    """``1 - (1 - eps)**L``: the chance that L coins, each off by eps, are not all coupled."""
    return 1.0 - (1.0 - eps) ** L


def tv_coin_bound(deviations: Sequence[float]) -> float:
    """Total-variation bound between two sequences of independent coins.

    Given per-coin bias gaps ``|p_i - q_i|``, the joint distributions of the
    two coin sequences differ by at most ``1 - (1 - max_gap)**L``, via the
    obvious coupling that flips both coins from one shared uniform.
    """
    devs = [float(t) for t in deviations]
    if any(not 0.0 <= t <= 0.5 for t in devs):
        raise ValueError("each deviation must lie in [0, 1/2]")
    if not devs:
        return 0.0
    return _coupling(max(devs), len(devs))


def validity_bound(
    d: Dataset, m: Matching, src: OddsRatioSource, alpha: float, K: int
) -> ValidityBound:
    """Convenience bundle: epsilon-star plus every derived bound for this matching."""
    eps = epsilon_star(d, m, src)
    theorem1, union, level = _theorem1(alpha, eps, len(m), K)
    return ValidityBound(
        epsilon_star=eps, theorem1_bound=theorem1, union_bound=union, adjusted_threshold=level)
