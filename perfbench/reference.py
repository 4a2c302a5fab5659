"""Reference outputs for the benchmark workloads, computed without the package.

Every expected value here comes from the literal procedure: all pairwise
distances, greedy removal of the closest free pair (ties to the smallest
(i, j)), then K resampled datasets built by swapping each pair's predictions
on a fair coin and scored in full. Nothing from ``experttest`` is imported, so
a later change to the package's internals is checked against this file, not
against itself.

What the reference does share with the package is the published stream
layout (which seed drives which draw), because that is part of the output
contract: the same seed must give the same ``tau``.
"""

import numpy as np

U64 = (1 << 64) - 1
# stream ids on a test's master seed: one swap stream per resample, one for
# tie-break coins
SWAP_STREAM_BASE = 1 << 32
TIE_STREAM_ID = 1
# seed-derivation domains of the synthetic studies
POWER_DOMAIN = 2
TYPE1_DOMAIN = 4

_SCAN_CHUNK = 1 << 15


def stream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed & U64, spawn_key=path))


def derive_seed(seed: int, *path: int) -> int:
    seq = np.random.SeedSequence(seed & U64, spawn_key=path)
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Synthetic worlds, as the studies define them
# ---------------------------------------------------------------------------


def expertise_world(n: int, delta: float, seed: int):
    """Duplicate features [1, 1, 2, 2, ...], alternating outcomes, expert right w.p. 1/2 + delta."""
    half = n // 2
    x = np.repeat(np.arange(1, half + 1, dtype=np.float64), 2).reshape(-1, 1)
    y = np.tile([0.0, 1.0], half)
    correct = stream(seed).random(half) < 0.5 + delta
    y_hat = np.empty(n)
    y_hat[0::2] = np.where(correct, 0.0, 1.0)
    y_hat[1::2] = np.where(correct, 1.0, 0.0)
    return x, y, y_hat


def validity_cube(n: int, seed: int):
    """x uniform on [0, 10]^3; y and y_hat are the coordinate sum plus independent noise."""
    rng = stream(seed)
    x = rng.uniform(0.0, 10.0, (n, 3))
    e1 = rng.standard_normal(n)
    e2 = rng.standard_normal(n)
    s = x.sum(axis=1)
    return x, s + e1, s + e2


def min_max_scale(x: np.ndarray) -> np.ndarray:
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    out = np.zeros_like(x)
    for c in range(x.shape[1]):
        if span[c] > 0:
            out[:, c] = (x[:, c] - lo[c]) / span[c]
    return out


# ---------------------------------------------------------------------------
# Literal dense greedy matching
# ---------------------------------------------------------------------------


def pair_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distance of every pair i < j, in (i, j) lexicographic order."""
    n, d = x.shape
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        diff = x[i] - x[i + 1 :]
        s = diff[:, 0] * diff[:, 0]
        for c in range(1, d):
            s = s + diff[:, c] * diff[:, c]
        out[pos : pos + n - 1 - i] = np.sqrt(s)
        pos += n - 1 - i
    return out


def dense_greedy(x: np.ndarray, L: int):
    """Repeatedly take the globally closest pair of free records.

    A stable sort of the distances keeps equal distances in (i, j) order,
    which is exactly the lexicographic tie-break. Returns index arrays and
    distances in selection order.
    """
    n = x.shape[0]
    if not 1 <= L <= n // 2:
        raise ValueError(f"L={L} outside [1, {n // 2}]")
    dist = pair_distances(x)
    order = np.argsort(dist, kind="stable")
    row = np.arange(n, dtype=np.int64)
    row_start = row * n - row * (row + 1) // 2  # condensed index of (i, i + 1)
    free = np.ones(n, dtype=bool)
    pi, pj, pd = [], [], []
    for start in range(0, order.size, _SCAN_CHUNK):
        k = order[start : start + _SCAN_CHUNK]
        ii = np.searchsorted(row_start, k, side="right") - 1
        jj = k - row_start[ii] + ii + 1
        for i, j, t in zip(ii.tolist(), jj.tolist(), dist[k].tolist()):
            if free[i] and free[j]:
                free[i] = free[j] = False
                pi.append(i)
                pj.append(j)
                pd.append(t)
                if len(pi) == L:
                    return np.array(pi), np.array(pj), np.array(pd)
    raise AssertionError("unreachable: L <= n/2 leaves enough pairs")


# ---------------------------------------------------------------------------
# Literal resample-and-score
# ---------------------------------------------------------------------------


def zero_one_loss(y: np.ndarray, y_hat: np.ndarray) -> float:
    return np.count_nonzero(y != y_hat) / y.size


def squared_loss(y: np.ndarray, y_hat: np.ndarray) -> float:
    # summed in sorted order so the loss does not depend on record order
    diff = y - y_hat
    return float(np.sort(diff * diff).sum() / y.size)


def resample_tau(y, y_hat, pi, pj, K: int, seed: int, loss) -> float:
    """Fraction of K swap-resampled datasets scoring below the observed one, ties by coins."""
    L = pi.size
    observed = loss(y, y_hat)
    less = ties = 0
    for k in range(K):
        swap = stream(seed, SWAP_STREAM_BASE + k).random(L) < 0.5
        resampled = y_hat.copy()
        a, b = pi[swap], pj[swap]
        resampled[a] = y_hat[b]
        resampled[b] = y_hat[a]
        value = loss(y, resampled)
        less += int(value < observed)
        ties += int(value == observed)
    coins = stream(seed, TIE_STREAM_ID).random(ties) < 0.5
    return (less + int(coins.sum())) / K


def swap_effects(y, y_hat, pi, pj) -> tuple[int, int]:
    """How many pairs' swaps would raise / lower the mistake count."""
    before = (y[pi] != y_hat[pi]).astype(int) + (y[pj] != y_hat[pj])
    after = (y[pi] != y_hat[pj]).astype(int) + (y[pj] != y_hat[pi])
    return int((after > before).sum()), int((after < before).sum())


# ---------------------------------------------------------------------------
# Validity bounds under a smoothness constant C (odds ratio within (1 + C t)^{+-2})
# ---------------------------------------------------------------------------


def epsilon_star(distances, C: float) -> float:
    worst = 0.0
    for t in distances:
        hi = (1.0 + C * t) ** 2
        for r in (hi, 1.0 / hi):
            worst = max(worst, abs(1.0 / (1.0 + r) - 0.5))
    return worst


def validity_numbers(eps: float, L: int, K: int, alpha: float) -> dict:
    coupling = 1.0 - (1.0 - eps) ** L
    slack = 1.0 / (K + 1)
    return {
        "epsilon_star": eps,
        "theorem1_bound": min(1.0, max(0.0, alpha + coupling + slack)),
        "union_bound": min(1.0, max(0.0, alpha + eps * L + slack)),
        "adjusted_threshold": max(0.0, alpha - coupling - slack),
    }


# ---------------------------------------------------------------------------
# Expected outputs of the three CLI workloads
# ---------------------------------------------------------------------------


def audit_report(x, y, y_hat, L_values, K, alpha, C, seed) -> dict:
    """Expected rows of ``experttest report --normalize --loss zero-one --smoothness-C C``."""
    x = min_max_scale(x)
    pi, pj, dist = dense_greedy(x, max(L_values))
    rows = []
    for L in L_values:
        a, b, t = pi[:L], pj[:L], dist[:L]
        inc, dec = swap_effects(y, y_hat, a, b)
        tau = resample_tau(y, y_hat, a, b, K, seed, zero_one_loss)
        rows.append({
            "L": L,
            "mismatched_pairs": int((t > 0).sum()),
            "swaps_increase": inc,
            "swaps_decrease": dec,
            "tau": tau,
            "effective_p": tau + 1.0 / (K + 1),
            "rejected": tau <= alpha,
            "observed_loss": zero_one_loss(y, y_hat),
            "validity": validity_numbers(epsilon_star(t.tolist(), C), L, K, alpha),
        })
    return {"n": x.shape[0], "d": x.shape[1], "K": K, "seed": seed, "rows": rows}


def power_cells(n_values, deltas, divisor, K, alpha, trials, seed) -> list[dict]:
    """Expected cells of ``experttest power`` over the (n, delta) grid."""
    cells = []
    for i, n in enumerate(n_values):
        L = n // divisor
        pairs = None
        for j, delta in enumerate(deltas):
            rejections = 0
            for t in range(trials):
                x, y, y_hat = expertise_world(n, delta, derive_seed(seed, POWER_DOMAIN, 0, i, j, t))
                if pairs is None:  # the feature layout depends on n only
                    pairs = dense_greedy(x, L)[:2]
                test_seed = derive_seed(seed, POWER_DOMAIN, 1, i, j, t)
                rejections += resample_tau(y, y_hat, *pairs, K, test_seed, zero_one_loss) <= alpha
            cells.append({"n": n, "delta": delta, "L": L, "trials": trials, "rejections": rejections})
    return cells


def validity_cells(n, L_values, K, alpha, trials, seed) -> list[dict]:
    """Expected cells of ``experttest validity`` (squared loss on the validity cube)."""
    rejections = [0] * len(L_values)
    for t in range(trials):
        x, y, y_hat = validity_cube(n, derive_seed(seed, TYPE1_DOMAIN, 0, t))
        pi, pj, _ = dense_greedy(x, max(L_values))
        test_seed = derive_seed(seed, TYPE1_DOMAIN, 1, t)
        for j, L in enumerate(L_values):
            tau = resample_tau(y, y_hat, pi[:L], pj[:L], K, test_seed, squared_loss)
            rejections[j] += tau <= alpha
    return [{"L": L, "trials": trials, "rejections": r} for L, r in zip(L_values, rejections)]
