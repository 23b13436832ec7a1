"""Hot kernels: Hermite-function tables and greedy ball selection, in numpy."""

import numpy as np

BACKEND = "python"

__all__ = ["BACKEND", "hermite_function_table", "greedy_ball_select"]


def hermite_function_table(kmax: int, x: np.ndarray) -> np.ndarray:
    """Table of normalized Hermite functions h_k(x), rows k = 0..kmax.

    Uses the three-term recurrence
        h_{k+1}(x) = sqrt(2/(k+1)) x h_k(x) - sqrt(k/(k+1)) h_{k-1}(x)
    run in the function domain, so every intermediate stays bounded and large
    |x| underflows gracefully to 0.

    Parameters
    ----------
    kmax : highest degree (>= 0).
    x : 1-D float64 array of evaluation points.

    Returns
    -------
    (kmax+1, len(x)) float64 array.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty((kmax + 1, x.size), dtype=np.float64)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if kmax >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, kmax):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def greedy_ball_select(cand: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Greedy center selection with the symmetric third-radius separation rule.

    Scans candidates in order and keeps ``cand[i]`` iff for every already kept
    center ``c`` with radius ``r``:  ||cand[i] - c|| >= (radii[i] + r) / 3.
    That predicate makes the balls B(center, radius/3) pairwise disjoint by
    construction.

    Each kept candidate marks the later candidates it excludes, found with a
    KD-tree query at the largest separation it can impose, and the scan jumps
    to the next unmarked one; the work grows with the kept balls, not with
    the candidates times the kept balls.

    Parameters
    ----------
    cand : (m, n) float64 array of candidate points (n = space dimension).
    radii : (m,) float64 array, radii[i] = density at cand[i].

    Returns
    -------
    int64 indices of the kept candidates, in selection order.
    """
    from scipy.spatial import cKDTree

    cand = np.ascontiguousarray(cand, dtype=np.float64)
    radii = np.ascontiguousarray(radii, dtype=np.float64)
    m = cand.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    tree = cKDTree(cand)
    rmax = float(radii.max())
    marked = np.zeros(m, dtype=bool)
    kept: list[int] = []
    i = 0
    while i < m:
        kept.append(i)
        # widened so the tree's own rounding cannot drop a pair at the threshold
        near = np.asarray(tree.query_ball_point(cand[i], (radii[i] + rmax) / 3.0 * (1.0 + 1e-12)), dtype=np.intp)
        near = near[near > i]
        d = np.sqrt(((cand[near] - cand[i]) ** 2).sum(axis=1))
        marked[near[d < (radii[near] + radii[i]) / 3.0]] = True
        i += 1
        while i < m and marked[i]:
            i += 1
    return np.asarray(kept, dtype=np.int64)
