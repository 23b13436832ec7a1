"""Hot kernels: Hermite-function tables and greedy ball selection, in numpy."""

import math

import numpy as np

BACKEND = "python"

__all__ = ["BACKEND", "hermite_function_table", "greedy_ball_select"]


# ln 2 split so that E * _LN2_HI is exact for every reachable exponent E
_LN2_HI = 0.693145751953125
_LN2_LO = 1.4286068203094173e-06
_RESCALE = 512


def hermite_function_table(kmax: int, x: np.ndarray) -> np.ndarray:
    """Table of normalized Hermite functions h_k(x), rows k = 0..kmax.

    Runs the three-term recurrence
        p_{k+1}(x) = sqrt(2/(k+1)) x p_k(x) - sqrt(k/(k+1)) p_{k-1}(x)
    on the polynomial part p_k = h_k e^{x^2/2} 2^{-E}, with a per-point
    integer exponent E. Whenever |p_k| passes 2^512, p_k and p_{k-1} are
    scaled by 2^-512 exactly and E grows by 512; h_k = p_k
    exp(E ln 2 - x^2/2), with ln 2 split so the exponent stays exact. So
    h_k stays right where e^{-x^2/2} alone underflows (|x| > 38.6), which
    degrees past about 750 reach inside their turning point.

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
    half = 0.5 * x * x
    E = np.zeros(x.size, dtype=np.int64)
    row = np.exp(-half)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, np.pi**-0.25)
    out[0] = p * row
    # |h_k| <= pi^{-1/4} (Cramer), so |p_k| can pass 2^512 only where x^2/2 > 512 ln 2
    far = np.flatnonzero(half > _RESCALE * _LN2_HI)
    scratch = np.empty_like(x)
    for k in range(kmax):
        # p_{k+1} overwrites p_{k-1}: a x p_k + (-b p_{k-1}) rounds as a x p_k - b p_{k-1}
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=scratch)
        scratch *= p
        p_prev *= -math.sqrt(k / (k + 1.0))
        p_prev += scratch
        p, p_prev = p_prev, p
        big = far[np.abs(p[far]) > 2.0**_RESCALE] if far.size else far
        if big.size:
            p[big] = np.ldexp(p[big], -_RESCALE)
            p_prev[big] = np.ldexp(p_prev[big], -_RESCALE)
            E[big] += _RESCALE
            row[big] = np.exp((E[big] * _LN2_HI - half[big]) + E[big] * _LN2_LO)
        np.multiply(p, row, out=out[k + 1])
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
