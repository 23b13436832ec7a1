"""Hot kernels in numpy: Hermite-function tables, and greedy ball selection line by line on a grid."""

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


def greedy_ball_select(axes, radii: np.ndarray) -> np.ndarray:
    """Greedy center selection on a grid with the symmetric third-radius separation rule.

    The candidates are the row-major product of the sorted coordinate arrays
    ``axes``. Scanning them in order, candidate j is kept iff for every
    already kept center c with radius r:  ||x_j - c|| >= (radii[j] + r) / 3,
    the distance being the square root of the squared differences summed
    left to right. That predicate makes the balls B(center, radius/3)
    pairwise disjoint by construction.

    The scan walks the grid lines along the last axis in row-major order. On
    a line the leading differences are exactly 0, so the rule is a 1-D test:
    each kept candidate marks the later ones it excludes, up to where its
    distance passes the largest separation (r + max radii)/3 it can impose,
    and the line's next unmarked candidate is kept. The line's kept balls
    then mark, in one batched evaluation, the candidates of later lines they
    exclude, over per-ball index windows that searchsorted takes axis by
    axis within that separation. The work follows the kept balls and their
    reach, not the candidates times the kept balls.

    Parameters
    ----------
    axes : sequence of sorted 1-D float64 arrays, one per space dimension.
    radii : (prod of the axis sizes,) float64 array, the density at each
        candidate in row-major order.

    Returns
    -------
    int64 flat indices of the kept candidates, in selection order.
    """
    axes = [np.ascontiguousarray(a, dtype=np.float64) for a in axes]
    radii = np.ascontiguousarray(radii, dtype=np.float64)
    sizes = [a.size for a in axes]
    m = math.prod(sizes)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    rmax = float(radii.max())
    s = sizes[-1]
    x = memoryview(axes[-1])  # items read as Python floats, without a list of them
    marked = np.zeros(m, dtype=bool)
    kept = []
    for start in range(0, m, s):
        row = marked[start : start + s]
        if row.all():
            continue
        free = (~row).nonzero()[0]
        r = memoryview(radii[start : start + s])
        excluded = bytearray(s)
        picked = []
        for j in memoryview(free):
            if excluded[j]:
                continue
            picked.append(j)
            xj, rj = x[j], r[j]
            reach = (rj + rmax) / 3.0
            for k in range(j + 1, s):
                t = x[k] - xj
                d = math.sqrt(t * t)
                if not d < reach:  # rounding is monotone, so no later k is excluded
                    break
                if d < (r[k] + rj) / 3.0:
                    excluded[k] = 1
        kept.extend(start + j for j in picked)
        if len(axes) > 1:
            _mark_reach(axes, radii, marked, rmax, start // s, np.asarray(picked))
    return np.asarray(kept, dtype=np.int64)


def _mark_reach(axes, radii, marked, rmax, line, last) -> None:
    """Mark every candidate that the kept balls on one grid line exclude.

    The balls sit on line ``line`` (flat index over the leading axes) at
    last-axis indices ``last``. Axis by axis, each ball's window is the
    searchsorted run within sqrt(T^2 - partial sum) of its coordinate, T =
    (r + rmax)/3 widened by 1e-12 against rounding, plus one index per side;
    the first axis runs only from the line's own index on, the others on both
    sides. A hit is sqrt(sum of squares, left to right) < (R + r)/3.
    """
    lead = np.unravel_index(line, [a.size for a in axes[:-1]])
    centers = [np.full(last.size, axis[i]) for axis, i in zip(axes, lead)] + [axes[-1][last]]
    rk = radii[line * axes[-1].size + last]
    reach = (rk + rmax) / 3.0
    tt = reach * reach * (1.0 + 1e-12)
    ball = np.arange(last.size)
    flat = np.zeros(last.size, dtype=np.intp)
    acc = np.zeros(last.size)
    for d, (axis, ctr) in enumerate(zip(axes, centers)):
        c = ctr[ball]
        w = np.sqrt(np.maximum(tt[ball] - acc, 0.0)) * (1.0 + 1e-12)
        lo = lead[0] if d == 0 else np.maximum(axis.searchsorted(c - w) - 1, 0)
        hi = np.minimum(axis.searchsorted(c + w, side="right") + 1, axis.size)
        size = hi - lo
        rep = np.arange(ball.size).repeat(size)
        idx = (lo - size.cumsum() + size)[rep] + np.arange(rep.size)
        ball = ball[rep]
        acc = acc[rep] + (axis[idx] - c[rep]) ** 2
        flat = flat[rep] * axis.size + idx
    marked[flat[np.sqrt(acc) < (radii[flat] + rk[ball]) / 3.0]] = True
