"""Hot kernels in numpy: Hermite-function tables, and greedy ball selection line by line on a grid.

A table runs the three-term recurrence on a per-point scaled polynomial
part. Points past |x| = 26.64 are tested for rescaling only at check steps,
spaced by a growth bound so that the part stays within 2^512 between them,
and an optional per-point factor (say, quadrature weights) is multiplied
into the row factor, so a weighted table costs no pass of its own.

Selection decides each grid line by a 1-D test in Python floats, then marks
the later lines' candidates that the line's kept balls exclude through one
offset stencil built per call, on a grid padded with +inf coordinates.
"""

import itertools
import math
import operator

import numpy as np

BACKEND = "python"

__all__ = ["BACKEND", "hermite_function_table", "greedy_ball_select"]


# ln 2 split so that E * _LN2_HI is exact for every reachable exponent E
_LN2_HI = 0.693145751953125
_LN2_LO = 1.4286068203094173e-06
_RESCALE = 512
# a check rescales where max(|p_k|, |p_{k-1}|) passes 2^_CHECK, and the steps to
# the next one grow it by at most 2^_HEADROOM, so |p| stays below 2^_RESCALE
_CHECK = 256
_HEADROOM = 255
_TINY = np.finfo(np.float64).tiny
# past this |x| every h_k a table can hold is 0 in binary64
_ZERO_BEYOND = 2.0**32


def hermite_function_table(kmax: int, x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Table of normalized Hermite functions h_k(x), rows k = 0..kmax, each column times its weight.

    Runs the three-term recurrence
        p_{k+1}(x) = a_k x p_k(x) - sqrt(k/(k+1)) p_{k-1}(x),  a_k = sqrt(2/(k+1)),
    on the polynomial part p_k = h_k e^{x^2/2} 2^{-E}, with a per-point
    integer exponent E, and writes row k as p_k times the per-point factor
    row = exp(E ln 2 - x^2/2) * weight, ln 2 split so the exponent stays
    exact. Only points with x^2/2 > 512 ln 2 (|x| > 26.64) can need E > 0,
    since |h_k| <= pi^{-1/4} (Cramer); they are tested at check steps alone.
    At a check every such point with M = max(|p_k|, |p_{k-1}|) > 2^256 has
    p_k and p_{k-1} scaled by 2^-512 exactly and E raised by 512. As
    |p_{j+1}| <= (a_j |x| + 1) max(|p_j|, |p_{j-1}|) and a_j falls, the next
    floor(255 / log2(a_{k+1} max|x| + 1)) steps cannot take M past 2^511,
    so |p| <= 2^512 holds at every step and the next check comes then. A
    check also raises E, by 512 at a time, wherever row is subnormal and
    M > 2^-256 leaves p room, so e^{-x^2/2} underflowing (|x| > 37.6) costs
    no digits: a point left with a subnormal row has M <= 2^-1 up to the next
    check, hence h_k below 2^-1022. So h_k stays right far out, which degrees
    past about 750 reach inside their turning point. A table with no point
    past |x| = 26.64 runs no check.

    Points with |x| > 2^32 get exact zero columns: the recurrence would
    overflow past |x| ~ 1e154, and there every h_k a table can hold (k <
    2^58) is 0 in binary64. Such |x| lies past every zero of H_k, all inside
    sqrt(2k + 1), so |h_k(x)| <= (2x^2)^{k/2} e^{-x^2/2} < e^{-2^61}, far
    below 2^-1075, half the least subnormal.

    Parameters
    ----------
    kmax : highest degree (>= 0).
    x : 1-D float64 array of evaluation points.
    weights : optional per-point factors, one per point, multiplied into
        row once (and into each recomputed row), so the table comes out
        weighted with no pass of its own; None leaves h_k(x) unweighted.

    Returns
    -------
    (kmax+1, len(x)) float64 array.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    zero = np.abs(x) > _ZERO_BEYOND
    x = np.where(zero, 0.0, x)
    out = np.empty((kmax + 1, x.size), dtype=np.float64)
    half = 0.5 * x * x
    E = np.zeros(x.size, dtype=np.int64)
    # a factor of 1 leaves each row bit for bit unweighted
    factor = np.ones_like(x) if weights is None else np.asarray(weights, dtype=np.float64)
    row = np.exp(-half) * factor
    p_prev = np.zeros_like(x)
    p = np.full_like(x, np.pi**-0.25)
    out[0] = p * row
    far = np.flatnonzero(half > _RESCALE * _LN2_HI)
    x_far = float(np.max(np.abs(x[far]))) if far.size else 0.0
    check = 0 if far.size else kmax  # the step of the next check
    scratch = np.empty_like(x)
    for k in range(kmax):
        # p_{k+1} overwrites p_{k-1}: a x p_k + (-b p_{k-1}) rounds as a x p_k - b p_{k-1}
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=scratch)
        scratch *= p
        p_prev *= -math.sqrt(k / (k + 1.0))
        p_prev += scratch
        p, p_prev = p_prev, p
        if k == check:
            _rescale(far, p, p_prev, E, row, half, factor)
            check = k + int(_HEADROOM // math.log2(math.sqrt(2.0 / (k + 2)) * x_far + 1.0))
        np.multiply(p, row, out=out[k + 1])
    out[:, zero] = 0.0
    return out


def _rescale(far, p, p_prev, E, row, half, factor):
    """One check of the far points, updating p, p_prev, E and row in place.

    With M = max(|p_k|, |p_{k-1}|), E rises by 512 where M > 2^256, then
    again while row is subnormal and M > 2^-256.
    """
    M = np.maximum(np.abs(p[far]), np.abs(p_prev[far]))
    up = M > 2.0**_CHECK
    while True:
        raise_ = far[up]
        if raise_.size:
            p[raise_] = np.ldexp(p[raise_], -_RESCALE)
            p_prev[raise_] = np.ldexp(p_prev[raise_], -_RESCALE)
            E[raise_] += _RESCALE
            Er = E[raise_]
            row[raise_] = np.exp((Er * _LN2_HI - half[raise_]) + Er * _LN2_LO) * factor[raise_]
            M[up] = np.ldexp(M[up], -_RESCALE)
        up = (np.abs(row[far]) < _TINY) & (M > 2.0**-_CHECK)
        if not up.any():
            return


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
    then mark the candidates of later lines they exclude through one stencil
    of grid offsets onto later lines, built once per call and sorted by a
    lower bound on their distance (see _stencil). The prefix whose bound is
    below the line's reach (max kept r + max radii)/3 is added to each kept
    ball's flat index on a grid padded after each axis's end with +inf
    coordinates, which are never within reach, so no bounds masks are
    needed; each hit is the exact test above. The work follows the kept
    balls and their reach, not the candidates times the kept balls.

    Parameters
    ----------
    axes : sequence of 1-D float64 arrays of finite coordinates sorted
        ascending, one per space dimension.
    radii : (prod of the axis sizes,) float64 array of positive radii, the
        density at each candidate in row-major order.

    Returns
    -------
    int64 flat indices of the kept candidates, in selection order.
    """
    axes = [np.ascontiguousarray(a, dtype=np.float64) for a in axes]
    radii = np.ascontiguousarray(radii, dtype=np.float64)
    for a in axes:
        if a.ndim != 1 or not (np.isfinite(a).all() and (a[1:] >= a[:-1]).all()):
            raise ValueError("every axis must be a 1-D array of finite coordinates sorted ascending")
    sizes = [a.size for a in axes]
    m = math.prod(sizes)
    if radii.shape != (m,):
        raise ValueError(f"radii has shape {radii.shape}, but the grid has {m} candidates")
    if not (radii > 0).all():
        raise ValueError("radii must be positive numbers")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    rmax = float(radii.max())
    n, s = len(axes), sizes[-1]
    x = memoryview(axes[-1])  # items read as Python floats, without a list of them
    if n > 1:
        bound, offs, half = _stencil(axes, 2.0 * rmax / 3.0)
        # pad each axis after its end by its half-width with +inf coordinates: an
        # index past the end lands there, and one before the start (-h..-1) wraps
        # round to them, while its flat index borrows into a padded slot
        padded = [size + h for size, h in zip(sizes, half)]
        pstrides = [math.prod(padded[d + 1 :]) for d in range(n)]
        xp = [np.concatenate([a, np.full(h, np.inf)]) for a, h in zip(axes, half)]
        radp = np.pad(radii.reshape(sizes), [(0, h) for h in half]).ravel()
        flat = sum(o * ps for o, ps in zip(offs, pstrides))
        marked = np.zeros(radp.size, dtype=bool)
    else:
        bound, pstrides = np.empty(0), [1]
        marked = np.zeros(m, dtype=bool)
    kept = []
    for line, lead in enumerate(itertools.product(*map(range, sizes[:-1]))):
        start = line * s
        pstart = sum(map(operator.mul, lead, pstrides))
        excluded = bytearray(marked[pstart : pstart + s])  # earlier lines' marks, then this line's
        j = excluded.find(0)
        if j < 0:
            continue
        r = memoryview(radii[start : start + s])
        picked = []
        rline = 0.0
        while j >= 0:
            picked.append(j)
            xj, rj = x[j], r[j]
            if rj > rline:
                rline = rj
            reach = (rj + rmax) / 3.0
            for k in range(j + 1, s):
                t = x[k] - xj
                d = math.sqrt(t * t)
                if not d < reach:  # rounding is monotone, so no later k is excluded
                    break
                if d < (r[k] + rj) / 3.0:
                    excluded[k] = 1
            j = excluded.find(0, j + 1)
        kept.extend(start + j for j in picked)
        k = int(bound.searchsorted((rline + rmax) / 3.0))  # the stencil prefix within the line's reach
        if k == 0:
            continue
        col = np.array(picked)[:, None]
        ball = col + pstart  # the kept balls' padded flat indices
        acc = 0.0  # 0 + a is a, so the sum runs left to right from the first square
        for d, i in enumerate(lead):
            acc = acc + (xp[d][offs[d][:k] + i] - axes[d][i]) ** 2
        t = xp[-1][offs[-1][:k] + col] - xp[-1][col]
        acc = acc + t * t
        target = flat[:k] + ball
        close = np.sqrt(acc) < (radp[target] + radp[ball]) / 3.0
        marked[target[close]] = True
    return np.asarray(kept, dtype=np.int64)


def _stencil(axes, reach: float) -> tuple:
    """Forward grid offsets onto later lines that can lie within reach, sorted by a distance bound.

    Along a sorted axis, two points |o| indices apart are at least g(|o|)
    apart, g(k) being the smallest rounded difference a[i + k] - a[i] over
    the axis; an offset's bound is sqrt(sum of g(|o_d|)^2, left to right).
    The exact test rounds the same differences (negated for a negative
    offset, which rounds symmetrically), and rounded squaring, addition and
    sqrt are monotone, so the bound is at most the test's distance: an
    offset whose rounded distance is below some reach <= ``reach`` has its
    bound below it too. An offset goes onto a later line when its first
    nonzero leading component is positive. Returns (bound, per-axis
    offsets, half-widths): the kept offsets' bounds in ascending order,
    their per-axis components in the same order, and the largest
    |component| each axis can take. Each g(k) is one pass over its axis.
    """
    spans = []
    for a in axes:
        g = [0.0]  # g(0), g(1), ... while the last one is within reach
        while len(g) < a.size and math.sqrt(g[-1] * g[-1]) < reach:
            k = len(g)
            g.append(float((a[k:] - a[:-k]).min()))
        if not math.sqrt(g[-1] * g[-1]) < reach:
            g.pop()
        spans.append(np.array(g))
    half = [g.size - 1 for g in spans]
    ranges = [np.arange(half[0] + 1)] + [np.arange(-h, h + 1) for h in half[1:]]
    offs = [o.ravel() for o in np.meshgrid(*ranges, indexing="ij")]
    later = np.zeros(offs[0].size, dtype=bool)
    decided = np.zeros_like(later)
    for o in offs[:-1]:
        later |= ~decided & (o > 0)
        decided |= o != 0
    acc = 0.0
    for o, g in zip(offs, spans):
        acc = acc + g[np.abs(o)] ** 2
    bound = np.sqrt(acc)
    keep = np.flatnonzero(later & (bound < reach))
    keep = keep[np.argsort(bound[keep])]
    return bound[keep], [o[keep] for o in offs], half
