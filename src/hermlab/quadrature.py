"""Gauss-Legendre rules and the one composite Gauss-panel rule of the package.

panel_nodes serves spectral's Gram assembly and geometry's intersection
measures.
"""

from functools import cache

import numpy as np

__all__ = ["gauss_legendre", "panel_nodes"]


@cache
def gauss_legendre(order: int):
    """Read-only nodes and weights of the order-point rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_nodes(intervals: np.ndarray, panel_len: float, order: int):
    """Composite Gauss-Legendre (nodes, weights, counts) over an interval union.

    Each interval [a, b] is cut into k = max(ceil((b - a) / panel_len), 1)
    equal panels with edges j * ((b - a) / k) + a and the last edge pinned
    to b, the edges np.linspace(a, b, k + 1) gives. The nodes run interval
    by interval, and counts[i] = k * order is how many of them interval i
    gets. Each interval's nodes depend on that interval alone.
    """
    base_x, base_w = gauss_legendre(order)
    iv = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    a, b = iv[:, 0], iv[:, 1]
    k = np.maximum(np.ceil((b - a) / panel_len).astype(np.int64), 1)
    owner = np.repeat(np.arange(k.size), k)
    j = np.arange(owner.size) - np.repeat(np.cumsum(k) - k, k)
    step = ((b - a) / k)[owner]
    lo = (j * step + a[owner])[:, None]
    hi = np.where(j + 1 == k[owner], b[owner], (j + 1) * step + a[owner])[:, None]
    x = ((hi + lo) / 2 + (hi - lo) / 2 * base_x[None, :]).ravel()
    w = ((hi - lo) / 2 * base_w[None, :]).ravel()
    return x, w, k * order
