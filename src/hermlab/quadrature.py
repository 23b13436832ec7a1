"""Gauss-Legendre rules shared by the panel quadratures of the package."""

from functools import cache

import numpy as np

__all__ = ["gauss_legendre"]


@cache
def gauss_legendre(order: int):
    """Read-only nodes and weights of the order-point rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
