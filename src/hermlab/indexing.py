"""Multi-index enumeration shared by every module.

The basis of the degree-N Hermite span in n variables is indexed by
multi-indices alpha in N^n with |alpha| = alpha_1 + ... + alpha_n <= N.
All coefficient vectors, Gram matrices and evolution matrices in this package
use one fixed enumeration: total degree ascending, then lexicographic
ascending within each degree level. For n = 2, N = 2 the order is

    (0,0) | (0,1) (1,0) | (0,2) (1,1) (2,0)

Keeping this in one module is deliberate: a Gram matrix assembled here and an
evolution matrix assembled elsewhere must agree entry-for-entry.
"""

from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "span_dim",
    "level_dim",
    "multi_indices",
    "level_of",
    "index_lookup",
]


def level_dim(dim: int, k: int) -> int:
    """Number of multi-indices in N^dim with |alpha| = k."""
    return comb(k + dim - 1, dim - 1)


def span_dim(dim: int, degree: int) -> int:
    """Number of multi-indices with |alpha| <= degree."""
    return comb(degree + dim, dim)


@lru_cache(maxsize=256)
def _multi_indices_cached(dim: int, degree: int) -> np.ndarray:
    rows = []
    for k in range(degree + 1):
        rows.extend(sorted(_compositions(k, dim)))
    out = np.array(rows, dtype=np.int64).reshape(len(rows), dim)
    out.setflags(write=False)
    return out


def _compositions(total: int, dim: int):
    if dim == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, dim - 1):
            yield (first,) + rest


def multi_indices(dim: int, degree: int) -> np.ndarray:
    """All multi-indices with |alpha| <= degree, degree-then-lex order.

    Returns a read-only (span_dim(dim, degree), dim) int64 array.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return _multi_indices_cached(dim, degree)


def level_of(dim: int, degree: int) -> np.ndarray:
    """|alpha| for each enumerated index, as an int64 vector."""
    return multi_indices(dim, degree).sum(axis=1)


@lru_cache(maxsize=256)
def index_lookup(dim: int, degree: int) -> dict:
    """Map tuple(alpha) -> position in the enumeration."""
    table = multi_indices(dim, degree)
    return {tuple(int(v) for v in row): i for i, row in enumerate(table)}
