"""An independent reference for 1-D Grams and lambda_min: the closed-form box Gram.

On an interval [a, b] the pairings of Hermite functions need only their
endpoint values. h_k'' = (x^2 - 2k - 1) h_k gives, for j != k,

    int_a^b h_j h_k = [h_j h_k' - h_j' h_k]_a^b / (2 (j - k)),

and differentiating h_k h_{k+1} gives the diagonal I_k by recurrence,

    sqrt((k+1)/2) (I_k - I_{k+1}) = [h_k h_{k+1}]_a^b - sqrt(k/2) G_{k-1,k+1} + sqrt((k+2)/2) G_{k,k+2},

from I_0 = (erf(b) - erf(a)) / 2. The same code runs in double precision
(FLOAT) and in mpmath at any working precision (mpmath.mp), where it
resolves lambda_min far below the eps * ||G|| floor of a double solve.
"""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from hermlab import geometry, spectral

FLOAT = SimpleNamespace(mpf=float, exp=math.exp, sqrt=math.sqrt, erf=math.erf, pi=math.pi)
PERIODIC = geometry.PeriodicPattern(1, 4.0, 0.25)


def _hermite_ends(x, top: int, lib):
    """[h_0(x), ..., h_top(x)] and [h_0'(x), ..., h_{top-1}'(x)], by the three-term recurrence."""
    h = [lib.exp(-x * x / 2) / lib.sqrt(lib.sqrt(lib.pi))]
    h.append(lib.sqrt(2) * x * h[0])
    for k in range(1, top):
        h.append(lib.sqrt(lib.mpf(2) / (k + 1)) * x * h[k] - lib.sqrt(lib.mpf(k) / (k + 1)) * h[k - 1])
    # h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}
    up = [lib.sqrt(lib.mpf(k + 1) / 2) * h[k + 1] for k in range(top)]
    dh = [lib.sqrt(lib.mpf(k) / 2) * h[k - 1] - up[k] if k else -up[0] for k in range(top)]
    return h, dh


def box_gram(intervals, degree: int, lib=FLOAT) -> list:
    """The pairings of h_0 ... h_degree over a union of disjoint finite intervals, as nested lists of lib numbers."""
    m = degree + 1
    size = m + 1  # the diagonal recurrence reads G_{k,k+2} up to degree + 1
    G = [[lib.mpf(0)] * size for _ in range(size)]
    edge = [lib.mpf(0)] * m  # [h_k h_{k+1}] summed over the intervals
    diag = [lib.mpf(0)]
    for a, b in intervals:
        a, b = lib.mpf(a), lib.mpf(b)
        (ha, dha), (hb, dhb) = _hermite_ends(a, size, lib), _hermite_ends(b, size, lib)
        diag[0] += (lib.erf(b) - lib.erf(a)) / 2
        for k in range(m):
            edge[k] += hb[k] * hb[k + 1] - ha[k] * ha[k + 1]
        for j in range(size):
            for k in range(j + 1, size):
                wronskian = (hb[j] * dhb[k] - dhb[j] * hb[k]) - (ha[j] * dha[k] - dha[j] * ha[k])
                G[j][k] += wronskian / (2 * (j - k))
    for k in range(m - 1):
        rhs = edge[k] + lib.sqrt(lib.mpf(k + 2) / 2) * G[k][k + 2]
        if k:
            rhs -= lib.sqrt(lib.mpf(k) / 2) * G[k - 1][k + 1]
        diag.append(diag[k] - rhs / lib.sqrt(lib.mpf(k + 1) / 2))
    return [[diag[j] if j == k else G[min(j, k)][max(j, k)] for k in range(m)] for j in range(m)]


def _periodic_intervals(radius):
    """PERIODIC's kept intervals [4k, 4k + 1] cut to [-radius, radius]."""
    cut = [(max(4 * k, -radius), min(4 * k + 1, radius)) for k in range(-int(radius) // 4 - 1, int(radius) // 4 + 1)]
    return [(a, b) for a, b in cut if b > a]


@pytest.mark.parametrize("N", [25, 50])
def test_closed_form_box_gram_matches_gram_matrix_in_double(N):
    ref = np.array(box_gram(_periodic_intervals(math.sqrt(4 * N + 300)), N), dtype=np.float64)
    G = spectral.gram_matrix(PERIODIC, N).entries
    assert np.max(np.abs(G - ref)) <= 1e-14


def test_lambda_min_lies_within_lambda_err_of_a_60_digit_oracle():
    # at N = 25 the periodic set's lambda_min is far below eps * ||G||, so
    # only an extended-precision reference can check its error bar
    N = 25
    res = spectral.spectral_constant(spectral.gram_matrix(PERIODIC, N))
    with mpmath.workdps(60):
        mp = mpmath.mp
        gram = box_gram(_periodic_intervals(mp.sqrt(4 * N + 300)), N, mp)
        oracle = min(mp.eigsy(mp.matrix(gram), eigvals_only=True))
        error = float(abs(mp.mpf(res.lambda_min) - oracle))
    assert float(oracle) == pytest.approx(6.8450481e-11, rel=1e-7, abs=0.0)
    assert not res.floor
    assert error <= res.lambda_err
