"""Hermite functions and exact ladder-operator calculus on finite spans.

The 1-D Hermite functions h_k are the L2-normalized harmonic-oscillator
eigenfunctions; h_0(x) = pi^{-1/4} exp(-x^2/2) and

    h_{k+1}(x) = sqrt(2/(k+1)) x h_k(x) - sqrt(k/(k+1)) h_{k-1}(x).

Products H_alpha(x) = prod_j h_{alpha_j}(x_j) form an orthonormal basis of
L2(R^n). An expansion of degree N stores one coefficient per multi-index with
|alpha| <= N in the shared enumeration of :mod:`hermlab.indexing`; the L2 norm
is the euclidean norm of the coefficient vector.

The raising/lowering operators act on coefficients exactly:

    raise_j: c[alpha] -> sqrt(alpha_j + 1) c at alpha + e_j
    lower_j: c[alpha] -> sqrt(alpha_j)     c at alpha - e_j

One cached map serves both: lower_j on the degree-N span is the adjoint of
raise_j from the degree-(N-1) span, so it reads that raising map backwards.
Position and derivative are the combinations x_j = (lower_j + raise_j)/sqrt2
and d/dx_j = (lower_j - raise_j)/sqrt2, so any x^alpha d^beta is computed in
coefficient space with no quadrature at all.
"""

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import indexing
from .kernels import hermite_function_table

__all__ = [
    "DEGREE_CAP",
    "hermite_eval_1d",
    "HermiteExpansion",
    "basis_state",
    "random_expansion",
    "apply_ladder",
    "apply_position_derivative",
    "apply_harmonic_oscillator",
    "evaluate",
]

# the largest degree that hermite_eval_1d evaluates and that x^alpha d^beta
# chains may reach; the mpmath tests pin values up to it
DEGREE_CAP = 2048


def hermite_eval_1d(k: int, x):
    """Value of the 1-D Hermite function h_k at x (scalar or array).

    Total on finite inputs: the recurrence carries a per-point power-of-two
    exponent, so large |x| neither overflows nor underflows before h_k does.
    """
    if k < 0 or k > DEGREE_CAP:
        raise ValueError(f"degree k={k} outside [0, {DEGREE_CAP}]")
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation points must be finite")
    table = hermite_function_table(k, arr.ravel())
    out = table[k].reshape(arr.shape)
    return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class HermiteExpansion:
    """A finite Hermite combination: one coefficient per |alpha| <= degree.

    Coefficients may be real or complex; the vector follows the shared
    degree-then-lex enumeration. Instances are value objects (frozen, with a
    read-only coefficient array) and safe to share across threads.
    """

    dim: int
    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.array(self.coeffs, copy=True)
        if c.dtype not in (np.float64, np.complex128):
            c = c.astype(np.complex128 if np.iscomplexobj(c) else np.float64)
        expected = indexing.span_dim(self.dim, self.degree)
        if c.shape != (expected,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, expected ({expected},)"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- norms and access ---------------------------------------------------

    def norm(self) -> float:
        """L2 norm, read off the coefficients (Parseval)."""
        return float(np.linalg.norm(self.coeffs))

    def coefficient(self, alpha) -> complex | float:
        """Coefficient of H_alpha (0.0 when |alpha| exceeds the degree)."""
        i = _position(self.dim, self.degree, alpha)
        if i is None:
            return 0.0
        val = self.coeffs[i]
        return complex(val) if np.iscomplexobj(self.coeffs) else float(val)

    def items(self):
        """Iterate (alpha tuple, coefficient) over the enumeration."""
        table = indexing.multi_indices(self.dim, self.degree)
        for i, row in enumerate(table):
            yield tuple(int(v) for v in row), self.coeffs[i]

    def with_degree(self, degree: int) -> "HermiteExpansion":
        """Same function viewed in a span of different degree.

        Raising the degree pads with zeros; lowering requires the discarded
        coefficients to be exactly zero.
        """
        if degree == self.degree:
            return self
        m = indexing.span_dim(self.dim, degree)
        if degree > self.degree:
            out = np.zeros(m, dtype=self.coeffs.dtype)
            out[: self.coeffs.size] = self.coeffs
            return HermiteExpansion(self.dim, degree, out)
        if np.any(self.coeffs[m:] != 0):
            raise ValueError("cannot truncate: nonzero coefficients above target degree")
        return HermiteExpansion(self.dim, degree, self.coeffs[:m])

    # -- serialization (binary64 round-trip exact) --------------------------

    def to_json(self) -> str:
        pairs = []
        for alpha, c in self.items():
            if np.iscomplexobj(self.coeffs):
                pairs.append([list(alpha), [float(c.real), float(c.imag)]])
            else:
                pairs.append([list(alpha), float(c)])
        return json.dumps({"dim": self.dim, "degree": self.degree, "coeffs": pairs})

    @classmethod
    def from_json(cls, text: str) -> "HermiteExpansion":
        obj = json.loads(text)
        dim, degree = int(obj["dim"]), int(obj["degree"])
        any_complex = any(isinstance(v, list) for _, v in obj["coeffs"])
        c = np.zeros(indexing.span_dim(dim, degree), dtype=np.complex128 if any_complex else np.float64)
        for alpha, v in obj["coeffs"]:
            i = _position(dim, degree, alpha)
            if i is None:
                raise ValueError(f"index {tuple(alpha)} lies above the dim-{dim} degree-{degree} span")
            c[i] = complex(v[0], v[1]) if isinstance(v, list) else float(v)
        return cls(dim, degree, c)


def _position(dim: int, degree: int, alpha) -> int | None:
    """Position of alpha in the span's enumeration; None when |alpha| > degree.

    Raises ValueError naming the index and the span when alpha has the wrong
    length or a negative entry.
    """
    key = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(key) != dim or any(a < 0 for a in key):
        raise ValueError(f"index {key} is not a multi-index of the dim-{dim} degree-{degree} span")
    if sum(key) > degree:
        return None
    return indexing.index_lookup(dim, degree)[key]


def basis_state(dim: int, degree: int, alpha) -> HermiteExpansion:
    """The single basis function H_alpha inside a degree-`degree` span."""
    i = _position(dim, degree, alpha)
    if i is None:
        raise ValueError(f"|alpha| exceeds the span degree {degree}")
    c = np.zeros(indexing.span_dim(dim, degree))
    c[i] = 1.0
    return HermiteExpansion(dim, degree, c)


def random_expansion(rng: np.random.Generator, dim: int, degree: int, normalize: bool = True) -> HermiteExpansion:
    """Random real expansion with standard normal coefficients."""
    c = rng.standard_normal(indexing.span_dim(dim, degree))
    if normalize:
        c /= np.linalg.norm(c)
    return HermiteExpansion(dim, degree, c)


# -- ladder maps ------------------------------------------------------------


@lru_cache(maxsize=512)
def _raise_map(dim: int, degree: int, axis: int):
    """Positions in the degree+1 enumeration of alpha + e_axis, plus factors."""
    table = indexing.multi_indices(dim, degree)
    lookup = indexing.index_lookup(dim, degree + 1)
    shifted = table + np.eye(dim, dtype=np.int64)[axis]
    tgt = np.array([lookup[tuple(row)] for row in shifted.tolist()], dtype=np.int64)
    fac = np.sqrt(table[:, axis] + 1.0)
    fac.setflags(write=False)
    tgt.setflags(write=False)
    return tgt, fac


def _lowered(c: np.ndarray, dim: int, degree: int, axis: int, size: int) -> np.ndarray:
    """lower_axis of the degree-N coefficients c, zero-padded to `size` entries.

    Reads the degree-(N-1) raising map backwards: each alpha gathers
    sqrt(alpha_axis + 1) c[alpha + e_axis]. The gather adds onto zeros, so a
    -0.0 coefficient lowers to +0.0.
    """
    out = np.zeros(size, dtype=c.dtype)
    if degree > 0:
        tgt, fac = _raise_map(dim, degree - 1, axis)
        out[: tgt.size] += fac * c[tgt]
    return out


def apply_ladder(f: HermiteExpansion, axis: int, which: str) -> HermiteExpansion:
    """Apply the raising or lowering operator on one axis.

    'raise' sends c[alpha] to sqrt(alpha_axis + 1) c at alpha + e_axis and the
    result has degree N+1; 'lower' sends c[alpha] to sqrt(alpha_axis) c at
    alpha - e_axis (ground-level coefficients drop) and the result has degree
    max(N-1, 0).
    """
    if not 0 <= axis < f.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.dim}")
    if which == "raise":
        tgt, fac = _raise_map(f.dim, f.degree, axis)
        out = np.zeros(indexing.span_dim(f.dim, f.degree + 1), dtype=f.coeffs.dtype)
        out[tgt] = fac * f.coeffs
        return HermiteExpansion(f.dim, f.degree + 1, out)
    if which == "lower":
        degree = max(f.degree - 1, 0)
        out = _lowered(f.coeffs, f.dim, f.degree, axis, indexing.span_dim(f.dim, degree))
        return HermiteExpansion(f.dim, degree, out)
    raise ValueError("which must be 'raise' or 'lower'")


def _signed_step(c: np.ndarray, dim: int, degree: int, axis: int, op) -> np.ndarray:
    """(lower_axis op raise_axis) c / sqrt(2) on the degree-N span, as degree N+1.

    op = np.add gives x_axis, op = np.subtract gives d/dx_axis.
    """
    out = _lowered(c, dim, degree, axis, indexing.span_dim(dim, degree + 1))
    tgt, fac = _raise_map(dim, degree, axis)
    out[tgt] = op(out[tgt], fac * c)
    return out / np.sqrt(2.0)


def apply_position_derivative(f: HermiteExpansion, alpha, beta) -> HermiteExpansion:
    """Exact coefficients of x^alpha d^beta f, as a degree N+|alpha|+|beta| span.

    Derivatives act first (the operator is the composition "differentiate,
    then multiply"). Raises when the output degree would exceed DEGREE_CAP.
    """
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    beta = tuple(int(b) for b in np.atleast_1d(beta))
    if len(alpha) != f.dim or len(beta) != f.dim:
        raise ValueError("index dimension mismatch")
    if any(a < 0 for a in alpha) or any(b < 0 for b in beta):
        raise ValueError("indices must be non-negative")
    if f.degree + sum(alpha) + sum(beta) > DEGREE_CAP:
        raise ValueError(f"output degree exceeds cap {DEGREE_CAP}")
    c, degree = f.coeffs, f.degree
    for powers, op in ((beta, np.subtract), (alpha, np.add)):
        for j, p in enumerate(powers):
            for _ in range(p):
                c = _signed_step(c, f.dim, degree, j, op)
                degree += 1
    return HermiteExpansion(f.dim, degree, c)


def apply_harmonic_oscillator(f: HermiteExpansion) -> HermiteExpansion:
    """Apply -Laplacian + |x|^2: multiplies level-k coefficients by (2k + n)."""
    levels = indexing.level_of(f.dim, f.degree)
    return HermiteExpansion(f.dim, f.degree, (2 * levels + f.dim) * f.coeffs)


def evaluate(f: HermiteExpansion, points: np.ndarray) -> np.ndarray:
    """Evaluate the expansion at points (shape (m, dim) or (m,) when dim=1)."""
    pts = np.asarray(points, dtype=np.float64)
    if f.dim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != f.dim:
        raise ValueError("points must have shape (m, dim)")
    table = indexing.multi_indices(f.dim, f.degree)
    vals = np.ones((table.shape[0], pts.shape[0]), dtype=f.coeffs.dtype)
    for j in range(f.dim):
        tab = hermite_function_table(f.degree, np.ascontiguousarray(pts[:, j]))
        vals *= tab[table[:, j]]
    return f.coeffs @ vals
