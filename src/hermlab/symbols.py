"""Complex quadratic symbols on phase space: Hamilton maps and singular spaces.

A symbol is q(X) = X^T Q X with Q complex symmetric of size 2n, X = (x, xi).
Its Hamilton map F satisfies q(X, Y) = sigma(X, F Y) for the polarized form
and the symplectic pairing of (x, xi) with (y, eta). With the standard
matrix J = [[0, I], [-I, 0]] the map is F = J Q, i.e. in Hessian quarters
F = [[Q_{xi x}, Q_{xi xi}], [-Q_{x x}, -Q_{x xi}]], and Q = -J F holds as a
self-consistency identity.

The singular space is the set of real phase-space vectors killed by every
Re F (Im F)^j for j = 0, ..., 2n-1. When it is trivial, the smallest
truncation length already giving a trivial intersection is the index k0
that governs how fast the associated semigroup regularizes.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadraticForm",
    "SingularSpaceResult",
    "symplectic_matrix",
    "hamilton_map",
    "singular_space",
    "harmonic_oscillator_form",
    "rotated_harmonic_form",
    "free_laplacian_form",
    "kramers_fokker_planck_form",
    "catalog",
]

_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticForm:
    """q(X) = X^T Q X on R^{2n}, Q complex symmetric, X = (x, xi)."""

    dim: int
    Q: np.ndarray = field(repr=False)

    def __post_init__(self):
        Q = np.array(self.Q, dtype=np.complex128)
        m = 2 * self.dim
        if Q.shape != (m, m):
            raise ValueError(f"Q must be {m}x{m} for dim {self.dim}")
        if not np.all(np.isfinite(Q)):
            raise ValueError("Q must have finite entries")
        if np.max(np.abs(Q - Q.T)) > _CONSISTENCY_TOL * max(1.0, np.max(np.abs(Q))):
            raise ValueError("Q must be symmetric")
        Q = (Q + Q.T) / 2.0
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)


def symplectic_matrix(n: int) -> np.ndarray:
    """Standard J = [[0, I], [-I, 0]] of size 2n."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def hamilton_map(q: QuadraticForm) -> np.ndarray:
    """Hamilton map F = J Q of q, a complex 2n x 2n matrix.

    J has only 0 and +-1 entries, so each entry of J Q is one entry of Q or
    its negative: F is exactly the Hessian-quarter block form.
    """
    return symplectic_matrix(q.dim) @ q.Q


@dataclass(frozen=True)
class SingularSpaceResult:
    """Singular space basis, its dimension, and the truncation index k0.

    basis: (dimS, 2n) orthonormal real rows spanning the space, for the
    caller's 2n x 2n Hamilton map. k0 is the
    smallest j such that the vectors killed by Re F (Im F)^i for all i < j+1
    already reduce to {0}; it is None when the full space is nontrivial.
    ambiguous flags a rank decision where some singular value fell inside
    the threshold band (tol/8, 8 tol) relative to the largest.
    """

    basis: np.ndarray = field(repr=False)
    k0: int | None
    ambiguous: bool

    @property
    def dimS(self) -> int:
        return self.basis.shape[0]


def _real_nullspace(rows: list[np.ndarray], size: int, tol: float):
    """Orthonormal basis of the real joint kernel of the stacked matrices.

    Complex matrices contribute their real and imaginary parts separately: a
    real vector is killed by M iff it is killed by both Re M and Im M.
    Returns (basis (k, size), ambiguous flag).
    """
    stack = []
    for M in rows:
        stack.append(np.asarray(M.real, dtype=np.float64))
        if np.iscomplexobj(M) and np.max(np.abs(M.imag)) > 0:
            stack.append(np.asarray(M.imag, dtype=np.float64))
    A = np.vstack(stack) if stack else np.zeros((1, size))
    _, s, Vt = np.linalg.svd(A)
    if s[0] == 0.0:
        return np.eye(size), False
    cut = tol * s[0]
    ambiguous = bool(np.any((s > cut / 8.0) & (s < cut * 8.0)))
    rank = int(np.sum(s > cut))
    return Vt[rank:], ambiguous


def singular_space(F: np.ndarray, tol: float = 1e-9) -> SingularSpaceResult:
    """Real vectors killed by Re F (Im F)^j for all j up to 2n-1, plus k0.

    F is a Hamilton map, a square matrix of even size 2n. The truncated
    kernels are computed for growing j; they are nested and non-increasing
    in dimension, so the first trivial one gives k0.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[0] != F.shape[1] or F.shape[0] % 2 or F.size == 0:
        raise ValueError(f"F must be a square matrix of even size, not of shape {F.shape}")
    n = F.shape[0] // 2
    ReF = F.real
    ImF = F.imag
    rows: list[np.ndarray] = []
    power = np.eye(2 * n)
    k0 = None
    basis = np.eye(2 * n)
    ambiguous = False
    for j in range(2 * n):
        rows.append(ReF @ power)
        basis, amb = _real_nullspace(rows, 2 * n, tol)
        ambiguous = ambiguous or amb
        if basis.shape[0] == 0 and k0 is None:
            k0 = j
        power = power @ ImF
    if basis.shape[0] > 0:
        k0 = None
    return SingularSpaceResult(basis=basis, k0=k0, ambiguous=ambiguous)


# -- catalog of named forms --------------------------------------------------


def harmonic_oscillator_form(n: int = 1) -> QuadraticForm:
    """q = |x|^2 + |xi|^2."""
    return QuadraticForm(n, np.eye(2 * n))


def rotated_harmonic_form(theta: float, n: int = 1) -> QuadraticForm:
    """q = e^{i theta} (|x|^2 + |xi|^2), |theta| < pi/2."""
    if not abs(theta) < np.pi / 2:
        raise ValueError("rotation angle must satisfy |theta| < pi/2")
    return QuadraticForm(n, np.exp(1j * theta) * np.eye(2 * n))


def free_laplacian_form(n: int = 1) -> QuadraticForm:
    """q = |xi|^2."""
    Q = np.zeros((2 * n, 2 * n))
    Q[n:, n:] = np.eye(n)
    return QuadraticForm(n, Q)


def kramers_fokker_planck_form() -> QuadraticForm:
    """q(x, v, xi, eta) = eta^2 + v^2 + i (v xi - x eta), n = 2."""
    Q = np.zeros((4, 4), dtype=np.complex128)
    Q[1, 1] = 1.0  # v^2
    Q[3, 3] = 1.0  # eta^2
    Q[1, 2] = Q[2, 1] = 0.5j  # i v xi
    Q[0, 3] = Q[3, 0] = -0.5j  # -i x eta
    return QuadraticForm(2, Q)


def catalog() -> dict[str, QuadraticForm]:
    """Named reproducible fixtures."""
    return {
        "harmonic": harmonic_oscillator_form(1),
        "rotated-harmonic": rotated_harmonic_form(np.pi / 4, 1),
        "free-laplacian": free_laplacian_form(1),
        "kramers-fokker-planck": kramers_fokker_planck_form(),
    }
