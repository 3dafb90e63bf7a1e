"""Dense complex linear algebra for one and two qubits.

Index convention used everywhere in this package: a two-qubit amplitude
vector stores the coefficient of |i>_A |j>_B at position 2*i + j, so the
computational basis is ordered (|00>, |01>, |10>, |11>).
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-10
NORM_ATOL = 1e-10
PHASE_FLOOR = 1e-9  # smallest amplitude eligible to fix the global phase


def as_complex_vector(values, dim: int) -> np.ndarray:
    """Coerce to a finite complex vector of the given dimension."""
    v = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    if v.shape != (dim,):
        raise ValueError(f"expected a vector of dimension {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector contains NaN or Inf")
    return v


def normalize(v) -> np.ndarray:
    """Return v / ||v||; error on (near-)zero vectors."""
    v = np.asarray(v, dtype=complex)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def tensor(a, b, *, validate: bool = True) -> np.ndarray:
    """Tensor product of two single-qubit kets, ordered c[2i+j] = a[i]*b[j].

    With validate=True both inputs must be normalized; the raw bilinear
    product is available with validate=False.
    """
    a = as_complex_vector(a, 2)
    b = as_complex_vector(b, 2)
    if validate:
        for name, v in (("first", a), ("second", b)):
            if abs(np.linalg.norm(v) - 1.0) > NORM_ATOL:
                raise ValueError(f"{name} factor is not normalized")
    return np.kron(a, b)


def outer(v) -> np.ndarray:
    """Projector |v><v|."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def is_hermitian(m, atol: float = HERMITIAN_ATOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) < atol)


def partial_transpose(m) -> np.ndarray:
    """Transpose on the second tensor factor of a 4x4 operator.

    Entry ((i,j),(k,l)) moves to ((i,l),(k,j)); the map is involutive and
    preserves trace and Hermiticity.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Raises ValueError if the input is not Hermitian within HERMITIAN_ATOL.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian")
    # symmetrize away the (sub-tolerance) anti-Hermitian part before solving
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def canonical_phase(v) -> tuple[np.ndarray, complex]:
    """Rotate the global phase so the first amplitude above PHASE_FLOOR is
    real positive.

    Returns (canonical vector, phase) with v = phase * canonical.
    """
    v = np.asarray(v, dtype=complex)
    for c in v:
        if abs(c) > PHASE_FLOOR:
            phase = c / abs(c)
            return v * phase.conjugate(), phase
    return v.copy(), 1.0 + 0.0j


def det2(m) -> complex:
    """Determinant of a 2x2 matrix."""
    m = np.asarray(m, dtype=complex)
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def orthogonal_complement_qubit(u) -> np.ndarray:
    """The unit vector orthogonal to a single-qubit unit vector."""
    u = as_complex_vector(u, 2)
    return np.array([-np.conj(u[1]), np.conj(u[0])], dtype=complex)
