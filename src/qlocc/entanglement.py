"""Entanglement diagnostics for two-qubit pure states and rank-2 projectors.

Separability of the rank-2 projectors is decided by the positivity of the
partial transpose, which is necessary and sufficient in 2x2 dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import det2, hermitian_eigenvalues, normalize, partial_transpose
from .states import BipartiteKet, OrthonormalBasis, coefficient_matrices

CONCURRENCE_ZERO_TOL = 1e-9
SEPARABILITY_TOL = 1e-9
PSD_ATOL = 1e-10


@dataclass(frozen=True)
class SeparabilityCertificate:
    """PPT verdict for a positive semidefinite 4x4 operator.

    The raw minimum partial-transpose eigenvalue is kept so callers can
    recognize boundary cases instead of trusting the boolean alone.
    """

    min_pt_eigenvalue: float
    is_separable: bool
    tolerance: float = SEPARABILITY_TOL


@dataclass(frozen=True)
class ProductDecomposition:
    """Conditional decomposition |psi> = n0 |0>|eta0> + n1 |1>|eta1>
    with respect to the first party's computational basis."""

    eta0: np.ndarray
    eta1: np.ndarray
    n0: float
    n1: float
    is_product: bool
    overlap: float  # |<eta0|eta1>|; 1 when the branches coincide


def concurrences(kets) -> np.ndarray:
    """|det M| of the coefficient matrix of each amplitude vector in a stack
    (..., 4)."""
    d = det2(coefficient_matrices(kets))
    return np.hypot(np.real(d), np.imag(d))  # abs() of a complex scalar, bit for bit


def concurrence(k: BipartiteKet) -> float:
    """Entanglement of a two-qubit pure state: |det M| for the coefficient
    matrix M. Ranges over [0, 1]; 0 means product, 1 maximally entangled."""
    return float(concurrences(k.amplitudes))


def product_decomposition(k: BipartiteKet) -> ProductDecomposition:
    """Split a ket over the first party's computational outcomes.

    The state is product exactly when the two conditional branches point in
    the same direction (or one branch vanishes).
    """
    c = k.amplitudes.reshape(2, 2)
    n0 = float(np.linalg.norm(c[0]))
    n1 = float(np.linalg.norm(c[1]))
    eta0 = normalize(c[0]) if n0 > 1e-12 else np.array([1.0, 0.0], dtype=complex)
    eta1 = normalize(c[1]) if n1 > 1e-12 else np.array([1.0, 0.0], dtype=complex)
    if n0 < CONCURRENCE_ZERO_TOL or n1 < CONCURRENCE_ZERO_TOL:
        overlap = 1.0
        is_product = True
    else:
        overlap = float(abs(np.vdot(eta0, eta1)))
        is_product = overlap > 1.0 - CONCURRENCE_ZERO_TOL
    eta0.setflags(write=False)
    eta1.setflags(write=False)
    return ProductDecomposition(eta0, eta1, n0, n1, is_product, overlap)


def pair_projectors(kets, pairs) -> np.ndarray:
    """Rank-2 projectors onto span{kets[i], kets[j]} for each (i, j) in
    ``pairs``, from ket rows of shape (..., 4, 4); shape (..., len(pairs), 4, 4)."""
    kets = np.asarray(kets, dtype=complex)
    outer = kets[..., :, None] * kets.conj()[..., None, :]  # |k><k| per ket
    i, j = np.array(pairs).T
    p = outer[..., i, :, :]
    p += outer[..., j, :, :]
    return p


def pair_projector(b: OrthonormalBasis, i: int, j: int, complement: bool = False) -> np.ndarray:
    """Rank-2 projector onto span{states[i], states[j]} (or its orthocomplement)."""
    if i == j:
        raise ValueError("pair projector needs two distinct states")
    p = pair_projectors(b.matrix(), [(i, j)])[0]
    return np.eye(4, dtype=complex) - p if complement else p


def min_pt_eigenvalues(ops) -> np.ndarray:
    """Smallest partial-transpose eigenvalue of each operator in a stack
    (..., 4, 4), from one `hermitian_eigenvalues` over the partial transposes.

    Raises ValueError unless every operator is Hermitian (so is its partial
    transpose: m - m^dagger and its partial transpose hold the same entries).
    Positivity of the operators themselves is not checked here: the pair
    projectors of an orthonormal basis are PSD by construction, and
    `separability_certificate` checks operators given from outside.
    """
    return hermitian_eigenvalues(partial_transpose(ops))[..., 0]


def separability_certificate(m) -> SeparabilityCertificate:
    """PPT certificate for a Hermitian PSD operator on two qubits.

    Raises ValueError unless the operator is Hermitian and positive
    semidefinite (within PSD_ATOL).
    """
    m = np.asarray(m, dtype=complex)
    min_pt = float(min_pt_eigenvalues(m[None])[0])
    if hermitian_eigenvalues(m)[0] < -PSD_ATOL:
        raise ValueError("operator is not positive semidefinite")
    return SeparabilityCertificate(
        min_pt_eigenvalue=min_pt,
        is_separable=min_pt >= -SEPARABILITY_TOL,
    )


def _sqrt_clamped(x: float) -> float:
    # closed-form radicands are nonnegative up to roundoff
    return math.sqrt(x) if x > 0.0 else 0.0


def pt_spectrum_p12_closed(alpha: float, beta: float) -> np.ndarray:
    """Closed-form partial-transpose spectrum of the projector onto the first
    two family states (equivalently the last two), for every gamma.

    Returned as (e1, e2, e3, e4) with e1 + e2 = e3 + e4 = 1; e1*e3 < 0
    unless cos(4 alpha) = cos(4 beta), which makes the projector NPT almost
    everywhere.
    """
    x = _sqrt_clamped(2.0 + math.cos(4 * alpha) - math.cos(4 * beta))
    y = _sqrt_clamped(2.0 - math.cos(4 * alpha) + math.cos(4 * beta))
    r2 = math.sqrt(2.0)
    return np.array(
        [
            0.25 * (2.0 - r2 * x),
            0.25 * (2.0 + r2 * x),
            0.25 * (2.0 - r2 * y),
            0.25 * (2.0 + r2 * y),
        ]
    )


def pt_spectrum_cross_closed(alpha: float, beta: float) -> np.ndarray:
    """Closed-form partial-transpose spectrum of the four cross-pair
    projectors (1,3), (1,4), (2,3), (2,4) of the three-angle family at
    gamma = pi/4 (the only gamma where this form applies).

    e3 is negative except on the measure-zero set sin(2 alpha) = -sin(2 beta).
    """
    s2a, s2b = math.sin(2 * alpha), math.sin(2 * beta)
    d = (s2a + s2b) ** 2 * (
        18.0 - 12.0 * s2a * s2b - math.cos(4 * alpha) - math.cos(4 * beta)
    )
    root = 2.0 * math.sqrt(2.0) * _sqrt_clamped(d)
    lo = _sqrt_clamped(16.0 - root)
    hi = _sqrt_clamped(16.0 + root)
    return np.array(
        [
            0.125 * (4.0 - lo),
            0.125 * (4.0 + lo),
            0.125 * (4.0 - hi),
            0.125 * (4.0 + hi),
        ]
    )
