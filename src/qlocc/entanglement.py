"""Entanglement diagnostics for two-qubit pure states and rank-2 projectors.

Separability of the rank-2 projectors is decided by the positivity of the
partial transpose, which is necessary and sufficient in 2x2 dimensions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import det2, hermitian_eigenvalues, normalize, outer, partial_transpose
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


def certificate_to_dict(c: SeparabilityCertificate) -> dict:
    """The fields of a certificate by name, in order, as report.v1 and
    shares.v1 write them."""
    return {"min_pt_eigenvalue": c.min_pt_eigenvalue, "is_separable": c.is_separable,
            "tolerance": c.tolerance}


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


def determinants(kets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficient matrix M (..., 2, 2) of each amplitude vector in a
    stack (..., 4), its determinant det M and its concurrence |det M|."""
    mats = coefficient_matrices(kets)
    dets = det2(mats)
    return mats, dets, np.hypot(dets.real, dets.imag)  # abs() of det2, bit for bit


def concurrences(kets) -> np.ndarray:
    """|det M| of the coefficient matrix of each amplitude vector in a stack
    (..., 4)."""
    return determinants(kets)[2]


def concurrence(k: BipartiteKet) -> float:
    """Entanglement of a two-qubit pure state: |det M| for the coefficient
    matrix M. Ranges over [0, 1]; 0 means product, 1 maximally entangled."""
    return float(concurrences(k.amplitudes))


def product_decomposition(k: BipartiteKet) -> ProductDecomposition:
    """Split a ket over the first party's computational outcomes.

    The state is product when the two conditional branches point in the
    same direction (or one branch vanishes); ``is_product`` is the
    classification kernel's verdict: concurrence < CONCURRENCE_ZERO_TOL.
    """
    c = k.amplitudes.reshape(2, 2)
    n0 = float(np.linalg.norm(c[0]))
    n1 = float(np.linalg.norm(c[1]))
    eta0 = normalize(c[0]) if n0 > 1e-12 else np.array([1.0, 0.0], dtype=complex)
    eta1 = normalize(c[1]) if n1 > 1e-12 else np.array([1.0, 0.0], dtype=complex)
    vanishes = n0 < CONCURRENCE_ZERO_TOL or n1 < CONCURRENCE_ZERO_TOL
    overlap = 1.0 if vanishes else float(abs(np.vdot(eta0, eta1)))
    is_product = concurrence(k) < CONCURRENCE_ZERO_TOL
    eta0.setflags(write=False)
    eta1.setflags(write=False)
    return ProductDecomposition(eta0, eta1, n0, n1, is_product, overlap)


def pair_projectors(kets, pairs) -> np.ndarray:
    """Rank-2 projectors onto span{kets[i], kets[j]} for each (i, j) in
    ``pairs``, from ket rows of shape (..., 4, 4); shape (..., len(pairs), 4, 4)."""
    return _pair_sums(kets, _pair_entries(tuple(map(tuple, pairs)), False))


def pair_min_pt_eigenvalues(kets, pairs) -> np.ndarray:
    """The smallest partial-transpose eigenvalue of each of
    pair_projectors(kets, pairs), shape (..., len(pairs)), with the bits of
    `separability_certificates`: each entry of a partial transpose is the
    same sum of outer-product entries, gathered straight into its transposed
    place, so no projector stack is built or transposed.

    Down a stack of bases (N, 4, 4), a pair whose two kets hold the same
    bits as in the basis before it has the same partial transpose, so only
    the first basis of each such run is solved and its minimum is copied
    down the run: on an alpha-major family-A grid, states 0 and 1 do not
    change with gamma."""
    pairs = tuple(map(tuple, pairs))
    pt = _pair_sums(kets, _pair_entries(pairs, True))
    if pt.ndim != 4 or len(pt) < 2:
        return hermitian_eigenvalues(pt)[..., 0]
    # bit patterns, so -0.0 and 0.0 differ: (N - 1, 4), ket k moved from above
    bits = np.ascontiguousarray(kets, dtype=complex).view(np.int64)
    moved = (bits[1:] != bits[:-1]).any(axis=-1)
    i, j = np.array(pairs).T
    solve = np.ones(pt.shape[:2], dtype=bool)
    solve[1:] = moved[:, i] | moved[:, j]
    min_pt = np.empty(solve.shape)
    pt = pt[solve]  # rebound, so the full stack is freed before the solve's buffers
    min_pt[solve] = hermitian_eigenvalues(pt)[:, 0]
    # the row each entry copies: the last solved row at or above it
    source = np.where(solve, np.arange(len(solve))[:, None], 0)
    np.maximum.accumulate(source, axis=0, out=source)
    return min_pt[source, np.arange(len(pairs))]


def _pair_sums(kets, entries: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """|k_i><k_i| + |k_j><k_j| laid out by ``entries``, indices into the
    flattened outer products of a stack of ket rows (..., 4, 4)."""
    flat = outer(kets).reshape(*np.shape(kets)[:-2], 64)  # |k><k| per ket
    p = np.take(flat, entries[0], axis=-1)
    p += np.take(flat, entries[1], axis=-1)
    return p


@functools.cache
def _pair_entries(pairs: tuple[tuple[int, int], ...],
                  transposed: bool) -> tuple[np.ndarray, np.ndarray]:
    """For each side of each pair, the flat outer-product index (ket, row,
    column) that entry (row, column) of the pair's projector, or of its
    partial transpose, reads; each (len(pairs), 4, 4)."""
    entry = np.arange(16).reshape(4, 4)
    if transposed:
        entry = partial_transpose(entry).real.astype(int)  # where each entry moves
    i, j = np.array(pairs).T
    sides = (16 * i[:, None, None] + entry, 16 * j[:, None, None] + entry)
    for side in sides:
        side.setflags(write=False)  # shared by every caller
    return sides


def pair_projector(b: OrthonormalBasis, i: int, j: int, complement: bool = False) -> np.ndarray:
    """Rank-2 projector onto span{states[i], states[j]} (or its orthocomplement)."""
    if i == j:
        raise ValueError("pair projector needs two distinct states")
    p = pair_projectors(b.matrix(), [(i, j)])[0]
    return np.eye(4, dtype=complex) - p if complement else p


def certificates(min_pt) -> list[SeparabilityCertificate]:
    """The PPT certificate of each minimum partial-transpose eigenvalue (floats)."""
    return [SeparabilityCertificate(m, m >= -SEPARABILITY_TOL) for m in min_pt]


def separability_certificates(ops) -> list[SeparabilityCertificate]:
    """PPT certificate for each Hermitian PSD operator in a stack (N, 4, 4),
    from one `hermitian_eigenvalues` over the operators and their partial
    transposes.

    Raises ValueError unless every operator is Hermitian and positive
    semidefinite (within PSD_ATOL).
    """
    ops = np.asarray(ops, dtype=complex)
    lows = hermitian_eigenvalues(np.concatenate([ops, partial_transpose(ops)]))[:, 0].tolist()
    if any(low < -PSD_ATOL for low in lows[:len(ops)]):
        raise ValueError("operator is not positive semidefinite")
    return certificates(lows[len(ops):])


def separability_certificate(m) -> SeparabilityCertificate:
    """`separability_certificates` of one operator."""
    return separability_certificates(np.asarray(m)[None])[0]


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
