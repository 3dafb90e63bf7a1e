"""Dense complex linear algebra for one and two qubits.

Index convention used everywhere in this package: a two-qubit amplitude
vector stores the coefficient of |i>_A |j>_B at position 2*i + j, so the
computational basis is ordered (|00>, |01>, |10>, |11>).

The array functions below also take stacks (leading axes) and give each
member the same bits as a call on that member alone, so batched and
single-basis results agree exactly.  Three rules keep those bits:

- arctangents, cosines and sines are libm's (`libm`), since np.arctan2
  does not match math.atan2 on every input;
- complex products of scalars are written out in the real arithmetic a
  complex scalar multiplies with (`cmul`), since numpy's array loops may
  fuse multiply-adds;
- norms, matrix products and inner products go through the BLAS dot that a
  single vector's np.linalg.norm, `@` and np.vdot make (`vector_norms`).
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


def vector_norms(v) -> np.ndarray:
    """np.linalg.norm of each complex vector along the last axis, bit for bit:
    the dot products of its real and of its imaginary parts, summed."""
    v = np.asarray(v, dtype=complex)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def libm(f, *args: np.ndarray) -> np.ndarray:
    """``f`` from ``math`` applied elementwise to float arrays."""
    values = map(f, *(a.ravel().tolist() for a in args))
    return np.fromiter(values, dtype=float, count=args[0].size).reshape(args[0].shape)


def cmul(ar, ai, br, bi):
    """(a * b).real, (a * b).imag as numpy multiplies two complex scalars."""
    return ar * br - ai * bi, ar * bi + ai * br


def partial_transpose(m) -> np.ndarray:
    """Transpose on the second tensor factor of a 4x4 operator (or of each
    operator in a stack).

    Entry ((i,j),(k,l)) moves to ((i,l),(k,j)); the map is involutive and
    preserves trace and Hermiticity.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    lead = m.shape[:-2]
    axes = tuple(range(len(lead)))
    return m.reshape(*lead, 2, 2, 2, 2).transpose(
        *axes, *(len(lead) + k for k in (0, 3, 2, 1))).reshape(m.shape)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix (or of each matrix in
    a stack, along the last axis).

    Raises ValueError unless every matrix is Hermitian within HERMITIAN_ATOL.
    """
    m = np.asarray(m, dtype=complex)
    # one buffer serves the check and the solve, so a kernel block's
    # temporaries peak no higher than the check alone needs
    s = m.swapaxes(-1, -2).conj()
    s -= m  # -(m - m^dagger), bit for bit
    if not np.abs(s).max(initial=0.0) < HERMITIAN_ATOL:  # NaN included
        raise ValueError("matrix is not Hermitian")
    # symmetrize away the (sub-tolerance) anti-Hermitian part before solving:
    # same bits as 0.5 * (m + m^dagger)
    np.conjugate(m.swapaxes(-1, -2), out=s)
    s += m
    s *= 0.5
    return np.linalg.eigvalsh(s)


def canonical_phase(v) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the global phase of a vector (or of each vector along the last
    axis) so its first amplitude above PHASE_FLOOR is real positive.

    Returns (canonical, phase) with v = phase[..., None] * canonical; a
    vector with no amplitude above the floor keeps phase 1.
    """
    v = np.asarray(v, dtype=complex)
    mag = np.hypot(v.real, v.imag)  # abs() of a complex scalar, bit for bit
    big = mag > PHASE_FLOOR
    lead = (*np.indices(v.shape[:-1], sparse=True), np.argmax(big, axis=-1))
    found = big[lead]
    phase = np.where(found, v[lead] / np.where(found, mag[lead], 1.0), 1.0)
    return np.where(found[..., None], v * phase.conj()[..., None], v), phase


def det2(m):
    """Determinant of a 2x2 matrix (or of each in a stack (..., 2, 2)).

    Written with `cmul`, so a stack gives each matrix the bits of a call on
    that matrix alone.
    """
    re, im = det2_parts(m)
    return (re + 1j * im)[()]


def det2_parts(m) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of `det2`, before they are combined:
    a d - b c with both products taken by `cmul` at once."""
    m = np.asarray(m, dtype=complex)
    left, right = m[..., 0, :], m[..., 1, ::-1]  # (a, b) against (d, c)
    re, im = cmul(left.real, left.imag, right.real, right.imag)
    return re[..., 0] - re[..., 1], im[..., 0] - im[..., 1]


def orthogonal_complement_qubit(u) -> np.ndarray:
    """The unit vector orthogonal to a single-qubit unit vector."""
    u = as_complex_vector(u, 2)
    return np.array([-np.conj(u[1]), np.conj(u[0])], dtype=complex)
