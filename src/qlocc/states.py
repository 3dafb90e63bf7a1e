"""Two-qubit pure states, orthonormal bases, and the parametrized families.

Two four-state families are provided:

* ``theta_basis(theta)`` -- the magnetization-correlated family
    (S|00> + C|11>,  C|00> - S|11>,  S|01> + C|10>,  C|01> - S|10>)
  with S = sin(theta), C = cos(theta); theta = pi/4 is the Bell basis.

* ``a_basis(params)`` -- a three-angle family that mixes the "+" states of
  two theta-type pairs:
    b1 = C_a|00> - S_a|11>
    b2 = C_b|01> - S_b|10>
    b3 = S_g (S_a|00> + C_a|11>) + C_g (S_b|01> + C_b|10>)
    b4 = C_g (S_a|00> + C_a|11>) - S_g (S_b|01> + C_b|10>)
  The amount of entanglement in b3, b4 is controlled jointly by
  (alpha, beta, gamma), which is what makes this family interesting for
  multi-copy discrimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .linalg import as_complex_vector, canonical_phase, vector_norms

GRAM_ATOL = 1e-10
_IDENTITY = np.eye(4)


class NotOrthonormalError(ValueError):
    """A candidate basis failed the Gram check."""

    def __init__(self, i: int, j: int, deviation: float):
        self.pair = (i, j)
        self.deviation = deviation
        super().__init__(
            f"states {i} and {j} violate orthonormality by {deviation:.3e}"
        )


def check_angle(name: str, value: float) -> float:
    """``value`` as a float, or ValueError unless it lies in [0, pi/2]."""
    value = float(value)
    if not (0.0 <= value <= math.pi / 2 + 1e-15):
        raise ValueError(f"{name} must lie in [0, pi/2], got {value}")
    return value


@dataclass(frozen=True)
class FamilyParams:
    """Angles (radians, each in [0, pi/2]) parametrizing the basis families."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "theta"):
            object.__setattr__(self, name, check_angle(name, getattr(self, name)))


@dataclass(frozen=True)
class BipartiteKet:
    """A normalized two-qubit ket with canonical global phase.

    ``amplitudes[2i+j]`` is the coefficient of |i>_A |j>_B.  The phase
    removed during canonicalization is kept in ``phase`` so the raw vector
    is ``phase * amplitudes``.
    """

    amplitudes: np.ndarray
    phase: complex = field(default=1.0 + 0.0j)

    def __post_init__(self):
        v, extra = canonical_kets(as_complex_vector(self.amplitudes, 4))
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)
        object.__setattr__(self, "phase", complex(self.phase) * extra[()])

    @classmethod
    def _canonical(cls, amplitudes: np.ndarray, phase) -> "BipartiteKet":
        """A ket from a row `canonical_kets` already normalized and
        canonicalized (read-only), with the phase it removed."""
        k = object.__new__(cls)
        object.__setattr__(k, "amplitudes", amplitudes)
        object.__setattr__(k, "phase", complex(1.0 + 0.0j) * phase)
        return k

    @classmethod
    def from_unnormalized(cls, values) -> "BipartiteKet":
        v = as_complex_vector(values, 4)
        n = np.linalg.norm(v)
        if n < 1e-12:
            raise ValueError("zero vector is not a state")
        return cls(v / n)

    def overlap(self, other: "BipartiteKet") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def close_to(self, other: "BipartiteKet", atol: float = 1e-10) -> bool:
        """Equality up to the recorded (already canonicalized) phase."""
        return bool(np.max(np.abs(self.amplitudes - other.amplitudes)) < atol)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Exactly four pairwise orthonormal two-qubit kets, in a fixed order."""

    states: tuple[BipartiteKet, BipartiteKet, BipartiteKet, BipartiteKet]
    label: str = ""
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.states) != 4:
            raise ValueError(f"expected 4 kets, got {len(self.states)}")
        object.__setattr__(self, "states", tuple(self.states))
        m = np.array([k.amplitudes for k in self.states])
        check_orthonormal(m)
        m.setflags(write=False)
        object.__setattr__(self, "_matrix", m)

    def gram(self) -> np.ndarray:
        return gram(self.matrix())

    def matrix(self) -> np.ndarray:
        """4x4 array whose rows are the state amplitudes (read-only, built
        once with the basis)."""
        return self._matrix

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, i: int) -> BipartiteKet:
        return self.states[i]


def canonical_kets(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each ket of a stack (..., 4) and canonicalize its global
    phase, as BipartiteKet does for one; returns (kets, removed phases).

    Raises ValueError when a norm is off 1 by more than 1e-9.
    """
    n = vector_norms(vectors)
    off = ~(np.abs(n - 1.0) <= 1e-9)  # NaN and Inf included
    if off.any():
        raise ValueError(f"ket norm {n[off][0]} is not 1")
    return canonical_phase(vectors / n[..., None])


def gram(kets) -> np.ndarray:
    """Overlaps <k_i|k_j> of the ket rows of a matrix (or of each in a stack)."""
    return kets.conj() @ kets.swapaxes(-1, -2)


def check_orthonormal(kets) -> None:
    """Raise NotOrthonormalError for the first basis in a stack (..., 4, 4)
    of ket rows whose Gram matrix is off the identity by GRAM_ATOL or more
    (or is not finite), naming its worst entry."""
    dev = np.abs(gram(kets) - _IDENTITY)
    if dev.max(initial=0.0) < GRAM_ATOL:  # false for NaN
        return
    dev = dev.reshape(-1, 16)
    bad = np.flatnonzero(~(dev.max(axis=1) < GRAM_ATOL))
    worst = int(np.argmax(dev[bad[0]]))
    raise NotOrthonormalError(*divmod(worst, 4), float(dev[bad[0], worst]))


def validate_basis(kets, label: str = "custom") -> OrthonormalBasis:
    """Build an OrthonormalBasis from four kets, or raise NotOrthonormalError."""
    return OrthonormalBasis(states=tuple(kets), label=label)


def kets_from_vectors(vectors) -> tuple[BipartiteKet, ...]:
    """One ket per amplitude vector (rows of an (n, 4) array), normalized and
    canonicalized in one pass; each equals BipartiteKet of its row."""
    kets, phases = canonical_kets(np.asarray(vectors, dtype=complex))
    kets.setflags(write=False)
    return tuple(BipartiteKet._canonical(k, p) for k, p in zip(kets, phases))


def basis_from_vectors(vectors, label: str) -> OrthonormalBasis:
    """The basis of four amplitude vectors (rows of a 4x4 array)."""
    return validate_basis(kets_from_vectors(vectors), label)


def complement_pair(i: int, j: int) -> tuple[int, int]:
    """The two state indices other than i and j, ascending."""
    rest = sorted(set(range(4)) - {i, j})
    if len(rest) != 2:
        raise ValueError(f"expected two distinct state indices in 0..3, got {i} and {j}")
    return rest[0], rest[1]


def _theta_rows(s, c) -> np.ndarray:
    """Raw theta-family vectors, shape (..., 4, 4), from sin(theta) and
    cos(theta) (scalars or broadcastable arrays)."""
    rows = np.zeros((*np.broadcast_shapes(np.shape(s), np.shape(c)), 4, 4), dtype=complex)
    rows[..., 0, 0], rows[..., 0, 3] = s, c
    rows[..., 1, 0], rows[..., 1, 3] = c, -s
    rows[..., 2, 1], rows[..., 2, 2] = s, c
    rows[..., 3, 1], rows[..., 3, 2] = c, -s
    return rows


def _family_a_rows(sa, ca, sb, cb, sg, cg) -> np.ndarray:
    """Raw three-angle-family vectors, shape (..., 4, 4), from the sines and
    cosines of alpha, beta and gamma (scalars or broadcastable arrays); see
    the module docstring for the states.  Every sine and cosine is >= 0 on
    [0, pi/2], so each entry of b3 = S_g phi+ + C_g psi+ and
    b4 = C_g phi+ - S_g psi+ is the one product written here, down to the
    sign of a zero."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in (sa, ca, sb, cb, sg, cg)))
    rows = np.zeros((*shape, 4, 4), dtype=complex)
    rows[..., 0, 0], rows[..., 0, 3] = ca, -sa
    rows[..., 1, 1], rows[..., 1, 2] = cb, -sb
    rows[..., 2, 0], rows[..., 2, 1], rows[..., 2, 2], rows[..., 2, 3] = (
        sg * sa, cg * sb, cg * cb, sg * ca)
    rows[..., 3, 0], rows[..., 3, 1], rows[..., 3, 2], rows[..., 3, 3] = (
        cg * sa, 0.0 - sg * sb, 0.0 - sg * cb, cg * ca)
    return rows


def _sin_cos(angles) -> tuple[np.ndarray, np.ndarray]:
    """math.sin and math.cos of each angle, taken once per value."""
    return (np.array([math.sin(a) for a in angles], dtype=float),
            np.array([math.cos(a) for a in angles], dtype=float))


def theta_basis(theta: float) -> OrthonormalBasis:
    """The one-angle family; all four states are entangled for
    theta not in {0, pi/2} and theta = pi/4 gives the Bell basis."""
    theta = check_angle("theta", theta)
    return basis_from_vectors(_theta_rows(math.sin(theta), math.cos(theta)),
                              f"theta[{theta:.6g}]")


def a_basis(p: FamilyParams) -> OrthonormalBasis:
    """The three-angle family built from (alpha, beta, gamma); see module
    docstring for the explicit states."""
    rows = _family_a_rows(math.sin(p.alpha), math.cos(p.alpha), math.sin(p.beta),
                          math.cos(p.beta), math.sin(p.gamma), math.cos(p.gamma))
    return basis_from_vectors(
        rows, f"A[alpha={p.alpha:.6g},beta={p.beta:.6g},gamma={p.gamma:.6g}]")


def theta_kets(thetas) -> np.ndarray:
    """The kets of theta_basis at each angle (already checked), as an
    (N, 4, 4) stack whose rows equal that basis' amplitudes bit for bit."""
    return canonical_kets(_theta_rows(*_sin_cos(thetas)))[0]


def grid_indices(shape, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, ...]:
    """Per-axis indices of the points start..stop (default: all) of a grid
    of the given shape, first axis slowest."""
    stop = math.prod(shape) if stop is None else stop
    return np.unravel_index(np.arange(start, stop), shape)


def family_a_axes(alphas, betas, gammas) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (sines, cosines) of each axis of an alpha x beta x gamma grid,
    taken once per value: what `family_a_point_kets` gathers."""
    return tuple(_sin_cos(axis) for axis in (alphas, betas, gammas))


def family_a_point_kets(axes, ia, ib, ig) -> np.ndarray:
    """The kets of a_basis at the grid points (alphas[ia], betas[ib],
    gammas[ig]) (angles already checked), as an (n, 4, 4) stack whose rows
    equal that basis' amplitudes bit for bit; ``axes`` is
    family_a_axes(alphas, betas, gammas)."""
    (sa, ca), (sb, cb), (sg, cg) = axes
    return canonical_kets(_family_a_rows(sa[ia], ca[ia], sb[ib], cb[ib], sg[ig], cg[ig]))[0]


def family_a_kets(alphas, betas, gammas) -> np.ndarray:
    """The kets of a_basis at every point of the alpha x beta x gamma grid
    (angles already checked), alpha-major, as an (N, 4, 4) stack whose rows
    equal that basis' amplitudes bit for bit."""
    return family_a_point_kets(family_a_axes(alphas, betas, gammas),
                               *grid_indices((len(alphas), len(betas), len(gammas))))


def coefficient_matrices(kets) -> np.ndarray:
    """2x2 matrices M with M[j, i] = sqrt(2) * c[2i+j], one per amplitude
    vector of a stack (..., 4).

    M is defined so that (I (x) M) |phi+> reproduces the ket, where
    |phi+> = (|00> + |11>)/sqrt(2); its Frobenius norm is sqrt(2) and
    |det M| is the concurrence.
    """
    kets = np.asarray(kets)
    return math.sqrt(2.0) * np.swapaxes(kets.reshape(*kets.shape[:-1], 2, 2), -1, -2)


def coefficient_matrix(k: BipartiteKet) -> np.ndarray:
    """The coefficient matrix of one ket; see coefficient_matrices."""
    return coefficient_matrices(k.amplitudes)


# --- basis.v1 serialization -------------------------------------------------

def basis_to_dict(b: OrthonormalBasis) -> dict:
    return {"schema": "basis.v1", "label": b.label, "states": b.matrix()}


def basis_from_dict(doc, path: str = "") -> OrthonormalBasis:
    """Decode a basis.v1 object found at ``path`` in its document."""
    doc = codec.envelope(doc, "basis.v1", path=path)
    states = codec.complex_array(doc, "states", (4, 4), path)
    label = codec.field(doc, "label", str, path, default="from-file")
    return basis_from_vectors(states, label)


def basis_to_json(b: OrthonormalBasis) -> str:
    return codec.dump(basis_to_dict(b))


def basis_from_json(text: str) -> OrthonormalBasis:
    return basis_from_dict(codec.load(text, "basis.v1"))
