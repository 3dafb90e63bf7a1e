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
from .linalg import as_complex_vector, canonical_phase

GRAM_ATOL = 1e-10


class NotOrthonormalError(ValueError):
    """A candidate basis failed the Gram check."""

    def __init__(self, i: int, j: int, deviation: float):
        self.pair = (i, j)
        self.deviation = deviation
        super().__init__(
            f"states {i} and {j} violate orthonormality by {deviation:.3e}"
        )


def _check_angle(name: str, value: float) -> float:
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
            object.__setattr__(self, name, _check_angle(name, getattr(self, name)))


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
        v = as_complex_vector(self.amplitudes, 4)
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"ket norm {n} is not 1")
        v = v / n
        v, extra = canonical_phase(v)
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)
        object.__setattr__(self, "phase", complex(self.phase) * extra)

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

    def __post_init__(self):
        if len(self.states) != 4:
            raise ValueError("a basis needs exactly 4 states")
        object.__setattr__(self, "states", tuple(self.states))
        g = self.gram()
        dev = np.abs(g - np.eye(4))
        i, j = np.unravel_index(int(np.argmax(dev)), (4, 4))
        if dev[i, j] >= GRAM_ATOL:
            raise NotOrthonormalError(int(i), int(j), float(dev[i, j]))

    def gram(self) -> np.ndarray:
        m = self.matrix()
        return m.conj() @ m.T

    def matrix(self) -> np.ndarray:
        """4x4 array whose rows are the state amplitudes."""
        return np.array([k.amplitudes for k in self.states])

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, i: int) -> BipartiteKet:
        return self.states[i]


def validate_basis(kets, label: str = "custom") -> OrthonormalBasis:
    """Build an OrthonormalBasis from four kets, or raise NotOrthonormalError."""
    kets = tuple(kets)
    if len(kets) != 4:
        raise ValueError(f"expected 4 kets, got {len(kets)}")
    return OrthonormalBasis(states=kets, label=label)


def complement_pair(i: int, j: int) -> tuple[int, int]:
    """The two state indices other than i and j, ascending."""
    rest = sorted(set(range(4)) - {i, j})
    if len(rest) != 2:
        raise ValueError(f"expected two distinct state indices in 0..3, got {i} and {j}")
    return rest[0], rest[1]


def _theta_vectors(theta: float) -> list[np.ndarray]:
    s, c = math.sin(theta), math.cos(theta)
    return [
        np.array([s, 0, 0, c], dtype=complex),
        np.array([c, 0, 0, -s], dtype=complex),
        np.array([0, s, c, 0], dtype=complex),
        np.array([0, c, -s, 0], dtype=complex),
    ]


def theta_basis(theta: float) -> OrthonormalBasis:
    """The one-angle family; all four states are entangled for
    theta not in {0, pi/2} and theta = pi/4 gives the Bell basis."""
    theta = _check_angle("theta", theta)
    kets = tuple(BipartiteKet(v) for v in _theta_vectors(theta))
    return OrthonormalBasis(states=kets, label=f"theta[{theta:.6g}]")


def a_basis(p: FamilyParams) -> OrthonormalBasis:
    """The three-angle family built from (alpha, beta, gamma); see module
    docstring for the explicit states."""
    sa, ca = math.sin(p.alpha), math.cos(p.alpha)
    sb, cb = math.sin(p.beta), math.cos(p.beta)
    sg, cg = math.sin(p.gamma), math.cos(p.gamma)
    phi_plus = np.array([sa, 0, 0, ca], dtype=complex)
    psi_plus = np.array([0, sb, cb, 0], dtype=complex)
    vectors = [
        np.array([ca, 0, 0, -sa], dtype=complex),
        np.array([0, cb, -sb, 0], dtype=complex),
        sg * phi_plus + cg * psi_plus,
        cg * phi_plus - sg * psi_plus,
    ]
    kets = tuple(BipartiteKet(v) for v in vectors)
    label = f"A[alpha={p.alpha:.6g},beta={p.beta:.6g},gamma={p.gamma:.6g}]"
    return OrthonormalBasis(states=kets, label=label)


def coefficient_matrix(k: BipartiteKet) -> np.ndarray:
    """2x2 matrix M with M[j, i] = sqrt(2) * c[2i+j].

    M is defined so that (I (x) M) |phi+> reproduces the ket, where
    |phi+> = (|00> + |11>)/sqrt(2); its Frobenius norm is sqrt(2) and
    |det M| is the concurrence.
    """
    return math.sqrt(2.0) * k.amplitudes.reshape(2, 2).T


# --- basis.v1 serialization -------------------------------------------------

def basis_to_dict(b: OrthonormalBasis) -> dict:
    return {"schema": "basis.v1", "label": b.label, "states": codec.complex_pairs(b.matrix())}


def basis_from_dict(doc, path: str = "") -> OrthonormalBasis:
    """Decode a basis.v1 object found at ``path`` in its document."""
    doc = codec.envelope(doc, "basis.v1", path=path)
    states = codec.complex_array(doc, "states", (4, 4), path)
    label = codec.field(doc, "label", str, path, default="from-file")
    return validate_basis([BipartiteKet(v) for v in states], label=label)


def basis_to_json(b: OrthonormalBasis) -> str:
    return codec.dump(basis_to_dict(b))


def basis_from_json(text: str) -> OrthonormalBasis:
    return basis_from_dict(codec.load(text, "basis.v1"))
