"""Secret-sharing demonstrations built on three-copy indistinguishability.

Two constructions:

* a (2,6) scheme: a 2-bit message picks one of four basis states, three
  copies of it are distributed over six parties; full collaboration decodes
  via the knockout tournament, while any two-copy adaptive LOCC strategy is
  provably insufficient when the encoding basis needs three copies;

* a strong (1,2) scheme: the bit picks one of two rank-2 mixtures with
  orthogonal supports; when both support projectors are entangled (NPT),
  even unlimited classical collaboration cannot reveal the bit, only a
  joint measurement can.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec
from .classify import min_copies_adaptive_locc
from .entanglement import (SeparabilityCertificate, certificate_to_dict, pair_projectors,
                           separability_certificates)
from .linalg import hermitian_eigenvalues, outer
from .protocols import tournament_leaves
from .states import (BipartiteKet, OrthonormalBasis, basis_from_dict, basis_to_dict,
                     complement_pair, kets_from_vectors)
# not called here; bench/tracing.py wraps them by name
from .entanglement import pair_projector, separability_certificate  # noqa: F401
from .protocols import elimination_tournament, outcome_distribution  # noqa: F401

PARTY_ASSIGNMENT = ("A1", "B1", "A2", "B2", "A3", "B3")
DECODE_TOL = 1e-9  # a decode concludes with probability at least 1 - DECODE_TOL

WEAK_BASIS_WARNING = (
    "encoding basis is distinguishable from two copies under adaptive LOCC; "
    "the (2,6) scheme loses its security margin"
)


def _message(value) -> int:
    """A 2-bit message as an int: an integer in 0..3 (numpy integers too),
    never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value <= 3:
        raise ValueError(f"message must be in 0..3, got {value}")
    return int(value)


class IntegrityError(ValueError):
    """The three distributed copies are not identical, or not a basis state."""


@dataclass(frozen=True)
class ShareSet:
    """Three identical copies of the state encoding a 2-bit message,
    distributed over six labelled parties."""

    message: int
    copies: tuple[BipartiteKet, BipartiteKet, BipartiteKet]
    party_assignment: tuple[str, ...] = PARTY_ASSIGNMENT
    security_warning: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "message", _message(self.message))
        if len(self.party_assignment) != 6 or len(set(self.party_assignment)) != 6:
            raise ValueError(f"party_assignment must be six distinct labels, "
                             f"got {list(self.party_assignment)}")


@dataclass(frozen=True)
class MixedShare:
    """A pair of rank-2 density operators with orthogonal supports."""

    sigma: np.ndarray
    sigma_perp: np.ndarray
    lam: float
    mu: float

    def __post_init__(self):
        for name in ("sigma", "sigma_perp"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if abs(np.trace(m).real - 1.0) > 1e-10:
                raise ValueError(f"{name} is not trace 1")
            if hermitian_eigenvalues(m)[0] < -1e-10:
                raise ValueError(f"{name} is not positive semidefinite")
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if abs(np.trace(self.sigma @ self.sigma_perp)) > 1e-10:
            raise ValueError("supports are not orthogonal")


@dataclass(frozen=True)
class StrongPairShares:
    """MixedShare plus the certificates backing its security claim."""

    share: MixedShare
    pair: tuple[int, int]
    complement: tuple[int, int]
    certificate_pair: SeparabilityCertificate
    certificate_complement: SeparabilityCertificate
    cross_trace: float
    security_pass: bool  # both support projectors NPT


def encode_2bit(message: int, b: OrthonormalBasis) -> ShareSet:
    """Encode a 2-bit message as three copies of the corresponding basis
    state.  A basis that is two-copy distinguishable still encodes, but the
    share set carries a security warning (its only report; no Python warning
    is raised)."""
    message = _message(message)
    warning = WEAK_BASIS_WARNING if min_copies_adaptive_locc(b) < 3 else None
    state = b[message]
    return ShareSet(message=message, copies=(state, state, state),
                    security_warning=warning)


def decode_full_collaboration(s: ShareSet, b: OrthonormalBasis) -> int:
    """Recover the message by running the three-copy knockout tournament
    across the A|B cut; exact (probability-1) on intact share sets.  Raises
    IntegrityError when the copies differ, or when no conclusion is certain
    because they are not a state of ``b``."""
    ref = s.copies[0].amplitudes
    for n, copy in enumerate(s.copies[1:], start=1):
        if np.max(np.abs(copy.amplitudes - ref)) > 1e-12:
            raise IntegrityError(f"copy {n} differs from copy 0")
    dist = tournament_leaves(b).outcome_distribution(ref)
    decoded = int(np.argmax(dist))
    if not dist[decoded] >= 1.0 - DECODE_TOL:
        raise IntegrityError(f"the copies are not a basis state: the tournament concludes "
                             f"{decoded} with probability {dist[decoded]:.6g}")
    return decoded


def strong_pair_shares(
    b: OrthonormalBasis, i: int, j: int, lam: float, mu: float
) -> StrongPairShares:
    """Build the rank-2 mixture pair on span{states[i], states[j]} and its
    orthocomplement, with PPT certificates for both support projectors.

    The security verdict passes only when both projectors are entangled;
    orthogonal supports always keep the pair globally distinguishable.
    """
    k, l = complement_pair(i, j)
    if not (0.0 < lam < 1.0) or not (0.0 < mu < 1.0):
        raise ValueError("lambda and mu must lie strictly inside (0, 1)")
    sigma = lam * outer(b[i].amplitudes) + (1 - lam) * outer(b[j].amplitudes)
    sigma_perp = mu * outer(b[k].amplitudes) + (1 - mu) * outer(b[l].amplitudes)
    share = MixedShare(sigma=sigma, sigma_perp=sigma_perp, lam=lam, mu=mu)
    cert_pair, cert_comp = separability_certificates(
        pair_projectors(b.matrix(), [(i, j), (k, l)]))
    return StrongPairShares(
        share=share,
        pair=(i, j),
        complement=(k, l),
        certificate_pair=cert_pair,
        certificate_complement=cert_comp,
        cross_trace=float(abs(np.trace(sigma @ sigma_perp))),
        security_pass=not cert_pair.is_separable and not cert_comp.is_separable,
    )


def mixed_share_eigenvalues(m: MixedShare) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of sigma and sigma_perp (each {0, 0, min(w,1-w), max})."""
    return hermitian_eigenvalues(m.sigma), hermitian_eigenvalues(m.sigma_perp)


# --- shares.v1 serialization ---------------------------------------------------

def share_set_to_json(s: ShareSet, b: OrthonormalBasis) -> str:
    doc = {
        "schema": "shares.v1",
        "kind": "share_set",
        "message": s.message,
        "party_assignment": list(s.party_assignment),
        "copies": np.array([k.amplitudes for k in s.copies]),
        "basis": basis_to_dict(b),
        "security_warning": s.security_warning,
    }
    return codec.dump(doc)


def share_set_from_json(text: str):
    doc = codec.load(text, "shares.v1", "share_set")
    copies = codec.complex_array(doc, "copies", (3, 4))
    share = ShareSet(
        message=codec.field(doc, "message", int),
        copies=kets_from_vectors(copies),  # type: ignore[arg-type]
        party_assignment=tuple(codec.items(doc, "party_assignment", str)),
        security_warning=codec.field(doc, "security_warning", (str, type(None)), default=None),
    )
    return share, basis_from_dict(codec.field(doc, "basis", dict), path="basis")


def strong_pair_to_json(s: StrongPairShares) -> str:
    doc = {
        "schema": "shares.v1",
        "kind": "strong_pair",
        "pair": list(s.pair),
        "complement": list(s.complement),
        "lambda": s.share.lam,
        "mu": s.share.mu,
        "sigma": s.share.sigma,
        "sigma_perp": s.share.sigma_perp,
        "certificates": {
            "pair_projector": certificate_to_dict(s.certificate_pair),
            "complement_projector": certificate_to_dict(s.certificate_complement),
            "cross_trace": s.cross_trace,
        },
        "security": "PASS" if s.security_pass else "FAIL",
    }
    return codec.dump(doc)
