"""Shared helpers: random states, random bases, and independent oracles."""

import numpy as np
import pytest

from qlocc import BipartiteKet, validate_basis
from qlocc.linalg import orthogonal_complement_qubit


def haar_unitary(rng, n=4):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_ket(rng) -> BipartiteKet:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return BipartiteKet(v / np.linalg.norm(v))


def random_qubit(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_basis(rng, label="haar"):
    u = haar_unitary(rng)
    return validate_basis([BipartiteKet(u[:, k]) for k in range(4)], label=label)


def random_orthogonal_pair(rng):
    u = haar_unitary(rng)
    return BipartiteKet(u[:, 0]), BipartiteKet(u[:, 1])


def random_low_entanglement_basis(rng):
    """Two orthogonal product states completed to an orthonormal basis; at
    most the two completion states can be entangled."""
    e1, f1 = random_qubit(rng), random_qubit(rng)
    if rng.random() < 0.5:
        e2, f2 = orthogonal_complement_qubit(e1), random_qubit(rng)
    else:
        e2, f2 = random_qubit(rng), orthogonal_complement_qubit(f1)
    p1, p2 = np.kron(e1, f1), np.kron(e2, f2)
    comp = np.eye(4, dtype=complex) - np.outer(p1, p1.conj()) - np.outer(p2, p2.conj())
    w, v = np.linalg.eigh(comp)
    span = v[:, w > 0.5]  # the two eigenvalue-1 directions
    mix = haar_unitary(rng, 2)
    x3, x4 = span @ mix[:, 0], span @ mix[:, 1]
    return validate_basis(
        [BipartiteKet(p1), BipartiteKet(p2), BipartiteKet(x3), BipartiteKet(x4)],
        label="product-pair-completion",
    )


# --- independent oracles (deliberately not the package implementations) ------

def pt_oracle(m):
    """Partial transpose by explicit index permutation."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + l, 2 * k + j] = m[2 * i + j, 2 * k + l]
    return out


def spin_flip_concurrence(v):
    """|<psi| sigma_y (x) sigma_y |psi*>| from the raw amplitude vector."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    return abs(np.conj(v) @ yy @ np.conj(v))


def conditional_bob_states(alice_vector, ket4):
    """Bob's unnormalized conditional state after Alice projects onto
    alice_vector; computed directly from the definition."""
    out = np.zeros(2, dtype=complex)
    for i in range(2):
        for j in range(2):
            out[j] += np.conj(alice_vector[i]) * ket4[2 * i + j]
    return out


def project_party(party, v, ket4):
    """(|v><v| (x) 1) ket4 for Alice, (1 (x) |v><v|) ket4 for Bob, acting on
    the 2x2 coefficient matrix c[alice, bob] of ket4."""
    p = np.outer(v, np.conj(v))
    c = ket4.reshape(2, 2)
    return (p @ c if party == "A" else c @ p.T).reshape(4)


def born_rule_leaves(tree, ket):
    """{transcript: (concluded index, probability)} for every reachable leaf
    when each copy starts in ``ket``: walks the tree node by node, projecting
    the measured copy and renormalising it after every outcome."""
    leaves = {}

    def walk(node, kets, transcript, prob):
        if hasattr(node, "children"):
            party = node.measurement.party
            state = kets.get(node.copy_index, ket)
            for outcome, child in enumerate(node.children):
                projected = project_party(party, node.measurement.basis[outcome], state)
                p = np.vdot(projected, projected).real
                if p > 0:
                    walk(child, {**kets, node.copy_index: projected / np.sqrt(p)},
                         transcript + ((node.copy_index, party, outcome),), prob * p)
        elif hasattr(node, "child"):
            walk(node.child, kets, transcript, prob)
        else:
            leaves[transcript] = (node.state_index, prob)

    walk(tree.root, {}, (), 1.0)
    return leaves


def born_rule_distribution(tree, ket):
    dist = np.zeros(4)
    for index, prob in born_rule_leaves(tree, ket).values():
        dist[index] += prob
    return dist


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
