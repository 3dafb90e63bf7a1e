"""Adaptive discrimination protocols and their exact / sampled execution.

A protocol is a finite tree over one or more copies of the unknown state.
Each copy is addressed by at most one projective measurement per party
(Alice first, then Bob), later measurements branch on earlier outcomes, and
every leaf names the concluded state.  Trees are executed either by exact
Born-rule evaluation (no sampling) or by seeded Monte Carlo; both read the
leaf table a tree compiles to once.

The workhorse is the two-orthogonal-state subroutine: any two orthogonal
bipartite pure states can be distinguished perfectly by one local round.
Writing the states through their 2x2 amplitude matrices A_psi, A_phi, the
matrix K = A_phi A_psi^dag is traceless, and any unit vector u with
u^dag K u = 0 gives an Alice basis {u, u_perp} whose conditional Bob states
are orthogonal for both outcomes.  Such a u always exists and is found in
closed form below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .linalg import as_complex_vector, normalize, orthogonal_complement_qubit
from .states import BipartiteKet, OrthonormalBasis, complement_pair, theta_basis

ORTHILITY_ATOL = 1e-10
VANISH_TOL = 1e-9  # conditional branch weight below which a state never lands there
MAX_PROTOCOL_DEPTH = 64  # protocol.v1 nesting limit; the tournament is 9 deep
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)


class NotOrthogonalError(ValueError):
    """The pair subroutine needs exactly orthogonal input states."""


class MalformedProtocolError(ValueError):
    """A protocol tree violated its structural invariants."""


@dataclass(frozen=True)
class LocalMeasurement:
    """A two-outcome projective measurement by one party."""

    party: str  # "A" or "B"
    basis: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ValueError(f"party must be 'A' or 'B', got {self.party!r}")
        b0 = as_complex_vector(self.basis[0], 2)
        b1 = as_complex_vector(self.basis[1], 2)
        g = np.array([[np.vdot(b0, b0), np.vdot(b0, b1)],
                      [np.vdot(b1, b0), np.vdot(b1, b1)]])
        if not np.max(np.abs(g - np.eye(2))) <= 1e-10:  # NaN fails too
            raise ValueError("measurement basis is not orthonormal")
        b0.setflags(write=False)
        b1.setflags(write=False)
        object.__setattr__(self, "basis", (b0, b1))


@dataclass(frozen=True)
class Conclude:
    state_index: int


@dataclass(frozen=True)
class Eliminate:
    state_index: int
    child: "Node"


@dataclass(frozen=True)
class Measure:
    copy_index: int
    measurement: LocalMeasurement
    children: tuple["Node", "Node"]  # by outcome 0 / 1


Node = Measure | Conclude | Eliminate


@dataclass(frozen=True)
class ProtocolTree:
    copies: int
    root: Node

    @functools.cached_property
    def leaves(self) -> "LeafTable":
        """The compiled leaf table; raises MalformedProtocolError.  Trees are
        frozen and their measurement vectors read-only, so it is built once."""
        return _compile(self)


@dataclass(frozen=True)
class RunOutcome:
    guessed_index: int
    transcript: tuple[tuple[int, str, int], ...]  # (copy, party, outcome)
    probability: float  # exact probability of this transcript given the input


@dataclass(frozen=True)
class LeafTable:
    """Every root-to-leaf path of a tree, in depth-first order (outcome 0 first).

    ``effects[l, c]`` is the 4x4 operator P_A (x) P_B that leaf l's path applies
    to copy c, the identity standing in for a party that does not measure it.
    Each party measures a copy at most once per path, so the leaf's Born
    probability on input psi is prod_c |effects[l, c] psi|^2.  The copy axis
    covers only copies up to the last one measured; the rest contribute 1.
    """

    conclusions: np.ndarray  # (L,) concluded state index
    transcripts: tuple[tuple[tuple[int, str, int], ...], ...]  # (copy, party, outcome)
    effects: np.ndarray  # (L, C, 4, 4)

    def probabilities(self, kets: np.ndarray) -> np.ndarray:
        """Leaf probabilities, shape (..., L), for input kets of shape (..., 4)."""
        amp = np.tensordot(kets, self.effects, axes=(-1, -1))  # (..., L, C, 4)
        return (np.abs(amp) ** 2).sum(axis=-1).prod(axis=-1)


def _walk(node, copies: int, used: frozenset, path: tuple, vectors: list, leaves: list) -> None:
    """Append every leaf below ``node`` to ``leaves`` as (conclusion, path), each
    path step (copy, party, outcome, projector), projector k + 1 being
    |vectors[k]><vectors[k]|.  A module-level function rather than a closure, so
    no reference cycle keeps the tree alive once its callers drop it."""
    if isinstance(node, Conclude):
        if not 0 <= node.state_index < 4:
            raise MalformedProtocolError(f"conclude index {node.state_index} out of range")
        leaves.append((node.state_index, path))
        return
    if isinstance(node, Eliminate):
        _walk(node.child, copies, used, path, vectors, leaves)
        return
    if isinstance(node, Measure):
        if not 0 <= node.copy_index < copies:
            raise MalformedProtocolError(
                f"copy index {node.copy_index} outside the {copies} available copies"
            )
        key = (node.copy_index, node.measurement.party)
        if key in used:
            raise MalformedProtocolError(
                f"party {key[1]} measures copy {key[0]} twice on one path"
            )
        if len(node.children) != 2:
            raise MalformedProtocolError("measure nodes need exactly two children")
        for outcome, child in enumerate(node.children):
            vectors.append(node.measurement.basis[outcome])
            _walk(child, copies, used | {key}, path + (key + (outcome, len(vectors)),),
                  vectors, leaves)
        return
    raise MalformedProtocolError(f"unknown node type {type(node).__name__}")


def _compile(t: ProtocolTree) -> LeafTable:
    """Check the structural invariants and list the leaves in one walk."""
    if t.copies < 1:
        raise MalformedProtocolError("a protocol needs at least one copy")
    vectors: list[np.ndarray] = []
    leaves: list[tuple] = []  # (conclusion, ((copy, party, outcome, projector), ...))
    _walk(t.root, t.copies, frozenset(), (), vectors, leaves)
    conclusions, paths = zip(*leaves)
    transcripts = tuple(tuple(step[:3] for step in path) for path in paths)
    flat = [(leaf, c, party == "B", k) for leaf, path in enumerate(paths) for c, party, _, k in path]
    leaf, copy, party, k = np.array(flat, dtype=np.intp).reshape(-1, 4).T
    index = np.zeros((len(leaves), copy.max(initial=-1) + 1, 2), dtype=np.intp)  # 0: identity
    index[leaf, copy, party] = k
    v = np.array(vectors, dtype=complex).reshape(-1, 2)
    proj = np.concatenate([np.eye(2, dtype=complex)[None], np.einsum("ki,kj->kij", v, v.conj())])
    effects = np.einsum("lcij,lckm->lcikjm", proj[index[..., 0]], proj[index[..., 1]])
    effects = effects.reshape(index.shape[:2] + (4, 4))
    conclusions = np.array(conclusions, dtype=np.intp)
    for a in (conclusions, effects):
        a.setflags(write=False)
    return LeafTable(conclusions, transcripts, effects)


def validate_tree(t: ProtocolTree) -> None:
    """Check structural invariants; raises MalformedProtocolError."""
    t.leaves


# --- the traceless quadratic-form solver -------------------------------------

def _isotropic_unit(m: np.ndarray) -> np.ndarray:
    """Unit u with u^dag m u = 0 for a traceless 2x2 matrix m.

    Closed form: with u = (cos t, e^{i phi} sin t) the form becomes
    m00 cos(2t) + Re-part(phi) sin(2t); phi is chosen so the off-diagonal
    combination aligns with m00 in the complex plane, leaving a real
    equation for 2t.
    """
    m00 = m[0, 0]
    if abs(m00) < 1e-14:
        return np.array([1.0, 0.0], dtype=complex)
    delta = float(np.angle(m00))
    z1 = m[0, 1] * np.exp(-1j * delta)
    z2 = m[1, 0] * np.exp(-1j * delta)
    phi = math.atan2(-(z1.imag + z2.imag), z1.real - z2.real)
    g = 0.5 * (m[0, 1] * np.exp(1j * phi) + m[1, 0] * np.exp(-1j * phi))
    gr = (g * np.exp(-1j * delta)).real
    t = 0.5 * math.atan2(-abs(m00), gr)
    return np.array([math.cos(t), np.exp(1j * phi) * math.sin(t)], dtype=complex)


def _alice_vector(m: np.ndarray) -> np.ndarray:
    # tr m is the pair's overlap (accepted up to ORTHILITY_ATOL); the closed form then
    # misses by |tr m| sin^2 t, which Bob's snap absorbs.  Written so NaN fails.
    scale = max(1.0, float(np.abs(m).max()))
    u = _isotropic_unit(m)
    residual = abs(u.conj() @ m @ u)
    if not residual <= 1e-12 * scale + abs(np.trace(m)):
        raise np.linalg.LinAlgError(f"Alice vector misses u^dag K u = 0 by {residual:.3e}")
    return u


# --- pair subroutine ----------------------------------------------------------

def _pair_subtree(psi_vec, phi_vec, copy_index, leaf):
    """Measurement subtree perfectly separating two orthogonal states on one
    copy. ``leaf(winner)`` maps 'psi'/'phi' to the follow-up node."""
    a_psi = psi_vec.reshape(2, 2)
    a_phi = phi_vec.reshape(2, 2)
    u = _alice_vector(a_phi @ a_psi.conj().T)
    u_perp = orthogonal_complement_qubit(u)
    bob_children = []
    for w in (u, u_perp):
        eta = a_psi.T @ w.conj()
        nu = a_phi.T @ w.conj()
        n_eta, n_nu = np.linalg.norm(eta), np.linalg.norm(nu)
        if n_eta > VANISH_TOL and n_nu > VANISH_TOL:
            b0 = normalize(eta)
            b1 = normalize(nu - (np.vdot(b0, nu)) * b0)  # snap to exact orthogonality
            winners = ("psi", "phi")
        elif n_eta > VANISH_TOL:
            b0 = normalize(eta)
            b1 = orthogonal_complement_qubit(b0)
            winners = ("psi", "phi")
        elif n_nu > VANISH_TOL:
            b0 = normalize(nu)
            b1 = orthogonal_complement_qubit(b0)
            winners = ("phi", "psi")
        else:  # branch unreachable for either state
            b0 = np.array([1.0, 0.0], dtype=complex)
            b1 = np.array([0.0, 1.0], dtype=complex)
            winners = ("psi", "phi")
        bob = Measure(
            copy_index,
            LocalMeasurement("B", (b0, b1)),
            (leaf(winners[0]), leaf(winners[1])),
        )
        bob_children.append(bob)
    return Measure(copy_index, LocalMeasurement("A", (u, u_perp)), tuple(bob_children))


def walgate_pair_protocol(psi: BipartiteKet, phi: BipartiteKet) -> ProtocolTree:
    """Single-copy protocol distinguishing two orthogonal states with
    certainty; concludes index 0 for the first state, 1 for the second."""
    if abs(psi.overlap(phi)) > ORTHILITY_ATOL:
        raise NotOrthogonalError(
            f"states overlap by {abs(psi.overlap(phi)):.3e}"
        )
    root = _pair_subtree(
        psi.amplitudes, phi.amplitudes, 0,
        lambda winner: Conclude(0 if winner == "psi" else 1),
    )
    return ProtocolTree(copies=1, root=root)


def elimination_tournament(b: OrthonormalBasis, copies: int = 3) -> ProtocolTree:
    """Round-per-copy knockout over the four candidates.

    Round r runs the pair subroutine on the two lowest-indexed survivors
    using copy r; the declared loser is eliminated soundly (the true state
    always wins its own pair), so after three rounds exactly one candidate
    remains and the success probability is exactly 1 on every basis state.
    """
    if copies < 3:
        raise ValueError("the four-candidate tournament needs at least 3 copies")
    root = _knockout([k.amplitudes for k in b], (0, 1, 2, 3), 0, {})
    return ProtocolTree(copies=copies, root=root)


def _knockout(vecs, candidates: tuple[int, ...], copy_index: int, memo: dict) -> Node:
    """The tournament subtree from ``candidates`` on, round ``copy_index``;
    ``memo`` shares equal subtrees.  Module-level, not a self-referencing
    closure, so the finished tree is freed as soon as it is dropped."""
    key = (candidates, copy_index)
    if key not in memo:
        i, j = candidates[0], candidates[1]

        def leaf(winner: str) -> Node:
            won = i if winner == "psi" else j
            if len(candidates) == 2:
                return Conclude(won)
            lost = j if won == i else i
            rest = tuple(c for c in candidates if c != lost)
            return Eliminate(lost, _knockout(vecs, rest, copy_index + 1, memo))

        memo[key] = _pair_subtree(vecs[i], vecs[j], copy_index, leaf)
    return memo[key]


def bell_grouping_protocol(theta: float) -> ProtocolTree:
    """Two-copy protocol for the one-angle family.

    Copy 0: both parties measure in the computational basis; matching
    outcomes select the {|00>,|11>}-supported pair, opposite outcomes the
    other pair.  Copy 1: the pair subroutine finishes the job.
    """
    b = theta_basis(theta)
    vecs = [k.amplitudes for k in b]
    z0 = np.array([1.0, 0.0], dtype=complex)
    z1 = np.array([0.0, 1.0], dtype=complex)
    second: dict[tuple[int, int], Node] = {}

    def finish(group: tuple[int, int]) -> Node:
        if group not in second:
            i, j = group
            second[group] = _pair_subtree(
                vecs[i], vecs[j], 1,
                lambda winner, i=i, j=j: Conclude(i if winner == "psi" else j),
            )
        k, l = complement_pair(*group)
        return Eliminate(k, Eliminate(l, second[group]))

    def bob(x: int) -> Node:
        children = tuple(
            finish((0, 1) if x == y else (2, 3)) for y in (0, 1)
        )
        return Measure(0, LocalMeasurement("B", (z0, z1)), children)

    root = Measure(0, LocalMeasurement("A", (z0, z1)), (bob(0), bob(1)))
    return ProtocolTree(copies=2, root=root)


# --- execution ----------------------------------------------------------------

def outcome_distribution(t: ProtocolTree, initial: np.ndarray) -> np.ndarray:
    """Probability of concluding each index when every copy starts in
    ``initial`` (a normalized 4-vector); exact Born-rule evaluation."""
    table = t.leaves
    p = table.probabilities(as_complex_vector(initial, 4))
    return np.bincount(table.conclusions, weights=p, minlength=4)


def basis_leaf_probabilities(t: ProtocolTree, b: OrthonormalBasis) -> np.ndarray:
    """Exact leaf probabilities of the four basis states, shape (4, L)."""
    return t.leaves.probabilities(b.matrix())


def success_probabilities(t: ProtocolTree, b: OrthonormalBasis,
                          leaf_probs: np.ndarray | None = None) -> np.ndarray:
    """P(conclude = i | input state i) for each of the four basis states;
    ``leaf_probs`` is `basis_leaf_probabilities(t, b)` when already known."""
    p = basis_leaf_probabilities(t, b) if leaf_probs is None else leaf_probs
    return np.where(t.leaves.conclusions == np.arange(4)[:, None], p, 0.0).sum(axis=1)


def exact_success_probability(t: ProtocolTree, b: OrthonormalBasis,
                              leaf_probs: np.ndarray | None = None) -> float:
    """Average success under the uniform prior: (1/4) sum_i P(i | i)."""
    return float(np.mean(success_probabilities(t, b, leaf_probs)))


def seeded_uniforms(seeds) -> np.ndarray:
    """One uniform in [0, 1) per seed in [0, 2**64): the top 53 bits of the
    first SplitMix64 output for that seed (Steele, Lea and Flood, OOPSLA 2014).
    Stateless, so each value depends on its own seed alone."""
    z = np.atleast_1d(np.asarray(seeds, dtype=np.uint64)) + _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_M1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_M2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53  # exact: 53-bit integers convert without rounding


def sample_runs(t: ProtocolTree, b: OrthonormalBasis, true_indices, seeds,
                leaf_probs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Born-rule sampled executions: run r prepares ``b[true_indices[r]]`` on
    every copy and draws one leaf with the uniform of ``seeds[r]`` (integers in
    [0, 2**64)).  Returns each run's index into ``t.leaves`` and that leaf's
    exact probability given the run's input.

    The leaf probabilities of the four basis states are computed once per
    call (or passed in as ``leaf_probs``, `basis_leaf_probabilities(t, b)`),
    and a run's leaf depends only on its (input, seed) pair, so it is the
    same whether the run is drawn alone or in any batch."""
    states = np.atleast_1d(np.asarray(true_indices, dtype=np.intp))
    bad = states[(states < 0) | (states >= 4)]
    if bad.size:
        raise ValueError(f"true_index {bad[0]} out of range")
    p = basis_leaf_probabilities(t, b) if leaf_probs is None else leaf_probs
    cum = np.cumsum(p, axis=1)
    # u < 1 gives u * cum[-1] < cum[-1], and side="right" skips zero-probability leaves
    target = seeded_uniforms(seeds) * cum[states, -1]
    leaves = np.empty(states.shape, dtype=np.intp)
    for s in np.unique(states):
        runs = states == s
        leaves[runs] = np.searchsorted(cum[s], target[runs], side="right")
    return leaves, p[states, leaves]


def sample_run(t: ProtocolTree, b: OrthonormalBasis, true_index: int, seed: int) -> RunOutcome:
    """One run of `sample_runs`, with any non-negative integer seed taken
    modulo 2**64."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    (leaf,), (prob,) = sample_runs(t, b, [true_index], [seed % 2**64])
    table = t.leaves
    return RunOutcome(
        guessed_index=int(table.conclusions[leaf]),
        transcript=table.transcripts[leaf],
        probability=float(prob),
    )


def transcript_to_csv(transcript) -> str:
    lines = ["copy,party,outcome"]
    lines += [f"{c},{p},{o}" for c, p, o in transcript]
    return "\n".join(lines) + "\n"


# --- protocol.v1 serialization --------------------------------------------------

def _node_to_dict(node: Node) -> dict:
    if isinstance(node, Conclude):
        return {"kind": "conclude", "index": node.state_index}
    if isinstance(node, Eliminate):
        return {"kind": "eliminate", "index": node.state_index,
                "child": _node_to_dict(node.child)}
    return {
        "kind": "measure",
        "copy": node.copy_index,
        "party": node.measurement.party,
        "basis": codec.complex_pairs(node.measurement.basis),
        "children": [_node_to_dict(c) for c in node.children],
    }


def protocol_to_json(t: ProtocolTree) -> str:
    doc = {"schema": "protocol.v1", "copies": t.copies, "root": _node_to_dict(t.root)}
    return codec.dump(doc)


def _node_from_dict(doc: dict, path: str, depth: int) -> Node:
    if depth > MAX_PROTOCOL_DEPTH:
        raise ValueError(f"{path}: nesting deeper than {MAX_PROTOCOL_DEPTH} nodes")
    kind = codec.field(doc, "kind", str, path)
    if kind == "conclude":
        return Conclude(codec.field(doc, "index", int, path))
    if kind == "eliminate":
        child = codec.field(doc, "child", dict, path)
        return Eliminate(codec.field(doc, "index", int, path),
                         _node_from_dict(child, f"{path}.child", depth + 1))
    if kind == "measure":
        basis = codec.complex_array(doc, "basis", (2, 2), path)
        children = codec.items(doc, "children", dict, path, length=2)
        return Measure(
            codec.field(doc, "copy", int, path),
            LocalMeasurement(codec.field(doc, "party", str, path), tuple(basis)),
            tuple(_node_from_dict(c, f"{path}.children[{n}]", depth + 1)  # type: ignore[arg-type]
                  for n, c in enumerate(children)),
        )
    raise ValueError(f"{path}.kind: unknown node kind {kind!r}")


def protocol_from_json(text: str) -> ProtocolTree:
    doc = codec.load(text, "protocol.v1")
    root = _node_from_dict(codec.field(doc, "root", dict), "root", 0)
    t = ProtocolTree(copies=codec.field(doc, "copies", int), root=root)
    validate_tree(t)
    return t
