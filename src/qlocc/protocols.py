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

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import codec
from .linalg import as_complex_vector, cmul, libm, vector_norms
from .states import BipartiteKet, OrthonormalBasis, complement_pair, gram, theta_basis

ORTHILITY_ATOL = 1e-10
ORTHONORMAL_ATOL = 1e-10  # a measurement basis's Gram matrix may miss the identity by this
VANISH_TOL = 1e-9  # conditional branch weight below which a state never lands there
MAX_PROTOCOL_DEPTH = 64  # protocol.v1 nesting limit; the tournament is 9 deep
_SPLITMIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)  # gamma, m1, m2
_UINT64 = 2**64 - 1


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
        if len(self.basis) != 2:
            raise ValueError(f"a measurement basis needs exactly two vectors, got {len(self.basis)}")
        try:
            v = np.array(self.basis, dtype=complex).reshape(2, 2)
        except ValueError:  # ragged or of another dimension: say which, as one vector's check does
            v = np.array([as_complex_vector(b, 2) for b in self.basis])
        a, b, c, d = x = v.ravel().tolist()  # rows (a, b) and (c, d) as Python complex numbers
        # |z|^2 <= 4 is false for NaN (max() would skip it) and keeps the Gram entries finite
        if not all(z.real * z.real + z.imag * z.imag <= 4.0 for z in x):
            if not all(map(cmath.isfinite, x)):
                raise ValueError("vector contains NaN or Inf")
            raise ValueError("measurement basis is not orthonormal")
        ac, bc = a.conjugate(), b.conjugate()
        if not (abs(ac * a + bc * b - 1.0) <= ORTHONORMAL_ATOL
                and abs(c.conjugate() * c + d.conjugate() * d - 1.0) <= ORTHONORMAL_ATOL
                and abs(ac * c + bc * d) <= ORTHONORMAL_ATOL):
            raise ValueError("measurement basis is not orthonormal")
        v.setflags(write=False)
        object.__setattr__(self, "basis", (v[0], v[1]))


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
    # [(ket bytes, probabilities, cumulative)] of the last basis asked for
    _last_basis: list = field(default_factory=list, init=False, repr=False, compare=False)

    def probabilities(self, kets: np.ndarray) -> np.ndarray:
        """Leaf probabilities, shape (..., L), for input kets of shape (..., 4)."""
        amp = np.tensordot(kets, self.effects, axes=(-1, -1))  # (..., L, C, 4)
        return (np.abs(amp) ** 2).sum(axis=-1).prod(axis=-1)

    def outcome_distribution(self, initial: np.ndarray) -> np.ndarray:
        """Probability of concluding each index when every copy starts in
        ``initial`` (a normalized 4-vector); exact Born-rule evaluation."""
        p = self.probabilities(as_complex_vector(initial, 4))
        return np.bincount(self.conclusions, weights=p, minlength=4)

    def basis_probabilities(self, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`probabilities` of a basis's (4, 4) kets and their running sums over
        the leaves, both read-only.  The last basis's pair is kept, keyed by
        the kets' bytes, so runs drawn one at a time compute it once."""
        key = kets.tobytes()
        last = self._last_basis[0] if self._last_basis else None
        if last is None or last[0] != key:
            p = self.probabilities(kets)
            cum = np.cumsum(p, axis=1)
            for a in (p, cum):
                a.setflags(write=False)
            last = (key, p, cum)
            self._last_basis[:] = [last]
        return last[1], last[2]


def _walk(node, copies: int, used: frozenset, path: tuple, cells: tuple, measured: dict,
          leaves: list) -> None:
    """Append every leaf below ``node`` to ``leaves`` as (conclusion, transcript,
    cells): per path step, (copy, party, outcome) in the transcript and
    (slot, projector) in the flat ``cells``, slot 2 copy + (party == "B") and
    projector 2 m + 1 + outcome for the step's measurement m, numbered in
    first-visit order in ``measured`` (id -> (m, measurement)).  A module-level
    function rather than a closure, so no reference cycle keeps the tree alive
    once its callers drop it."""
    if isinstance(node, Conclude):
        if not 0 <= node.state_index < 4:
            raise MalformedProtocolError(f"conclude index {node.state_index} out of range")
        leaves.append((node.state_index, path, cells))
        return
    if isinstance(node, Eliminate):
        _walk(node.child, copies, used, path, cells, measured, leaves)
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
        m = measured.setdefault(id(node.measurement), (len(measured), node.measurement))[0]
        slot = 2 * node.copy_index + (key[1] == "B")
        used = used | {key}
        for outcome, child in enumerate(node.children):
            _walk(child, copies, used, path + (key + (outcome,),),
                  cells + (slot, 2 * m + 1 + outcome), measured, leaves)
        return
    raise MalformedProtocolError(f"unknown node type {type(node).__name__}")


def _leaf_index(root: Node, copies: int) -> tuple:
    """Check the structural invariants and list the leaves in one walk.
    Returns the conclusions, the transcripts, the projector index (L, C, 2)
    (party axis last; 0 the identity, 2 m + 1 + o outcome o of measurement m)
    and the distinct measurements in first-visit order."""
    if copies < 1:
        raise MalformedProtocolError("a protocol needs at least one copy")
    measured: dict[int, tuple[int, LocalMeasurement]] = {}
    leaves: list[tuple] = []
    _walk(root, copies, frozenset(), (), (), measured, leaves)
    conclusions, transcripts, cells = zip(*leaves)
    slot, k = np.fromiter(itertools.chain.from_iterable(cells), dtype=np.intp).reshape(-1, 2).T
    steps = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells)) // 2
    copies = slot.max(initial=-1) // 2 + 1  # up to the last one measured
    index = np.zeros((len(leaves), copies, 2), dtype=np.intp)  # projector 0: identity
    index.reshape(len(leaves), 2 * copies)[np.repeat(np.arange(len(leaves)), steps), slot] = k
    conclusions = np.array(conclusions, dtype=np.intp)
    conclusions.setflags(write=False)
    return conclusions, transcripts, index, [m for _, m in measured.values()]


def _table(conclusions: np.ndarray, transcripts: tuple, index: np.ndarray,
           bases: np.ndarray) -> LeafTable:
    """The leaf table applying ``index``'s projectors, built from ``bases``
    (M, 2, 2): projector 2 m + 1 + o is |v><v| for v = bases[m, o]."""
    v = bases.reshape(-1, 2)
    # not linalg.outer: einsum's products differ from its broadcast ones in
    # the last bit, and they reach the exact success probability `simulate` prints
    proj = np.concatenate([np.eye(2, dtype=complex)[None], np.einsum("ki,kj->kij", v, v.conj())])
    effects = np.einsum("lcij,lckm->lcikjm", proj[index[..., 0]], proj[index[..., 1]])
    effects = effects.reshape(index.shape[:2] + (4, 4))
    effects.setflags(write=False)
    return LeafTable(conclusions, transcripts, effects)


def _compile(t: ProtocolTree) -> LeafTable:
    """The leaf table by a walk; each distinct measurement's projectors are
    built once."""
    conclusions, transcripts, index, measured = _leaf_index(t.root, t.copies)
    bases = np.array([m.basis for m in measured], dtype=complex)
    return _table(conclusions, transcripts, index, bases)


def validate_tree(t: ProtocolTree) -> None:
    """Check structural invariants; raises MalformedProtocolError."""
    t.leaves


# --- the pair subroutine, batched ----------------------------------------------
#
# A stack member gets the bits of a one-pair computation, by the rules in the
# `linalg` module docstring.

def _with_complement(u: np.ndarray) -> np.ndarray:
    """The bases with rows u and `orthogonal_complement_qubit(u)`, shape
    (..., 2, 2), for the vectors u along the last axis."""
    out = np.empty(u.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, :] = u
    np.negative(u[..., 1].conj(), out=out[..., 1, 0])
    np.conjugate(u[..., 0], out=out[..., 1, 1])
    return out


def _alice_vector(m: np.ndarray) -> np.ndarray:
    """Unit u with u^dag m u = 0 for each traceless 2x2 m of a stack (..., 2, 2).

    Closed form: with u = (cos t, e^{i phi} sin t) the form becomes
    m00 cos(2t) + Re-part(phi) sin(2t); phi is chosen so the off-diagonal
    combination aligns with m00 in the complex plane, leaving a real
    equation for 2t.  Where |m00| < 1e-14, u = (1, 0).

    tr m is the pair's overlap (accepted up to ORTHILITY_ATOL); the closed form
    then misses by |tr m| sin^2 t, which Bob's snap absorbs.  A larger miss
    raises LinAlgError; written so NaN fails.
    """
    m = np.asarray(m, dtype=complex)
    m00, m01, m10 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0]
    r = np.hypot(m00.real, m00.imag)  # abs() of a complex scalar, bit for bit
    e = np.exp(-1j * np.angle(m00))
    z1r, z1i = cmul(m01.real, m01.imag, e.real, e.imag)
    z2r, z2i = cmul(m10.real, m10.imag, e.real, e.imag)
    phi = libm(math.atan2, -(z1i + z2i), z1r - z2r)
    p, q = np.exp(1j * phi), np.exp(-1j * phi)
    ar, ai = cmul(m01.real, m01.imag, p.real, p.imag)
    br, bi = cmul(m10.real, m10.imag, q.real, q.imag)
    gr = cmul(0.5 * (ar + br), 0.5 * (ai + bi), e.real, e.imag)[0]  # Re(g e^{-i delta})
    t = 0.5 * libm(math.atan2, -r, gr)
    u = np.empty(m.shape[:-1], dtype=complex)
    u.real[..., 0], u.imag[..., 0] = libm(math.cos, t), 0.0
    u.real[..., 1], u.imag[..., 1] = cmul(p.real, p.imag, libm(math.sin, t), 0.0)
    u[r < 1e-14] = 1.0, 0.0
    residual = np.abs(u.conj()[..., None, :] @ m @ u[..., :, None])[..., 0, 0]
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    bad = ~(residual <= 1e-12 * scale + np.abs(m00 + m[..., 1, 1]))
    if bad.any():
        raise np.linalg.LinAlgError(
            f"Alice vector misses u^dag K u = 0 by {residual[bad][0]:.3e}")
    return u


def _walgate_bases(psi: np.ndarray, phi: np.ndarray):
    """The pair subroutine for K pairs of orthogonal kets, psi and phi of
    shape (K, 4).  Returns

    - ``alice`` (K, 2, 2): Alice's basis, rows u and u_perp;
    - ``bob`` (K, 2, 2, 2): Bob's basis after each Alice outcome;
    - ``swap`` (K, 2): True where Bob's outcome 0 names phi, not psi.

    After Alice's outcome w, psi leaves Bob in eta = A_psi^T w* and phi in
    nu = A_phi^T w*, orthogonal by the choice of u.  Bob measures eta and nu
    snapped orthogonal to it where both reach the outcome (norm above
    VANISH_TOL); the one that does and its complement where only one does
    (``swap`` when that is phi); the computational basis where neither does.
    """
    a_psi, a_phi = psi.reshape(-1, 2, 2), phi.reshape(-1, 2, 2)
    alice = _with_complement(_alice_vector(a_phi @ a_psi.conj().swapaxes(-1, -2)))
    w = alice.conj()[..., None]
    eta = (a_psi.swapaxes(-1, -2)[:, None] @ w)[..., 0]
    nu = (a_phi.swapaxes(-1, -2)[:, None] @ w)[..., 0]
    n_eta, n_nu = vector_norms(eta), vector_norms(nu)
    has_eta, has_nu = n_eta > VANISH_TOL, n_nu > VANISH_TOL
    both = has_eta & has_nu
    first = np.where(has_eta[..., None], eta, nu)  # the state Bob's outcome 0 names
    n_first = np.where(has_eta, n_eta, np.where(has_nu, n_nu, 1.0))  # never 0: no warning
    bob = _with_complement(first / n_first[..., None])
    b0, nu = bob[both, 0], nu[both]
    snap = nu - (b0.conj()[:, None, :] @ nu[:, :, None])[:, 0] * b0  # np.vdot(b0, nu) b0
    bob[both, 1] = snap / vector_norms(snap)[:, None]  # snapped to exact orthogonality
    bob[~(has_eta | has_nu)] = np.eye(2)
    return alice, bob, has_nu & ~has_eta


# --- built protocols: one shape function each, compiled once per swap pattern ----
#
# A shape function wires a protocol's tree from ``measurement(party, n)``, the
# measurement in basis n of the protocol's stack of solved bases, and the pairs'
# ``swap`` bits (K, 2).  Pair n's bases sit at 3 n (Alice's) and 3 n + 1 + o
# (Bob's after Alice's outcome o).  Bob's swap reorders his children, so the
# leaf order depends on the swap bits as well as on the shape.

class _Slot(NamedTuple):
    """A placeholder measurement: the party and stack position it stands for."""
    party: str
    n: int


def _pair_node(measurement, swap, n: int, copy_index: int, won_psi: Node,
               won_phi: Node) -> Measure:
    """The measurement subtree of solved pair n: Alice, then Bob, then the
    follow-up node of the state Bob's outcome names."""
    children = tuple(
        Measure(copy_index, measurement("B", 3 * n + 1 + o),
                (won_phi, won_psi) if swap[n, o] else (won_psi, won_phi))
        for o in (0, 1)
    )
    return Measure(copy_index, measurement("A", 3 * n), children)


@functools.lru_cache(maxsize=128)  # 639 varied test bases give 20 tournament patterns
def _template(shape, copies: int, swap: bytes) -> tuple:
    """The conclusions, transcripts and projector index in stack order of the
    tree ``shape`` wires for these swap bits, from one walk over placeholders."""
    root = shape(_Slot, np.frombuffer(swap, dtype=bool).reshape(-1, 2))
    conclusions, transcripts, index, measured = _leaf_index(root, copies)
    stack_order = np.array([0] + [2 * m.n + 1 + o for m in measured for o in (0, 1)])
    index = stack_order[index]
    index.setflags(write=False)
    return conclusions, transcripts, index


def _gathered(shape, copies: int, bases: np.ndarray, swap: np.ndarray) -> LeafTable:
    """The leaf table of the tree ``shape`` wires from the stack ``bases``
    (M, 2, 2) and the swap bits, gathered from the template of its swap
    pattern without wiring the tree."""
    return _table(*_template(shape, copies, swap.tobytes()), bases)


def _built(shape, copies: int, bases: np.ndarray, swap: np.ndarray) -> ProtocolTree:
    """The tree ``shape`` wires from the stack ``bases`` and the swap bits, its
    `_gathered` leaf table stored where `ProtocolTree.leaves` caches a
    compiled one."""
    tree = ProtocolTree(copies, shape(lambda party, n: LocalMeasurement(party, bases[n]), swap))
    tree.__dict__["leaves"] = _gathered(shape, copies, bases, swap)
    return tree


def _check_orthonormal(bases: np.ndarray) -> None:
    """`LocalMeasurement`'s orthonormality check on every basis of a stack
    (M, 2, 2) at once; written so NaN fails."""
    if not (np.abs(gram(bases) - np.eye(2)) <= ORTHONORMAL_ATOL).all():
        raise ValueError("measurement basis is not orthonormal")


def _solved(kets: np.ndarray, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The stack (3 K, 2, 2) and swap bits (K, 2) of the pair subroutine on
    the K pairs (i, j) of rows of ``kets``, solved in one `_walgate_bases` call."""
    alice, bob, swap = _walgate_bases(*kets[np.array(pairs).T])
    return np.concatenate([alice[:, None], bob], axis=1).reshape(-1, 2, 2), swap


def _pair_shape(measurement, swap) -> Node:
    return _pair_node(measurement, swap, 0, 0, Conclude(0), Conclude(1))


def walgate_pair_protocol(psi: BipartiteKet, phi: BipartiteKet) -> ProtocolTree:
    """Single-copy protocol distinguishing two orthogonal states with
    certainty; concludes index 0 for the first state, 1 for the second."""
    overlap = abs(psi.overlap(phi))
    if overlap > ORTHILITY_ATOL:
        raise NotOrthogonalError(f"states overlap by {overlap:.3e}")
    return _built(_pair_shape, 1, *_solved(np.array([psi.amplitudes, phi.amplitudes]), [(0, 1)]))


# The knockout's pairs (i, j), played on copy j - 1: copy 0 pits 0 against 1,
# and copy c > 0 pits the winner so far against candidate c + 1.
_KNOCKOUT = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


def _tournament_shape(measurement, swap) -> Node:
    nodes: dict[tuple[int, int], Node] = {}
    for n in reversed(range(len(_KNOCKOUT))):
        i, j = _KNOCKOUT[n]
        after = [Conclude(won) if j == 3 else Eliminate(lost, nodes[won, j + 1])
                 for won, lost in ((i, j), (j, i))]
        nodes[i, j] = _pair_node(measurement, swap, n, j - 1, *after)
    return nodes[0, 1]


def elimination_tournament(b: OrthonormalBasis, copies: int = 3) -> ProtocolTree:
    """Round-per-copy knockout over the four candidates.

    Round r runs the pair subroutine on the two lowest-indexed survivors
    using copy r; the declared loser is eliminated soundly (the true state
    always wins its own pair), so after three rounds exactly one candidate
    remains and the success probability is exactly 1 on every basis state.
    All six pairs are solved in one `_walgate_bases` call.
    """
    if copies < 3:
        raise ValueError("the four-candidate tournament needs at least 3 copies")
    return _built(_tournament_shape, copies, *_solved(b.matrix(), _KNOCKOUT))


def tournament_leaves(b: OrthonormalBasis) -> LeafTable:
    """The leaf table of `elimination_tournament(b)`, bit for bit, without its
    node tree.  Its 18 measurement bases pass `LocalMeasurement`'s check as
    one stack; raises ValueError where a tree's measurement would."""
    bases, swap = _solved(b.matrix(), _KNOCKOUT)
    _check_orthonormal(bases)
    return _gathered(_tournament_shape, 3, bases, swap)


_GROUPS = ((0, 1), (2, 3))  # selected by matching and by opposite outcomes
_Z = 3 * len(_GROUPS)  # stack position of the computational basis, Alice's; Bob's follows


def _bell_grouping_shape(measurement, swap) -> Node:
    finish = []
    for n, (i, j) in enumerate(_GROUPS):
        second = _pair_node(measurement, swap, n, 1, Conclude(i), Conclude(j))
        k, l = complement_pair(i, j)
        finish.append(Eliminate(k, Eliminate(l, second)))
    bob = measurement("B", _Z + 1)
    children = tuple(Measure(0, bob, (finish[x], finish[1 - x])) for x in (0, 1))
    return Measure(0, measurement("A", _Z), children)


def bell_grouping_protocol(theta: float) -> ProtocolTree:
    """Two-copy protocol for the one-angle family.

    Copy 0: both parties measure in the computational basis; matching
    outcomes select the {|00>,|11>}-supported pair, opposite outcomes the
    other pair.  Copy 1: the pair subroutine finishes the job.
    """
    bases, swap = _solved(theta_basis(theta).matrix(), _GROUPS)
    z = np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2))
    return _built(_bell_grouping_shape, 2, np.concatenate([bases, z]), swap)


# --- execution ----------------------------------------------------------------

def outcome_distribution(t: ProtocolTree, initial: np.ndarray) -> np.ndarray:
    """`LeafTable.outcome_distribution` of the tree's leaf table."""
    return t.leaves.outcome_distribution(initial)


def success_probabilities(t: ProtocolTree, b: OrthonormalBasis) -> np.ndarray:
    """P(conclude = i | input state i) for each of the four basis states."""
    p = t.leaves.basis_probabilities(b.matrix())[0]
    return np.where(t.leaves.conclusions == np.arange(4)[:, None], p, 0.0).sum(axis=1)


def exact_success_probability(t: ProtocolTree, b: OrthonormalBasis) -> float:
    """Average success under the uniform prior: (1/4) sum_i P(i | i)."""
    return float(np.mean(success_probabilities(t, b)))


def seeded_uniforms(seeds) -> np.ndarray:
    """One uniform in [0, 1) per seed in [0, 2**64): the top 53 bits of the
    first SplitMix64 output for that seed (Steele, Lea and Flood, OOPSLA 2014).
    Stateless, so each value depends on its own seed alone."""
    gamma, m1, m2 = map(np.uint64, _SPLITMIX)
    z = np.atleast_1d(np.asarray(seeds, dtype=np.uint64)) + gamma
    z = (z ^ (z >> np.uint64(30))) * m1
    z = (z ^ (z >> np.uint64(27))) * m2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53  # exact: 53-bit integers convert without rounding


def _seeded_uniform(seed: int) -> float:
    """`seeded_uniforms` of one seed, in Python integer arithmetic."""
    gamma, m1, m2 = _SPLITMIX
    z = (seed + gamma) & _UINT64
    z = ((z ^ (z >> 30)) * m1) & _UINT64
    z = ((z ^ (z >> 27)) * m2) & _UINT64
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


def sample_runs(t: ProtocolTree, b: OrthonormalBasis, true_indices,
                seeds) -> tuple[np.ndarray, np.ndarray]:
    """Born-rule sampled executions: run r prepares ``b[true_indices[r]]`` on
    every copy and draws one leaf with the uniform of ``seeds[r]`` (integers in
    [0, 2**64)).  Returns each run's index into ``t.leaves`` and that leaf's
    exact probability given the run's input.

    The leaf probabilities of the four basis states are computed once per
    basis (`LeafTable.basis_probabilities`), and a run's leaf depends only on
    its (input, seed) pair, so it is the same whether the run is drawn alone
    or in any batch.  ``seeds`` must have the shape of ``true_indices``."""
    states = np.atleast_1d(np.asarray(true_indices, dtype=np.intp))
    bad = states[(states < 0) | (states >= 4)]
    if bad.size:
        raise ValueError(f"true_index {bad[0]} out of range")
    uniforms = seeded_uniforms(seeds)
    if uniforms.shape != states.shape:
        raise ValueError(f"seeds shape {uniforms.shape} != true_indices shape {states.shape}")
    p, cum = t.leaves.basis_probabilities(b.matrix())
    # u < 1 gives u * cum[-1] < cum[-1], and side="right" skips zero-probability leaves
    target = uniforms * cum[states, -1]
    leaves = np.empty(states.shape, dtype=np.intp)
    for s in np.unique(states):
        runs = states == s
        leaves[runs] = np.searchsorted(cum[s], target[runs], side="right")
    return leaves, p[states, leaves]


def sample_run(t: ProtocolTree, b: OrthonormalBasis, true_index: int, seed: int) -> RunOutcome:
    """One run of `sample_runs`, with any non-negative integer seed taken
    modulo 2**64: the same uniform, scaled and searched in the same running
    sums.  Only the uniform is made without numpy, because one-element arrays
    cost most of a one-run call."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    state = int(true_index)
    if not 0 <= state < 4:
        raise ValueError(f"true_index {true_index} out of range")
    table = t.leaves
    p, cum = table.basis_probabilities(b.matrix())
    row = cum[state]
    leaf = int(row.searchsorted(_seeded_uniform(int(seed) % 2**64) * row[-1], side="right"))
    return RunOutcome(
        guessed_index=int(table.conclusions[leaf]),
        transcript=table.transcripts[leaf],
        probability=float(p[state, leaf]),
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
        "basis": np.asarray(node.measurement.basis, dtype=complex),
        "children": [_node_to_dict(c) for c in node.children],
    }


def protocol_to_json(t: ProtocolTree) -> str:
    """The protocol.v1 document of ``t``; raises MalformedProtocolError, as
    `protocol_from_json` would on reading it back, when ``t`` is malformed."""
    validate_tree(t)
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
