"""The batched pair subroutine (`qlocc.protocols._walgate_bases`) against the
scalar path it replaced (`conftest.reference_pair_protocol`,
`conftest.reference_tournament`), `simulate`'s outputs against bytes
written by that path, and the tree-free `tournament_leaves` that decode
reads against the built tournament."""

import contextlib
import io
import math
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from qlocc import (
    BipartiteKet,
    FamilyParams,
    LocalMeasurement,
    a_basis,
    bell_grouping_protocol,
    elimination_tournament,
    protocol_to_json,
    theta_basis,
    validate_basis,
    walgate_pair_protocol,
)
from qlocc import protocols
from qlocc.cli import main
from qlocc.protocols import (_KNOCKOUT, VANISH_TOL, _compile, _solved, _walgate_bases,
                             outcome_distribution, tournament_leaves)
from qlocc.secretshare import ShareSet, decode_full_collaboration
from conftest import (
    born_rule_leaves,
    conditional_bob_states,
    haar_unitary,
    random_basis,
    random_low_entanglement_basis,
    reference_pair_protocol,
    reference_tournament,
)

DATA = Path(__file__).resolve().parent / "data"
PI_4_TEXT = "0.78539816339744831"

GOLDEN_SIMULATIONS = {
    "simulate_tournament": [
        "simulate", "--protocol", "tournament", "--family", "A", "--alpha", "0.3",
        "--beta", "0.9", "--gamma", PI_4_TEXT, "--runs", "200", "--seed", "7"],
    "simulate_bell_grouping": [
        "simulate", "--protocol", "bell-grouping", "--family", "theta", "--theta", "0.6",
        "--runs", "100", "--seed", "3"],
}


def protocol_inputs(rng):
    """Haar and low-entanglement bases, product bases (the computational basis
    and its images under random U_A (x) U_B), the family-A grid with its 0 and
    pi/2 edges, and a theta grid.  The product bases reach every Bob branch:
    both states, one of them, or neither after an Alice outcome."""
    cases = [random_basis(rng) for _ in range(10)]
    cases += [random_low_entanglement_basis(rng) for _ in range(10)]
    computational = validate_basis([BipartiteKet(v) for v in np.eye(4)], label="computational")
    cases.append(computational)
    for _ in range(10):
        u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        cases.append(validate_basis([BipartiteKet(u @ k.amplitudes) for k in computational],
                                    label="product"))
    edge = np.linspace(0.0, math.pi / 2, 9)
    cases += [a_basis(FamilyParams(alpha=al, beta=be, gamma=ga))
              for al in edge for be in edge for ga in np.linspace(0.0, math.pi / 2, 7)]
    return cases + [theta_basis(t) for t in np.linspace(0.0, math.pi / 2, 41)]


def bob_branches(tree, psi, phi) -> set:
    """Which of psi and phi reach each of Alice's outcomes in a pair tree."""
    reach = {(True, True): "both", (True, False): "psi only",
             (False, True): "phi only", (False, False): "neither"}
    return {reach[tuple(np.linalg.norm(conditional_bob_states(u, k.amplitudes)) > VANISH_TOL
                        for k in (psi, phi))]
            for u in tree.root.measurement.basis}


def test_pair_protocols_equal_reference_path(rng):
    mismatched, branches = [], set()
    for n, b in enumerate(protocol_inputs(rng)):
        for i, j in combinations(range(4), 2):
            reference = reference_pair_protocol(b[i], b[j])
            branches |= bob_branches(reference, b[i], b[j])
            if protocol_to_json(walgate_pair_protocol(b[i], b[j])) != protocol_to_json(reference):
                mismatched.append((n, b.label, i, j))
    assert mismatched == []
    assert branches == {"both", "psi only", "phi only", "neither"}


def test_tournaments_equal_reference_path_and_born_rule_oracle(rng):
    # every pair solve is checked above; this checks the knockout's wiring,
    # including Bob's winner swap, and the compiled table on each input state
    inputs = protocol_inputs(rng)
    for b in inputs[:31] + inputs[31:-41:19] + inputs[-41::8]:
        tree = elimination_tournament(b)
        assert protocol_to_json(tree) == protocol_to_json(reference_tournament(b)), b.label
        table = tree.leaves
        for k in b:
            oracle = born_rule_leaves(tree, k.amplitudes)
            assert set(oracle) <= set(table.transcripts)
            for leaf, p in enumerate(table.probabilities(k.amplitudes)):
                index, prob = oracle.get(table.transcripts[leaf], (table.conclusions[leaf], 0.0))
                assert index == table.conclusions[leaf]
                assert abs(p - prob) < 1e-12


def test_batched_solve_raises_no_runtime_warning(rng):
    # the vanishing branches must not divide by their (near-)zero norms
    kets = np.array([[b[i].amplitudes, b[j].amplitudes] for b in protocol_inputs(rng)
                     for i, j in combinations(range(4), 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alice, bob, swap = _walgate_bases(kets[:, 0], kets[:, 1])
    assert swap.any() and not swap.all()
    for basis in (alice, bob):
        gram = basis.conj() @ np.swapaxes(basis, -1, -2)
        assert np.abs(gram - np.eye(2)).max() < 1e-10


def _simulate(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_SIMULATIONS))
def test_simulate_reproduces_golden_bytes(name, tmp_path):
    tree = tmp_path / "tree.json"
    stdout = _simulate(GOLDEN_SIMULATIONS[name] + ["--protocol-out", str(tree)])
    assert stdout == (DATA / f"{name}.stdout.json").read_text(encoding="utf-8")
    assert tree.read_text(encoding="utf-8") == \
        (DATA / f"{name}.protocol.json").read_text(encoding="utf-8")


def test_built_leaf_tables_equal_the_walk_bit_for_bit(rng):
    # a built tree takes its table from the template of its swap pattern;
    # Bob's swap reorders the leaves, so the inputs must set some swap bits
    inputs = protocol_inputs(rng)
    kets = np.array([b.matrix() for b in inputs])[:, np.array(_KNOCKOUT).T]
    swap = _walgate_bases(kets[:, 0].reshape(-1, 4), kets[:, 1].reshape(-1, 4))[2]
    assert swap.any()
    trees = [elimination_tournament(b) for b in inputs]
    trees += [walgate_pair_protocol(b[i], b[j]) for b in inputs
              for i, j in combinations(range(4), 2)]
    trees += [bell_grouping_protocol(t) for t in np.linspace(0.0, math.pi / 2, 41)]
    for tree in trees:
        assert "leaves" in vars(tree)  # gathered at build time, not walked on first use
        table, walked = tree.leaves, _compile(tree)
        assert table.conclusions.tobytes() == walked.conclusions.tobytes()
        assert table.transcripts == walked.transcripts
        assert table.effects.shape == walked.effects.shape
        assert table.effects.tobytes() == walked.effects.tobytes()


def test_tournament_leaves_equal_the_built_tree_bit_for_bit(rng):
    # the table is gathered without wiring the tree, so its template must be
    # the one the tree's swap pattern picks; decode must conclude what the
    # tree's exact distribution concludes
    inputs = protocol_inputs(rng)
    patterns = set()
    for n, b in enumerate(inputs):
        table, tree = tournament_leaves(b), elimination_tournament(b)
        built = tree.leaves
        assert table.conclusions.tobytes() == built.conclusions.tobytes()
        assert table.transcripts == built.transcripts
        assert table.effects.tobytes() == built.effects.tobytes()
        patterns.add(_solved(b.matrix(), _KNOCKOUT)[1].tobytes())
        if n % 4 == 0:
            for m in range(4):
                expected = int(np.argmax(outcome_distribution(tree, b[m].amplitudes)))
                assert decode_full_collaboration(ShareSet(m, (b[m],) * 3), b) == expected == m
    assert len(patterns) >= 20


def test_decode_builds_no_measurement_node(monkeypatch):
    built = []

    def counted(party, basis):
        built.append(party)
        return LocalMeasurement(party, basis)

    monkeypatch.setattr(protocols, "LocalMeasurement", counted)
    b = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=math.pi / 4))
    for m in range(4):
        assert decode_full_collaboration(ShareSet(m, (b[m],) * 3), b) == m
    assert built == []
    elimination_tournament(b)
    assert len(built) == 18  # the counter sees the tree path's measurements


def _corrupted(position, row, factor, shift=0.0):
    """`_solved` with row ``row`` of stack entry ``position`` scaled by
    ``factor`` and moved by ``shift`` along the entry's other row."""
    def solved(kets, pairs):
        bases, swap = _solved(kets, pairs)
        bases = bases.copy()
        bases[position, row] = factor * bases[position, row] + shift * bases[position, 1 - row]
        return bases, swap
    return solved


@pytest.mark.parametrize("position", [0, 7, 17])
@pytest.mark.parametrize("factor,shift,passes", [
    (1 + 4e-11, 0.0, True), (1 + 6e-11, 0.0, False),
    (1.0, 4e-11, True), (1.0, 2e-10, False),
])
def test_stacked_check_keeps_the_measurement_check(monkeypatch, position, factor, shift, passes):
    # the same tolerance, on either side of it, as each tree node's check
    monkeypatch.setattr(protocols, "_solved", _corrupted(position, position % 2, factor, shift))
    b = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=math.pi / 4))
    for build in (tournament_leaves, elimination_tournament):
        if passes:
            build(b)
        else:
            with pytest.raises(ValueError, match="^measurement basis is not orthonormal$"):
                build(b)


def test_stacked_check_fails_on_nan(monkeypatch):
    monkeypatch.setattr(protocols, "_solved", _corrupted(5, 1, float("nan")))
    b = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=math.pi / 4))
    with pytest.raises(ValueError, match="^measurement basis is not orthonormal$"):
        tournament_leaves(b)
