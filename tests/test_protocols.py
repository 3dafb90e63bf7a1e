import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from qlocc import (
    BipartiteKet,
    FamilyParams,
    LocalMeasurement,
    MalformedProtocolError,
    NotOrthogonalError,
    a_basis,
    bell_grouping_protocol,
    elimination_tournament,
    exact_success_probability,
    protocol_from_json,
    protocol_to_json,
    sample_run,
    sample_runs,
    success_probabilities,
    theta_basis,
    validate_basis,
    walgate_pair_protocol,
)
from qlocc.protocols import (
    ORTHILITY_ATOL,
    Conclude,
    Measure,
    ProtocolTree,
    RunOutcome,
    _seeded_uniform,
    outcome_distribution,
    seeded_uniforms,
    transcript_to_csv,
    validate_tree,
)
from conftest import (
    born_rule_distribution,
    born_rule_leaves,
    conditional_bob_states,
    haar_unitary,
    random_basis,
    random_orthogonal_pair,
    random_qubit,
    reference_measurement_check,
)
from qlocc.linalg import orthogonal_complement_qubit

PI_4 = math.pi / 4


def _pair_bases(tree):
    """Alice vector and both states' conditional Bob overlaps for a
    single-copy pair tree, computed from first principles."""
    assert isinstance(tree.root, Measure)
    assert tree.root.measurement.party == "A"
    return tree.root.measurement.basis


def _max_conditional_overlap(tree, psi, phi):
    worst = 0.0
    for u in _pair_bases(tree):
        eta = conditional_bob_states(u, psi.amplitudes)
        nu = conditional_bob_states(u, phi.amplitudes)
        ne, nn = np.linalg.norm(eta), np.linalg.norm(nu)
        if ne > 1e-6 and nn > 1e-6:
            worst = max(worst, abs(np.vdot(eta, nu)) / (ne * nn))
    return worst


def _zz_guess_protocol():
    """Single-copy computational-basis measurement guessing the Bell index
    from the correlation pattern: deliberately lossy (two states per
    pattern)."""
    z0 = np.array([1.0, 0.0], dtype=complex)
    z1 = np.array([0.0, 1.0], dtype=complex)
    guess = {(0, 0): 0, (1, 1): 1, (0, 1): 2, (1, 0): 3}

    def bob(x):
        return Measure(0, LocalMeasurement("B", (z0, z1)),
                       (Conclude(guess[(x, 0)]), Conclude(guess[(x, 1)])))

    root = Measure(0, LocalMeasurement("A", (z0, z1)), (bob(0), bob(1)))
    return ProtocolTree(copies=1, root=root)


# --- pair subroutine -------------------------------------------------------------

def test_walgate_computational_pair_uses_computational_alice():
    psi = BipartiteKet(np.eye(4)[0])  # |00>
    phi = BipartiteKet(np.eye(4)[3])  # |11>
    tree = walgate_pair_protocol(psi, phi)
    u0, u1 = _pair_bases(tree)
    assert np.allclose(np.abs(u0), [1, 0], atol=1e-12)
    assert np.allclose(np.abs(u1), [0, 1], atol=1e-12)
    assert np.allclose(success_probabilities(tree, _embed_pair(psi, phi))[:2], 1.0)


def test_walgate_bell_plus_minus_uses_hadamard_alice():
    psi = BipartiteKet(np.array([1, 0, 0, 1]) / math.sqrt(2))
    phi = BipartiteKet(np.array([1, 0, 0, -1]) / math.sqrt(2))
    tree = walgate_pair_protocol(psi, phi)
    u0, _ = _pair_bases(tree)
    assert np.allclose(np.abs(u0), [1 / math.sqrt(2)] * 2, atol=1e-10)
    assert _max_conditional_overlap(tree, psi, phi) < 1e-10
    assert np.allclose(success_probabilities(tree, _embed_pair(psi, phi))[:2], 1.0)


def _embed_pair(psi, phi):
    """Complete an orthogonal pair to a basis so the evaluators can run;
    success entries for indices 2,3 are ignored by pair tests."""
    p = (np.eye(4, dtype=complex)
         - np.outer(psi.amplitudes, psi.amplitudes.conj())
         - np.outer(phi.amplitudes, phi.amplitudes.conj()))
    w, v = np.linalg.eigh(p)
    rest = [BipartiteKet(v[:, k]) for k in np.argsort(w)[2:]]
    return validate_basis([psi, phi] + rest)


def test_walgate_rejects_non_orthogonal():
    psi = BipartiteKet(np.eye(4)[0])
    phi = BipartiteKet(np.array([1, 1, 0, 0]) / math.sqrt(2))
    with pytest.raises(NotOrthogonalError):
        walgate_pair_protocol(psi, phi)


def test_walgate_random_pairs_certificates(rng):
    worst_overlap = 0.0
    worst_success = 1.0
    for _ in range(1000):
        psi, phi = random_orthogonal_pair(rng)
        tree = walgate_pair_protocol(psi, phi)
        worst_overlap = max(worst_overlap, _max_conditional_overlap(tree, psi, phi))
        p_psi = outcome_distribution(tree, psi.amplitudes)[0]
        p_phi = outcome_distribution(tree, phi.amplitudes)[1]
        worst_success = min(worst_success, p_psi, p_phi)
    assert worst_overlap < 1e-10
    assert worst_success > 1.0 - 1e-9


def test_walgate_degenerate_shared_alice_support():
    # product states living on the same Alice vector
    psi = BipartiteKet(np.eye(4)[0])  # |00>
    phi = BipartiteKet(np.eye(4)[1])  # |01>
    tree = walgate_pair_protocol(psi, phi)
    assert np.allclose(success_probabilities(tree, _embed_pair(psi, phi))[:2], 1.0)


# --- tournament ---------------------------------------------------------------------

def test_tournament_bell_three_copies_perfect():
    b = theta_basis(PI_4)
    tree = elimination_tournament(b, copies=3)
    assert np.allclose(success_probabilities(tree, b), 1.0, atol=1e-12)


def test_tournament_mixing_family_perfect():
    b = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4))
    tree = elimination_tournament(b, copies=3)
    assert abs(exact_success_probability(tree, b) - 1.0) < 1e-9


def test_tournament_rejects_two_copies():
    with pytest.raises(ValueError):
        elimination_tournament(theta_basis(0.3), copies=2)


def test_tournament_extra_copies_allowed():
    b = theta_basis(0.9)
    tree = elimination_tournament(b, copies=5)
    assert abs(exact_success_probability(tree, b) - 1.0) < 1e-9


# --- grouping protocol ----------------------------------------------------------------

def test_bell_grouping_perfect_on_bell():
    tree = bell_grouping_protocol(PI_4)
    assert np.allclose(success_probabilities(tree, theta_basis(PI_4)), 1.0)


def test_bell_grouping_perfect_generic_theta():
    tree = bell_grouping_protocol(0.3)
    assert abs(exact_success_probability(tree, theta_basis(0.3)) - 1.0) < 1e-9


def test_two_copy_classification_is_realized_by_the_grouping_protocol():
    # whenever the classifier awards two copies to a theta-family basis, the
    # built-in two-copy protocol must actually deliver exact success
    from qlocc import min_copies_adaptive_locc

    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 15):
        b = theta_basis(theta)
        if min_copies_adaptive_locc(b) == 2:
            tree = bell_grouping_protocol(theta)
            assert abs(exact_success_probability(tree, b) - 1.0) < 1e-9


def test_bell_grouping_honest_on_mismatched_basis():
    tree = bell_grouping_protocol(0.3)
    other = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4))
    p = exact_success_probability(tree, other)
    assert p < 1.0 - 1e-3
    assert p > 0.0


# --- exact evaluation -------------------------------------------------------------------

def test_exact_success_lossy_zz_on_bell_is_half():
    p = exact_success_probability(_zz_guess_protocol(), theta_basis(PI_4))
    assert abs(p - 0.5) < 1e-12


def test_exact_success_constant_tree_quarter():
    tree = ProtocolTree(copies=1, root=Conclude(1))
    assert abs(exact_success_probability(tree, theta_basis(0.7)) - 0.25) < 1e-15


def test_probability_conservation_per_input(rng):
    trees_bases = [
        (bell_grouping_protocol(0.3), theta_basis(0.8)),
        (_zz_guess_protocol(), random_basis(rng)),
        (elimination_tournament(random_basis(rng)), random_basis(rng)),
    ]
    for tree, basis in trees_bases:
        for k in basis:
            total = outcome_distribution(tree, k.amplitudes).sum()
            assert abs(total - 1.0) < 1e-10


def test_malformed_tree_copy_out_of_range():
    z = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    root = Measure(2, LocalMeasurement("A", z), (Conclude(0), Conclude(1)))
    with pytest.raises(MalformedProtocolError):
        validate_tree(ProtocolTree(copies=1, root=root))


def test_malformed_tree_double_measurement():
    z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    inner = Measure(0, LocalMeasurement("A", z), (Conclude(0), Conclude(1)))
    root = Measure(0, LocalMeasurement("A", z), (inner, Conclude(1)))
    with pytest.raises(MalformedProtocolError):
        validate_tree(ProtocolTree(copies=1, root=root))


def test_measurement_basis_must_be_orthonormal():
    with pytest.raises(ValueError):
        LocalMeasurement("A", (np.array([1.0, 0.0]), np.array([1.0, 0.0])))


def test_measurement_basis_needs_exactly_two_vectors():
    z0, z1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for basis in ((z0, z1, z0), (z0,), ()):
        with pytest.raises(ValueError, match="exactly two vectors"):
            LocalMeasurement("A", basis)


def test_measurement_checks_keep_their_messages():
    z0, z1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    cases = [
        (("C", (z0, z1)), "party must be 'A' or 'B'"),
        (("B", (z0, np.array([0.0, 1.0, 0.0]))), "expected a vector of dimension 2"),
        (("B", (np.zeros(3), z1)), "expected a vector of dimension 2"),
        (("A", (z0, np.array([np.nan, 1.0]))), "NaN or Inf"),
        (("A", (z0, np.array([0.0, np.inf]))), "NaN or Inf"),
        (("A", (z0, (1 + 1e-9) * z1)), "not orthonormal"),
        (("A", (np.array([1e200, 0.0]), z1)), "not orthonormal"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow in the check stays silent
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                LocalMeasurement(*args)
    m = LocalMeasurement("B", (z0.reshape(2, 1), [0, 1j]))  # any shape holding two entries
    assert [v.tolist() for v in m.basis] == [[1, 0], [0, 1j]]
    assert not any(v.flags.writeable for v in m.basis)


def _verdict(check, basis):
    try:
        check(basis)
    except ValueError as exc:
        return str(exc)
    return "accepted"


def test_measurement_check_equals_the_numpy_check():
    rng = np.random.default_rng(1101)
    cases = [haar_unitary(rng, 2).T for _ in range(500)]
    for _ in range(500):  # Gram entries straddling the 1e-10 tolerance
        v = haar_unitary(rng, 2).T
        t = rng.uniform(0.5e-10, 1.5e-10)
        w = [v[0], v[1] * (1 + t / 2), v[1] + t * v[0], v[0] + t * random_qubit(rng)]
        k = rng.integers(3)
        cases.append(np.array([w[3], v[1]]) if k == 2 else np.array([v[0], w[1 + k]]))
    for bad in (np.nan, complex(0.0, np.nan), np.inf, -np.inf, complex(0.0, -np.inf), 1e200):
        for entry in range(4):
            v = haar_unitary(rng, 2).T.copy()
            v.flat[entry] = bad
            cases.append(v)
    verdicts = {"accepted": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for basis in cases:
            expected = _verdict(reference_measurement_check, basis)
            assert _verdict(lambda b: LocalMeasurement("A", tuple(b)), basis) == expected, basis
            verdicts[expected] = verdicts.get(expected, 0) + 1
    assert verdicts.keys() == {"accepted", "vector contains NaN or Inf",
                               "measurement basis is not orthonormal"}
    assert verdicts["accepted"] > 500  # the perturbed half is accepted as well as rejected


# --- sampling ------------------------------------------------------------------------------

def test_sample_tournament_always_identifies_truth(rng):
    b = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4))
    tree = elimination_tournament(b)
    for r in range(40):
        true_index = r % 4
        out = sample_run(tree, b, true_index, seed=int(rng.integers(1 << 30)))
        assert out.guessed_index == true_index


def test_sample_lossy_zz_calibrates_to_half():
    tree = _zz_guess_protocol()
    b = theta_basis(PI_4)
    n = 10_000
    hits = sum(
        sample_run(tree, b, r % 4, seed=r).guessed_index == r % 4 for r in range(n)
    )
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) < 3 * sigma


def test_sample_run_deterministic_transcript():
    b = theta_basis(0.6)
    tree = bell_grouping_protocol(0.6)
    a = sample_run(tree, b, 2, seed=123)
    c = sample_run(tree, b, 2, seed=123)
    assert a.transcript == c.transcript
    assert a.guessed_index == c.guessed_index
    assert a.probability == c.probability


def test_sample_run_transcript_probability_consistent():
    b = theta_basis(PI_4)
    out = sample_run(_zz_guess_protocol(), b, 0, seed=9)
    # the zz measurement on a Bell state: each consistent pattern has prob 1/2
    assert abs(out.probability - 0.5) < 1e-12
    assert len(out.transcript) == 2
    assert out.transcript[0][1] == "A" and out.transcript[1][1] == "B"


def test_transcript_csv_format():
    b = theta_basis(PI_4)
    out = sample_run(_zz_guess_protocol(), b, 0, seed=9)
    text = transcript_to_csv(out.transcript)
    lines = text.strip().split("\n")
    assert lines[0] == "copy,party,outcome"
    assert len(lines) == 3
    assert lines[1].startswith("0,A,")


# --- serialization ---------------------------------------------------------------------------

def test_protocol_json_roundtrip_preserves_behaviour():
    b = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4))
    tree = elimination_tournament(b)
    again = protocol_from_json(protocol_to_json(tree))
    assert again.copies == tree.copies
    assert np.allclose(
        success_probabilities(again, b), success_probabilities(tree, b), atol=1e-12
    )


def test_protocol_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        protocol_from_json('{"schema": "protocol.v2", "copies": 1, "root": {}}')


# --- closed-form Alice vector on adversarial pairs ------------------------------

def _pair_from_k(rng, k):
    """Entangled psi and the phi with A_phi A_psi^dag proportional to the
    traceless k, so the pair subroutine solves u^dag k u = 0."""
    psi = BipartiteKet(haar_unitary(rng)[:, 0])
    a_phi = k @ np.linalg.inv(psi.amplitudes.reshape(2, 2).conj().T)
    return psi, BipartiteKet.from_unnormalized(a_phi.reshape(4))


def _adversarial_pairs():
    rng = np.random.default_rng(7)
    pairs = []
    for m00 in (0.0, 1e-16, 1e-14, 1e-12, 1e-10, 1e-8):
        for _ in range(40):
            off = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            phase = np.exp(2j * math.pi * rng.random())
            pairs.append(_pair_from_k(rng, np.array([[m00 * phase, off[0]],
                                                     [off[1], -m00 * phase]])))
    for _ in range(40):  # rank-1 (nilpotent) K, and the exact [[0, 1], [0, 0]]
        x = random_qubit(rng)
        pairs.append(_pair_from_k(rng, np.outer(x, orthogonal_complement_qubit(x).conj())))
    pairs.append(_pair_from_k(rng, np.array([[0, 1], [0, 0]], dtype=complex)))
    for _ in range(40):  # product pairs, told apart by Alice or by Bob alone
        a, b, c = random_qubit(rng), random_qubit(rng), random_qubit(rng)
        a_perp, b_perp = orthogonal_complement_qubit(a), orthogonal_complement_qubit(b)
        pairs.append((BipartiteKet(np.kron(a, b)), BipartiteKet(np.kron(a_perp, c))))
        pairs.append((BipartiteKet(np.kron(a, b)), BipartiteKet(np.kron(a, b_perp))))
    return pairs


def test_walgate_adversarial_pairs_closed_form():
    worst_overlap = 0.0
    worst_success = 1.0
    for psi, phi in _adversarial_pairs():
        tree = walgate_pair_protocol(psi, phi)  # raises if the closed form misses
        worst_overlap = max(worst_overlap, _max_conditional_overlap(tree, psi, phi))
        worst_success = min(worst_success,
                            outcome_distribution(tree, psi.amplitudes)[0],
                            outcome_distribution(tree, phi.amplitudes)[1])
    assert worst_overlap < 1e-10
    assert worst_success > 1.0 - 1e-9


def test_walgate_accepts_pairs_overlapping_within_tolerance():
    # tr K is the pair's overlap; the closed form then misses u^dag K u = 0
    # by up to |tr K|, and Bob's snap to exact orthogonality absorbs it
    rng = np.random.default_rng(11)
    for _ in range(40):
        psi, phi0 = random_orthogonal_pair(rng)
        phi = BipartiteKet.from_unnormalized(phi0.amplitudes + 5e-11 * psi.amplitudes)
        assert 1e-11 < abs(psi.overlap(phi)) < ORTHILITY_ATOL
        tree = walgate_pair_protocol(psi, phi)
        assert outcome_distribution(tree, psi.amplitudes)[0] > 1.0 - 1e-9
        assert outcome_distribution(tree, phi.amplitudes)[1] > 1.0 - 1e-9


def test_alice_vector_residual_check_raises_linalg_error():
    from qlocc.protocols import _alice_vector

    with pytest.raises(np.linalg.LinAlgError):
        _alice_vector(np.full((2, 2), np.nan, dtype=complex))


# --- compiled leaf table against the step-by-step Born-rule oracle ---------------

def _assert_matches_oracle(tree, basis):
    for k in basis:
        dist = outcome_distribution(tree, k.amplitudes)
        ref = born_rule_distribution(tree, k.amplitudes)
        assert np.max(np.abs(dist - ref)) < 1e-12
        assert np.argmax(dist) == np.argmax(ref)


def test_outcome_distribution_matches_born_rule_oracle():
    rng = np.random.default_rng(303)
    for _ in range(200):
        b = random_basis(rng)
        tree = elimination_tournament(b)
        _assert_matches_oracle(tree, b)
        _assert_matches_oracle(tree, random_basis(rng))
    for theta in np.linspace(0.0, math.pi / 2, 50):
        _assert_matches_oracle(bell_grouping_protocol(theta), theta_basis(theta))
    _assert_matches_oracle(_zz_guess_protocol(), theta_basis(PI_4))
    _assert_matches_oracle(_zz_guess_protocol(), random_basis(rng))


def test_sample_run_draws_oracle_leaves():
    rng = np.random.default_rng(404)
    tree = elimination_tournament(random_basis(rng))
    b = random_basis(rng)  # a different basis, so the branches are random
    oracle = [born_rule_leaves(tree, k.amplitudes) for k in b]
    for r in range(2000):
        out = sample_run(tree, b, r % 4, seed=r)
        index, prob = oracle[r % 4][out.transcript]  # a root-to-leaf path
        assert index == out.guessed_index
        assert abs(out.probability - prob) < 1e-12


def test_readers_reject_malformed_trees():
    z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    inner = Measure(0, LocalMeasurement("A", z), (Conclude(0), Conclude(1)))
    trees = [
        ProtocolTree(copies=1, root=Measure(2, LocalMeasurement("A", z),
                                            (Conclude(0), Conclude(1)))),
        ProtocolTree(copies=1, root=Measure(0, LocalMeasurement("A", z),
                                            (inner, Conclude(1)))),
    ]
    b = theta_basis(PI_4)
    for tree in trees:
        with pytest.raises(MalformedProtocolError):
            sample_run(tree, b, 0, seed=1)
        with pytest.raises(MalformedProtocolError):
            outcome_distribution(tree, b[0].amplitudes)


@pytest.mark.parametrize("root, message", [
    (Measure(0, LocalMeasurement("A", (np.array([1.0, 0.0]), np.array([0.0, 1.0]))),
             (Conclude(0),)), "measure nodes need exactly two children"),
    ("conclude 0", "unknown node type str"),
], ids=["one-child", "not-a-node"])
def test_malformed_hand_built_trees_name_the_fault(root, message):
    with pytest.raises(MalformedProtocolError, match=f"^{message}$"):
        validate_tree(ProtocolTree(copies=1, root=root))


def test_sample_run_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        sample_run(bell_grouping_protocol(0.6), theta_basis(0.6), 0, -1)


def test_unmeasured_copies_cost_nothing():
    # only measured copies enter the evaluation, however many the tree declares
    tree = protocol_from_json(
        '{"schema": "protocol.v1", "copies": 1000000000000,'
        ' "root": {"kind": "conclude", "index": 1}}'
    )
    b = theta_basis(0.7)
    assert abs(exact_success_probability(tree, b) - 0.25) < 1e-15
    assert sample_run(tree, b, 0, seed=5).guessed_index == 1


# --- batched sampling ------------------------------------------------------------------

def _splitmix64_uniform(seed):
    """The first SplitMix64 output for ``seed``, top 53 bits, in Python ints."""
    z = (seed + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return ((z ^ (z >> 31)) >> 11) / 2**53


def test_seeded_uniforms_follow_splitmix64_in_unit_interval():
    seeds = [0, 1, 2, 12345, 2**63, 2**64 - 2, 2**64 - 1]
    u = seeded_uniforms(np.array(seeds, dtype=np.uint64))
    assert u.tolist() == [_splitmix64_uniform(s) for s in seeds]
    assert np.all((0.0 <= u) & (u < 1.0))


def test_scalar_uniform_equals_seeded_uniforms():
    seeds = [0, 1, 7, 2**63, 2**64 - 1]
    seeds += np.random.default_rng(1102).integers(0, 2**64, 1000, dtype=np.uint64).tolist()
    u = seeded_uniforms(np.array(seeds, dtype=np.uint64))
    assert [_seeded_uniform(s) for s in seeds] == u.tolist()


def test_a_zero_uniform_skips_zero_probability_leaves():
    # seed -gamma mod 2**64 starts SplitMix64 at 0, whose output is 0
    seed = 2**64 - 0x9E3779B97F4A7C15
    assert _seeded_uniform(seed) == seeded_uniforms([seed])[0] == 0.0
    b = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4))
    tree = elimination_tournament(b)
    p = tree.leaves.basis_probabilities(b.matrix())[0]
    states = [s for s in range(4) if p[s, 0] == 0.0]
    assert states  # the first leaf is out of reach of some input
    leaves, probs = sample_runs(tree, b, states, [seed] * len(states))
    for s, leaf, prob in zip(states, leaves, probs):
        assert prob > 0.0 and leaf == np.flatnonzero(p[s])[0]
        assert sample_run(tree, b, s, seed).transcript == tree.leaves.transcripts[leaf]


def test_sample_run_rejects_what_sample_runs_rejects():
    b = theta_basis(0.6)
    tree = bell_grouping_protocol(0.6)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"true_index {bad} out of range"):
            sample_runs(tree, b, [bad], [0])
        with pytest.raises(ValueError, match=f"true_index {bad} out of range"):
            sample_run(tree, b, bad, 0)


def test_sample_run_is_one_run_of_sample_runs():
    rng = np.random.default_rng(505)
    tree = elimination_tournament(random_basis(rng))
    b = random_basis(rng)  # a different basis, so the branches are random
    states = rng.integers(0, 4, size=2000)
    seeds = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
    leaves, probs = sample_runs(tree, b, states, seeds)
    table = tree.leaves
    for r in range(2000):
        alone = sample_run(tree, b, int(states[r]), seed=int(seeds[r]))
        assert alone == RunOutcome(int(table.conclusions[leaves[r]]),
                                   table.transcripts[leaves[r]], float(probs[r]))


def test_sample_run_follows_the_basis_it_is_given():
    # the table keeps one basis's leaf probabilities; another basis replaces them
    rng = np.random.default_rng(808)
    tree = elimination_tournament(random_basis(rng))
    bases = [random_basis(rng), random_basis(rng)]
    oracle = [[born_rule_leaves(tree, k.amplitudes) for k in b] for b in bases]
    for r in range(400):
        n = r // 3 % 2
        out = sample_run(tree, bases[n], r % 4, seed=r)
        index, prob = oracle[n][r % 4][out.transcript]
        assert index == out.guessed_index
        assert abs(out.probability - prob) < 1e-12


def test_sample_runs_frequencies_match_born_rule_oracle():
    rng = np.random.default_rng(606)
    n = 200_000
    cases = [
        (elimination_tournament(random_basis(rng)), random_basis(rng)),
        (_zz_guess_protocol(), theta_basis(PI_4)),  # half of its leaves have probability 0
    ]
    for tree, b in cases:
        states = np.arange(n) % 4
        leaves, _ = sample_runs(tree, b, states, np.arange(n, dtype=np.uint64) + 7)
        transcripts = tree.leaves.transcripts
        for s, k in enumerate(b):
            oracle = born_rule_leaves(tree, k.amplitudes)
            counts = np.bincount(leaves[states == s], minlength=len(transcripts))
            runs = n // 4
            for leaf, count in enumerate(counts):
                if transcripts[leaf] not in oracle:
                    assert count == 0
                    continue
                prob = oracle[transcripts[leaf]][1]
                sigma = math.sqrt(prob * (1 - prob) / runs)
                assert abs(count / runs - prob) <= 5 * sigma + 1e-12


def test_sample_runs_rejects_bad_state_index():
    b = theta_basis(PI_4)
    with pytest.raises(ValueError, match="true_index 4 out of range"):
        sample_runs(_zz_guess_protocol(), b, [0, 4], [1, 2])


def test_sample_runs_rejects_seeds_of_another_shape():
    # one seed per run: a single seed must not be shared by every run
    tree, b = _zz_guess_protocol(), theta_basis(PI_4)
    with pytest.raises(ValueError, match="seeds shape"):
        sample_runs(tree, b, [0, 1, 2, 3], [5])
    with pytest.raises(ValueError, match="seeds shape"):
        sample_runs(tree, b, [0, 1], [5, 6, 7])


def test_trees_are_freed_without_the_cycle_collector():
    b = random_basis(np.random.default_rng(707))
    gc.collect()
    gc.disable()
    try:
        tree = elimination_tournament(b)
        refs = [weakref.ref(tree.root), weakref.ref(tree.leaves)]
        del tree
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
