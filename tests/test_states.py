import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocc import (
    BipartiteKet,
    FamilyParams,
    NotOrthonormalError,
    OrthonormalBasis,
    a_basis,
    basis_from_json,
    basis_to_json,
    coefficient_matrix,
    concurrence,
    theta_basis,
    validate_basis,
)
from qlocc.states import check_orthonormal
from conftest import random_ket

PI_2 = math.pi / 2


def test_theta_zero_is_the_computational_basis_permuted():
    b = theta_basis(0.0)
    expected = [
        [0, 0, 0, 1],  # |11>
        [1, 0, 0, 0],  # |00>
        [0, 0, 1, 0],  # |10>
        [0, 1, 0, 0],  # |01>
    ]
    for ket, exp in zip(b, expected):
        assert np.allclose(ket.amplitudes, exp, atol=1e-12)


def test_theta_pi4_is_maximally_entangled():
    b = theta_basis(math.pi / 4)
    for ket in b:
        assert abs(concurrence(ket) - 1.0) < 1e-12


@settings(max_examples=60, derandomize=True)
@given(st.floats(min_value=0.0, max_value=PI_2, allow_nan=False))
def test_theta_basis_gram_identity(theta):
    g = theta_basis(theta).gram()
    assert np.max(np.abs(g - np.eye(4))) < 1e-12


def test_theta_basis_rejects_out_of_range():
    with pytest.raises(ValueError):
        theta_basis(2.0)
    with pytest.raises(ValueError):
        theta_basis(-0.1)


def test_a_basis_equal_angles_gives_two_product_states():
    b = a_basis(FamilyParams(alpha=math.pi / 3, beta=math.pi / 3, gamma=math.pi / 4))
    assert concurrence(b[2]) < 1e-12
    assert concurrence(b[3]) < 1e-12
    assert concurrence(b[0]) > 0.5
    assert concurrence(b[1]) > 0.5


def test_a_basis_gamma_right_angle_collapses_mixture():
    al, be = 0.42, 1.1
    b = a_basis(FamilyParams(alpha=al, beta=be, gamma=PI_2))
    phi_plus = BipartiteKet(np.array([math.sin(al), 0, 0, math.cos(al)]))
    psi_plus = BipartiteKet(np.array([0, math.sin(be), math.cos(be), 0]))
    assert b[2].close_to(phi_plus)
    # the sign flip on the fourth state is absorbed into the recorded phase
    assert b[3].close_to(psi_plus)
    assert abs(b[3].phase + 1.0) < 1e-12


def test_a_basis_generic_all_entangled():
    b = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=math.pi / 4))
    for ket in b:
        assert concurrence(ket) > 1e-9


def test_a_basis_rejects_out_of_range():
    with pytest.raises(ValueError):
        FamilyParams(alpha=-0.2, beta=0.3, gamma=0.3)


def test_coefficient_matrix_first_state_is_diagonal():
    al = 0.8
    b = a_basis(FamilyParams(alpha=al, beta=0.3, gamma=0.3))
    m = coefficient_matrix(b[0])
    expected = np.array([[math.sqrt(2) * math.cos(al), 0],
                         [0, -math.sqrt(2) * math.sin(al)]])
    assert np.allclose(m, expected, atol=1e-12)


def test_coefficient_matrix_of_phi_plus_is_identity():
    plus = BipartiteKet(np.array([1, 0, 0, 1]) / math.sqrt(2))
    assert np.allclose(coefficient_matrix(plus), np.eye(2), atol=1e-12)


def test_coefficient_matrix_third_state_and_roundtrip():
    al, be, ga = 0.3, 0.9, 0.55
    b = a_basis(FamilyParams(alpha=al, beta=be, gamma=ga))
    m = coefficient_matrix(b[2])
    r2 = math.sqrt(2)
    expected = np.array([
        [r2 * math.sin(ga) * math.sin(al), r2 * math.cos(ga) * math.cos(be)],
        [r2 * math.cos(ga) * math.sin(be), r2 * math.sin(ga) * math.cos(al)],
    ])
    assert np.allclose(m, expected, atol=1e-12)
    # reconstruction through (I (x) M)|phi+>
    phi_plus = np.array([1, 0, 0, 1]) / math.sqrt(2)
    rebuilt = np.kron(np.eye(2), m) @ phi_plus
    assert np.max(np.abs(rebuilt - b[2].amplitudes)) < 1e-12


def test_coefficient_matrix_roundtrip_random(rng):
    phi_plus = np.array([1, 0, 0, 1]) / math.sqrt(2)
    for _ in range(1000):
        k = random_ket(rng)
        m = coefficient_matrix(k)
        assert abs(np.linalg.norm(m) - math.sqrt(2)) < 1e-10
        rebuilt = np.kron(np.eye(2), m) @ phi_plus
        assert np.max(np.abs(rebuilt - k.amplitudes)) < 1e-12


def test_validate_basis_accepts_computational():
    kets = [BipartiteKet(np.eye(4)[k]) for k in range(4)]
    validate_basis(kets)


def test_validate_basis_rejects_repeated_state():
    v00 = BipartiteKet(np.eye(4)[0])
    v01 = BipartiteKet(np.eye(4)[1])
    v10 = BipartiteKet(np.eye(4)[2])
    with pytest.raises(NotOrthonormalError) as err:
        validate_basis([v00, v00, v01, v10])
    assert err.value.pair == (0, 1)
    assert err.value.deviation > 0.9


THREE_KETS = tuple(BipartiteKet(np.eye(4)[k]) for k in range(3))


@pytest.mark.parametrize("build, message", [
    (lambda: BipartiteKet.from_unnormalized(np.zeros(4)), "zero vector is not a state"),
    (lambda: OrthonormalBasis(states=THREE_KETS), "expected 4 kets, got 3"),
    (lambda: validate_basis(THREE_KETS), "expected 4 kets, got 3"),
], ids=["zero-vector", "three-kets", "validate-three-kets"])
def test_state_checks_name_the_fault(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_check_orthonormal_rejects_nan_amplitudes():
    kets = np.array([np.eye(4), np.eye(4)], dtype=complex)
    kets[1, 2, 0] = np.nan
    with pytest.raises(NotOrthonormalError) as err:
        check_orthonormal(kets)
    assert err.value.pair == (0, 2)


def test_validate_basis_accepts_family_output():
    validate_basis(list(theta_basis(0.7)))


def test_mix_orthogonality_on_grid():
    # <b3|b4> vanishes identically over the parameter cube
    vals = np.linspace(0.0, PI_2, 20)
    for al in vals:
        for be in vals:
            for ga in vals:
                b = a_basis(FamilyParams(alpha=al, beta=be, gamma=ga))
                assert abs(b[2].overlap(b[3])) < 1e-12


@settings(max_examples=40, derandomize=True)
@given(
    st.floats(min_value=0.0, max_value=PI_2),
    st.floats(min_value=0.0, max_value=PI_2),
    st.floats(min_value=0.0, max_value=PI_2),
)
def test_a_basis_always_orthonormal(al, be, ga):
    b = a_basis(FamilyParams(alpha=al, beta=be, gamma=ga))
    assert np.max(np.abs(b.gram() - np.eye(4))) < 1e-12


def test_basis_json_roundtrip():
    b = a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=math.pi / 4))
    again = basis_from_json(basis_to_json(b))
    assert again.label == b.label
    for k1, k2 in zip(b, again):
        assert k1.close_to(k2, atol=1e-15)


def test_basis_json_rejects_wrong_schema():
    with pytest.raises(ValueError):
        basis_from_json('{"schema": "nope", "states": []}')


def test_ket_rejects_norm_violation():
    with pytest.raises(ValueError):
        BipartiteKet(np.array([1.0, 1.0, 0.0, 0.0]))
