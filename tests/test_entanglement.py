import math

import numpy as np
import pytest

from qlocc import (
    BipartiteKet,
    FamilyParams,
    a_basis,
    basis_from_json,
    concurrence,
    hermitian_eigenvalues,
    pair_projector,
    partial_transpose,
    product_decomposition,
    pt_spectrum_cross_closed,
    pt_spectrum_p12_closed,
    separability_certificate,
    theta_basis,
)
from qlocc.classify import PAIRS
from qlocc.entanglement import PSD_ATOL, pair_projectors, separability_certificates
from conftest import (_ref_separability_certificate, bench_workloads, haar_unitary, random_ket,
                      spin_flip_concurrence)

PI_4 = math.pi / 4


def _ab(al, be, ga):
    return a_basis(FamilyParams(alpha=al, beta=be, gamma=ga))


# --- concurrence --------------------------------------------------------------

def test_concurrence_first_state_sin_two_alpha():
    b = _ab(0.3, 0.9, PI_4)
    assert abs(concurrence(b[0]) - math.sin(0.6)) < 1e-12


def test_concurrence_product_state_zero():
    k = BipartiteKet(np.array([0, 1, 0, 0], dtype=complex))
    assert concurrence(k) < 1e-15


def test_concurrence_third_state_formula():
    for al, be, ga in [(0.3, 0.9, PI_4), (0.7, 0.2, 0.5), (1.1, 1.3, 1.0)]:
        b = _ab(al, be, ga)
        expected = abs(
            math.cos(ga) ** 2 * math.sin(2 * be) - math.sin(ga) ** 2 * math.sin(2 * al)
        )
        assert abs(concurrence(b[2]) - expected) < 1e-12


def test_concurrence_against_spin_flip_oracle(rng):
    for _ in range(1000):
        k = random_ket(rng)
        assert abs(concurrence(k) - spin_flip_concurrence(k.amplitudes)) < 1e-10


def test_concurrence_zero_iff_product_flag(rng):
    for _ in range(300):
        k = random_ket(rng)
        assert (concurrence(k) < 1e-9) == product_decomposition(k).is_product
    # family boundary cases sit exactly on the product surface
    b = _ab(0.6, 0.6, PI_4)
    for idx in (2, 3):
        assert concurrence(b[idx]) < 1e-9
        assert product_decomposition(b[idx]).is_product


# --- product decomposition ----------------------------------------------------

def test_product_decomposition_branch_norms():
    al, be, ga = 0.3, 0.9, 0.55
    b = _ab(al, be, ga)
    d = product_decomposition(b[2])
    n0 = math.sqrt(
        math.sin(ga) ** 2 * math.sin(al) ** 2 + math.cos(ga) ** 2 * math.sin(be) ** 2
    )
    n1 = math.sqrt(
        math.sin(ga) ** 2 * math.cos(al) ** 2 + math.cos(ga) ** 2 * math.cos(be) ** 2
    )
    assert abs(d.n0 - n0) < 1e-12
    assert abs(d.n1 - n1) < 1e-12
    assert abs(d.n0 ** 2 + d.n1 ** 2 - 1.0) < 1e-10


def test_product_decomposition_third_state_boundary():
    # tan^2(gamma) = sin(2 beta)/sin(2 alpha) forces the mixing state product
    al, be = 0.4, 0.7
    ga = math.atan(math.sqrt(math.sin(2 * be) / math.sin(2 * al)))
    b = _ab(al, be, ga)
    assert product_decomposition(b[2]).is_product
    assert not product_decomposition(b[3]).is_product


def test_product_decomposition_fourth_state_boundary():
    al, be = 0.4, 0.7
    ga = math.atan(math.sqrt(math.sin(2 * al) / math.sin(2 * be)))
    b = _ab(al, be, ga)
    assert product_decomposition(b[3]).is_product
    assert not product_decomposition(b[2]).is_product


def test_product_decomposition_of_phi_plus():
    k = BipartiteKet(np.array([1, 0, 0, 1]) / math.sqrt(2))
    d = product_decomposition(k)
    assert np.allclose(d.eta0, [1, 0])
    assert np.allclose(d.eta1, [0, 1])
    assert abs(d.n0 - 1 / math.sqrt(2)) < 1e-12
    assert abs(d.n1 - 1 / math.sqrt(2)) < 1e-12
    assert not d.is_product


def test_product_decomposition_reconstruction(rng):
    for _ in range(200):
        k = random_ket(rng)
        d = product_decomposition(k)
        rebuilt = d.n0 * np.kron([1, 0], d.eta0) + d.n1 * np.kron([0, 1], d.eta1)
        assert np.max(np.abs(rebuilt - k.amplitudes)) < 1e-10


# --- pair projectors ------------------------------------------------------------

def test_pair_projector_bell_pair_is_diagonal():
    b = theta_basis(PI_4)
    p = pair_projector(b, 0, 1)
    assert np.allclose(p, np.diag([1.0, 0, 0, 1.0]), atol=1e-12)


def test_pair_projector_complement_sums_to_identity(rng):
    from conftest import random_basis

    b = random_basis(rng)
    for i, j in [(0, 1), (0, 2), (1, 3)]:
        total = pair_projector(b, i, j) + pair_projector(b, i, j, complement=True)
        assert np.allclose(total, np.eye(4), atol=1e-12)


def test_pair_projector_rejects_equal_indices():
    b = theta_basis(0.3)
    with pytest.raises(ValueError):
        pair_projector(b, 2, 2)


# --- separability certificates ---------------------------------------------------

def test_certificate_separable_diagonal_projector():
    m = np.diag([1.0, 0, 0, 1.0]).astype(complex)
    cert = separability_certificate(m)
    assert cert.is_separable
    assert abs(cert.min_pt_eigenvalue) < 1e-12


def test_certificate_generic_p12_npt_and_equal_angle_exception():
    assert not separability_certificate(pair_projector(_ab(0.3, 0.9, PI_4), 0, 1)).is_separable
    # cos(4 alpha) = cos(4 beta) restores a positive partial transpose
    assert separability_certificate(pair_projector(_ab(0.3, 0.3, PI_4), 0, 1)).is_separable


def test_certificate_generic_cross_pair_npt():
    for al, be in [(0.3, 0.9), (0.7, 0.5), (1.2, 0.2)]:
        b = _ab(al, be, PI_4)
        assert not separability_certificate(pair_projector(b, 0, 2)).is_separable


def test_certificate_rejects_non_psd():
    with pytest.raises(ValueError):
        separability_certificate(np.diag([1.0, -0.5, 0, 0]))
    with pytest.raises(ValueError):
        separability_certificate(np.array([[0, 1], [0, 0]]))


def test_certificate_invariant_under_local_unitaries(rng):
    for _ in range(60):
        u = haar_unitary(rng)
        kets = [BipartiteKet(u[:, 0]), BipartiteKet(u[:, 1])]
        p = np.outer(kets[0].amplitudes, kets[0].amplitudes.conj()) + np.outer(
            kets[1].amplitudes, kets[1].amplitudes.conj()
        )
        verdict = separability_certificate(p).is_separable
        local = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        rotated = local @ p @ local.conj().T
        assert separability_certificate(rotated).is_separable == verdict


def _gate_operators():
    """The pair and complement projectors of two bases of each kind the
    benchmark sends, then Hermitian operators whose lowest eigenvalue sits
    at 0.5x and 2x of -PSD_ATOL (PSD within tolerance, then not)."""
    workloads = bench_workloads()
    rng = np.random.default_rng(20261020)
    ops = []
    for kind in dict.fromkeys(workloads.BASIS_KINDS):
        for _ in range(2):
            b = basis_from_json(workloads.basis_json(workloads.random_basis(kind, rng), kind))
            p = pair_projectors(b.matrix(), PAIRS)
            ops += [*p, *(np.eye(4) - p)]
    for scale in (0.5, 2.0, 0.5, 2.0):
        u = haar_unitary(rng)
        w = np.array([-scale * PSD_ATOL, *rng.uniform(0.0, 1.0, 3)])
        ops.append((u * w) @ u.conj().T)
    return ops


def _bits(c):
    return c.min_pt_eigenvalue.hex(), type(c.is_separable), c.is_separable, c.tolerance


def _raises(f, *args):
    try:
        return False, f(*args)
    except ValueError:
        return True, None


def test_certificates_equal_the_reference_bit_for_bit():
    ops = _gate_operators()
    outcomes = [_raises(_ref_separability_certificate, m) for m in ops]
    assert [r for r, _ in outcomes].count(True) == 2
    for m, (ref_raised, ref) in zip(ops, outcomes):
        raised, one = _raises(separability_certificate, m)
        assert raised == ref_raised
        assert _raises(separability_certificates, m[None])[0] == ref_raised
        if not ref_raised:
            assert _bits(one) == _bits(ref)
    passing = [m for m, (r, _) in zip(ops, outcomes) if not r]
    assert [_bits(c) for c in separability_certificates(passing)] == [
        _bits(ref) for r, ref in outcomes if not r]
    with pytest.raises(ValueError, match="not positive semidefinite"):
        separability_certificates(ops)
    assert separability_certificates(np.empty((0, 4, 4), dtype=complex)) == []


# --- closed-form spectra ----------------------------------------------------------

def test_p12_closed_equal_angles_degenerates_to_0011():
    e = pt_spectrum_p12_closed(0.6, 0.6)
    assert np.allclose(sorted(e), [0, 0, 1, 1], atol=1e-12)


def test_p12_closed_sign_split():
    e = pt_spectrum_p12_closed(0.3, 0.9)
    assert e[0] * e[2] < 0


def test_p12_closed_matches_numeric_grid(rng):
    vals = np.linspace(0.02, math.pi / 2 - 0.02, 50)
    worst = 0.0
    for al in vals:
        for be in vals:
            ga = rng.uniform(0, math.pi / 2)
            b = _ab(al, be, ga)
            expected = np.sort(pt_spectrum_p12_closed(al, be))
            for pair in ((0, 1), (3, 2)):
                ev = hermitian_eigenvalues(partial_transpose(pair_projector(b, *pair)))
                worst = max(worst, float(np.max(np.abs(ev - expected))))
    assert worst < 1e-10


def test_cross_closed_values_at_pi4_pi4():
    e = pt_spectrum_cross_closed(PI_4, PI_4)
    # inner radicand (2)^2 * (18 - 12 + 1 + 1) = 32
    root32 = math.sqrt(32.0)
    assert np.allclose(e, [0.5, 0.5, (4 - math.sqrt(16 + 2 * math.sqrt(2) * root32)) / 8,
                           (4 + math.sqrt(16 + 2 * math.sqrt(2) * root32)) / 8], atol=1e-12)
    assert e[2] < 0
    # and the numeric spectrum of an actual cross projector agrees
    b = _ab(PI_4, PI_4, PI_4)
    ev = hermitian_eigenvalues(partial_transpose(pair_projector(b, 0, 2)))
    assert np.allclose(ev, np.sort(e), atol=1e-10)


def test_cross_closed_matches_numeric_grid():
    vals = np.linspace(0.02, math.pi / 2 - 0.02, 50)
    worst = 0.0
    for al in vals:
        for be in vals:
            b = _ab(al, be, PI_4)
            expected = np.sort(pt_spectrum_cross_closed(al, be))
            for pair in ((0, 2), (0, 3), (1, 2), (1, 3)):
                ev = hermitian_eigenvalues(partial_transpose(pair_projector(b, *pair)))
                worst = max(worst, float(np.max(np.abs(ev - expected))))
    assert worst < 1e-10


def test_cross_closed_alpha_zero_boundary():
    # one product state appears at alpha = 0 but the closed form still holds
    be = 0.8
    b = _ab(0.0, be, PI_4)
    assert concurrence(b[0]) < 1e-12
    expected = np.sort(pt_spectrum_cross_closed(0.0, be))
    for pair in ((0, 2), (0, 3), (1, 2), (1, 3)):
        ev = hermitian_eigenvalues(partial_transpose(pair_projector(b, *pair)))
        assert np.allclose(ev, expected, atol=1e-10)


def test_all_six_projectors_npt_off_the_exceptional_strips():
    vals = np.linspace(0.12, math.pi / 2 - 0.12, 10)
    for al in vals:
        for be in vals:
            if abs(al - be) < 0.05 or abs(al + be - math.pi / 2) < 0.05:
                continue
            b = _ab(al, be, PI_4)
            for i in range(4):
                for j in range(i + 1, 4):
                    cert = separability_certificate(pair_projector(b, i, j))
                    assert cert.min_pt_eigenvalue < -1e-9
