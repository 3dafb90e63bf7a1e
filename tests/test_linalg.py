import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocc import BipartiteKet
from qlocc.linalg import (
    canonical_phase,
    det2,
    hermitian_eigenvalues,
    normalize,
    outer,
    partial_transpose,
    tensor,
    vector_norms,
)
from conftest import pt_oracle


def test_tensor_computational_ordering():
    out = tensor([1, 0], [0, 1])
    assert np.allclose(out, [0, 1, 0, 0])


def test_tensor_uniform_superposition():
    plus = np.array([1, 1]) / math.sqrt(2)
    assert np.allclose(tensor(plus, plus), [0.5, 0.5, 0.5, 0.5])


def test_tensor_rejects_unnormalized():
    with pytest.raises(ValueError):
        tensor([math.sin(0.4), 0], [1, 0])


@pytest.mark.parametrize("build, message", [
    (lambda: BipartiteKet(np.array([np.nan, 1.0, 0.0, 0.0])), "vector contains NaN or Inf"),
    (lambda: normalize(np.zeros(4)), "cannot normalize a zero vector"),
], ids=["nan-amplitude", "zero-vector"])
def test_vector_checks_name_the_fault(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_tensor_bilinear_on_unvalidated_path(rng):
    for _ in range(50):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = complex(rng.standard_normal(), rng.standard_normal())
        lhs = tensor(s * a, b, validate=False)
        rhs = s * tensor(a, b, validate=False)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_partial_transpose_fixes_diagonal_projector():
    m = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)  # |00><00| + |11><11|
    assert np.allclose(partial_transpose(m), m)


def test_partial_transpose_bell_spectrum():
    phi_plus = np.array([1, 0, 0, 1]) / math.sqrt(2)
    m = np.outer(phi_plus, phi_plus.conj())
    ev = hermitian_eigenvalues(partial_transpose(m))
    assert np.allclose(ev, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution(rng):
    for _ in range(20):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = z + z.conj().T
        assert np.allclose(partial_transpose(partial_transpose(h)), h)


def test_partial_transpose_matches_index_oracle(rng):
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(partial_transpose(m), pt_oracle(m))


def test_partial_transpose_preserves_trace_and_hermiticity(rng):
    for _ in range(20):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = z + z.conj().T
        p = partial_transpose(h)
        assert abs(np.trace(p) - np.trace(h)) < 1e-12
        assert np.allclose(p, p.conj().T)


def test_hermitian_eigenvalues_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(4)), [1, 1, 1, 1])


def test_hermitian_eigenvalues_diagonal_sorted_ascending():
    ev = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0, 0.0]))
    assert np.allclose(ev, [0, 1, 2, 3])


def test_hermitian_eigenvalues_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        hermitian_eigenvalues(m)


def test_hermitian_eigenvalues_of_an_empty_stack_and_of_a_nan_entry():
    assert hermitian_eigenvalues(np.empty((0, 4, 4), dtype=complex)).shape == (0, 4)
    m = np.array([np.eye(4), np.eye(4)], dtype=complex)
    m[1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(m)


def test_eigenvalue_sum_equals_trace(rng):
    for _ in range(30):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = z + z.conj().T
        assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-10
        assert abs(hermitian_eigenvalues(partial_transpose(h)).sum()
                   - np.trace(h).real) < 1e-10


def test_pair_projector_pt_spectrum_closed_form_inline():
    # eigenvalues of the partial transpose of |b1><b1| + |b2><b2| for the
    # three-angle family, against the closed forms evaluated right here
    al, be = 0.3, 0.9
    ca, sa = math.cos(al), math.sin(al)
    cb, sb = math.cos(be), math.sin(be)
    b1 = np.array([ca, 0, 0, -sa], dtype=complex)
    b2 = np.array([0, cb, -sb, 0], dtype=complex)
    p12 = np.outer(b1, b1.conj()) + np.outer(b2, b2.conj())
    ev = hermitian_eigenvalues(partial_transpose(p12))
    x = math.sqrt(2 + math.cos(4 * al) - math.cos(4 * be))
    y = math.sqrt(2 - math.cos(4 * al) + math.cos(4 * be))
    expected = sorted([
        0.25 * (2 - math.sqrt(2) * x), 0.25 * (2 + math.sqrt(2) * x),
        0.25 * (2 - math.sqrt(2) * y), 0.25 * (2 + math.sqrt(2) * y),
    ])
    assert np.allclose(ev, expected, atol=1e-10)


@settings(max_examples=40, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_det2_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert abs(det2(a @ b) - det2(a) * det2(b)) < 1e-12 * max(1.0, abs(det2(a) * det2(b)))


@pytest.mark.parametrize("dim", [2, 4])
def test_vector_norms_match_np_linalg_norm_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    v = rng.standard_normal((20_000, dim)) + 1j * rng.standard_normal((20_000, dim))
    v *= 10.0 ** rng.uniform(-3, 3, size=(20_000, 1))
    expected = np.array([np.linalg.norm(x) for x in v])
    assert vector_norms(v).tobytes() == expected.tobytes()
    assert vector_norms(v.reshape(100, 200, dim)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [2, 4])
def test_outer_matches_np_outer_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    # a stack small enough that a flattening np.outer(v, v.conj()) stays small
    v = rng.standard_normal((500, dim)) + 1j * rng.standard_normal((500, dim))
    v *= 10.0 ** rng.uniform(-3, 3, size=(500, 1))
    expected = np.array([np.outer(x, x.conj()) for x in v])
    assert all(outer(x).tobytes() == e.tobytes() for x, e in zip(v, expected))
    assert outer(v).tobytes() == expected.tobytes()
    assert outer(v.reshape(20, 25, dim)).tobytes() == expected.tobytes()


def test_canonical_phase_first_significant_real_positive(rng):
    for _ in range(30):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        canon, phase = canonical_phase(v)
        lead = canon[np.abs(canon) > 1e-9][0]
        assert abs(lead.imag) < 1e-12 and lead.real > 0
        assert np.allclose(phase * canon, v)


def test_canonical_phase_skips_tiny_leading_amplitude():
    v = np.array([1e-12, -1j, 0, 0], dtype=complex)
    canon, phase = canonical_phase(v)
    assert abs(canon[1].imag) < 1e-15 and canon[1].real > 0
    assert np.allclose(phase * canon, v)
