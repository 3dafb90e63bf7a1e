import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qlocc import (
    BipartiteKet,
    FamilyParams,
    basis_from_json,
    IntegrityError,
    a_basis,
    decode_full_collaboration,
    encode_2bit,
    hermitian_eigenvalues,
    strong_pair_shares,
    theta_basis,
    validate_basis,
)
from qlocc.cli import main
from qlocc.entanglement import pair_projector, separability_certificate
from qlocc.linalg import outer
from qlocc.secretshare import (
    WEAK_BASIS_WARNING,
    MixedShare,
    ShareSet,
    StrongPairShares,
    mixed_share_eigenvalues,
    share_set_from_json,
    share_set_to_json,
    strong_pair_to_json,
)
from conftest import bench_workloads

PI_4 = math.pi / 4


def strong_basis():
    return a_basis(FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4))


def test_encode_produces_three_copies_of_selected_state():
    b = strong_basis()
    s = encode_2bit(2, b)
    for copy in s.copies:
        assert copy.close_to(b[2], atol=1e-15)
    assert s.party_assignment == ("A1", "B1", "A2", "B2", "A3", "B3")
    assert s.security_warning is None


def test_encode_warns_on_two_copy_distinguishable_basis():
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        s = encode_2bit(1, theta_basis(PI_4))
    assert s.security_warning == WEAK_BASIS_WARNING
    assert raised == []


def test_encode_rejects_out_of_range_message():
    with pytest.raises(ValueError):
        encode_2bit(5, strong_basis())
    with pytest.raises(ValueError):
        encode_2bit(-1, strong_basis())


def test_roundtrip_all_messages_strong_basis():
    b = strong_basis()
    for m in range(4):
        assert decode_full_collaboration(encode_2bit(m, b), b) == m


def test_roundtrip_all_messages_bell_basis():
    b = theta_basis(PI_4)
    for m in range(4):
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            s = encode_2bit(m, b)
        assert s.security_warning == WEAK_BASIS_WARNING
        assert raised == []
        assert decode_full_collaboration(s, b) == m


def test_corrupted_shares_rejected():
    b = strong_basis()
    s = encode_2bit(1, b)
    tampered = ShareSet(message=1, copies=(s.copies[0], b[2], s.copies[2]))
    with pytest.raises(IntegrityError):
        decode_full_collaboration(tampered, b)


def test_strong_pair_security_pass_on_strong_basis():
    out = strong_pair_shares(strong_basis(), 0, 2, 0.5, 0.5)
    assert out.security_pass
    assert not out.certificate_pair.is_separable
    assert not out.certificate_complement.is_separable
    assert out.complement == (1, 3)


def test_strong_pair_orthogonal_supports():
    out = strong_pair_shares(strong_basis(), 0, 2, 0.5, 0.5)
    assert out.cross_trace < 1e-12
    assert abs(np.trace(out.share.sigma).real - 1.0) < 1e-12


def test_strong_pair_security_fail_on_bell_pair():
    out = strong_pair_shares(theta_basis(PI_4), 0, 1, 0.5, 0.5)
    assert not out.security_pass
    assert out.certificate_pair.is_separable


def test_strong_pair_rejects_bad_weights():
    b = strong_basis()
    with pytest.raises(ValueError):
        strong_pair_shares(b, 0, 2, 0.0, 0.5)
    with pytest.raises(ValueError):
        strong_pair_shares(b, 0, 2, 0.5, 1.0)
    with pytest.raises(ValueError):
        strong_pair_shares(b, 2, 2, 0.5, 0.5)


@pytest.mark.parametrize("entry, value", [((1, 0), 0.4), ((0, 1), 5.0)])
def test_mixed_share_rejects_non_hermitian_operators(entry, value):
    sigma = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    sigma[entry] = value
    with pytest.raises(ValueError, match="not Hermitian"):
        MixedShare(sigma=sigma, sigma_perp=np.diag([0.0, 0.0, 0.5, 0.5]), lam=0.5, mu=0.5)


def test_mixed_share_spectrum():
    lam, mu = 0.3, 0.7
    out = strong_pair_shares(strong_basis(), 0, 2, lam, mu)
    ev_sigma, ev_perp = mixed_share_eigenvalues(out.share)
    assert np.allclose(ev_sigma, [0.0, 0.0, lam, 1 - lam], atol=1e-10)
    assert np.allclose(ev_perp, [0.0, 0.0, 1 - mu, mu], atol=1e-10)


def test_share_set_json_roundtrip():
    b = strong_basis()
    s = encode_2bit(3, b)
    text = share_set_to_json(s, b)
    again, basis_again = share_set_from_json(text)
    assert again.message == 3
    assert decode_full_collaboration(again, basis_again) == 3


def test_strong_pair_json_fields():
    import json

    out = strong_pair_shares(strong_basis(), 0, 2, 0.5, 0.5)
    doc = json.loads(strong_pair_to_json(out))
    assert doc["schema"] == "shares.v1"
    assert doc["kind"] == "strong_pair"
    assert doc["security"] == "PASS"
    assert doc["certificates"]["pair_projector"]["is_separable"] is False
    assert len(doc["sigma"]) == 4 and len(doc["sigma"][0]) == 4


def test_decode_recovers_even_under_nonuniform_mixture_weights():
    # the spectrum {lam, 1-lam} never touches the decode path, which uses
    # pure three-copy shares; this guards the two schemes stay independent
    b = strong_basis()
    s = encode_2bit(0, b)
    assert decode_full_collaboration(s, b) == 0


def test_share_eigenvalue_sum_is_one():
    out = strong_pair_shares(strong_basis(), 1, 3, 0.25, 0.75)
    assert abs(hermitian_eigenvalues(out.share.sigma).sum() - 1.0) < 1e-12


def _strong_pair_six_solves(b, i, j, lam, mu) -> StrongPairShares:
    """strong_pair_shares as it was built from six separate solves: the
    constructor's two and two per separability certificate."""
    k, l = (n for n in range(4) if n not in (i, j))
    sigma = lam * outer(b[i].amplitudes) + (1 - lam) * outer(b[j].amplitudes)
    sigma_perp = mu * outer(b[k].amplitudes) + (1 - mu) * outer(b[l].amplitudes)
    share = MixedShare(sigma=sigma, sigma_perp=sigma_perp, lam=lam, mu=mu)
    pair = separability_certificate(pair_projector(b, i, j))
    complement = separability_certificate(pair_projector(b, k, l))
    return StrongPairShares(share, (i, j), (k, l), pair, complement,
                            float(abs(np.trace(share.sigma @ share.sigma_perp))),
                            not pair.is_separable and not complement.is_separable)


def test_strong_pair_one_solve_equals_six_separate_solves_on_bench_bases():
    # every ordered pair of two bases of each basis kind the benchmark sends;
    # shares.v1 writes floats by repr, so equal text is equal bits
    workloads = bench_workloads()
    rng = np.random.default_rng(20261019)
    for n in range(2 * len(workloads.BASIS_KINDS)):
        kind = workloads.BASIS_KINDS[n % len(workloads.BASIS_KINDS)]
        b = basis_from_json(workloads.basis_json(workloads.random_basis(kind, rng), kind))
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                lam, mu = rng.uniform(0.2, 0.8, size=2).tolist()
                out = strong_pair_shares(b, i, j, lam, mu)
                assert strong_pair_to_json(out) == strong_pair_to_json(
                    _strong_pair_six_solves(b, i, j, lam, mu))
                assert type(out.certificate_pair.is_separable) is bool


def _diag(*values):
    return np.diag(values).astype(complex)


def _skewed(m):
    m = m.copy()
    m[0, 1] = 0.4  # not Hermitian; the trace is unchanged
    return m


HALF_LOW, HALF_HIGH = _diag(0.5, 0.5, 0, 0), _diag(0, 0, 0.5, 0.5)


@pytest.mark.parametrize("sigma, sigma_perp, message", [
    (_diag(0.6, 0.6, 0, 0), _skewed(HALF_HIGH), "sigma is not trace 1"),
    (_diag(0.9, -0.2, 0, 0), HALF_HIGH, "sigma is not trace 1"),
    (_skewed(HALF_LOW), _diag(0, 0, 0.6, 0.6), "matrix is not Hermitian"),
    (_diag(1.2, -0.2, 0, 0), _diag(0, 0, 0.6, 0.6), "sigma is not positive semidefinite"),
    (HALF_LOW, _diag(0.6, 0, 0, 0.6), "sigma_perp is not trace 1"),
    (HALF_LOW, _skewed(_diag(0, 0, 0.6, 0.6)), "sigma_perp is not trace 1"),
    (HALF_LOW, _diag(0.6, 0, 0.6, -0.2), "sigma_perp is not positive semidefinite"),
    (HALF_LOW, _diag(0.5, 0, 0.5, 0), "supports are not orthogonal"),
])
def test_mixed_share_reports_the_first_failing_check(sigma, sigma_perp, message):
    # trace, then PSD, of sigma and then of sigma_perp, then orthogonality:
    # each input but the last fails two checks
    with pytest.raises(ValueError) as err:
        MixedShare(sigma=sigma, sigma_perp=sigma_perp, lam=0.5, mu=0.5)
    assert str(err.value) == message


# --- the share-set boundary -----------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"


def _decode_file(tmp_path, doc):
    f = tmp_path / "shares.json"
    f.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["secret-share", "decode", "--shares-file", str(f)])
    return code, out.getvalue(), err.getvalue()


def _computational_basis():
    return validate_basis([BipartiteKet(v) for v in np.eye(4)], label="computational")


@pytest.mark.parametrize("entry,value,message", [
    ("message", 7, "message must be in 0..3, got 7"),
    ("message", -1, "message must be in 0..3, got -1"),
    ("party_assignment", ["A1"], "party_assignment must be six distinct labels, got ['A1']"),
    ("party_assignment", ["A1", "B1", "A2", "B2", "A3", "A1"],
     "party_assignment must be six distinct labels, got ['A1', 'B1', 'A2', 'B2', 'A3', 'A1']"),
])
def test_share_set_outside_its_contract_exits_2(tmp_path, entry, value, message):
    doc = json.loads((DATA / "encode_three_copy.shares.json").read_text(encoding="utf-8"))
    doc[entry] = value
    assert _decode_file(tmp_path, doc) == (2, "", f"error: {message}\n")
    fields = {"message": 0, "copies": (strong_basis()[0],) * 3}
    fields[entry] = tuple(value) if entry == "party_assignment" else value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ShareSet(**fields)


def test_copies_that_are_no_basis_state_exit_2(tmp_path):
    # the knockout concludes 3 with probability 0.525312 on 0.6|00> + 0.8|01>
    b = _computational_basis()
    s = ShareSet(0, (BipartiteKet(np.array([0.6, 0.8, 0.0, 0.0])),) * 3)
    with pytest.raises(IntegrityError, match="not a basis state"):
        decode_full_collaboration(s, b)
    code, out, err = _decode_file(tmp_path, json.loads(share_set_to_json(s, b)))
    assert (code, out) == (2, "")
    assert err == ("error: the copies are not a basis state: the tournament concludes 3 "
                   "with probability 0.525312\n")


def test_basis_state_copies_still_decode_in_the_computational_basis():
    b = _computational_basis()
    for m in range(4):
        assert decode_full_collaboration(ShareSet(m, (b[m],) * 3), b) == m


@pytest.mark.parametrize("name", ["encode_three_copy.shares.json", "encode_weak.shares.json"])
def test_golden_share_sets_decode_to_their_message(tmp_path, name):
    code, out, err = _decode_file(tmp_path, json.loads((DATA / name).read_text(encoding="utf-8")))
    assert (code, err) == (0, "")
    assert json.loads(out)["matches_encoded"] is True


@pytest.mark.parametrize("message", [2.5, 2.0, True, -0.5, 2.7])
def test_a_message_that_is_not_an_integer_in_range_is_refused(message):
    # a float or a bool is neither encoded as the integer it rounds to nor
    # written to a shares.v1 that the reader refuses
    rule = f"^{re.escape(f'message must be in 0..3, got {message}')}$"
    with pytest.raises(ValueError, match=rule):
        encode_2bit(message, strong_basis())
    with pytest.raises(ValueError, match=rule):
        ShareSet(message=message, copies=(strong_basis()[0],) * 3)


def test_a_numpy_integer_message_round_trips_as_int():
    b = strong_basis()
    for s in (encode_2bit(np.int64(2), b), ShareSet(message=np.int64(2), copies=(b[2],) * 3)):
        assert type(s.message) is int
        again, _ = share_set_from_json(share_set_to_json(s, b))
        assert again.message == 2
