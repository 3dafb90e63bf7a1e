"""The batched classification kernel (`qlocc.classify.decide`) against the
per-basis path it replaced (`conftest.reference_analyze`), and the scan CSV
it feeds against bytes written by that path."""

import contextlib
import io
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qlocc import (
    BipartiteKet,
    DegenerateFamilyError,
    FamilyParams,
    a_basis,
    analyze,
    region,
    report_to_json,
    theta_basis,
    validate_basis,
)
from qlocc.classify import (_COUNT, _ELIMINATED, _LOCC_KIND, _SEP_KIND, _SPLIT, _SPLIT_SIDES,
                            BLOCK_SIZE, LOCC_KINDS, NEAR_FACTOR, PAIRS, SEP_KINDS, Decisions,
                            SepWitness, decide)
from qlocc import entanglement
from qlocc.cli import main
from qlocc.entanglement import (PSD_ATOL, SEPARABILITY_TOL, concurrences, determinants,
                                pair_projector, pair_projectors, separability_certificate)
from qlocc.states import canonical_kets, family_a_kets, theta_kets
from conftest import (_ref_concurrences, haar_unitary, random_basis,
                      random_low_entanglement_basis, reference_analyze, reference_decide)

PI_4 = math.pi / 4
PI_6 = math.pi / 6
DATA = Path(__file__).resolve().parent / "data"

GOLDEN_SCANS = {
    "scan_family_a_edges.csv": [
        "scan", "--family", "A", "--alpha", "0:1.5707963267948966:5",
        "--beta", "0:1.5707963267948966:5", "--gamma", "0:1.5707963267948966:4"],
    "scan_theta_columns.csv": [
        "scan", "--family", "theta", "--theta", "0:1.5707963267948966:17", "--columns",
        "theta,c1,c2,c3,c4,entangled_count,min_pt_01,min_pt_23,min_copies_locc,min_copies_sep"],
}


def boundary_warning_inputs():
    """(basis, params) of the four test_boundary_warnings_* cases."""
    g = np.random.default_rng(2)
    h = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    u = (v * np.exp(1e-5j * w)) @ v.conj().T
    nudged = validate_basis([BipartiteKet(u @ k.amplitudes) for k in _ab(0.3, 0.9, PI_4)])
    near_pair = FamilyParams(alpha=0.3, beta=0.3 + 1e-8, gamma=0.5)
    near_surface = FamilyParams(alpha=0.7, beta=0.7, gamma=math.atan(math.sqrt(1.0 + 5e-9)))
    return [(theta_basis(2.5e-9), None), (a_basis(near_pair), near_pair), (nudged, None),
            (a_basis(near_surface), near_surface)]


def local_unitaries(rng, n: int) -> np.ndarray:
    """n seeded random U_A (x) U_B, shape (n, 4, 4)."""
    return np.array([np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) for _ in range(n)])


def differential_inputs(rng, haar: int, low: int):
    """(basis, params) pairs: Haar and low-entanglement bases, the family-A
    grid with its 0 and pi/2 edges (params given where the region is
    defined) and the same grid under random local unitaries, theta bases,
    criterion 5's R_I and R_IV sets and the boundary-warning cases.

    The rotated grid is the complex input that passes the SEP elimination
    test: family-A bases are real, and Haar bases practically never pass it.
    """
    cases = [(random_basis(rng), None) for _ in range(haar)]
    cases += [(random_low_entanglement_basis(rng), None) for _ in range(low)]
    edge = np.linspace(0.0, math.pi / 2, 9)
    grid = []
    for al in edge:
        for be in edge:
            for ga in np.linspace(0.0, math.pi / 2, 7):
                p = FamilyParams(alpha=al, beta=be, gamma=ga)
                try:
                    region(p)
                except DegenerateFamilyError:
                    grid.append((a_basis(p), None))
                else:
                    grid.append((a_basis(p), p))
    cases += grid
    cases += [(validate_basis([BipartiteKet(u @ k.amplitudes) for k in b], label="local"), None)
              for (b, _), u in zip(grid, local_unitaries(rng, len(grid)))]
    cases += [(theta_basis(t), None) for t in np.linspace(0.0, math.pi / 2, 41)]
    grid = np.linspace(0.0, math.pi / 2, 22)[1:-1]
    for al in grid:
        for be in grid:
            if math.sin(2 * be) - math.sin(2 * al) >= 1e-3:
                p = FamilyParams(alpha=al, beta=be, gamma=PI_4)
                cases.append((a_basis(p), p))
            p = FamilyParams(alpha=al, beta=be, gamma=PI_6)
            if region(p).name == "R_IV":
                cases.append((a_basis(p), p))
    return cases + boundary_warning_inputs()


def _ab(al, be, ga):
    return a_basis(FamilyParams(alpha=al, beta=be, gamma=ga))


def test_kernel_reports_equal_reference_path(rng):
    cases = differential_inputs(rng, haar=2000, low=500)
    mismatched = [b.label for b, p in cases
                  if report_to_json(analyze(b, p)) != report_to_json(reference_analyze(b, p))]
    assert mismatched == []


def test_decide_equals_reference_kernel_bit_for_bit(rng):
    # the kernel as it was before its per-call costs were cut
    # (conftest.reference_decide), on a stack crossing block seams and on
    # single-basis calls; sized to about 1 s, and checked to reach every
    # verdict, every SEP elimination outcome and both product-threshold sides
    cases = differential_inputs(rng, haar=200, low=200)
    kets = np.concatenate([[b.matrix() for b, _ in cases],
                           near_threshold_kets(rng, 250, [1e-9, 3e-9], rotations=1)])
    stack, reference = decide(kets), reference_decide(kets)
    for f in fields(Decisions):
        assert getattr(stack, f.name).tobytes() == getattr(reference, f.name).tobytes(), f.name
    assert len(kets) > BLOCK_SIZE
    assert set(stack.locc_kind.tolist()) == set(range(len(LOCC_KINDS)))
    assert set(stack.sep_kind.tolist()) == set(range(len(SEP_KINDS)))
    assert set(stack.sep_eliminated[stack.sep_kind == 2].tolist()) == {0, 1, 2, 3}
    assert stack.duan_tried.any() and stack.duan_residual.any()
    # one call per basis: a few of every verdict pattern, then every 25th
    pattern = np.stack([stack.locc_kind, stack.sep_kind, stack.sep_eliminated,
                        stack.entangled_count], axis=1)
    _, firsts = np.unique(pattern, axis=0, return_index=True)
    singles = np.union1d(firsts, np.arange(0, len(kets), 25))
    for n in singles.tolist():
        alone, expected = decide(kets[n][None]), reference_decide(kets[n][None])
        for f in fields(Decisions):
            assert getattr(alone, f.name).tobytes() == getattr(expected, f.name).tobytes()


def test_concurrences_equal_reference_bit_for_bit(rng):
    # entanglement.determinants is the one |det M| rule: `concurrences`, the
    # kernel and the SEP elimination test all read it
    cases = differential_inputs(rng, haar=50, low=50)
    kets = np.concatenate([[b.matrix() for b, _ in cases],
                           near_threshold_kets(rng, 100, [1e-9, 3e-9], rotations=1)])
    expected = _ref_concurrences(kets)
    assert concurrences(kets).tobytes() == expected.tobytes()
    assert determinants(kets)[2].tobytes() == expected.tobytes()
    rows = kets.reshape(-1, 4)[::7]
    assert np.array([concurrences(k) for k in rows]).tobytes() == expected.ravel()[::7].tobytes()


def test_case_split_tables_equal_the_array_rule():
    # every pair of entangled and separable masks, reachable or not, through
    # the array expressions the tables replaced
    ent = np.repeat(np.arange(16), 64)
    sep = np.tile(np.arange(64), 16)
    entangled = (ent[:, None] >> np.arange(4)) & 1 == 1
    separable = (sep[:, None] >> np.arange(len(PAIRS))) & 1 == 1

    def first(ok):
        return np.where(ok.any(axis=-1), np.argmax(ok, axis=-1), -1)

    count = entangled.sum(axis=1)
    eliminated = first(count[:, None] - entangled <= 1)
    split = first(separable[:, _SPLIT_SIDES[0]] & separable[:, _SPLIT_SIDES[1]])
    locc = np.where(count == 0, 0, np.where(eliminated >= 0, 1, np.where(split >= 0, 2, 3)))
    sep_none = np.where(count == 0, 0, np.where(split >= 0, 1, 3))
    for table, want in ((_COUNT[ent], count), (_ELIMINATED[ent], eliminated),
                        (_SPLIT[sep], split), (_LOCC_KIND[ent, sep], locc),
                        (_SEP_KIND[ent, sep], sep_none)):
        assert table.tobytes() == want.tobytes()


def test_duan_warnings_stop_at_first_passing_elimination():
    # beta a hair off pi/2 - alpha: eliminating state 0 passes, while state 1's
    # concurrence-sum residual lies inside its warning window; the SEP route
    # stops at the first pass, so that residual is never examined
    p = FamilyParams(alpha=0.5, beta=math.pi / 2 - 0.5 + 10 ** -8.5, gamma=PI_4)
    b = a_basis(p)
    swapped = validate_basis([b[1], b[0], b[2], b[3]])
    residual_warnings = []
    for basis in (b, swapped):
        rep = analyze(basis)
        assert report_to_json(rep) == report_to_json(reference_analyze(basis))
        residual_warnings.append([w for w in rep.boundary_warnings if "residual" in w])
    assert analyze(b).sep_witness == SepWitness("elimination", eliminated=0)
    assert residual_warnings[0] == []
    assert analyze(swapped).sep_witness == SepWitness("elimination", eliminated=1)
    assert residual_warnings[1] == [
        "concurrence-sum residual 6.834e-09 for elimination of state 0 is within "
        "10x of tolerance"]


def test_decide_rows_do_not_depend_on_the_batch(rng):
    # more than one block, so the block seams are crossed
    bases = [random_basis(rng) for _ in range(BLOCK_SIZE + 40)]
    bases += [random_low_entanglement_basis(rng) for _ in range(60)]
    bases += [theta_basis(t) for t in np.linspace(0.0, math.pi / 2, 9)]
    stack = decide(np.array([b.matrix() for b in bases]))
    for n, b in enumerate(bases):
        alone = decide(b.matrix()[None])
        for f in fields(Decisions):
            assert getattr(stack, f.name)[n].tobytes() == getattr(alone, f.name)[0].tobytes()


def test_decide_verdicts_are_invariant_under_local_unitaries(rng):
    # copy counts and the entangled count are local-unitary invariants
    edge = np.linspace(0.0, math.pi / 2, 17)
    kets = np.concatenate([family_a_kets(edge, edge, edge),
                           [random_low_entanglement_basis(rng).matrix() for _ in range(300)]])
    rotated = canonical_kets(kets @ np.swapaxes(local_unitaries(rng, len(kets)), -1, -2))[0]
    before, after = decide(kets), decide(rotated)
    for name in ("locc_kind", "sep_kind", "entangled_count"):
        changed = np.flatnonzero(getattr(before, name) != getattr(after, name))
        assert changed.tolist() == [], name


def test_decide_verdicts_are_invariant_under_party_swap_conjugation_and_relabelling():
    # the locally rotated family-A grid of the pool supplies SEP elimination
    cases = differential_inputs(np.random.default_rng(20261018), haar=200, low=200)
    kets = np.array([b.matrix() for b, _ in cases])
    perms = np.random.default_rng(5).permuted(np.tile(np.arange(4), (len(kets), 1)), axis=1)
    variants = {
        "party swap": canonical_kets(kets[..., [0, 2, 1, 3]])[0],
        "conjugation": canonical_kets(kets.conj())[0],
        "relabelling": np.take_along_axis(kets, perms[..., None], axis=1),
    }
    before = decide(kets)
    assert {LOCC_KINDS[k] for k in before.locc_kind} == set(LOCC_KINDS)
    assert {SEP_KINDS[k] for k in before.sep_kind} == set(SEP_KINDS)
    for variant, moved in variants.items():
        after = decide(moved)
        for name in ("locc_kind", "sep_kind", "entangled_count"):
            changed = np.flatnonzero(getattr(before, name) != getattr(after, name))
            assert changed.tolist() == [], (variant, name)


def near_threshold_kets(rng, n: int, eps, rotations: int) -> np.ndarray:
    """Ket rows of n low-entanglement bases, each rotated `rotations` times
    by exp(i eps H) for every eps, with H a fresh random Hermitian matrix:
    their product states move to concurrences near CONCURRENCE_ZERO_TOL."""
    base = np.array([random_low_entanglement_basis(rng).matrix() for _ in range(n)])
    kets = np.tile(base, (len(eps) * rotations, 1, 1))
    h = rng.standard_normal(kets.shape) + 1j * rng.standard_normal(kets.shape)
    w, v = np.linalg.eigh(h + np.swapaxes(h, -1, -2).conj())
    phases = np.exp(1j * np.repeat(eps, n * rotations)[:, None] * w)
    u = (v * phases[:, None, :]) @ np.swapaxes(v, -1, -2).conj()
    return canonical_kets(kets @ np.swapaxes(u, -1, -2))[0]


def test_sep_never_needs_more_copies_than_locc_near_the_product_threshold(rng):
    # SEP_KINDS has no LOCC fallback: every two-copy LOCC verdict must find
    # its own SEP witness, also where entangled counts flip at the threshold
    d = decide(near_threshold_kets(rng, 750, [1e-9, 3e-9], rotations=2))
    assert np.flatnonzero(d.min_copies_sep > d.min_copies_locc).tolist() == []
    assert set(d.entangled_count.tolist()) >= {2, 3, 4}
    assert {LOCC_KINDS[k] for k in d.locc_kind} >= {
        "two_copy_elimination", "two_copy_pair_split", "three_copy"}
    assert {SEP_KINDS[k] for k in d.sep_kind} >= {"pair_split", "elimination", "none"}
    # pair projectors fall within 10x of the separability threshold, on both sides
    tol = SEPARABILITY_TOL
    assert ((-NEAR_FACTOR * tol <= d.min_pt) & (d.min_pt < -tol)).any()
    assert ((-tol <= d.min_pt) & (d.min_pt <= -tol / NEAR_FACTOR)).any()


def test_kernel_min_pt_equals_certificates_and_skipped_psd_check_cannot_fire(rng):
    # decide solves only the partial transposes; each pair projector's own
    # spectrum, which separability_certificate still checks, stays PSD
    bases = [b for b, _ in differential_inputs(rng, haar=200, low=100)]
    kets = np.array([b.matrix() for b in bases])
    min_pt = decide(kets).min_pt
    certified = np.array([[separability_certificate(pair_projector(b, i, j)).min_pt_eigenvalue
                           for i, j in PAIRS] for b in bases])
    assert min_pt.tobytes() == certified.tobytes()
    assert np.linalg.eigvalsh(pair_projectors(kets, PAIRS))[..., 0].min() >= -PSD_ATOL


def _solved_counts(monkeypatch) -> list[int]:
    """The number of matrices each later `hermitian_eigenvalues` call of the
    kernel solves, recorded as the calls are made."""
    counts, solve = [], entanglement.hermitian_eigenvalues

    def counting(m):
        counts.append(math.prod(np.shape(m)[:-2]))
        return solve(m)

    monkeypatch.setattr(entanglement, "hermitian_eigenvalues", counting)
    return counts


def _distinct_pairs(kets, same) -> int:
    """Pair projectors of each kernel block whose two kets are not both
    ``same`` as in the basis before them, the block's first basis counting
    every pair."""
    count = 0
    for start in range(0, len(kets), BLOCK_SIZE):
        block = kets[start:start + BLOCK_SIZE]
        count += len(PAIRS)
        for above, below in zip(block, block[1:]):
            count += sum(not (same(above[i], below[i]) and same(above[j], below[j]))
                         for i, j in PAIRS)
    return count


def test_kernel_solves_each_distinct_pair_projector_once(rng, monkeypatch):
    # runs of bases that share kets with the basis above them: the family-A
    # grid (states 0 and 1 do not move with gamma; six blocks), Haar bases
    # each followed by itself with kets 2 and 3 turned within their span,
    # and the computational basis followed by itself with one zero
    # amplitude's sign flipped, which must be solved again
    edge = np.linspace(0.0, math.pi / 2, 9)
    grid = family_a_kets(edge, edge, np.linspace(0.0, math.pi / 2, 16))
    haar = []
    for _ in range(60):
        k = random_basis(rng).matrix()
        turned = k.copy()
        turned[2:] = haar_unitary(rng, 2) @ k[2:]
        haar += [k, turned]
    signed = np.eye(4, dtype=complex)
    signed[0, 1] = complex(-0.0, 0.0)
    kets = np.concatenate([grid, haar, [np.eye(4), signed]])
    counts = _solved_counts(monkeypatch)
    stack, reference = decide(kets), reference_decide(kets)
    for f in fields(Decisions):
        assert getattr(stack, f.name).tobytes() == getattr(reference, f.name).tobytes(), f.name
    bitwise = _distinct_pairs(kets, lambda a, b: a.tobytes() == b.tobytes())
    assert sum(counts) == bitwise < len(PAIRS) * len(kets)
    # (0, 1), (0, 2) and (0, 3) of the sign-flipped basis are solved again
    assert _distinct_pairs(kets, lambda a, b: (a == b).all()) == bitwise - 3


def test_theta_grid_solves_every_pair_projector(monkeypatch):
    # every ket of the theta family moves with theta: nothing repeats
    kets = theta_kets(np.linspace(0.0, math.pi / 2, BLOCK_SIZE + 5))
    counts = _solved_counts(monkeypatch)
    stack, reference = decide(kets), reference_decide(kets)
    assert stack.min_pt.tobytes() == reference.min_pt.tobytes()
    assert sum(counts) == len(PAIRS) * len(kets)


def test_single_basis_kernel_makes_one_solve_of_six(rng, monkeypatch):
    counts = _solved_counts(monkeypatch)
    decide(random_basis(rng).matrix()[None])
    assert counts == [len(PAIRS)]


def test_kernel_decides_an_empty_stack():
    d = decide(np.empty((0, 4, 4), dtype=complex))
    shapes = {f.name: getattr(d, f.name).shape for f in fields(Decisions)}
    assert shapes == {
        "concurrences": (0, 4), "min_pt": (0, 6), "entangled_count": (0,), "locc_kind": (0,),
        "eliminated": (0,), "split": (0,), "sep_kind": (0,), "sep_eliminated": (0,),
        "duan_residual": (0, 4), "duan_tried": (0, 4)}


def _scan_bytes(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_scan_reproduces_golden_csv(name):
    assert _scan_bytes(GOLDEN_SCANS[name]) == (DATA / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_scan_raises_no_runtime_warning(name):
    # the degenerate cells (alpha or beta at 0 or pi/2) divide by zero in
    # masked lanes; those lanes must stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _scan_bytes(GOLDEN_SCANS[name])
