import itertools
import json
import math

import numpy as np
import pytest

from qlocc import (
    BipartiteKet,
    DegenerateFamilyError,
    FamilyParams,
    a_basis,
    analyze,
    coefficient_matrix,
    concurrence,
    duan_three_state_sep,
    gamma_star,
    locc_category,
    min_copies_adaptive_locc,
    min_copies_adaptive_sep,
    region,
    report_to_json,
    theta_basis,
    validate_basis,
)
from qlocc.classify import (_COPIES, LOCC_KINDS, REGIONS, SEP_KINDS, LoccCategory, SepWitness,
                            region_grid)
from conftest import (haar_unitary, pt_oracle, random_basis, random_low_entanglement_basis,
                      spin_flip_concurrence)

PI_4 = math.pi / 4
PI_6 = math.pi / 6


def _ab(al, be, ga):
    return a_basis(FamilyParams(alpha=al, beta=be, gamma=ga))


def computational_basis():
    return validate_basis([BipartiteKet(np.eye(4)[k]) for k in range(4)],
                          label="computational")


# --- LOCC category ---------------------------------------------------------------

def test_category_computational_one_copy():
    cat = locc_category(computational_basis())
    assert cat.kind == "one_copy"
    assert cat.min_copies == 1


def test_category_bell_pair_split():
    cat = locc_category(theta_basis(PI_4))
    assert cat.kind == "two_copy_pair_split"
    assert cat.pair == (0, 1)


def test_category_mixing_family_three_copy():
    cat = locc_category(_ab(0.3, 0.9, PI_4))
    assert cat.kind == "three_copy"


def test_category_elimination_for_two_entangled():
    # two product states plus an entangled completion pair
    v00 = BipartiteKet(np.eye(4)[0])
    v11 = BipartiteKet(np.eye(4)[3])
    s, c = math.sin(0.5), math.cos(0.5)
    x3 = BipartiteKet(np.array([0, s, c, 0], dtype=complex))
    x4 = BipartiteKet(np.array([0, c, -s, 0], dtype=complex))
    cat = locc_category(validate_basis([v00, v11, x3, x4]))
    assert cat.kind == "two_copy_elimination"
    assert cat.eliminated == 2  # lowest index whose removal leaves <= 1 entangled


def test_min_copies_locc_table():
    assert min_copies_adaptive_locc(theta_basis(PI_4)) == 2
    assert min_copies_adaptive_locc(theta_basis(0.0)) == 1
    assert min_copies_adaptive_locc(_ab(0.3, 0.9, PI_4)) == 3


def test_min_copies_locc_three_entangled_instance():
    gs = gamma_star(0.4, 0.8)
    b = _ab(0.4, 0.8, gs)
    cons = [concurrence(k) for k in b]
    assert sum(c > 1e-9 for c in cons) == 3
    assert min_copies_adaptive_locc(b) == 3


# --- Duan three-state criterion ----------------------------------------------------

def test_duan_holds_when_eliminating_second_state_in_region1():
    b = _ab(0.3, 0.9, PI_4)
    triple = [b[0], b[2], b[3]]
    assert duan_three_state_sep(triple, b[1])
    # and the concurrence-sum identity behind it
    total = sum(concurrence(k) for k in triple)
    assert abs(total - concurrence(b[1])) < 1e-9


def test_duan_fails_for_all_groupings_in_region4():
    b = _ab(0.5, 0.6, PI_6)
    for l in range(4):
        triple = [b[k] for k in range(4) if k != l]
        assert not duan_three_state_sep(triple, b[l])


def test_duan_all_product_case():
    b = computational_basis()
    assert duan_three_state_sep([b[0], b[1], b[2]], b[3])


def test_duan_requires_three_states():
    b = computational_basis()
    with pytest.raises(ValueError):
        duan_three_state_sep([b[0], b[1]], b[3])


# --- SEP copy counts ------------------------------------------------------------------

def test_min_copies_sep_table():
    assert min_copies_adaptive_sep(_ab(0.3, 0.9, PI_4)) == 2
    assert min_copies_adaptive_sep(_ab(0.5, 0.6, PI_6)) == 3
    assert min_copies_adaptive_sep(computational_basis()) == 1
    assert min_copies_adaptive_sep(theta_basis(PI_4)) == 2


@pytest.mark.parametrize("kinds, kind, copies", [
    *((LOCC_KINDS, k, n) for k, n in zip(LOCC_KINDS, (1, 2, 2, 3))),
    *((SEP_KINDS, k, n) for k, n in zip(SEP_KINDS, (1, 2, 2, 3))),
], ids=[*LOCC_KINDS, *SEP_KINDS])
def test_route_copy_count_reads_the_table_of_its_kind(kinds, kind, copies):
    # one route type for both verdicts: a SEP kind is looked up in SEP_KINDS
    assert SepWitness is LoccCategory
    assert LoccCategory(kind).min_copies == _COPIES[kinds.index(kind)] == copies


# --- regions --------------------------------------------------------------------------

def test_region_examples():
    assert region(FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4)).name == "R_I"
    assert region(FamilyParams(alpha=0.5, beta=0.6, gamma=PI_6)).name == "R_IV"
    r = region(FamilyParams(alpha=0.7, beta=0.7, gamma=PI_4))
    assert r.name == "boundary"
    assert r.which == "a3+a4"


def test_region_ratio_arithmetic():
    # tan^2(pi/4) = 1 sits between sin(1.8)/sin(0.6) and its reciprocal
    r1 = math.sin(1.8) / math.sin(0.6)
    assert r1 > 1 > 1 / r1
    assert region(FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4)).name == "R_I"
    # and tan^2(pi/6) = 1/3 sits below both ratios at (0.5, 0.6)
    lo = min(math.sin(1.2) / math.sin(1.0), math.sin(1.0) / math.sin(1.2))
    assert math.tan(PI_6) ** 2 < lo


def test_region_mirror_swaps_I_and_II():
    assert region(FamilyParams(alpha=0.9, beta=0.3, gamma=PI_4)).name == "R_II"


def test_region_large_gamma_is_region3():
    assert region(FamilyParams(alpha=0.5, beta=0.6, gamma=1.4)).name == "R_III"


def test_region_degenerate_angles():
    with pytest.raises(DegenerateFamilyError):
        region(FamilyParams(alpha=0.0, beta=0.4, gamma=0.3))
    with pytest.raises(DegenerateFamilyError):
        region(FamilyParams(alpha=0.4, beta=math.pi / 2, gamma=0.3))


def test_region_single_boundary_labels():
    al, be = 0.4, 0.7
    ga3 = math.atan(math.sqrt(math.sin(2 * be) / math.sin(2 * al)))
    assert region(FamilyParams(alpha=al, beta=be, gamma=ga3)).which == "a3"
    ga4 = math.atan(math.sqrt(math.sin(2 * al) / math.sin(2 * be)))
    assert region(FamilyParams(alpha=al, beta=be, gamma=ga4)).which == "a4"


def _region_gate_points():
    """(alpha, beta, gammas) on a 9 x 9 grid of [0, pi/2]^2: a 9-point gamma
    grid plus, off the degenerate edges, each product surface's gamma, one
    ulp either side of it and 3e-9 either side of it."""
    axis = np.linspace(0.0, math.pi / 2, 9).tolist()
    for al, be in itertools.product(axis, axis):
        gammas = list(axis)
        s2a, s2b = math.sin(2 * al), math.sin(2 * be)
        if min(s2a, s2b) >= 1e-12:
            for r in (s2b / s2a, s2a / s2b):
                g = math.atan(math.sqrt(r))
                gammas += [g, math.nextafter(g, 0.0), math.nextafter(g, 2.0), g - 3e-9, g + 3e-9]
        yield al, be, [min(max(g, 0.0), math.pi / 2) for g in gammas]


def test_region_equals_the_grid_rule_on_and_beside_the_product_surfaces():
    seen = set()
    for al, be, gammas in _region_gate_points():
        for g, index in zip(gammas, region_grid([al], [be], gammas).tolist()):
            seen.add(index)
            p = FamilyParams(alpha=al, beta=be, gamma=g)
            if index < 0:
                with pytest.raises(DegenerateFamilyError) as err:
                    region(p)
                assert str(err.value) == "region undefined for alpha or beta at 0 or pi/2"
            else:
                assert region(p) == REGIONS[index]
    assert seen == set(range(-1, len(REGIONS)))


# --- gamma_star --------------------------------------------------------------------------

def test_gamma_star_equal_angles_is_pi4():
    assert abs(gamma_star(0.8, 0.8) - PI_4) < 1e-12


def test_gamma_star_makes_fourth_state_product():
    gs = gamma_star(0.4, 0.8)
    b = _ab(0.4, 0.8, gs)
    cons = [concurrence(k) for k in b]
    assert cons[3] < 1e-9
    assert all(c > 1e-3 for c in cons[:3])


def test_gamma_star_degenerate():
    with pytest.raises(DegenerateFamilyError):
        gamma_star(0.0, 0.5)


# --- analyze -------------------------------------------------------------------------------

def test_analyze_bell():
    rep = analyze(theta_basis(PI_4))
    assert rep.entangled_count == 4
    assert rep.min_copies_locc == 2
    assert rep.min_copies_sep == 2


def test_analyze_mixing_family_with_region():
    p = FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4)
    rep = analyze(a_basis(p), p)
    assert rep.entangled_count == 4
    assert rep.min_copies_locc == 3
    assert rep.min_copies_sep == 2
    assert rep.region.name == "R_I"
    assert rep.sep_witness.kind == "elimination"
    assert rep.sep_witness.eliminated == 1
    assert len(rep.certificates) == 6
    assert rep.assumptions  # the SEP elimination relies on the stated assumption


def test_analyze_theta_zero():
    rep = analyze(theta_basis(0.0))
    assert rep.entangled_count == 0
    assert rep.min_copies_locc == 1
    assert rep.min_copies_sep == 1
    assert rep.region is None


def test_analyze_propagates_degenerate_region():
    p = FamilyParams(alpha=0.0, beta=0.9, gamma=PI_4)
    with pytest.raises(DegenerateFamilyError):
        analyze(a_basis(p), p)


def test_analyze_boundary_warning_near_region_surface():
    # tan^2(gamma) a few 1e-9 away from a product surface: decided, but flagged
    al = be = 0.7
    ga = math.atan(math.sqrt(1.0 + 5e-9))
    p = FamilyParams(alpha=al, beta=be, gamma=ga)
    rep = analyze(a_basis(p), p)
    assert rep.region.name != "boundary"
    assert any("region boundary" in w for w in rep.boundary_warnings)


def test_boundary_warnings_near_product_concurrence():
    rep = analyze(theta_basis(2.5e-9))
    assert rep.boundary_warnings == tuple(
        f"concurrence 5.000e-09 of state {k} is within 10x of the product threshold"
        for k in range(4)
    )


def test_boundary_warnings_near_separable_pair():
    # beta a hair off alpha: the (0,1) and (2,3) projectors are barely NPT,
    # with min PT eigenvalue -(cos 4 alpha - cos 4 beta)/8 to first order
    al, be = 0.3, 0.3 + 1e-8
    p = FamilyParams(alpha=al, beta=be, gamma=0.5)
    rep = analyze(a_basis(p), p)
    cert = dict(rep.certificates)[(0, 1)]
    assert cert.min_pt_eigenvalue == pytest.approx(
        -(math.cos(4 * al) - math.cos(4 * be)) / 8, rel=1e-6)
    assert rep.boundary_warnings == tuple(
        f"min PT eigenvalue -4.660e-09 of pair {pair} is within 10x of the "
        f"separability threshold"
        for pair in ("(0,1)", "(2,3)")
    )


def test_boundary_warnings_near_concurrence_sum():
    # the elimination of state 1 passes with a roundoff-sized residual, which
    # is not flagged; a small global unitary moves that residual just past
    # its tolerance
    assert analyze(_ab(0.3, 0.9, PI_4)).boundary_warnings == ()
    g = np.random.default_rng(2)
    h = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    u = (v * np.exp(1e-5j * w)) @ v.conj().T
    b = validate_basis([BipartiteKet(u @ k.amplitudes) for k in _ab(0.3, 0.9, PI_4)])
    rep = analyze(b)
    assert rep.boundary_warnings == (
        "concurrence-sum residual 2.504e-09 for elimination of state 1 is within "
        "10x of tolerance",
    )


def test_boundary_warnings_order_concurrence_before_region():
    p = FamilyParams(alpha=0.7, beta=0.7, gamma=math.atan(math.sqrt(1.0 + 5e-9)))
    rep = analyze(a_basis(p), p)
    assert rep.boundary_warnings == tuple(
        [f"concurrence 2.464e-09 of state {k} is within 10x of the product threshold"
         for k in (2, 3)]
        + ["tan^2(gamma) is within 10x of a region boundary (|t - r| = 5.000e-09)"] * 2
    )


def test_report_json_fields():
    p = FamilyParams(alpha=0.3, beta=0.9, gamma=PI_4)
    doc = json.loads(report_to_json(analyze(a_basis(p), p)))
    assert doc["schema"] == "report.v1"
    assert doc["min_copies_locc"] == 3
    assert doc["min_copies_sep"] == 2
    assert doc["region"] == {"name": "R_I", "which": None}
    assert len(doc["certificates"]) == 6
    assert doc["certificates"][0]["pair"] == [0, 1]
    assert isinstance(doc["concurrences"], list) and len(doc["concurrences"]) == 4
    assert doc["params"]["alpha"] == 0.3


# --- invariants ------------------------------------------------------------------------------

def test_sep_never_exceeds_locc(rng):
    bases = [random_basis(rng) for _ in range(40)]
    bases += [random_low_entanglement_basis(rng) for _ in range(40)]
    bases += [theta_basis(t) for t in np.linspace(0, math.pi / 2, 7)]
    bases += [_ab(0.3, 0.9, PI_4), _ab(0.5, 0.6, PI_6)]
    for b in bases:
        assert min_copies_adaptive_sep(b) <= min_copies_adaptive_locc(b)


def _category_witness_is_valid(cat, basis):
    cons = [concurrence(k) for k in basis]
    if cat.kind == "one_copy":
        return all(c < 1e-9 for c in cons)
    if cat.kind == "two_copy_elimination":
        rest = [cons[k] for k in range(4) if k != cat.eliminated]
        return sum(c >= 1e-9 for c in rest) <= 1
    return True


def test_category_invariant_under_permutation_and_local_unitaries(rng):
    pool = (
        [random_basis(rng) for _ in range(60)]
        + [random_low_entanglement_basis(rng) for _ in range(60)]
        + [theta_basis(t) for t in np.linspace(0.1, 1.4, 40)]
        + [_ab(a, 0.9, PI_4) for a in np.linspace(0.2, 1.3, 40)]
    )
    assert len(pool) == 200
    for b in pool:
        cat = locc_category(b)
        # relabeling the states cannot change the category kind
        perm = rng.permutation(4)
        permuted = validate_basis([b[int(k)] for k in perm])
        cat_p = locc_category(permuted)
        assert cat_p.kind == cat.kind
        assert _category_witness_is_valid(cat_p, permuted)
        # a product unitary on both sides cannot change the decision at all
        local = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        rotated = validate_basis([BipartiteKet(local @ k.amplitudes) for k in b])
        cat_u = locc_category(rotated)
        assert cat_u.kind == cat.kind
        assert cat_u.eliminated == cat.eliminated
        assert cat_u.pair == cat.pair


def test_low_entanglement_bases_need_at_most_two_copies(rng):
    for _ in range(50):
        b = random_low_entanglement_basis(rng)
        assert min_copies_adaptive_locc(b) <= 2


def test_three_entangled_family_needs_three_copies_grid():
    vals = np.linspace(0.15, math.pi / 2 - 0.15, 8)
    checked = 0
    for al in vals:
        for be in vals:
            if abs(math.sin(2 * al) - math.sin(2 * be)) < 0.05:
                continue  # third state would go product as well
            b = _ab(al, be, gamma_star(al, be))
            cons = [concurrence(k) for k in b]
            assert sum(c > 1e-9 for c in cons) == 3
            assert min_copies_adaptive_locc(b) == 3
            checked += 1
    assert checked >= 30


def test_duan_grouping_matches_region_on_grids():
    vals = np.linspace(0.2, math.pi / 2 - 0.2, 9)
    r1 = r2 = 0
    for al in vals:
        for be in vals:
            p = FamilyParams(alpha=al, beta=be, gamma=PI_4)
            name = region(p).name
            b = a_basis(p)
            if name == "R_I":
                assert duan_three_state_sep([b[0], b[2], b[3]], b[1])
                r1 += 1
            elif name == "R_II":
                assert duan_three_state_sep([b[1], b[2], b[3]], b[0])
                r2 += 1
    assert r1 >= 20 and r2 >= 20


def test_antiparallel_ratios_in_region1():
    vals = np.linspace(0.2, math.pi / 2 - 0.2, 9)
    checked = 0
    for al in vals:
        for be in vals:
            p = FamilyParams(alpha=al, beta=be, gamma=PI_4)
            if region(p).name != "R_I":
                continue
            b = a_basis(p)
            inv = np.linalg.inv(coefficient_matrix(b[1]))
            for k in (0, 2, 3):
                lam = np.linalg.eigvals(coefficient_matrix(b[k]) @ inv)
                lam = sorted(lam, key=abs)
                ratio = lam[0] / lam[1]
                assert abs(ratio.imag) < 1e-8
                assert ratio.real < 0
            checked += 1
    assert checked >= 20


# --- decision-level differential test -----------------------------------------------

LOCC_COPIES = {"one_copy": 1, "two_copy_elimination": 2, "two_copy_pair_split": 2,
               "three_copy": 3}


def _oracle_locc_kind(vectors):
    """The LOCC case split re-derived from spin-flip concurrences and
    index-permuted PT spectra; None when a deciding quantity lies within 10x
    of its tolerance."""
    cons = [spin_flip_concurrence(v) for v in vectors]
    min_pt = {}
    for i, j in itertools.combinations(range(4), 2):
        proj = np.outer(vectors[i], vectors[i].conj()) + np.outer(vectors[j], vectors[j].conj())
        min_pt[(i, j)] = np.linalg.eigvalsh(pt_oracle(proj))[0]
    if any(1e-10 <= c <= 1e-8 for c in cons) or any(1e-10 <= -m <= 1e-8 for m in min_pt.values()):
        return None
    entangled = sum(c >= 1e-9 for c in cons)
    if entangled == 0:
        return "one_copy"
    if entangled <= 2:
        return "two_copy_elimination"
    for group, other in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        if min_pt[group] >= -1e-9 and min_pt[other] >= -1e-9:
            return "two_copy_pair_split"
    return "three_copy"


def test_locc_verdicts_match_independent_oracles(rng):
    bases = [random_basis(rng) for _ in range(200)]
    bases += [random_low_entanglement_basis(rng) for _ in range(200)]
    edge = np.linspace(0.0, math.pi / 2, 6)
    bases += [_ab(al, be, ga) for al in edge for be in edge for ga in edge[1:-1]]
    bases += [theta_basis(t) for t in np.linspace(0.0, math.pi / 2, 21)]
    seen = set()
    for b in bases:
        want = _oracle_locc_kind(b.matrix())
        if want is None:
            continue
        rep = analyze(b)
        assert (rep.locc_category.kind, rep.min_copies_locc) == (want, LOCC_COPIES[want]), b.label
        seen.add(want)
    assert seen == set(LOCC_COPIES)
