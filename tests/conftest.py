"""Shared helpers: random states, random bases, and independent oracles."""

import importlib.util
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qlocc import BipartiteKet, ShareSet, validate_basis
from qlocc.classify import (
    _REST,
    _SPLIT_SIDES,
    ANTIPARALLEL_IM_TOL,
    ASSUMPTION_LOCC_ELIMINATION,
    ASSUMPTION_SEP_ELIMINATION,
    BLOCK_SIZE,
    DUAN_SUM_TOL,
    NEAR_FACTOR,
    PAIRS,
    REGION_BOUNDARY_TOL,
    SPLITS,
    ClassificationReport,
    Decisions,
    LoccCategory,
    Region,
    SepWitness,
    _surface_gaps,
    decide,
    region_grid,
)
from qlocc.cli import REGION_LABELS, SCAN_COLUMNS, _family_axes, _parse_range, build_parser
from qlocc.entanglement import (
    CONCURRENCE_ZERO_TOL,
    PSD_ATOL,
    SEPARABILITY_TOL,
    SeparabilityCertificate,
    pt_spectrum_p12_closed,
)
from qlocc.codec import envelope, field, load
from qlocc.linalg import (HERMITIAN_ATOL, cmul, normalize, orthogonal_complement_qubit,
                          partial_transpose)
from qlocc.protocols import (VANISH_TOL, Conclude, Eliminate, LocalMeasurement, Measure, Node,
                             ProtocolTree)
from qlocc.states import (GRAM_ATOL, NotOrthonormalError, OrthonormalBasis, canonical_kets,
                          coefficient_matrices, complement_pair, family_a_kets, gram, theta_kets)


def bench_workloads():
    """bench/workloads.py, loaded as a module: the seeded inputs the
    benchmark sends."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def haar_unitary(rng, n=4):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_ket(rng) -> BipartiteKet:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return BipartiteKet(v / np.linalg.norm(v))


def random_qubit(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_basis(rng, label="haar"):
    u = haar_unitary(rng)
    return validate_basis([BipartiteKet(u[:, k]) for k in range(4)], label=label)


def random_orthogonal_pair(rng):
    u = haar_unitary(rng)
    return BipartiteKet(u[:, 0]), BipartiteKet(u[:, 1])


def random_low_entanglement_basis(rng):
    """Two orthogonal product states completed to an orthonormal basis; at
    most the two completion states can be entangled."""
    e1, f1 = random_qubit(rng), random_qubit(rng)
    if rng.random() < 0.5:
        e2, f2 = orthogonal_complement_qubit(e1), random_qubit(rng)
    else:
        e2, f2 = random_qubit(rng), orthogonal_complement_qubit(f1)
    p1, p2 = np.kron(e1, f1), np.kron(e2, f2)
    comp = np.eye(4, dtype=complex) - np.outer(p1, p1.conj()) - np.outer(p2, p2.conj())
    w, v = np.linalg.eigh(comp)
    span = v[:, w > 0.5]  # the two eigenvalue-1 directions
    mix = haar_unitary(rng, 2)
    x3, x4 = span @ mix[:, 0], span @ mix[:, 1]
    return validate_basis(
        [BipartiteKet(p1), BipartiteKet(p2), BipartiteKet(x3), BipartiteKet(x4)],
        label="product-pair-completion",
    )


# --- independent oracles (deliberately not the package implementations) ------

def pt_oracle(m):
    """Partial transpose by explicit index permutation."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + l, 2 * k + j] = m[2 * i + j, 2 * k + l]
    return out


def spin_flip_concurrence(v):
    """|<psi| sigma_y (x) sigma_y |psi*>| from the raw amplitude vector."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    return abs(np.conj(v) @ yy @ np.conj(v))


def conditional_bob_states(alice_vector, ket4):
    """Bob's unnormalized conditional state after Alice projects onto
    alice_vector; computed directly from the definition."""
    out = np.zeros(2, dtype=complex)
    for i in range(2):
        for j in range(2):
            out[j] += np.conj(alice_vector[i]) * ket4[2 * i + j]
    return out


def project_party(party, v, ket4):
    """(|v><v| (x) 1) ket4 for Alice, (1 (x) |v><v|) ket4 for Bob, acting on
    the 2x2 coefficient matrix c[alice, bob] of ket4."""
    p = np.outer(v, np.conj(v))
    c = ket4.reshape(2, 2)
    return (p @ c if party == "A" else c @ p.T).reshape(4)


def born_rule_leaves(tree, ket):
    """{transcript: (concluded index, probability)} for every reachable leaf
    when each copy starts in ``ket``: walks the tree node by node, projecting
    the measured copy and renormalising it after every outcome."""
    leaves = {}

    def walk(node, kets, transcript, prob):
        if hasattr(node, "children"):
            party = node.measurement.party
            state = kets.get(node.copy_index, ket)
            for outcome, child in enumerate(node.children):
                projected = project_party(party, node.measurement.basis[outcome], state)
                p = np.vdot(projected, projected).real
                if p > 0:
                    walk(child, {**kets, node.copy_index: projected / np.sqrt(p)},
                         transcript + ((node.copy_index, party, outcome),), prob * p)
        elif hasattr(node, "child"):
            walk(node.child, kets, transcript, prob)
        else:
            leaves[transcript] = (node.state_index, prob)

    walk(tree.root, {}, (), 1.0)
    return leaves


def born_rule_distribution(tree, ket):
    dist = np.zeros(4)
    for index, prob in born_rule_leaves(tree, ket).values():
        dist[index] += prob
    return dist


# The per-basis analysis path that qlocc.classify.decide replaced, kept
# verbatim (scalar primitives included) as the reference for the kernel's
# differential tests: report_to_json must agree string for string.

def _ref_concurrence(k):
    m = math.sqrt(2.0) * k.amplitudes.reshape(2, 2).T
    return float(abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))


def _ref_coefficient_matrix(k):
    return math.sqrt(2.0) * k.amplitudes.reshape(2, 2).T


def _ref_pair_projector(b, i, j):
    return np.outer(b[i].amplitudes, b[i].amplitudes.conj()) + \
        np.outer(b[j].amplitudes, b[j].amplitudes.conj())


def _ref_is_hermitian(m):
    return bool(np.max(np.abs(m - m.conj().T)) < 1e-10)


def _ref_separability_certificate(m):
    m = np.asarray(m, dtype=complex)
    if not _ref_is_hermitian(m):
        raise ValueError("operator is not Hermitian")
    if float(np.linalg.eigvalsh(m)[0]) < -PSD_ATOL:
        raise ValueError("operator is not positive semidefinite")
    pt = m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    if not _ref_is_hermitian(pt):
        raise ValueError("matrix is not Hermitian")
    min_pt = float(np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))[0])
    return SeparabilityCertificate(min_pt_eigenvalue=min_pt,
                                   is_separable=min_pt >= -SEPARABILITY_TOL)


def reference_region(p):
    g3, g4 = _surface_gaps(p)
    on_a3 = abs(g3) < REGION_BOUNDARY_TOL
    on_a4 = abs(g4) < REGION_BOUNDARY_TOL
    if on_a3 and on_a4:
        return Region("boundary", "a3+a4")
    if on_a3:
        return Region("boundary", "a3")
    if on_a4:
        return Region("boundary", "a4")
    if g3 <= 0.0 <= g4:
        return Region("R_I")
    if g4 <= 0.0 <= g3:
        return Region("R_II")
    if min(g3, g4) >= 0.0:
        return Region("R_III")
    return Region("R_IV")


def _duan_detail(cons, mats, l: int):
    rest = [k for k in range(4) if k != l]
    residual = sum(cons[k] for k in rest) - cons[l]
    if cons[l] < CONCURRENCE_ZERO_TOL:
        # singular complement: the sum condition forces all three product
        return all(cons[k] < CONCURRENCE_ZERO_TOL for k in rest), residual
    phi_inv = np.linalg.inv(mats[l])

    def antiparallel(k: int) -> bool:
        lam = sorted(np.linalg.eigvals(mats[k] @ phi_inv), key=abs)
        ratio = lam[0] / lam[1]
        return abs(ratio.imag) < ANTIPARALLEL_IM_TOL and ratio.real < 0.0

    anti_ok = all(antiparallel(k) for k in rest if cons[k] >= CONCURRENCE_ZERO_TOL)
    return anti_ok and abs(residual) < DUAN_SUM_TOL, residual


def reference_analyze(b, p=None):
    reg = reference_region(p) if p is not None else None
    cons = [_ref_concurrence(k) for k in b]
    mats = [_ref_coefficient_matrix(k) for k in b]
    certs = {(i, j): _ref_separability_certificate(_ref_pair_projector(b, i, j))
             for i, j in PAIRS}

    warnings = [
        f"concurrence {c:.3e} of state {k} is within 10x of the product threshold"
        for k, c in enumerate(cons)
        if 0.1 * CONCURRENCE_ZERO_TOL <= c < NEAR_FACTOR * CONCURRENCE_ZERO_TOL
    ]
    warnings += [
        f"min PT eigenvalue {cert.min_pt_eigenvalue:.3e} of pair ({i},{j}) "
        f"is within 10x of the separability threshold"
        for (i, j), cert in certs.items()
        if -NEAR_FACTOR * cert.tolerance <= cert.min_pt_eigenvalue <= -0.1 * cert.tolerance
    ]
    if p is not None:
        warnings += [
            f"tan^2(gamma) is within 10x of a region boundary (|t - r| = {abs(g):.3e})"
            for g in _surface_gaps(p)
            if REGION_BOUNDARY_TOL <= abs(g) < NEAR_FACTOR * REGION_BOUNDARY_TOL
        ]

    entangled = [c >= CONCURRENCE_ZERO_TOL for c in cons]
    entangled_count = sum(entangled)
    eliminated = next((l for l in range(4) if entangled_count - entangled[l] <= 1), None)
    split = next((s for s in SPLITS if certs[s].is_separable
                  and certs[complement_pair(*s)].is_separable), None)
    assumptions = []
    if entangled_count == 0:
        cat = LoccCategory("one_copy")
    elif eliminated is not None:
        cat = LoccCategory("two_copy_elimination", eliminated=eliminated)
        assumptions.append(ASSUMPTION_LOCC_ELIMINATION)
    elif split is not None:
        cat = LoccCategory("two_copy_pair_split", pair=split)
    else:
        cat = LoccCategory("three_copy")

    if entangled_count == 0:
        sep_copies, sep_wit = 1, SepWitness("all_product")
    elif split is not None:
        sep_copies, sep_wit = 2, SepWitness("pair_split", pair=split)
    else:
        for l in range(4):
            ok, residual = _duan_detail(cons, mats, l)
            if DUAN_SUM_TOL <= abs(residual) < NEAR_FACTOR * DUAN_SUM_TOL:
                warnings.append(
                    f"concurrence-sum residual {residual:.3e} for elimination of "
                    f"state {l} is within 10x of tolerance"
                )
            if ok:
                sep_copies, sep_wit = 2, SepWitness("elimination", eliminated=l)
                assumptions.append(ASSUMPTION_SEP_ELIMINATION)
                break
        else:
            if cat.min_copies <= 2:
                # any 2-copy LOCC scheme is itself a separable scheme
                sep_copies, sep_wit = 2, SepWitness("locc_protocol")
            else:
                sep_copies, sep_wit = 3, SepWitness("none")

    return ClassificationReport(
        label=b.label,
        concurrences=tuple(cons),
        entangled_count=entangled_count,
        locc_category=cat,
        min_copies_locc=cat.min_copies,
        min_copies_sep=sep_copies,
        sep_witness=sep_wit,
        certificates=tuple(certs.items()),
        region=reg,
        params=p,
        assumptions=tuple(assumptions),
        boundary_warnings=tuple(warnings),
    )


# The scalar pair-subroutine path that qlocc.protocols._walgate_bases
# replaced, kept verbatim as the reference for the batched solve's
# differential tests: protocol_to_json must agree string for string.

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


def reference_pair_protocol(psi, phi):
    root = _pair_subtree(
        psi.amplitudes, phi.amplitudes, 0,
        lambda winner: Conclude(0 if winner == "psi" else 1),
    )
    return ProtocolTree(copies=1, root=root)


def reference_tournament(b, copies=3):
    return ProtocolTree(copies=copies,
                        root=_knockout([k.amplitudes for k in b], (0, 1, 2, 3), 0, {}))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


# The numpy orthonormality check that LocalMeasurement.__post_init__ made
# before it checked in Python complex arithmetic, kept verbatim as the
# reference for its differential test: both must accept and reject alike.

def reference_measurement_check(basis) -> None:
    """Raise LocalMeasurement's ValueError for a 2x2 basis (rows the vectors)
    that is not orthonormal or not finite."""
    v = np.array(basis, dtype=complex).reshape(2, 2)
    if not np.abs(v).max() <= 2.0:  # NaN fails too; keeps the Gram product finite
        if not np.isfinite(v).all():
            raise ValueError("vector contains NaN or Inf")
        raise ValueError("measurement basis is not orthonormal")
    g = v.conj() @ v.T
    g.flat[::3] -= 1.0
    if not np.abs(g).max() <= 1e-10:
        raise ValueError("measurement basis is not orthonormal")


# The whole-grid scan path that qlocc.cli.cmd_scan's block stream replaced,
# kept verbatim as the reference for its byte-identity tests: the CLI must
# print and write the same bytes at every block boundary.

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _pick(strings, index) -> list[str]:
    return np.array(strings, dtype=object)[index].tolist()


def _scan_table(family: str, axes: dict[str, list[float]]) -> dict[str, list[str]]:
    """Every scan column as one string per grid point (alpha-major); columns
    that do not apply to the family stay empty.  The kernel decides the whole
    grid; each distinct axis value and (alpha, beta) pair is formatted once."""
    if family == "A":
        al, be, ga = axes["alpha"], axes["beta"], axes["gamma"]
        kets = family_a_kets(al, be, ga)
    else:
        kets = theta_kets(axes["theta"])
    d = decide(kets)
    n = len(kets)
    table = dict.fromkeys(SCAN_COLUMNS, [""] * n)
    table["family"] = [family] * n
    if family == "A":
        ia, ib, ig = np.unravel_index(np.arange(n), (len(al), len(be), len(ga)))
        for name, axis, index in (("alpha", al, ia), ("beta", be, ib), ("gamma", ga, ig)):
            table[name] = _pick([_fmt(v) for v in axis], index)
        table["region"] = _pick(REGION_LABELS, region_grid(al, be, ga))
        spectra = [pt_spectrum_p12_closed(a, b).tolist() for a in al for b in be]
        for k in range(4):
            table[f"e{k + 1}_p12"] = _pick([_fmt(e[k]) for e in spectra], ia * len(be) + ib)
    else:
        table["theta"] = [_fmt(t) for t in axes["theta"]]
    for k, column in enumerate(d.concurrences.T.tolist()):
        table[f"c{k + 1}"] = [_fmt(c) for c in column]
    for (i, j), column in zip(PAIRS, d.min_pt.T.tolist()):
        table[f"min_pt_{i}{j}"] = [_fmt(m) for m in column]
    for name, values in (("entangled_count", d.entangled_count),
                         ("min_copies_locc", d.min_copies_locc),
                         ("min_copies_sep", d.min_copies_sep)):
        table[name] = [str(v) for v in values.tolist()]
    return table


def reference_scan_text(argv) -> str:
    """The CSV text the whole-grid path gives for a `scan` command line."""
    args = build_parser().parse_args(argv)
    columns = tuple(c.strip() for c in args.columns.split(",")) if args.columns else SCAN_COLUMNS
    axes = _family_axes(args, lambda text: _parse_range(text, args.degrees))
    table = _scan_table(args.family, axes)
    lines = ["# scan.v1 columns: " + ",".join(SCAN_COLUMNS), ",".join(columns)]
    lines += map(",".join, zip(*(table[c] for c in columns)))
    return "\n".join(lines) + "\n"


# The classification kernel and the basis.v1 loader as they were before their
# per-call costs were cut, kept verbatim (their array primitives included) as
# the references for the differential tests in test_kernel.py and
# test_codec.py: every Decisions field, and every decoded ket, phase, label
# and error message, must agree bit for bit.

_REF_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _ref_det2(m):
    m = np.asarray(m, dtype=complex)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    adr, adi = cmul(a.real, a.imag, d.real, d.imag)
    bcr, bci = cmul(b.real, b.imag, c.real, c.imag)
    return ((adr - bcr) + 1j * (adi - bci))[()]


def _ref_concurrences(kets):
    d = _ref_det2(coefficient_matrices(kets))
    return np.hypot(np.real(d), np.imag(d))


def _ref_check_orthonormal(kets) -> None:
    dev = np.abs(gram(kets) - np.eye(4)).reshape(-1, 16)
    bad = np.flatnonzero(~(dev.max(axis=1) < GRAM_ATOL))  # NaN included
    if bad.size:
        worst = int(np.argmax(dev[bad[0]]))
        raise NotOrthonormalError(*divmod(worst, 4), float(dev[bad[0], worst]))


def _ref_pair_projectors(kets, pairs):
    kets = np.asarray(kets, dtype=complex)
    outer = kets[..., :, None] * kets.conj()[..., None, :]  # |k><k| per ket
    i, j = np.array(pairs).T
    p = outer[..., i, :, :]
    p += outer[..., j, :, :]
    return p


def _ref_hermitian_eigenvalues(m):
    m = np.asarray(m, dtype=complex)
    s = np.swapaxes(m, -1, -2).conj()  # adjoint(m)
    s -= m  # -(m - m^dagger), bit for bit
    if not np.max(np.abs(s)) < HERMITIAN_ATOL:  # NaN included
        raise ValueError("matrix is not Hermitian")
    np.conjugate(np.swapaxes(m, -1, -2), out=s)
    s += m
    s *= 0.5
    return np.linalg.eigvalsh(s)


def _ref_min_pt_eigenvalues(ops):
    return _ref_hermitian_eigenvalues(partial_transpose(ops))[..., 0]


def _ref_first(ok: np.ndarray) -> np.ndarray:
    return np.where(ok.any(axis=-1), np.argmax(ok, axis=-1), -1)


def _ref_duan(cons: np.ndarray, mats: np.ndarray):
    rest = cons[:, _REST]  # (T, 4, 3)
    residual = rest[..., 0] + rest[..., 1] + rest[..., 2] - cons
    product = cons < CONCURRENCE_ZERO_TOL
    rest_product = rest < CONCURRENCE_ZERO_TOL
    adj_t = mats[..., ::-1, ::-1] * _REF_COFACTOR_SIGNS  # adj(A_l) transposed
    t = (mats[:, _REST] * adj_t[:, :, None]).sum(axis=(-2, -1))  # tr(A_k adj(A_l)), (T, 4, 3)
    dets = _ref_det2(mats)
    d = dets[:, _REST] * dets[..., None]
    s = np.sqrt(t * t - 4.0 * d)
    big = 0.5 * np.where((t.conj() * s).real >= 0.0, t + s, t - s)
    with np.errstate(divide="ignore", invalid="ignore"):  # lanes of product states
        ratio = d / (big * big)
    anti = (np.abs(ratio.imag) < ANTIPARALLEL_IM_TOL) & (ratio.real < 0.0)
    anti_ok = (anti | rest_product).all(axis=-1)
    ok = np.where(product, rest_product.all(axis=-1),
                  anti_ok & (np.abs(residual) < DUAN_SUM_TOL))
    return ok, residual


def reference_decide(kets) -> Decisions:
    kets = np.asarray(kets, dtype=complex)
    if len(kets) > BLOCK_SIZE:
        blocks = [reference_decide(kets[s:s + BLOCK_SIZE])
                  for s in range(0, len(kets), BLOCK_SIZE)]
        return Decisions(*(np.concatenate([getattr(b, f.name) for b in blocks])
                           for f in fields(Decisions)))
    _ref_check_orthonormal(kets)
    cons = _ref_concurrences(kets)
    min_pt = _ref_min_pt_eigenvalues(_ref_pair_projectors(kets, PAIRS))

    entangled = cons >= CONCURRENCE_ZERO_TOL
    count = entangled.sum(axis=1)
    eliminated = _ref_first(count[:, None] - entangled <= 1)
    separable = min_pt >= -SEPARABILITY_TOL
    split = _ref_first(separable[:, _SPLIT_SIDES[0]] & separable[:, _SPLIT_SIDES[1]])
    locc_kind = np.where(count == 0, 0, np.where(eliminated >= 0, 1, np.where(split >= 0, 2, 3)))

    need = (count > 0) & (split < 0)
    duan_ok = np.zeros(cons.shape, dtype=bool)
    residual = np.zeros(cons.shape)
    if need.any():
        duan_ok[need], residual[need] = _ref_duan(cons[need], coefficient_matrices(kets[need]))
    passed = _ref_first(duan_ok)
    last_tried = np.where(passed >= 0, passed, 3)
    sep_kind = np.where(count == 0, 0, np.where(split >= 0, 1, np.where(passed >= 0, 2, 3)))
    return Decisions(
        concurrences=cons,
        min_pt=min_pt,
        entangled_count=count,
        locc_kind=locc_kind,
        eliminated=eliminated,
        split=split,
        sep_kind=sep_kind,
        sep_eliminated=passed,
        duan_residual=residual,
        duan_tried=need[:, None] & (np.arange(4) <= last_tried[:, None]),
    )


_REF_FLOAT_MAX = float(np.finfo(float).max)


def _ref_join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _ref_check(value, kind, where: str):
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ValueError(f"{where}: expected {' or '.join(k.__name__ for k in kinds)}")
    return value


def _ref_list(value, length, where: str) -> list:
    _ref_check(value, list, where)
    if length is not None and len(value) != length:
        raise ValueError(f"{where}: expected {length} entries, got {len(value)}")
    return value


def _ref_complex_array(doc: dict, key: str, shape, path: str = "") -> np.ndarray:
    def walk(value, dims, where):
        if dims:
            return [walk(x, dims[1:], f"{where}[{n}]")
                    for n, x in enumerate(_ref_list(value, dims[0], where))]
        if not isinstance(value, list) or len(value) != 2:
            raise ValueError(f"{where}: expected [re, im]")
        for n, x in enumerate(value):
            # false for NaN and infinities, which json accepts, and for huge ints
            if not abs(_ref_check(x, (int, float), f"{where}[{n}]")) <= _REF_FLOAT_MAX:
                raise ValueError(f"{where}[{n}]: expected a finite number")
        re, im = value
        return complex(re, im)

    return np.array(walk(field(doc, key, list, path), shape, _ref_join(path, key)), dtype=complex)


def _ref_basis_from_vectors(vectors, label: str):
    kets, phases = canonical_kets(np.asarray(vectors, dtype=complex))
    kets.setflags(write=False)
    states = tuple(BipartiteKet._canonical(k, p) for k, p in zip(kets, phases))
    if len(states) != 4:
        raise ValueError(f"expected 4 kets, got {len(states)}")
    return OrthonormalBasis(states=states, label=label)


def _ref_items(doc: dict, key: str, kind, path: str = "", length=None) -> list:
    where = _ref_join(path, key)
    value = _ref_list(field(doc, key, list, path), length, where)
    return [_ref_check(x, kind, f"{where}[{n}]") for n, x in enumerate(value)]


def _ref_basis_from_dict(doc, path: str = ""):
    doc = envelope(doc, "basis.v1", path=path)
    states = _ref_complex_array(doc, "states", (4, 4), path)
    label = field(doc, "label", str, path, default="from-file")
    return _ref_basis_from_vectors(states, label)


def reference_basis_from_json(text: str):
    return _ref_basis_from_dict(load(text, "basis.v1"))


def reference_share_set_from_json(text: str):
    doc = load(text, "shares.v1", "share_set")
    copies = _ref_complex_array(doc, "copies", (3, 4))
    kets, phases = canonical_kets(np.asarray(copies, dtype=complex))
    kets.setflags(write=False)
    share = ShareSet(
        message=field(doc, "message", int),
        copies=tuple(BipartiteKet._canonical(k, p) for k, p in zip(kets, phases)),
        party_assignment=tuple(_ref_items(doc, "party_assignment", str)),
        security_warning=field(doc, "security_warning", (str, type(None)), default=None),
    )
    return share, _ref_basis_from_dict(field(doc, "basis", dict), path="basis")
