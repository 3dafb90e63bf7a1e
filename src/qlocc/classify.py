"""Decision procedures for multi-copy adaptive discrimination of four-state
two-qubit ensembles.

Minimum copies under adaptive LOCC is decided by a three-way case split on
the first-copy conclusion:

* one copy iff all four states are product;
* two copies via a 1-vs-3 elimination whose three-state remainder contains
  at most one entangled state;
* two copies via a 2-vs-2 split whose two rank-2 projectors are both
  separable;
* otherwise three copies (always sufficient; see protocols.elimination_tournament).

Under adaptive separable operations the 2-vs-2 condition is unchanged, and
the 1-vs-3 route instead requires the three-state remainder to satisfy the
anti-parallel-eigenvalue and concurrence-sum conditions checked by
``duan_three_state_sep``.

State indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import codec
from .entanglement import (
    CONCURRENCE_ZERO_TOL,
    SEPARABILITY_TOL,
    SeparabilityCertificate,
    certificate_to_dict,
    concurrence,  # not called here; bench/tracing.py wraps it by name
    pair_min_pt_eigenvalues,
    pair_projector,  # not called here; bench/tracing.py wraps it by name
    separability_certificate,  # not called here; bench/tracing.py wraps it by name
)
from .linalg import det2
from .states import (BipartiteKet, FamilyParams, OrthonormalBasis, check_orthonormal,
                     coefficient_matrices, complement_pair, grid_indices)
from .states import coefficient_matrix  # noqa: F401  re-exported: tests import it from here

ANTIPARALLEL_IM_TOL = 1e-8
DUAN_SUM_TOL = 1e-9
REGION_BOUNDARY_TOL = 1e-9
NEAR_FACTOR = 10.0  # boundary-warning windows reach out to 10x each decision tolerance
BLOCK_SIZE = 256  # bases per kernel pass: bounds the temporaries of `decide`

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SPLITS = ((0, 1), (0, 2), (0, 3))  # each 2-vs-2 split, named by the pair holding 0
_SPLIT_SIDES = ([PAIRS.index(s) for s in SPLITS],  # PAIRS indices of each split's pairs
                [PAIRS.index(complement_pair(*s)) for s in SPLITS])
_REST = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))  # the states other than l
_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)  # complex: no cast per call

LOCC_KINDS = ("one_copy", "two_copy_elimination", "two_copy_pair_split", "three_copy")
SEP_KINDS = ("all_product", "pair_split", "elimination", "none")
_COPIES = np.array([1, 2, 2, 3])  # indexed by LOCC_KINDS and by SEP_KINDS

ASSUMPTION_LOCC_ELIMINATION = (
    "a conclusive 1-vs-3 elimination on the first copy is taken to be "
    "LOCC-achievable for every orthonormal basis"
)
ASSUMPTION_SEP_ELIMINATION = (
    "a conclusive 1-vs-3 elimination on the first copy is taken to be "
    "achievable under separable operations for every orthonormal basis"
)


class DegenerateFamilyError(ValueError):
    """alpha or beta sits at 0 or pi/2 where the region ratios are undefined."""


@dataclass(frozen=True)
class LoccCategory:
    """Outcome of the adaptive-LOCC case split.

    kind is one of 'one_copy', 'two_copy_elimination', 'two_copy_pair_split',
    'three_copy'. For elimination, ``eliminated`` is the state singled out on
    the first copy; for a pair split, ``pair`` is the two-state group (its
    complement group is the other two states).
    """

    kind: str
    eliminated: int | None = None
    pair: tuple[int, int] | None = None

    @property
    def min_copies(self) -> int:
        return int(_COPIES[LOCC_KINDS.index(self.kind)])


@dataclass(frozen=True)
class Region:
    """Position of (alpha, beta, gamma) relative to the two product surfaces
    tan^2(gamma) = sin(2 beta)/sin(2 alpha) and its reciprocal.

    name is 'R_I' | 'R_II' | 'R_III' | 'R_IV' | 'boundary'; on a boundary,
    ``which`` records the state(s) forced product: 'a3', 'a4' or 'a3+a4'.
    """

    name: str
    which: str | None = None


REGIONS = (Region("R_I"), Region("R_II"), Region("R_III"), Region("R_IV"),
           Region("boundary", "a3"), Region("boundary", "a4"), Region("boundary", "a3+a4"))


@dataclass(frozen=True)
class SepWitness:
    """How the separable-operations copy count was achieved.

    kind: 'all_product' | 'pair_split' | 'elimination' | 'none'.  Every
    two-copy LOCC verdict also has a SEP witness: a LOCC elimination means
    exactly two entangled states, the other two are orthogonal product
    states whose orthocomplement is spanned by product states, so that basis
    has a separable pair split.
    """

    kind: str
    eliminated: int | None = None
    pair: tuple[int, int] | None = None


@dataclass(frozen=True)
class ClassificationReport:
    label: str
    concurrences: tuple[float, float, float, float]
    entangled_count: int
    locc_category: LoccCategory
    min_copies_locc: int
    min_copies_sep: int
    sep_witness: SepWitness
    certificates: tuple[tuple[tuple[int, int], SeparabilityCertificate], ...]
    region: Region | None = None
    params: FamilyParams | None = None
    assumptions: tuple[str, ...] = ()
    boundary_warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Decisions:
    """Every quantity and verdict of `decide`, one row per basis.

    Index -1 means "none" in ``eliminated``, ``split`` and ``sep_eliminated``.
    ``eliminated`` and ``split`` are the first candidates that pass whatever
    the verdict.  Where no cheaper SEP witness exists, the SEP route checks
    eliminations in index order up to the first that passes: ``duan_tried``
    marks those, and ``duan_residual`` holds every concurrence-sum residual
    of such a basis (0 elsewhere).
    """

    concurrences: np.ndarray  # (N, 4)
    min_pt: np.ndarray  # (N, 6), pairs in PAIRS order
    entangled_count: np.ndarray  # (N,)
    locc_kind: np.ndarray  # (N,) index into LOCC_KINDS
    eliminated: np.ndarray  # (N,) first state whose removal leaves <= 1 entangled
    split: np.ndarray  # (N,) index into SPLITS of the first separable split
    sep_kind: np.ndarray  # (N,) index into SEP_KINDS
    sep_eliminated: np.ndarray  # (N,) the state eliminated by the SEP witness
    duan_residual: np.ndarray  # (N, 4)
    duan_tried: np.ndarray  # (N, 4) bool

    @property
    def min_copies_locc(self) -> np.ndarray:
        return _COPIES[self.locc_kind]

    @property
    def min_copies_sep(self) -> np.ndarray:
        return _COPIES[self.sep_kind]


def _first(ok: np.ndarray) -> np.ndarray:
    """Index of the first True along the last axis, or -1."""
    return np.where(ok.any(axis=-1), ok.argmax(axis=-1), -1)


def _case_split_tables():
    """The first-copy case split of every basis, tabulated over its entangled
    mask (bit k: state k entangled) and its separable mask (bit q: the
    projector of PAIRS[q] separable).  Returns the entangled count and the
    first eliminable state per entangled mask, the first separable split per
    separable mask, and the LOCC_KINDS and SEP_KINDS codes per pair of masks;
    SEP code 3 ('none') stands until the kernel finds an elimination that
    passes the separable-operations test."""
    count, eliminated, split = [], [], []
    for mask in range(16):
        entangled = [(mask >> k) & 1 for k in range(4)]
        count.append(sum(entangled))
        eliminated.append(next((l for l in range(4) if count[-1] - entangled[l] <= 1), -1))
    for mask in range(64):
        separable = [(mask >> q) & 1 for q in range(len(PAIRS))]
        split.append(next((n for n, (a, b) in enumerate(zip(*_SPLIT_SIDES))
                           if separable[a] and separable[b]), -1))
    locc = [[0 if c == 0 else 1 if e >= 0 else 2 if s >= 0 else 3 for s in split]
            for c, e in zip(count, eliminated)]
    sep = [[0 if c == 0 else 1 if s >= 0 else 3 for s in split] for c in count]
    return tuple(np.array(t) for t in (count, eliminated, split, locc, sep))


_COUNT, _ELIMINATED, _SPLIT, _LOCC_KIND, _SEP_KIND = _case_split_tables()
_ENTANGLED_BITS = 1 << np.arange(4)
_SEPARABLE_BITS = 1 << np.arange(len(PAIRS))
_STATES = np.arange(4)


def _duan(cons: np.ndarray, mats: np.ndarray, dets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separable-operations test for the three states other than each l
    (whose orthocomplement is state l), from the concurrences (T, 4),
    coefficient matrices (T, 4, 2, 2) and their determinants (T, 4) of all
    four.

    Every entangled member A_k of the three must have anti-parallel
    eigenvalues against the complement's coefficient matrix A_l: the ratio of
    the smaller- to the larger-modulus eigenvalue of A_k A_l^-1 must be real
    and negative.  Their concurrences must also sum to the complement's; a
    product complement requires all three product.
    Returns (ok, concurrence-sum residual), each (T, 4).

    The ratio is taken in closed form from M = A_k adj(A_l), whose
    eigenvalues are those of A_k A_l^-1 times det A_l: with t = tr M,
    d = det M = det A_k det A_l and s = sqrt(t^2 - 4d), the larger-modulus
    root is big = (t +- s)/2, the sign chosen with Re(conj(t) s) >= 0 so
    that nothing cancels, and the ratio is d / big^2.
    """
    rest = cons[:, _REST]  # (T, 4, 3)
    residual = rest[..., 0] + rest[..., 1] + rest[..., 2] - cons
    product = cons < CONCURRENCE_ZERO_TOL
    rest_product = product[:, _REST]
    adj_t = mats[..., ::-1, ::-1] * _COFACTOR_SIGNS  # adj(A_l) transposed
    p = mats[:, _REST] * adj_t[:, :, None]
    # tr(A_k adj(A_l)), (T, 4, 3), summed as .sum(axis=(-2, -1)) sums a 2x2 block
    t = (p[..., 0, 0] + p[..., 0, 1]) + (p[..., 1, 0] + p[..., 1, 1])
    d = dets[:, _REST] * dets[..., None]
    s = np.sqrt(t * t - 4.0 * d)
    big = 0.5 * np.where((t.conj() * s).real >= 0.0, t + s, t - s)
    with np.errstate(divide="ignore", invalid="ignore"):  # lanes of product states
        ratio = d / (big * big)
    anti = (np.abs(ratio.imag) < ANTIPARALLEL_IM_TOL) & (ratio.real < 0.0)
    anti |= rest_product
    ok = np.where(product, rest_product.all(axis=-1),
                  anti.all(axis=-1) & (np.abs(residual) < DUAN_SUM_TOL))
    return ok, residual


def decide(kets) -> Decisions:
    """The classification kernel: every copy-count decision for a stack of
    bases, given as canonical ket rows of shape (N, 4, 4), in one numpy pass
    per block of BLOCK_SIZE bases.

    Raises NotOrthonormalError for the first basis that is not orthonormal.
    """
    kets = np.asarray(kets, dtype=complex)
    if len(kets) > BLOCK_SIZE:
        blocks = [decide(kets[s:s + BLOCK_SIZE]) for s in range(0, len(kets), BLOCK_SIZE)]
        return Decisions(*(np.concatenate([getattr(b, f.name) for b in blocks])
                           for f in fields(Decisions)))
    check_orthonormal(kets)
    return _decide_checked(kets)


def _decide_basis(b: OrthonormalBasis) -> Decisions:
    """`decide` of one basis, whose kets passed the Gram check when it was
    built."""
    return _decide_checked(b.matrix()[None])


def _decide_checked(kets: np.ndarray) -> Decisions:
    """`decide` of at most BLOCK_SIZE bases already known to be orthonormal."""
    mats = coefficient_matrices(kets)
    dets = det2(mats)
    cons = np.hypot(dets.real, dets.imag)  # concurrences(kets), bit for bit
    # no PSD check is needed: each projector is K^dagger K for two kets that
    # just passed the Gram check, so its nonzero spectrum is that of a 2x2
    # Gram block within GRAM_ATOL of the identity
    min_pt = pair_min_pt_eigenvalues(kets, PAIRS)

    entangled = (cons >= CONCURRENCE_ZERO_TOL) @ _ENTANGLED_BITS
    separable = (min_pt >= -SEPARABILITY_TOL) @ _SEPARABLE_BITS
    sep_kind = _SEP_KIND[entangled, separable]
    # the SEP elimination route runs only where no cheaper witness exists
    need = sep_kind == 3
    duan_ok = np.zeros(cons.shape, dtype=bool)
    residual = np.zeros(cons.shape)
    if need.any():
        duan_ok[need], residual[need] = _duan(cons[need], mats[need], dets[need])
    passed = _first(duan_ok)
    return Decisions(
        concurrences=cons,
        min_pt=min_pt,
        entangled_count=_COUNT[entangled],
        locc_kind=_LOCC_KIND[entangled, separable],
        eliminated=_ELIMINATED[entangled],
        split=_SPLIT[separable],
        sep_kind=sep_kind - (passed >= 0),  # 'none' becomes 'elimination'
        sep_eliminated=passed,
        duan_residual=residual,
        # tried up to the first that passed, else all four (-1 % 4 == 3)
        duan_tried=need[:, None] & (_STATES <= passed[:, None] % 4),
    )


def locc_category(b: OrthonormalBasis) -> LoccCategory:
    """Case split deciding the adaptive-LOCC copy count for a basis."""
    return analyze(b).locc_category


def min_copies_adaptive_locc(b: OrthonormalBasis) -> int:
    """Minimum copies for perfect discrimination under adaptive LOCC (1, 2 or 3)."""
    return int(_decide_basis(b).min_copies_locc[0])


def min_copies_adaptive_sep(b: OrthonormalBasis) -> int:
    """Minimum copies for perfect discrimination under adaptive separable
    operations (1, 2 or 3); never exceeds the LOCC count."""
    return int(_decide_basis(b).min_copies_sep[0])


def duan_three_state_sep(states, complement: BipartiteKet) -> bool:
    """True iff three orthogonal states (complement given) are perfectly
    distinguishable by separable operations: every entangled member must have
    anti-parallel eigenvalues against the complement's coefficient matrix and
    the concurrences must sum to the complement's."""
    kets = (*states, complement)
    if len(kets) != 4:
        raise ValueError("expected exactly 3 states")
    mats = coefficient_matrices(np.array([k.amplitudes for k in kets]))[None]
    dets = det2(mats)
    ok, _ = _duan(np.hypot(dets.real, dets.imag), mats, dets)
    return bool(ok[0, 3])


def _surface_ratios(alpha: float, beta: float, message: str) -> tuple[float, float]:
    """(sin 2 beta / sin 2 alpha, sin 2 alpha / sin 2 beta): the values of
    tan^2(gamma) at which family state 3, respectively state 4, is product.

    Raises DegenerateFamilyError(message) when alpha or beta sits at 0 or pi/2.
    """
    s2a, s2b = math.sin(2 * alpha), math.sin(2 * beta)
    if min(s2a, s2b) < 1e-12:
        raise DegenerateFamilyError(message)
    return s2b / s2a, s2a / s2b


def _surface_gaps(p: FamilyParams) -> tuple[float, float]:
    """tan^2(gamma) minus each product-surface ratio (state 3's, then state 4's),
    as `region_grid` computes them."""
    t = math.tan(p.gamma) ** 2
    r_a3, r_a4 = _surface_ratios(p.alpha, p.beta,
                                 "region undefined for alpha or beta at 0 or pi/2")
    return t - r_a3, t - r_a4


def region_axes(alphas, betas, gammas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin(2 alpha), sin(2 beta) and tan^2(gamma) of each value of an
    alpha x beta x gamma grid's axes, taken once per value: what
    `region_points` gathers."""
    return (np.array([math.sin(2 * a) for a in alphas], dtype=float),
            np.array([math.sin(2 * b) for b in betas], dtype=float),
            np.array([math.tan(g) ** 2 for g in gammas], dtype=float))


def region_points(axes, ia, ib, ig) -> np.ndarray:
    """Indices into REGIONS at the grid points (alphas[ia], betas[ib],
    gammas[ig]), with -1 where alpha or beta sits at 0 or pi/2 (where the
    sin(2 alpha)/sin(2 beta) ratios degenerate); ``axes`` is
    region_axes(alphas, betas, gammas)."""
    s2a, s2b, t = axes[0][ia], axes[1][ib], axes[2][ig]
    with np.errstate(divide="ignore", invalid="ignore"):  # the degenerate cells
        g3, g4 = t - s2b / s2a, t - s2a / s2b  # gaps to state 3's and state 4's surface
    on_a3 = np.abs(g3) < REGION_BOUNDARY_TOL
    on_a4 = np.abs(g4) < REGION_BOUNDARY_TOL
    off = np.where((g3 <= 0.0) & (0.0 <= g4), 0, np.where(
        (g4 <= 0.0) & (0.0 <= g3), 1, np.where(np.minimum(g3, g4) >= 0.0, 2, 3)))
    index = np.where(on_a3, np.where(on_a4, 6, 4), np.where(on_a4, 5, off))
    return np.where(np.minimum(s2a, s2b) < 1e-12, -1, index)


def region_grid(alphas, betas, gammas) -> np.ndarray:
    """`region_points` at every point of the alpha x beta x gamma grid,
    alpha-major."""
    return region_points(region_axes(alphas, betas, gammas),
                         *grid_indices((len(alphas), len(betas), len(gammas))))


def region(p: FamilyParams) -> Region:
    """Classify (alpha, beta, gamma) against the two product surfaces.

    Raises DegenerateFamilyError when alpha or beta sits at 0 or pi/2, where
    sin(2 alpha)/sin(2 beta) ratios degenerate.
    """
    (index,) = region_grid([p.alpha], [p.beta], [p.gamma]).tolist()
    if index < 0:
        raise DegenerateFamilyError("region undefined for alpha or beta at 0 or pi/2")
    return REGIONS[index]


def gamma_star(alpha: float, beta: float) -> float:
    """The gamma making the fourth family state product:
    arctan(sqrt(sin 2 alpha / sin 2 beta))."""
    r_a4 = _surface_ratios(alpha, beta, "gamma_star undefined for degenerate angles")[1]
    return math.atan(math.sqrt(r_a4))


def analyze(b: OrthonormalBasis, p: FamilyParams | None = None) -> ClassificationReport:
    """Full classification of a basis: concurrences, the six pair-projector
    certificates, LOCC and SEP copy counts, and (for three-angle family
    inputs) the parameter region.

    This is the one-basis view of `decide`: every verdict, witness,
    assumption and boundary warning reads that kernel's row.
    """
    reg = region(p) if p is not None else None
    d = _decide_basis(b)
    cons = d.concurrences[0].tolist()
    min_pt = d.min_pt[0].tolist()

    warnings = [
        f"concurrence {c:.3e} of state {k} is within 10x of the product threshold"
        for k, c in enumerate(cons)
        if 0.1 * CONCURRENCE_ZERO_TOL <= c < NEAR_FACTOR * CONCURRENCE_ZERO_TOL
    ]
    warnings += [
        f"min PT eigenvalue {m:.3e} of pair ({i},{j}) "
        f"is within 10x of the separability threshold"
        for (i, j), m in zip(PAIRS, min_pt)
        if -NEAR_FACTOR * SEPARABILITY_TOL <= m <= -0.1 * SEPARABILITY_TOL
    ]
    if p is not None:
        warnings += [
            f"tan^2(gamma) is within 10x of a region boundary (|t - r| = {abs(g):.3e})"
            for g in _surface_gaps(p)
            if REGION_BOUNDARY_TOL <= abs(g) < NEAR_FACTOR * REGION_BOUNDARY_TOL
        ]
    warnings += [
        f"concurrence-sum residual {r:.3e} for elimination of "
        f"state {l} is within 10x of tolerance"
        for l, (r, tried) in enumerate(zip(d.duan_residual[0].tolist(), d.duan_tried[0]))
        if tried and DUAN_SUM_TOL <= abs(r) < NEAR_FACTOR * DUAN_SUM_TOL
    ]

    kind, split = LOCC_KINDS[d.locc_kind[0]], int(d.split[0])
    cat = LoccCategory(
        kind,
        eliminated=int(d.eliminated[0]) if kind == "two_copy_elimination" else None,
        pair=SPLITS[split] if kind == "two_copy_pair_split" else None,
    )
    sep_kind = SEP_KINDS[d.sep_kind[0]]
    sep_wit = SepWitness(
        sep_kind,
        eliminated=int(d.sep_eliminated[0]) if sep_kind == "elimination" else None,
        pair=SPLITS[split] if sep_kind == "pair_split" else None,
    )
    assumptions = []
    if kind == "two_copy_elimination":
        assumptions.append(ASSUMPTION_LOCC_ELIMINATION)
    if sep_kind == "elimination":
        assumptions.append(ASSUMPTION_SEP_ELIMINATION)

    return ClassificationReport(
        label=b.label,
        concurrences=tuple(cons),
        entangled_count=int(d.entangled_count[0]),
        locc_category=cat,
        min_copies_locc=cat.min_copies,
        min_copies_sep=int(d.min_copies_sep[0]),
        sep_witness=sep_wit,
        certificates=tuple(
            (pair, SeparabilityCertificate(m, m >= -SEPARABILITY_TOL))
            for pair, m in zip(PAIRS, min_pt)),
        region=reg,
        params=p,
        assumptions=tuple(assumptions),
        boundary_warnings=tuple(warnings),
    )


# --- report.v1 serialization -------------------------------------------------

def _route_to_dict(route: LoccCategory | SepWitness) -> dict:
    """A LOCC category or SEP witness: its kind, then eliminated_index and pair where set."""
    doc: dict = {"kind": route.kind}
    if route.eliminated is not None:
        doc["eliminated_index"] = route.eliminated
    if route.pair is not None:
        doc["pair"] = list(route.pair)
    return doc


def report_to_dict(r: ClassificationReport) -> dict:
    return {
        "schema": "report.v1",
        "label": r.label,
        "concurrences": list(r.concurrences),
        "entangled_count": r.entangled_count,
        "locc_category": _route_to_dict(r.locc_category),
        "min_copies_locc": r.min_copies_locc,
        "min_copies_sep": r.min_copies_sep,
        "sep_witness": _route_to_dict(r.sep_witness),
        "region": None if r.region is None else
            {"name": r.region.name, "which": r.region.which},
        "certificates": [
            {"pair": list(pair), **certificate_to_dict(cert)}
            for pair, cert in r.certificates
        ],
        "params": None if r.params is None else {
            "alpha": r.params.alpha, "beta": r.params.beta,
            "gamma": r.params.gamma, "theta": r.params.theta,
        },
        "assumptions": list(r.assumptions),
        "boundary_warnings": list(r.boundary_warnings),
    }


def report_to_json(r: ClassificationReport) -> str:
    return codec.dump(report_to_dict(r))
