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
from dataclasses import asdict, dataclass

import numpy as np

from . import codec
from .entanglement import (
    CONCURRENCE_ZERO_TOL,
    SeparabilityCertificate,
    concurrence,
    pair_projector,
    separability_certificate,
)
from .states import (BipartiteKet, FamilyParams, OrthonormalBasis, coefficient_matrix,
                     complement_pair)

ANTIPARALLEL_IM_TOL = 1e-8
DUAN_SUM_TOL = 1e-9
REGION_BOUNDARY_TOL = 1e-9
NEAR_FACTOR = 10.0  # boundary-warning windows reach out to 10x each decision tolerance

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SPLITS = ((0, 1), (0, 2), (0, 3))  # each 2-vs-2 split, named by the pair holding 0

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
        return {"one_copy": 1, "two_copy_elimination": 2,
                "two_copy_pair_split": 2, "three_copy": 3}[self.kind]


@dataclass(frozen=True)
class Region:
    """Position of (alpha, beta, gamma) relative to the two product surfaces
    tan^2(gamma) = sin(2 beta)/sin(2 alpha) and its reciprocal.

    name is 'R_I' | 'R_II' | 'R_III' | 'R_IV' | 'boundary'; on a boundary,
    ``which`` records the state(s) forced product: 'a3', 'a4' or 'a3+a4'.
    """

    name: str
    which: str | None = None


@dataclass(frozen=True)
class SepWitness:
    """How the separable-operations copy count was achieved.

    kind: 'all_product' | 'pair_split' | 'elimination' | 'locc_protocol' | 'none'.
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


def locc_category(b: OrthonormalBasis) -> LoccCategory:
    """Case split deciding the adaptive-LOCC copy count for a basis."""
    return analyze(b).locc_category


def min_copies_adaptive_locc(b: OrthonormalBasis) -> int:
    """Minimum copies for perfect discrimination under adaptive LOCC (1, 2 or 3)."""
    return analyze(b).min_copies_locc


def min_copies_adaptive_sep(b: OrthonormalBasis) -> int:
    """Minimum copies for perfect discrimination under adaptive separable
    operations (1, 2 or 3); never exceeds the LOCC count."""
    return analyze(b).min_copies_sep


def _duan_detail(cons, mats, l: int):
    """Check SEP-distinguishability of the three states other than ``l``,
    whose orthocomplement is state ``l``, from the concurrences ``cons`` and
    coefficient matrices ``mats`` of all four.

    Returns (ok, concurrence-sum residual); the residual feeds boundary warnings.
    """
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


def duan_three_state_sep(states, complement: BipartiteKet) -> bool:
    """True iff three orthogonal states (complement given) are perfectly
    distinguishable by separable operations: every entangled member must have
    anti-parallel eigenvalues against the complement's coefficient matrix and
    the concurrences must sum to the complement's."""
    kets = (*states, complement)
    if len(kets) != 4:
        raise ValueError("expected exactly 3 states")
    return _duan_detail([concurrence(k) for k in kets],
                        [coefficient_matrix(k) for k in kets], 3)[0]


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
    """tan^2(gamma) minus each product-surface ratio (state 3's, then state 4's)."""
    t = math.tan(p.gamma) ** 2
    r_a3, r_a4 = _surface_ratios(p.alpha, p.beta,
                                 "region undefined for alpha or beta at 0 or pi/2")
    return t - r_a3, t - r_a4


def region(p: FamilyParams) -> Region:
    """Classify (alpha, beta, gamma) against the two product surfaces.

    Raises DegenerateFamilyError when alpha or beta sits at 0 or pi/2, where
    sin(2 alpha)/sin(2 beta) ratios degenerate.
    """
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


def gamma_star(alpha: float, beta: float) -> float:
    """The gamma making the fourth family state product:
    arctan(sqrt(sin 2 alpha / sin 2 beta))."""
    r_a4 = _surface_ratios(alpha, beta, "gamma_star undefined for degenerate angles")[1]
    return math.atan(math.sqrt(r_a4))


def analyze(b: OrthonormalBasis, p: FamilyParams | None = None) -> ClassificationReport:
    """Full classification of a basis: concurrences, the six pair-projector
    certificates, LOCC and SEP copy counts, and (for three-angle family
    inputs) the parameter region.

    The concurrences, coefficient matrices and certificates are computed once
    here; every verdict, witness, assumption and boundary warning reads them.
    """
    reg = region(p) if p is not None else None
    cons = [concurrence(k) for k in b]
    mats = [coefficient_matrix(k) for k in b]
    certs = {(i, j): separability_certificate(pair_projector(b, i, j)) for i, j in PAIRS}

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
    assumptions: list[str] = []
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


# --- report.v1 serialization -------------------------------------------------

def report_to_dict(r: ClassificationReport) -> dict:
    cat: dict = {"kind": r.locc_category.kind}
    if r.locc_category.eliminated is not None:
        cat["eliminated_index"] = r.locc_category.eliminated
    if r.locc_category.pair is not None:
        cat["pair"] = list(r.locc_category.pair)
    wit: dict = {"kind": r.sep_witness.kind}
    if r.sep_witness.eliminated is not None:
        wit["eliminated_index"] = r.sep_witness.eliminated
    if r.sep_witness.pair is not None:
        wit["pair"] = list(r.sep_witness.pair)
    doc = {
        "schema": "report.v1",
        "label": r.label,
        "concurrences": list(r.concurrences),
        "entangled_count": r.entangled_count,
        "locc_category": cat,
        "min_copies_locc": r.min_copies_locc,
        "min_copies_sep": r.min_copies_sep,
        "sep_witness": wit,
        "region": None if r.region is None else
            {"name": r.region.name, "which": r.region.which},
        "certificates": [
            {"pair": list(pair), **asdict(cert)}
            for pair, cert in r.certificates
        ],
        "params": None if r.params is None else {
            "alpha": r.params.alpha, "beta": r.params.beta,
            "gamma": r.params.gamma, "theta": r.params.theta,
        },
        "assumptions": list(r.assumptions),
        "boundary_warnings": list(r.boundary_warnings),
    }
    return doc


def report_to_json(r: ClassificationReport) -> str:
    return codec.dump(report_to_dict(r))
