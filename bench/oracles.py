"""Output oracles that do not use the package under test.

Each check takes one command's output text plus the operation's expectation
and returns a list of problems; an empty list accepts the output.  The
quantities are recomputed here from the generating vectors (or, for scan
rows, from the family formulas) with formulas of their own:

* concurrence by the spin-flip formula |<psi| sigma_y (x) sigma_y |psi*>|;
* minimum partial-transpose eigenvalue of a pair projector by `eigvalsh` of
  the projector with its second-party indices explicitly permuted;
* the adaptive-LOCC copy count from those two quantities by the paper's
  case split (one copy iff all product; two if at most two states are
  entangled or a 2-vs-2 split has two separable projectors; else three).
  Inputs within 10x of a decision tolerance are left undecided.

Only numpy is imported.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from workloads import family_a_vectors

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SPLITS = ((0, 5), (1, 4), (2, 3))  # indices into PAIRS of each 2-vs-2 split
CONCURRENCE_TOL = 1e-9
SEPARABILITY_TOL = 1e-9
VALUE_ATOL = 1e-9  # agreement required between printed and recomputed values
EXACT_TOL = 1e-9
CROSS_TRACE_MAX = 1e-10
LOCC_KINDS = {"one_copy": 1, "two_copy_elimination": 2,
              "two_copy_pair_split": 2, "three_copy": 3}
REGIONS = {"R_I", "R_II", "R_III", "R_IV", "boundary:a3", "boundary:a4",
           "boundary:a3+a4", "degenerate"}

_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY)


def _pt_index():
    # entry ((i,j),(k,l)) of the operator moves to ((i,l),(k,j))
    src_r, src_c, dst_r, dst_c = [], [], [], []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    src_r.append(2 * i + j)
                    src_c.append(2 * k + l)
                    dst_r.append(2 * i + l)
                    dst_c.append(2 * k + j)
    return (np.array(src_r), np.array(src_c)), (np.array(dst_r), np.array(dst_c))


_PT_SRC, _PT_DST = _pt_index()


def spin_flip_concurrence(vectors: np.ndarray) -> np.ndarray:
    """(..., 4) amplitude vectors -> (...) concurrences."""
    v = np.asarray(vectors, dtype=complex)
    flipped = np.conj(v) @ _YY.T
    return np.abs(np.sum(np.conj(v) * flipped, axis=-1))


def pair_pt_spectra(vectors: np.ndarray) -> np.ndarray:
    """(..., 4, 4) basis rows -> (..., 6, 4) ascending partial-transpose
    spectra of the six pair projectors, in PAIRS order."""
    v = np.asarray(vectors, dtype=complex)
    i = np.array([p[0] for p in PAIRS])
    j = np.array([p[1] for p in PAIRS])
    vi, vj = v[..., i, :], v[..., j, :]
    proj = (vi[..., :, None] * np.conj(vi[..., None, :])
            + vj[..., :, None] * np.conj(vj[..., None, :]))
    pt = np.empty_like(proj)
    pt[..., _PT_DST[0], _PT_DST[1]] = proj[..., _PT_SRC[0], _PT_SRC[1]]
    return np.linalg.eigvalsh(pt)


def expected_locc_copies(cons: np.ndarray, min_pt: np.ndarray) -> np.ndarray:
    """(..., 4) concurrences and (..., 6) minimum PT eigenvalues -> (...)
    copy counts, or 0 where an input is within 10x of a decision tolerance."""
    cons, min_pt = np.asarray(cons), np.asarray(min_pt)
    entangled = cons >= CONCURRENCE_TOL
    count = entangled.sum(axis=-1)
    separable = min_pt >= -SEPARABILITY_TOL
    split = np.zeros(count.shape, dtype=bool)
    for a, b in SPLITS:
        split |= separable[..., a] & separable[..., b]
    copies = np.where(count == 0, 1, np.where((count <= 2) | split, 2, 3))
    near = (((cons >= 0.1 * CONCURRENCE_TOL) & (cons < 10 * CONCURRENCE_TOL)).any(axis=-1)
            | ((min_pt <= -0.1 * SEPARABILITY_TOL) & (min_pt > -10 * SEPARABILITY_TOL)).any(axis=-1))
    return np.where(near, 0, copies)


def _close(a, b) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= VALUE_ATOL))


def _json(text: str, problems: list[str]):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


# --- scan -----------------------------------------------------------------------

def check_scan(text: str, expect: dict) -> list[str]:
    """The scan CSV: grid, concurrences, PT spectra and copy counts per row."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# scan.v1 columns:"):
        return ["missing scan.v1 header"]
    columns = lines[0].split(":", 1)[1].strip().split(",")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    if lines[1].split(",") != columns:
        return ["header row does not match the frozen column list"]
    grids = [np.linspace(lo, hi, steps) for lo, hi, steps in expect["ranges"]]
    want = np.array(np.meshgrid(*grids, indexing="ij")).reshape(3, -1).T
    if len(rows) != len(want):
        return [f"{len(rows)} rows for a grid of {len(want)} points"]
    problems: list[str] = []
    try:
        angles = np.array([[float(r["alpha"]), float(r["beta"]), float(r["gamma"])] for r in rows])
        cons = np.array([[float(r[f"c{k}"]) for k in range(1, 5)] for r in rows])
        e_p12 = np.array([[float(r[f"e{k}_p12"]) for k in range(1, 5)] for r in rows])
        min_pt = np.array([[float(r[f"min_pt_{i}{j}"]) for i, j in PAIRS] for r in rows])
        count = np.array([int(r["entangled_count"]) for r in rows])
        locc = np.array([int(r["min_copies_locc"]) for r in rows])
        sep = np.array([int(r["min_copies_sep"]) for r in rows])
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unparsable scan row: {exc}"]
    if any(r["family"] != "A" or r["theta"] != "" for r in rows):
        problems.append("family/theta columns wrong")
    if any(r["region"] not in REGIONS for r in rows):
        problems.append("unknown region label")
    if not np.all(np.abs(angles - want) <= 1e-10):
        problems.append("grid angles differ from the requested ranges")
    vecs = family_a_vectors(want[:, 0], want[:, 1], want[:, 2])
    o_cons = spin_flip_concurrence(vecs)
    spectra = pair_pt_spectra(vecs)
    o_min_pt = spectra[..., 0]
    problems += _row_problems("concurrence", np.abs(cons - o_cons).max(axis=1) > VALUE_ATOL)
    problems += _row_problems("min PT eigenvalue", np.abs(min_pt - o_min_pt).max(axis=1) > VALUE_ATOL)
    problems += _row_problems(
        "closed-form P12 spectrum",
        np.abs(np.sort(e_p12, axis=1) - spectra[:, 0, :]).max(axis=1) > VALUE_ATOL)
    o_count = (o_cons >= CONCURRENCE_TOL).sum(axis=1)
    o_locc = expected_locc_copies(o_cons, o_min_pt)
    problems += _row_problems("entangled_count", (o_locc > 0) & (count != o_count))
    problems += _row_problems("min_copies_locc", (o_locc > 0) & (locc != o_locc))
    problems += _row_problems("min_copies_sep > min_copies_locc", sep > locc)
    problems += _row_problems("locc == 1 iff entangled_count == 0", (locc == 1) != (count == 0))
    problems += _row_problems("copy count out of range",
                              ~np.isin(locc, (1, 2, 3)) | ~np.isin(sep, (1, 2, 3)))
    return problems


def _row_problems(what: str, bad: np.ndarray) -> list[str]:
    n = int(np.count_nonzero(bad))
    if not n:
        return []
    return [f"{what} rejected on {n} row(s), first at row {int(np.argmax(bad))}"]


# --- basis requests -----------------------------------------------------------

def check_analyze(text: str, expect: dict) -> list[str]:
    """report.v1 of one basis against its generating vectors."""
    problems: list[str] = []
    doc = _json(text, problems)
    if doc is None:
        return problems
    try:
        vecs = expect["vectors"]
        o_cons = spin_flip_concurrence(vecs)
        o_min_pt = pair_pt_spectra(vecs)[:, 0]
        if doc["schema"] != "report.v1":
            problems.append("schema is not report.v1")
        if not _close(doc["concurrences"], o_cons):
            problems.append("concurrences differ from the spin-flip formula")
        certs = doc["certificates"]
        if [tuple(c["pair"]) for c in certs] != list(PAIRS):
            problems.append("certificates not in lexicographic pair order")
        elif not _close([c["min_pt_eigenvalue"] for c in certs], o_min_pt):
            problems.append("min PT eigenvalues differ from the permuted-index projector")
        elif any(c["is_separable"] != (c["min_pt_eigenvalue"] >= -c["tolerance"]) for c in certs):
            problems.append("is_separable disagrees with min_pt_eigenvalue")
        locc, sep, count = doc["min_copies_locc"], doc["min_copies_sep"], doc["entangled_count"]
        kind = doc["locc_category"]["kind"]
        o_locc = int(expected_locc_copies(o_cons, o_min_pt))
        if o_locc:
            if count != int((o_cons >= CONCURRENCE_TOL).sum()):
                problems.append("entangled_count differs from the oracle")
            if locc != o_locc:
                problems.append(f"min_copies_locc {locc}, oracle {o_locc}")
        if LOCC_KINDS.get(kind) != locc:
            problems.append(f"locc kind {kind!r} does not give {locc} copies")
        if not 1 <= sep <= locc <= 3:
            problems.append("min_copies_sep > min_copies_locc or out of range")
        if (locc == 1) != (count == 0):
            problems.append("locc == 1 iff entangled_count == 0 violated")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def check_encode(text: str, expect: dict) -> list[str]:
    """shares.v1 share_set: the message and three copies of its basis state."""
    problems: list[str] = []
    doc = _json(text, problems)
    if doc is None:
        return problems
    try:
        if doc["schema"] != "shares.v1" or doc["kind"] != "share_set":
            problems.append("not a shares.v1 share_set")
        if doc["message"] != expect["message"]:
            problems.append(f"message {doc['message']}, encoded {expect['message']}")
        state = expect["vectors"][expect["message"]]
        copies = doc["copies"]
        if len(copies) != 3:
            problems.append(f"{len(copies)} copies instead of 3")
        for c in copies:
            v = np.array([complex(re, im) for re, im in c])
            if abs(abs(np.vdot(state, v)) - 1.0) > VALUE_ATOL:
                problems.append("a copy is not the message's basis state")
                break
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed share set: {exc!r}")
    return problems


def check_decode(text: str, expect: dict) -> list[str]:
    """decode_result returns the encoded message."""
    problems: list[str] = []
    doc = _json(text, problems)
    if doc is None:
        return problems
    try:
        if doc["decoded_message"] != expect["message"]:
            problems.append(f"decoded {doc['decoded_message']}, encoded {expect['message']}")
        if doc["matches_encoded"] is not True:
            problems.append("matches_encoded is not true")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed decode result: {exc!r}")
    return problems


def check_strong_pair(text: str, expect: dict) -> list[str]:
    """strong_pair: orthogonal supports and both PT certificates."""
    problems: list[str] = []
    doc = _json(text, problems)
    if doc is None:
        return problems
    try:
        i, j = expect["pair"]
        k, l = sorted(set(range(4)) - {i, j})
        spectra = pair_pt_spectra(expect["vectors"])[:, 0]
        o_pair, o_comp = spectra[PAIRS.index((min(i, j), max(i, j)))], spectra[PAIRS.index((k, l))]
        certs = doc["certificates"]
        if doc["kind"] != "strong_pair" or doc["pair"] != [i, j]:
            problems.append("not the requested strong_pair")
        if not certs["cross_trace"] <= CROSS_TRACE_MAX:
            problems.append(f"cross trace {certs['cross_trace']:.3e} exceeds {CROSS_TRACE_MAX}")
        got = (certs["pair_projector"]["min_pt_eigenvalue"],
               certs["complement_projector"]["min_pt_eigenvalue"])
        if not _close(got, (o_pair, o_comp)):
            problems.append("support-projector certificates differ from the oracle")
        npt = [m < -10 * SEPARABILITY_TOL for m in (o_pair, o_comp)]
        sep = [m > -0.1 * SEPARABILITY_TOL for m in (o_pair, o_comp)]
        if all(npt) and doc["security"] != "PASS" or any(sep) and doc["security"] != "FAIL":
            problems.append(f"security verdict {doc['security']!r} contradicts the certificates")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed strong pair: {exc!r}")
    return problems


# --- simulate ---------------------------------------------------------------------

def check_simulate(text: str, expect: dict) -> list[str]:
    """simulate.v1: an exact protocol succeeds on every sampled run."""
    problems: list[str] = []
    doc = _json(text, problems)
    if doc is None:
        return problems
    try:
        if doc["schema"] != "simulate.v1" or doc["protocol"] != expect["protocol"]:
            problems.append("not the requested simulate.v1 protocol")
        if doc["runs"] != expect["runs"] or doc["seed"] != expect["seed"]:
            problems.append("runs or seed differ from the request")
        if doc["copies"] != expect["copies"]:
            problems.append(f"{doc['copies']} copies, expected {expect['copies']}")
        if not doc["exact_success_probability"] >= 1.0 - EXACT_TOL:
            problems.append(f"exact success {doc['exact_success_probability']!r} below 1 - {EXACT_TOL}")
        if doc["successes"] != doc["runs"]:
            problems.append(f"{doc['successes']} successes in {doc['runs']} runs")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed simulate result: {exc!r}")
    return problems


CHECKS = {
    "scan": check_scan,
    "analyze": check_analyze,
    "encode": check_encode,
    "decode": check_decode,
    "strong_pair": check_strong_pair,
    "simulate": check_simulate,
}


def check(kind: str, text: str, expect: dict) -> list[str]:
    return CHECKS[kind](text, expect)
