"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of `qlocc` command lines (a "pass") plus the
files they read.  The lists are derived from the workload seed alone, so the
same seed gives byte-identical inputs; the program under test only ever sees
the command lines and the files, never the seed.  Each operation also carries
what the oracles need to check its output (the generating vectors, the
encoded message, ...).

This module uses numpy only; it does not import the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

HALF_PI = math.pi / 2

WORKLOADS = ("scan_grid", "basis_requests", "simulate_runs")

# scan_grid: one `scan --family A` over an alpha x beta x gamma grid
SCAN_STEPS = (20, 15, 10)  # 3000 points per scan

# basis_requests: 500 bases, every third one also goes through
# encode -> decode and strong-pair, so a pass is 500 + 3 * 167 = 1001 requests
BASIS_COUNT = 500
SHARE_EVERY = 3
# 7 is coprime to SHARE_EVERY, so the bases that get the secret-share
# requests cycle through every kind and the per-pass mix is seed-independent
BASIS_KINDS = ("haar", "low_entanglement", "family_a", "haar",
               "theta_local", "family_a", "product")

# simulate_runs: 8 `simulate` calls of 1000 runs; one in four is bell-grouping
SIMULATE_CALLS = 8
SIMULATE_RUNS = 1000


@dataclass(frozen=True)
class Op:
    """One `qlocc` command line and what its output is checked against.

    ``argv`` names files relative to the work directory.  ``stdout_to`` asks
    the harness to save the command's standard output under that name (a
    later operation reads it); ``output_file`` names the file the command
    writes its result to instead of standard output.  ``items`` is the
    amount of work the operation counts toward throughput.
    """

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(hash=False, compare=False)
    items: int = 1
    stdout_to: str | None = None
    output_file: str | None = None


@dataclass(frozen=True)
class Inputs:
    workload: str
    files: dict  # relative path -> text
    ops: tuple[Op, ...]  # one pass
    warmup: Op
    item_name: str  # what `items` counts, e.g. "points"

    def digest(self) -> str:
        """SHA-256 over everything the program receives: files and argv."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        for op in (self.warmup, *self.ops):
            h.update("\x1f".join(op.argv).encode() + b"\n")
        return h.hexdigest()


def _rng(seed: int, stream: int):
    """The generator of one workload's stream; any integer seed is accepted
    (numpy takes only non-negative ones)."""
    return np.random.default_rng([seed % 2**64, stream])


def _num(x: float) -> str:
    return repr(float(x))


def haar_unitary(rng, n: int = 4) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def family_a_vectors(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rows are the four states of the three-angle family, from its defining
    formulas: C_a|00> - S_a|11>, C_b|01> - S_b|10>, S_g phi+ + C_g psi+,
    C_g phi+ - S_g psi+ with phi+ = S_a|00> + C_a|11>, psi+ = S_b|01> + C_b|10>.
    Accepts scalars or equal-shape arrays; returns shape (..., 4, 4)."""
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    sg, cg = np.sin(gamma), np.cos(gamma)
    z = np.zeros_like(sa)
    phi = np.stack([sa, z, z, ca], axis=-1)
    psi = np.stack([z, sb, cb, z], axis=-1)
    b1 = np.stack([ca, z, z, -sa], axis=-1)
    b2 = np.stack([z, cb, -sb, z], axis=-1)
    sg, cg = np.asarray(sg)[..., None], np.asarray(cg)[..., None]
    b3 = sg * phi + cg * psi
    b4 = cg * phi - sg * psi
    return np.stack([b1, b2, b3, b4], axis=-2).astype(complex)


def _theta_vectors(theta: float) -> np.ndarray:
    s, c = math.sin(theta), math.cos(theta)
    return np.array([[s, 0, 0, c], [c, 0, 0, -s], [0, s, c, 0], [0, c, -s, 0]], dtype=complex)


def _random_qubit(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _local(rng) -> np.ndarray:
    return np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))


def random_basis(kind: str, rng) -> np.ndarray:
    """Four orthonormal states as rows, of the named kind.

    haar: generic, all four entangled (three copies).
    low_entanglement: two orthogonal product states completed by a random
      rotation of their orthocomplement (at most two entangled states, so a
      two-copy elimination).
    family_a: the three-angle family at random angles.
    theta_local: the one-angle family under random local unitaries (its two
      pair projectors stay separable, so a two-copy pair split).
    product: the computational basis under random local unitaries (one copy).
    """
    if kind == "haar":
        return haar_unitary(rng).T.copy()
    if kind == "low_entanglement":
        e1, f1 = _random_qubit(rng), _random_qubit(rng)
        if rng.random() < 0.5:
            e2, f2 = np.array([-np.conj(e1[1]), np.conj(e1[0])]), _random_qubit(rng)
        else:
            e2, f2 = _random_qubit(rng), np.array([-np.conj(f1[1]), np.conj(f1[0])])
        p1, p2 = np.kron(e1, f1), np.kron(e2, f2)
        comp = np.eye(4) - np.outer(p1, p1.conj()) - np.outer(p2, p2.conj())
        w, v = np.linalg.eigh(comp)
        span = v[:, w > 0.5] @ haar_unitary(rng, 2)
        return np.array([p1, p2, span[:, 0], span[:, 1]])
    if kind == "family_a":
        a, b, g = rng.uniform(0.05, HALF_PI - 0.05, size=3)
        return family_a_vectors(a, b, g)
    if kind == "theta_local":
        theta = rng.uniform(0.1, HALF_PI - 0.1)
        return _theta_vectors(theta) @ _local(rng).T
    if kind == "product":
        return _local(rng).T.copy()
    raise ValueError(f"unknown basis kind {kind!r}")


def basis_json(vectors: np.ndarray, label: str) -> str:
    doc = {
        "schema": "basis.v1",
        "label": label,
        "states": [[[float(c.real), float(c.imag)] for c in row] for row in vectors],
    }
    return json.dumps(doc)


def _scan_grid(seed: int) -> Inputs:
    rng = _rng(seed, 1)
    ranges = []
    for steps, lo_span, hi_span in zip(
        SCAN_STEPS,
        ((0.03, 0.12), (0.03, 0.12), (0.05, 0.2)),
        ((1.45, 1.54), (1.45, 1.54), (1.35, 1.5)),
    ):
        ranges.append((float(rng.uniform(*lo_span)), float(rng.uniform(*hi_span)), steps))
    argv = ["scan", "--family", "A"]
    for flag, (lo, hi, steps) in zip(("--alpha", "--beta", "--gamma"), ranges):
        argv += [flag, f"{_num(lo)}:{_num(hi)}:{steps}"]
    points = math.prod(SCAN_STEPS)
    op = Op("scan", tuple(argv + ["-o", "scan.csv"]), {"ranges": ranges},
            items=points, output_file="scan.csv")
    warm_ranges = [(0.2, 1.3, 2), (0.3, 1.2, 2), (0.4, 1.1, 2)]
    warm_argv = ["scan", "--family", "A"]
    for flag, (lo, hi, steps) in zip(("--alpha", "--beta", "--gamma"), warm_ranges):
        warm_argv += [flag, f"{lo}:{hi}:{steps}"]
    warm = Op("scan", tuple(warm_argv + ["-o", "warmup.csv"]), {"ranges": warm_ranges},
              items=8, output_file="warmup.csv")
    return Inputs("scan_grid", {}, (op,), warm, "points")


def _basis_requests(seed: int) -> Inputs:
    rng = _rng(seed, 2)
    files: dict[str, str] = {}
    ops: list[Op] = []
    for n in range(BASIS_COUNT):
        kind = BASIS_KINDS[n % len(BASIS_KINDS)]
        vecs = random_basis(kind, rng)
        name = f"basis_{n:04d}.json"
        files[name] = basis_json(vecs, f"bench-{n}-{kind}")
        ops.append(Op("analyze", ("analyze", "--basis-file", name),
                      {"vectors": vecs, "basis_kind": kind}))
        if n % SHARE_EVERY:
            continue
        message = int(rng.integers(4))
        shares = f"shares_{n:04d}.json"
        ops.append(Op("encode",
                      ("secret-share", "encode", "--basis-file", name, "--message", str(message)),
                      {"vectors": vecs, "message": message}, stdout_to=shares))
        ops.append(Op("decode", ("secret-share", "decode", "--shares-file", shares),
                      {"message": message}))
        i, j = (int(x) for x in rng.choice(4, size=2, replace=False))
        lam, mu = (float(x) for x in rng.uniform(0.2, 0.8, size=2))
        ops.append(Op("strong_pair",
                      ("secret-share", "strong-pair", "--basis-file", name,
                       "--i", str(i), "--j", str(j), "--lambda", _num(lam), "--mu", _num(mu)),
                      {"vectors": vecs, "pair": (i, j)}))
    return Inputs("basis_requests", files, tuple(ops), ops[0], "requests")


def _simulate_runs(seed: int) -> Inputs:
    rng = _rng(seed, 3)
    ops = []
    for n in range(SIMULATE_CALLS):
        run_seed = int(rng.integers(1, 2**31))
        if n % 4 == 3:
            theta = float(rng.uniform(0.1, HALF_PI - 0.1))
            argv = ("simulate", "--protocol", "bell-grouping", "--family", "theta",
                    "--theta", _num(theta))
            expect = {"protocol": "bell-grouping", "copies": 2}
        else:
            a, b, g = (float(x) for x in rng.uniform(0.05, HALF_PI - 0.05, size=3))
            argv = ("simulate", "--protocol", "tournament", "--family", "A",
                    "--alpha", _num(a), "--beta", _num(b), "--gamma", _num(g))
            expect = {"protocol": "tournament", "copies": 3}
        expect = dict(expect, runs=SIMULATE_RUNS, seed=run_seed)
        ops.append(Op("simulate",
                      argv + ("--runs", str(SIMULATE_RUNS), "--seed", str(run_seed)),
                      expect, items=SIMULATE_RUNS))
    first = ops[0]
    warm = Op("simulate", first.argv[:-4] + ("--runs", "8", "--seed", "1"),
              dict(first.expect, runs=8, seed=1), items=8)
    return Inputs("simulate_runs", {}, tuple(ops), warm, "sampled runs")


def generate(workload: str, seed: int) -> Inputs:
    """The inputs of one workload, a pure function of (workload, seed)."""
    if workload == "scan_grid":
        return _scan_grid(seed)
    if workload == "basis_requests":
        return _basis_requests(seed)
    if workload == "simulate_runs":
        return _simulate_runs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
