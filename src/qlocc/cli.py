"""Command-line front end: analyze, scan, simulate, secret-share.

Angles are radians unless --degrees is given.  Floats print with 12
significant digits so repeated runs are byte-identical.  Exit codes:
0 success, 2 usage or validation failure, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from collections.abc import Iterator

import numpy as np

from . import codec
from .classify import (
    BLOCK_SIZE,
    PAIRS,
    REGIONS,
    FamilyParams,
    analyze,
    decide,
    region,  # not called here; bench/tracing.py wraps qlocc.cli.region by name
    region_axes,
    region_points,
    report_to_json,
)
from .entanglement import pt_spectrum_p12_closed
from .protocols import (
    bell_grouping_protocol,
    elimination_tournament,
    exact_success_probability,
    protocol_to_json,
    sample_run,  # not called here; bench/tracing.py wraps qlocc.cli.sample_run by name
    sample_runs,
)
from .secretshare import (
    decode_full_collaboration,
    decode_result_to_json,
    encode_2bit,
    share_set_from_json,
    share_set_to_json,
    strong_pair_shares,
    strong_pair_to_json,
)
from .states import (OrthonormalBasis, a_basis, basis_from_json, check_angle, family_a_axes,
                     family_a_point_kets, grid_indices, theta_basis, theta_kets)

SCAN_COLUMNS = (
    "family", "theta", "alpha", "beta", "gamma",
    "c1", "c2", "c3", "c4", "entangled_count", "region",
    "e1_p12", "e2_p12", "e3_p12", "e4_p12",
    "min_pt_01", "min_pt_02", "min_pt_03", "min_pt_12", "min_pt_13", "min_pt_23",
    "min_copies_locc", "min_copies_sep",
)
# the scan columns that read the classification kernel (`decide`)
KERNEL_COLUMNS = frozenset(
    ["c1", "c2", "c3", "c4", "entangled_count", "min_copies_locc", "min_copies_sep"]
    + [f"min_pt_{i}{j}" for i, j in PAIRS])
# scan's region column: REGIONS by index, then index -1 for alpha or beta at 0 or pi/2
REGION_LABELS = np.array([r.name if r.which is None else f"{r.name}:{r.which}"
                          for r in REGIONS] + ["degenerate"], dtype=object)


_fmt = "%.12g".__mod__  # a float with 12 significant digits, as f"{x:.12g}"
# the labels of scan's count columns: entangled counts 0-4, copy counts 1-3
_COUNT_LABELS = np.array([str(k) for k in range(5)], dtype=object)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else float(value)


def _parse_range(text: str, degrees: bool) -> list[float]:
    """Either a fixed angle ('0.3') or 'min:max:steps' with min <= max and
    steps >= 2.  FamilyParams bounds the angles themselves."""
    if ":" not in text:
        return [_angle(float(text), degrees)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be min:max:steps, got {text!r}")
    lo, hi = _angle(float(parts[0]), degrees), _angle(float(parts[1]), degrees)
    steps = int(parts[2])
    if steps < 2:
        raise ValueError("a range needs steps >= 2")
    if not lo <= hi:
        raise ValueError(f"a range needs min <= max, got {text!r}")
    return [float(v) for v in np.linspace(lo, hi, steps)]


def _family_axes(args, angles) -> dict[str, list[float]]:
    """The angle list of each flag the family needs (alpha, beta, gamma for
    family A; theta for the theta family), every angle checked to lie in
    [0, pi/2]; ``angles`` turns one flag value into its list of radians."""
    if args.family == "A":
        if args.alpha is None or args.beta is None or args.gamma is None:
            raise ValueError("family A needs --alpha, --beta and --gamma")
        names = ("alpha", "beta", "gamma")
    elif args.family == "theta":
        if args.theta is None:
            raise ValueError("family theta needs --theta")
        names = ("theta",)
    else:
        other = " or --basis-file" if "basis_file" in args else ""
        raise ValueError("specify --family {A,theta}" + other)
    axes = {name: angles(getattr(args, name)) for name in names}
    return {name: [check_angle(name, v) for v in axis] for name, axis in axes.items()}


def _point(args) -> FamilyParams:
    axes = _family_axes(args, lambda v: [_angle(v, args.degrees)])
    return FamilyParams(**{name: axis[0] for name, axis in axes.items()})


def _basis_from_args(args) -> tuple[OrthonormalBasis, FamilyParams | None]:
    if getattr(args, "basis_file", None):
        with open(args.basis_file, "r", encoding="utf-8") as fh:
            return basis_from_json(fh.read()), None
    p = _point(args)
    return (a_basis(p), p) if args.family == "A" else (theta_basis(p.theta), None)


def cmd_analyze(args) -> int:
    basis, params = _basis_from_args(args)
    print(report_to_json(analyze(basis, params)))
    return 0


def _labels(values) -> np.ndarray:
    """One formatted string per value, as an object array to gather rows from."""
    return np.array(list(map(_fmt, values)), dtype=object)


def _run_labels(values: np.ndarray) -> list[str]:
    """list(map(_fmt, values.tolist())) of a float column, with each run of
    bit-identical consecutive values formatted once (-0.0 and 0.0 are not
    identical); a column with no runs is formatted per value."""
    bits = values.view(np.int64)
    first = np.empty(len(values), dtype=bool)  # the first value of each run
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if first.all():
        return list(map(_fmt, values.tolist()))
    return _labels(values[first].tolist())[np.cumsum(first) - 1].tolist()


def _scan_blocks(family: str, axes: dict[str, list[float]],
                 columns: tuple[str, ...]) -> Iterator[str]:
    """The scan's CSV rows (alpha-major) in text chunks of BLOCK_SIZE grid
    points: each block's kets are built, decided, labelled and formatted
    before the next is touched, so memory stays flat in grid size.  Both
    families are grids (theta's has one axis) gathered by grid index; only
    the axis labels and family A's per-(alpha, beta) spectra live for the
    whole scan.  Only the selected columns are formatted, and the kernel
    runs only when one of them reads it; other families' columns stay empty.
    A kernel float column is formatted once per run of equal values (c1
    repeats over beta x gamma, c2 and min_pt_01 over gamma)."""
    wanted = set(columns)
    kernel = not wanted.isdisjoint(KERNEL_COLUMNS)
    shape = tuple(map(len, axes.values()))
    labels = {name: _labels(axis) for name, axis in axes.items() if name in wanted}
    if family == "A":
        al, be, ga = axes.values()
        ket_axes, region_ax = family_a_axes(al, be, ga), region_axes(al, be, ga)
        spectra = {f"e{k + 1}_p12": k for k in range(4) if f"e{k + 1}_p12" in wanted}
        if spectra:  # labelled once per (alpha, beta)
            values = np.array([pt_spectrum_p12_closed(a, b) for a in al for b in be])
            spectra = {name: _labels(values[:, k].tolist()) for name, k in spectra.items()}
    else:
        thetas = np.array(axes["theta"])
    n = math.prod(shape)
    for start in range(0, n, BLOCK_SIZE):
        index = grid_indices(shape, start, min(start + BLOCK_SIZE, n))
        size = len(index[0])
        table = dict.fromkeys(columns, [""] * size)
        table["family"] = [family] * size
        for name, i in zip(axes, index):
            if name in labels:
                table[name] = labels[name][i].tolist()
        if family == "A":
            if "region" in wanted:
                table["region"] = REGION_LABELS[region_points(region_ax, *index)].tolist()
            pair = index[0] * len(be) + index[1]
            for name, spectrum_labels in spectra.items():
                table[name] = spectrum_labels[pair].tolist()
        if kernel:
            d = decide(family_a_point_kets(ket_axes, *index) if family == "A"
                       else theta_kets(thetas[index[0]]))
            floats = {**{f"c{k + 1}": d.concurrences[:, k] for k in range(4)},
                      **{f"min_pt_{i}{j}": d.min_pt[:, q] for q, (i, j) in enumerate(PAIRS)}}
            for name in wanted.intersection(floats):
                table[name] = _run_labels(floats[name])
            for name in wanted.intersection(("entangled_count", "min_copies_locc",
                                             "min_copies_sep")):
                table[name] = _COUNT_LABELS[getattr(d, name)].tolist()
        yield "\n".join(map(",".join, zip(*(table[c] for c in columns)))) + "\n"


def cmd_scan(args) -> int:
    columns = tuple(c.strip() for c in args.columns.split(",")) if args.columns else SCAN_COLUMNS
    unknown = [c for c in columns if c not in SCAN_COLUMNS]
    if unknown:
        raise ValueError(f"unknown columns: {', '.join(unknown)}")
    axes = _family_axes(args, lambda text: _parse_range(text, args.degrees))
    blocks = _scan_blocks(args.family, axes, columns)
    head = "# scan.v1 columns: " + ",".join(SCAN_COLUMNS) + "\n" + ",".join(columns) + "\n"
    head += next(blocks)
    # rows are written as they are computed; the file is opened only once
    # the arguments and the first block have passed
    with open(args.output, "w", encoding="utf-8") if args.output else \
            contextlib.nullcontext(sys.stdout) as out:
        out.write(head)
        out.writelines(blocks)
    return 0


def _wilson_ci95(successes: int, runs: int) -> tuple[float, float]:
    z = 1.959963984540054
    phat = successes / runs
    denom = 1.0 + z * z / runs
    center = (phat + z * z / (2 * runs)) / denom
    half = z * math.sqrt(phat * (1 - phat) / runs + z * z / (4 * runs * runs)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _seed(args) -> int:
    """--seed, else NONLOCAL_SEED read at call time, else 0."""
    source, seed = "--seed", args.seed
    if seed is None:
        source, text = "NONLOCAL_SEED", os.environ.get("NONLOCAL_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"NONLOCAL_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be non-negative, got {seed}")
    return seed


def cmd_simulate(args) -> int:
    if args.runs < 1:
        raise ValueError("--runs must be positive")
    seed = _seed(args)
    if args.protocol == "tournament":
        basis, _ = _basis_from_args(args)
        tree = elimination_tournament(basis, copies=3)
    elif args.family == "theta":
        theta = _point(args).theta
        basis, tree = theta_basis(theta), bell_grouping_protocol(theta)
    else:
        raise ValueError("bell-grouping needs --family theta --theta VALUE")
    exact = exact_success_probability(tree, basis)
    states = np.arange(args.runs) % 4  # run r prepares state r % 4
    # and draws with seed (seed + r) mod 2**64: uint64 addition wraps
    seeds = np.arange(args.runs, dtype=np.uint64) + np.uint64(seed % 2**64)
    leaves, _ = sample_runs(tree, basis, states, seeds)
    hits = states[tree.leaves.conclusions[leaves] == states]
    per_state = np.bincount(hits, minlength=4).tolist()
    successes = sum(per_state)
    lo, hi = _wilson_ci95(successes, args.runs)
    doc = {
        "schema": "simulate.v1",
        "protocol": args.protocol,
        "basis_label": basis.label,
        "copies": tree.copies,
        "runs": args.runs,
        "seed": seed,
        "exact_success_probability": exact,
        "empirical_success_rate": successes / args.runs,
        "successes": successes,
        "wilson_ci95": [lo, hi],
        "per_state_success_rate": [
            per_state[i] / len(range(i, args.runs, 4)) if i < args.runs else None for i in range(4)
        ],
    }
    if args.protocol_out:
        with open(args.protocol_out, "w", encoding="utf-8") as fh:
            fh.write(protocol_to_json(tree))
    print(codec.dump(doc))
    return 0


def cmd_encode(args) -> int:
    basis, _ = _basis_from_args(args)
    share = encode_2bit(args.message, basis)
    if share.security_warning:
        print(f"warning: {share.security_warning}", file=sys.stderr)
    print(share_set_to_json(share, basis))
    return 0


def cmd_decode(args) -> int:
    with open(args.shares_file, "r", encoding="utf-8") as fh:
        share, basis = share_set_from_json(fh.read())
    print(decode_result_to_json(share, decode_full_collaboration(share, basis)))
    return 0


def cmd_strong_pair(args) -> int:
    basis, _ = _basis_from_args(args)
    print(strong_pair_to_json(strong_pair_shares(basis, args.i, args.j, args.lam, args.mu)))
    return 0


def _add_family_options(p: argparse.ArgumentParser, *, as_range: bool = False) -> None:
    kind = str if as_range else float
    p.add_argument("--family", choices=("A", "theta"))
    p.add_argument("--alpha", type=kind)
    p.add_argument("--beta", type=kind)
    p.add_argument("--gamma", type=kind)
    p.add_argument("--theta", type=kind)
    p.add_argument("--degrees", action="store_true",
                   help="interpret all angles as degrees")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process and shared by every `main` call; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="qlocc",
        description="Multi-copy adaptive local discrimination of two-qubit bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify one basis, print report.v1 JSON")
    _add_family_options(p)
    p.add_argument("--basis-file", help="basis.v1 JSON file instead of family angles")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="parameter grid scan, print CSV")
    _add_family_options(p, as_range=True)
    p.add_argument("--columns", help="comma-separated subset of the scan columns")
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("simulate", help="run a protocol exactly and by sampling")
    _add_family_options(p)
    p.add_argument("--protocol", required=True, choices=("tournament", "bell-grouping"))
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--seed", type=int, help="default: NONLOCAL_SEED, else 0")
    p.add_argument("--protocol-out", help="also write the protocol.v1 JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("secret-share", help="secret sharing demos")
    actions = p.add_subparsers(dest="action", required=True)

    enc = actions.add_parser("encode", help="encode a 2-bit message into 3 copies")
    _add_family_options(enc)
    enc.add_argument("--basis-file")
    enc.add_argument("--message", type=int, required=True)
    enc.set_defaults(func=cmd_encode)

    dec = actions.add_parser("decode", help="decode a shares.v1 share set")
    dec.add_argument("--shares-file", required=True)
    dec.set_defaults(func=cmd_decode)

    sp = actions.add_parser("strong-pair", help="rank-2 mixture pair with certificates")
    _add_family_options(sp)
    sp.add_argument("--basis-file")
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--mu", type=float, default=0.5)
    sp.set_defaults(func=cmd_strong_pair)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
