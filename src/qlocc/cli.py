"""Command-line front end: analyze, scan, simulate, secret-share.

Angles are radians unless --degrees is given.  Floats print with 12
significant digits so repeated runs are byte-identical.  Exit codes:
0 success, 2 usage or validation failure, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import codec
from .classify import (
    DegenerateFamilyError,
    FamilyParams,
    analyze,
    region,
    report_to_json,
)
from .entanglement import pt_spectrum_p12_closed
from .protocols import (
    bell_grouping_protocol,
    elimination_tournament,
    exact_success_probability,
    protocol_to_json,
    sample_run,
)
from .secretshare import (
    decode_full_collaboration,
    encode_2bit,
    share_set_from_json,
    share_set_to_json,
    strong_pair_shares,
    strong_pair_to_json,
)
from .states import OrthonormalBasis, a_basis, basis_from_json, theta_basis

SCAN_COLUMNS = (
    "family", "theta", "alpha", "beta", "gamma",
    "c1", "c2", "c3", "c4", "entangled_count", "region",
    "e1_p12", "e2_p12", "e3_p12", "e4_p12",
    "min_pt_01", "min_pt_02", "min_pt_03", "min_pt_12", "min_pt_13", "min_pt_23",
    "min_copies_locc", "min_copies_sep",
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else float(value)


def _parse_range(text: str, degrees: bool) -> list[float]:
    """Either a fixed angle ('0.3') or 'min:max:steps' with steps >= 2."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be min:max:steps, got {text!r}")
        lo, hi = _angle(float(parts[0]), degrees), _angle(float(parts[1]), degrees)
        steps = int(parts[2])
        if steps < 2:
            raise ValueError("a range needs steps >= 2")
        if not (0.0 <= lo <= hi <= math.pi / 2 + 1e-12):
            raise ValueError("range must lie inside [0, pi/2]")
        return [float(v) for v in np.linspace(lo, hi, steps)]
    v = _angle(float(text), degrees)
    if not (0.0 <= v <= math.pi / 2 + 1e-12):
        raise ValueError(f"angle {v} outside [0, pi/2]")
    return [v]


def _basis_from_args(args) -> tuple[OrthonormalBasis, FamilyParams | None]:
    if getattr(args, "basis_file", None):
        with open(args.basis_file, "r", encoding="utf-8") as fh:
            return basis_from_json(fh.read()), None
    if args.family == "A":
        if args.alpha is None or args.beta is None or args.gamma is None:
            raise ValueError("family A needs --alpha, --beta and --gamma")
        p = FamilyParams(
            alpha=_angle(args.alpha, args.degrees),
            beta=_angle(args.beta, args.degrees),
            gamma=_angle(args.gamma, args.degrees),
        )
        return a_basis(p), p
    if args.family == "theta":
        if args.theta is None:
            raise ValueError("family theta needs --theta")
        return theta_basis(_angle(args.theta, args.degrees)), None
    raise ValueError("specify --family {A,theta} or --basis-file")


def cmd_analyze(args) -> int:
    basis, params = _basis_from_args(args)
    print(report_to_json(analyze(basis, params)))
    return 0


def _scan_row(family: str, p: FamilyParams) -> dict[str, str]:
    """One CSV row; columns that do not apply to the family stay empty."""
    row = dict.fromkeys(SCAN_COLUMNS, "")
    row["family"] = family
    if family == "A":
        rep = analyze(a_basis(p))
        try:
            reg = region(p)
            row["region"] = reg.name if reg.which is None else f"{reg.name}:{reg.which}"
        except DegenerateFamilyError:
            row["region"] = "degenerate"
        row.update(alpha=_fmt(p.alpha), beta=_fmt(p.beta), gamma=_fmt(p.gamma))
        for k, e in enumerate(pt_spectrum_p12_closed(p.alpha, p.beta)):
            row[f"e{k + 1}_p12"] = _fmt(float(e))
    else:
        rep = analyze(theta_basis(p.theta))
        row["theta"] = _fmt(p.theta)
    for k, c in enumerate(rep.concurrences):
        row[f"c{k + 1}"] = _fmt(c)
    for (i, j), cert in rep.certificates:
        row[f"min_pt_{i}{j}"] = _fmt(cert.min_pt_eigenvalue)
    row.update(entangled_count=str(rep.entangled_count),
               min_copies_locc=str(rep.min_copies_locc), min_copies_sep=str(rep.min_copies_sep))
    return row


def cmd_scan(args) -> int:
    if args.columns:
        columns = tuple(c.strip() for c in args.columns.split(","))
        unknown = [c for c in columns if c not in SCAN_COLUMNS]
        if unknown:
            raise ValueError(f"unknown columns: {', '.join(unknown)}")
    else:
        columns = SCAN_COLUMNS
    rows = []
    if args.family == "A":
        if args.alpha is None or args.beta is None or args.gamma is None:
            raise ValueError("family A scans need --alpha, --beta and --gamma")
        for al in _parse_range(args.alpha, args.degrees):
            for be in _parse_range(args.beta, args.degrees):
                for ga in _parse_range(args.gamma, args.degrees):
                    rows.append(_scan_row("A", FamilyParams(alpha=al, beta=be, gamma=ga)))
    elif args.family == "theta":
        if args.theta is None:
            raise ValueError("family theta scans need --theta")
        for th in _parse_range(args.theta, args.degrees):
            rows.append(_scan_row("theta", FamilyParams(theta=th)))
    else:
        raise ValueError("scan needs --family {A,theta}")
    lines = [
        "# scan.v1 columns: " + ",".join(SCAN_COLUMNS),
        ",".join(columns),
    ]
    lines += [",".join(row[c] for c in columns) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _wilson_ci95(successes: int, runs: int) -> tuple[float, float]:
    z = 1.959963984540054
    phat = successes / runs
    denom = 1.0 + z * z / runs
    center = (phat + z * z / (2 * runs)) / denom
    half = z * math.sqrt(phat * (1 - phat) / runs + z * z / (4 * runs * runs)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def cmd_simulate(args) -> int:
    if args.runs < 1:
        raise ValueError("--runs must be positive")
    if args.protocol == "tournament":
        basis, _ = _basis_from_args(args)
        tree = elimination_tournament(basis, copies=3)
    elif args.protocol == "bell-grouping":
        if args.family != "theta" or args.theta is None:
            raise ValueError("bell-grouping needs --family theta --theta VALUE")
        theta = _angle(args.theta, args.degrees)
        basis = theta_basis(theta)
        tree = bell_grouping_protocol(theta)
    else:
        raise ValueError(f"unknown protocol {args.protocol!r}")
    exact = exact_success_probability(tree, basis)
    successes = 0
    per_state = [0, 0, 0, 0]
    runs_per_state = [0, 0, 0, 0]
    for r in range(args.runs):
        true_index = r % 4
        out = sample_run(tree, basis, true_index, seed=args.seed + r)
        runs_per_state[true_index] += 1
        if out.guessed_index == true_index:
            successes += 1
            per_state[true_index] += 1
    lo, hi = _wilson_ci95(successes, args.runs)
    doc = {
        "schema": "simulate.v1",
        "protocol": args.protocol,
        "basis_label": basis.label,
        "copies": tree.copies,
        "runs": args.runs,
        "seed": args.seed,
        "exact_success_probability": exact,
        "empirical_success_rate": successes / args.runs,
        "successes": successes,
        "wilson_ci95": [lo, hi],
        "per_state_success_rate": [
            (per_state[i] / runs_per_state[i]) if runs_per_state[i] else None
            for i in range(4)
        ],
    }
    if args.protocol_out:
        with open(args.protocol_out, "w", encoding="utf-8") as fh:
            fh.write(protocol_to_json(tree))
    print(codec.dump(doc))
    return 0


def cmd_secret_share(args) -> int:
    if args.action == "encode":
        basis, _ = _basis_from_args(args)
        share = encode_2bit(args.message, basis)
        print(share_set_to_json(share, basis))
        return 0
    if args.action == "decode":
        with open(args.shares_file, "r", encoding="utf-8") as fh:
            share, basis = share_set_from_json(fh.read())
        decoded = decode_full_collaboration(share, basis)
        print(codec.dump({
            "schema": "shares.v1",
            "kind": "decode_result",
            "decoded_message": decoded,
            "matches_encoded": decoded == share.message,
        }))
        return 0
    if args.action == "strong-pair":
        basis, _ = _basis_from_args(args)
        result = strong_pair_shares(basis, args.i, args.j, args.lam, args.mu)
        print(strong_pair_to_json(result))
        return 0
    raise ValueError(f"unknown secret-share action {args.action!r}")


def _add_family_options(p: argparse.ArgumentParser, *, as_range: bool = False) -> None:
    kind = str if as_range else float
    p.add_argument("--family", choices=("A", "theta"))
    p.add_argument("--alpha", type=kind)
    p.add_argument("--beta", type=kind)
    p.add_argument("--gamma", type=kind)
    p.add_argument("--theta", type=kind)
    p.add_argument("--degrees", action="store_true",
                   help="interpret all angles as degrees")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get("NONLOCAL_SEED", "0")))
    p.add_argument("--protocol-out", help="also write the protocol.v1 JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("secret-share", help="secret sharing demos")
    actions = p.add_subparsers(dest="action", required=True)

    enc = actions.add_parser("encode", help="encode a 2-bit message into 3 copies")
    _add_family_options(enc)
    enc.add_argument("--basis-file")
    enc.add_argument("--message", type=int, required=True)
    enc.set_defaults(func=cmd_secret_share, action="encode")

    dec = actions.add_parser("decode", help="decode a shares.v1 share set")
    dec.add_argument("--shares-file", required=True)
    dec.set_defaults(func=cmd_secret_share, action="decode")

    sp = actions.add_parser("strong-pair", help="rank-2 mixture pair with certificates")
    _add_family_options(sp)
    sp.add_argument("--basis-file")
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--mu", type=float, default=0.5)
    sp.set_defaults(func=cmd_secret_share, action="strong-pair")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
