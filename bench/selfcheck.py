"""Self-checks of the benchmark itself.

* Determinism: the same seed gives byte-identical generated inputs, and the
  next seed gives different ones.
* Live oracles: for every kind of operation, a correct output is accepted
  and each deliberately corrupted copy of it is rejected.

Every benchmark run applies both checks to the outputs it produced.  To run
them on their own, from the repository root:

    python3 bench/selfcheck.py

which generates each workload's inputs and runs the first operations of
each through the package (from `src/`).
"""

from __future__ import annotations

import csv
import io
import json
import sys

import oracles
import workloads


def check_determinism(workload: str, seed: int) -> list[str]:
    a = workloads.generate(workload, seed).digest()
    b = workloads.generate(workload, seed).digest()
    c = workloads.generate(workload, seed + 1).digest()
    failures = []
    if a != b:
        failures.append(f"{workload}: seed {seed} gave two different input sets")
    if a == c:
        failures.append(f"{workload}: seeds {seed} and {seed + 1} gave the same inputs")
    return failures


def _edit_json(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _edit_scan(text: str, column: str, edit) -> str:
    lines = text.splitlines()
    rows = list(csv.reader(lines[1:]))
    col = rows[0].index(column)
    rows[1][col] = edit(rows[1][col])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return lines[0] + "\n" + out.getvalue()


def _bump(value: str) -> str:
    return repr(float(value) + 1e-3)


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _corruptions(kind: str, text: str) -> dict:
    """Named corrupted copies of a correct output of the given kind."""
    if kind == "scan":
        return {
            "concurrence off by 1e-3": _edit_scan(text, "c3", _bump),
            "min PT eigenvalue off by 1e-3": _edit_scan(text, "min_pt_02", _bump),
            "SEP copies above LOCC copies": _edit_scan(
                _edit_scan(text, "min_copies_locc", lambda v: "1"), "min_copies_sep", lambda v: "2"),
            "entangled_count changed": _edit_scan(
                text, "entangled_count", lambda v: str((int(v) + 1) % 5)),
            "last row dropped": text.rsplit("\n", 2)[0] + "\n",
        }
    if kind == "analyze":
        def cons(doc):
            doc["concurrences"][1] += 1e-3

        def cert(doc):
            doc["certificates"][2]["min_pt_eigenvalue"] += 1e-3

        return {
            "concurrence off by 1e-3": _edit_json(text, cons),
            "min PT eigenvalue off by 1e-3": _edit_json(text, cert),
            "SEP copies above LOCC copies": _edit_json(text, _set("min_copies_sep", 4)),
            "LOCC copies changed": _edit_json(
                text, lambda d: d.update(min_copies_locc=d["min_copies_locc"] % 3 + 1)),
        }
    if kind == "encode":
        return {"message changed": _edit_json(text, lambda d: d.update(message=(d["message"] + 1) % 4))}
    if kind == "decode":
        return {"wrong message": _edit_json(
            text, lambda d: d.update(decoded_message=(d["decoded_message"] + 1) % 4))}
    if kind == "strong_pair":
        def cross(doc):
            doc["certificates"]["cross_trace"] = 1e-6
        return {"cross trace 1e-6": _edit_json(text, cross)}
    if kind == "simulate":
        return {
            "one failed run": _edit_json(text, lambda d: d.update(successes=d["runs"] - 1)),
            "exact success 1 - 1e-6": _edit_json(text, _set("exact_success_probability", 1 - 1e-6)),
        }
    raise ValueError(f"no corruptions for {kind!r}")


def check_oracles(samples: dict) -> list[str]:
    """samples: operation kind -> (op, a correct output of it)."""
    failures = []
    for kind, (op, text) in samples.items():
        if oracles.check(kind, text, op.expect):
            failures.append(f"{kind}: oracle rejects the program's own output")
            continue
        for name, bad in _corruptions(kind, text).items():
            if not oracles.check(kind, bad, op.expect):
                failures.append(f"{kind}: oracle accepts a corrupted output ({name})")
    return failures


def main() -> int:
    import os
    import tempfile
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import qlocc.cli
    from worker import WORK, Client, run_pass

    failures = []
    client = Client(qlocc.cli)
    WORK.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        failures += check_determinism(workload, 7)
        inputs = workloads.generate(workload, 7)
        ops = inputs.ops[:8]
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            os.chdir(tmp)
            for name, text in inputs.files.items():
                Path(name).write_text(text, encoding="utf-8")
            result = run_pass(client, ops, None)
            os.chdir(root)
        samples = {}
        for op, code, text in zip(ops, result.codes, result.outputs):
            if code != 0:
                failures.append(f"{workload}: {' '.join(op.argv)}: {text}")
                continue
            samples.setdefault(op.kind, (op, text))
        failures += check_oracles(samples)
        print(f"{workload}: checked {', '.join(sorted(samples))}")
    for f in failures:
        print("FAIL", f)
    print("self-check", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
