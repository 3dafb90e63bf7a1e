"""One benchmark process: set up, run one workload for a fixed time, check
every output, and print a JSON summary as the last line of stdout.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set up and stop), `measure` (untraced passes) or `trace`
(alternating untraced and traced passes).  `bench/run.py` starts this script
in a fresh single-threaded process; it is not meant to be run by hand.

The workload drives `qlocc.cli.main` in-process as a closed loop of one
client: the next command starts when the previous one has returned.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time starts before numpy and the package load

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = BENCH / "_out"


@dataclass
class PassResult:
    items: int = 0
    intervals: list = field(default_factory=list)  # (start, end) of each call
    outputs: list = field(default_factory=list)  # None: same as the first pass
    codes: list = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.intervals]


class Client:
    """Runs one `qlocc` command line through `qlocc.cli.main`, capturing its
    exit code, start and end on `clock`, and standard streams.  `main` is
    looked up on the module at every call, so an installed tracer sees it."""

    def __init__(self, cli_module, clock=time.perf_counter):
        self.cli = cli_module
        self.clock = clock

    def call(self, argv) -> tuple[int, float, float, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = self.clock()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not a crashed benchmark
                traceback.print_exc()
                code = -1
            end = self.clock()
        return code, start, end, out.getvalue(), err.getvalue()


def run_pass(client: Client, ops, first: PassResult | None, tracer=None) -> PassResult:
    """Run every operation once.  An output equal to the first pass's is kept
    as None, so memory does not grow with the number of passes."""
    res = PassResult()
    for k, op in enumerate(ops):
        if op.output_file:
            Path(op.output_file).unlink(missing_ok=True)
        if tracer is not None:
            tracer.request += 1
        code, start, end, out, err = client.call(op.argv)
        if op.output_file:
            path = Path(op.output_file)
            text = path.read_text(encoding="utf-8") if path.exists() else ""
        else:
            text = out
        if op.stdout_to:
            Path(op.stdout_to).write_text(out, encoding="utf-8")
        res.items += op.items
        res.intervals.append((start, end))
        if code != 0:
            text = f"exit {code}: {err[-500:]}"
        elif first is not None and text == first.outputs[k]:
            text = None
        res.outputs.append(text)
        res.codes.append(code)
    return res


def verify(ops, passes: list[PassResult], oracles) -> tuple[int, int, list[str]]:
    """Check every output of every pass; an output identical to an earlier
    output of the same operation shares its verdict.  passes[0] is the
    first pass.  Returns (attempted, failed, first problems)."""
    verdicts = {}
    problems: list[str] = []

    def verdict(k: int, text: str) -> list[str]:
        key = (k, text)
        if key not in verdicts:
            verdicts[key] = oracles.check(ops[k].kind, text, ops[k].expect)
        return verdicts[key]

    attempted = failed = 0
    for p in passes:
        for k, (code, text) in enumerate(zip(p.codes, p.outputs)):
            attempted += 1
            if text is None:
                text = passes[0].outputs[k]
            bad = [text[:200]] if code != 0 else verdict(k, text)
            if bad:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"op {k} ({' '.join(ops[k].argv[:3])}): {'; '.join(bad)}")
    return attempted, failed, problems


def per_layer_metrics(traced: list[dict], trees: list[list[int]], overhead: float) -> dict:
    """Per-pass layer metrics: counts from the first traced pass (they repeat
    exactly), self seconds as the median over traced passes."""
    first = traced[0]

    def calls(layer: str) -> int:
        return first[layer]["calls"]

    def self_s(layer: str) -> float:
        return statistics.median(t[layer]["self_s"] for t in traced)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    m = {}
    for layer, kinds in (
        ("cli", "cs"), ("cli.build_parser", "cs"),
        ("states.basis_build", "cs"),
        ("entanglement.certificate", "cs"), ("entanglement.pair_projector", "s"),
        ("entanglement.concurrence", "cs"), ("entanglement.closed_form", "s"),
        ("linalg.hermitian_eigenvalues", "cs"), ("linalg.partial_transpose", "s"),
        ("classify.analyze", "cs"), ("classify.region", "s"),
        ("classify.report_json", "s"), ("classify.min_copies_locc", "c"),
        ("protocols.sample_run", "cs"), ("protocols.validate_tree", "cs"),
        ("protocols.tournament_build", "s"), ("protocols.bell_grouping_build", "s"),
        ("protocols.exact_eval", "cs"),
        ("secretshare.encode", "s"), ("secretshare.decode", "s"),
        ("secretshare.strong_pair", "s"), ("secretshare.codec", "s"),
    ):
        if "c" in kinds:
            m[f"{layer}.calls"] = (calls(layer), "count")
        if "s" in kinds:
            m[f"{layer}.self_s"] = (self_s(layer), "s")
    bases = calls("states.basis_build")
    m["cli.build_parser.per_request"] = (ratio(calls("cli.build_parser"), calls("cli")), "ratio")
    m["entanglement.certificate.per_basis"] = (ratio(calls("entanglement.certificate"), bases), "ratio")
    m["entanglement.concurrence.per_basis"] = (ratio(calls("entanglement.concurrence"), bases), "ratio")
    m["protocols.validate_tree.per_run"] = (
        ratio(calls("protocols.validate_tree"), calls("protocols.sample_run")), "ratio")
    m["protocols.tree_leaves"] = (ratio(sum(trees[0]), len(trees[0])), "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def environment() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "qlocc" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'qlocc'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qlocc
    import qlocc.cli

    if Path(qlocc.__file__).resolve().parent != (SRC / "qlocc").resolve():
        print(f"error: imported qlocc from {qlocc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import calibrate
    import oracles
    import selfcheck
    import workloads

    cal = calibrate.Calibrator()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        cal.start()
        inputs = workloads.generate(args.workload, args.seed)
        # writing the input files times the machine's disk, not the program,
        # and varied tenfold between runs: it is left out of set-up time
        write_start = cal.clock()
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in inputs.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        write_s = cal.clock() - write_start
        os.chdir(workdir)
        client = Client(qlocc.cli, cal.clock)
        code, _, setup_end, _, err = client.call(inputs.warmup.argv)
        if code != 0:
            print(f"error: warm-up call failed with exit {code}: {err}", file=sys.stderr)
            return 1
        setup_s = setup_end - T0 - write_s
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, inputs, client, cal, setup_s, oracles, selfcheck)
    finally:
        cal.stop()
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, inputs, client, cal, setup_s, oracles, selfcheck) -> int:
    ops = inputs.ops
    deadline = time.perf_counter() + args.seconds
    untraced: list[PassResult] = []
    traced_passes: list[PassResult] = []
    layer_stats: list[dict] = []
    trees: list[list[int]] = []
    spans = None
    if args.mode == "trace":
        from tracing import Tracer, aggregate, write_spans

        tracer = Tracer(cal.clock)
    while True:
        untraced.append(run_pass(client, ops, untraced[0] if untraced else None))
        if args.mode == "trace":
            tracer.install()
            try:
                traced_passes.append(run_pass(client, ops, untraced[0], tracer))
            finally:
                tracer.uninstall()
            layer_stats.append(aggregate(tracer.spans, cal.scale_at))
            trees.append(list(tracer.trees))
            if spans is None:
                spans = list(tracer.spans)
            tracer.reset()
        if time.perf_counter() >= deadline:
            break
    cal.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = untraced + traced_passes
    attempted, failed, problems = verify(ops, passes, oracles)
    samples = {op.kind: (op, text) for op, text, code
               in zip(ops, passes[0].outputs, passes[0].codes) if code == 0}
    check_failures = selfcheck.check_oracles(samples) + selfcheck.check_determinism(
        args.workload, args.seed)

    result = {
        "peak_rss_mb": peak_rss_mb,
        "passes": len(untraced),
        "items_per_pass": untraced[0].items,
        "item_name": inputs.item_name,
        "latencies_ms": [[x * 1e3 for x in p.latencies] for p in untraced],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "selfcheck_failures": check_failures,
        "env": environment(),
    }

    def reference_ms(p: PassResult) -> list[float]:
        return [cal.reference_seconds(a, b) * 1e3 for a, b in p.intervals]

    if args.mode == "trace":
        overhead = (statistics.median(sum(reference_ms(p)) for p in traced_passes)
                    / statistics.median(sum(reference_ms(p)) for p in untraced) - 1.0)
        result["per_layer"] = per_layer_metrics(layer_stats, trees, overhead)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}.csv"
        write_spans(span_file, spans)
        result["span_file"] = str(span_file.relative_to(ROOT))
        result["traced_passes"] = len(traced_passes)
    else:
        result["setup_s"] = setup_s
        result["reference_ms"] = [reference_ms(p) for p in untraced]
        result["calibration"] = {"samples": len(cal.samples),
                                 "median_scale": cal.median_scale()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
