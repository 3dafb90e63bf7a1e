"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces public functions of the package under the names
their calling modules look them up by (``qlocc.cli.analyze``,
``qlocc.classify.separability_certificate``, ``qlocc.protocols.validate_tree``
...) with wrappers that record one span per call: layer name, start, end,
the enclosing span and the request (one `qlocc` command) it belongs to.
`uninstall` puts the original functions back.  Spans stay in memory; the
caller aggregates them per pass and writes them out when the run ends.

A span's self time is its duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (module, attribute, layer).  A function imported into several modules is
# listed once per module that calls it.
TARGETS = (
    ("qlocc.cli", "main", "cli"),
    ("qlocc.cli", "build_parser", "cli.build_parser"),
    ("qlocc.cli", "a_basis", "states.basis_build"),
    ("qlocc.cli", "theta_basis", "states.basis_build"),
    ("qlocc.cli", "basis_from_json", "states.basis_build"),
    ("qlocc.states", "basis_from_json", "states.basis_build"),
    ("qlocc.protocols", "theta_basis", "states.basis_build"),
    ("qlocc.classify", "concurrence", "entanglement.concurrence"),
    ("qlocc.classify", "pair_projector", "entanglement.pair_projector"),
    ("qlocc.secretshare", "pair_projector", "entanglement.pair_projector"),
    ("qlocc.classify", "separability_certificate", "entanglement.certificate"),
    ("qlocc.secretshare", "separability_certificate", "entanglement.certificate"),
    ("qlocc.cli", "pt_spectrum_p12_closed", "entanglement.closed_form"),
    ("qlocc.entanglement", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues"),
    ("qlocc.entanglement", "partial_transpose", "linalg.partial_transpose"),
    ("qlocc.cli", "analyze", "classify.analyze"),
    ("qlocc.cli", "region", "classify.region"),
    ("qlocc.classify", "region", "classify.region"),
    ("qlocc.cli", "report_to_json", "classify.report_json"),
    ("qlocc.secretshare", "min_copies_adaptive_locc", "classify.min_copies_locc"),
    ("qlocc.cli", "elimination_tournament", "protocols.tournament_build"),
    ("qlocc.secretshare", "elimination_tournament", "protocols.tournament_build"),
    ("qlocc.cli", "bell_grouping_protocol", "protocols.bell_grouping_build"),
    ("qlocc.cli", "exact_success_probability", "protocols.exact_eval"),
    ("qlocc.secretshare", "outcome_distribution", "protocols.exact_eval"),
    ("qlocc.cli", "sample_run", "protocols.sample_run"),
    ("qlocc.protocols", "validate_tree", "protocols.validate_tree"),
    ("qlocc.cli", "encode_2bit", "secretshare.encode"),
    ("qlocc.cli", "decode_full_collaboration", "secretshare.decode"),
    ("qlocc.cli", "strong_pair_shares", "secretshare.strong_pair"),
    ("qlocc.cli", "share_set_to_json", "secretshare.codec"),
    ("qlocc.cli", "share_set_from_json", "secretshare.codec"),
    ("qlocc.cli", "strong_pair_to_json", "secretshare.codec"),
)

TREE_BUILDS = ("protocols.tournament_build", "protocols.bell_grouping_build")
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


def tree_leaves(tree) -> int:
    """Leaves reachable in a protocol tree, counted per path, by walking the
    returned object's `root`, `children` and `child` attributes."""
    def walk(node) -> int:
        if hasattr(node, "children"):
            return sum(walk(c) for c in node.children)
        if hasattr(node, "child"):
            return walk(node.child)
        return 1

    return walk(tree.root)


class Tracer:
    """Records spans [layer, start, end, parent, request] in memory, with
    start and end in seconds on `clock`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = 0
        self.trees: list[int] = []  # leaves of every tree built
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, fn, layer: str):
        spans, stack, clock = self.spans, self._stack, self.clock
        trees = self.trees if layer in TREE_BUILDS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if trees is not None:
                trees.append(tree_leaves(result))
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.trees.clear()


def aggregate(spans: list[list], scale_at=None) -> dict[str, dict[str, float]]:
    """Per layer: calls and self seconds.  `scale_at(end_times)`, if given,
    converts each span's self time at its end to reference seconds."""
    out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    if not spans:
        return out
    start = np.array([s[1] for s in spans])
    end = np.array([s[2] for s in spans])
    parent = np.array([s[3] for s in spans])
    own = end - start
    covered = np.zeros(len(spans))
    np.add.at(covered, parent[parent >= 0], own[parent >= 0])
    self_s = own - covered
    if scale_at is not None:
        self_s = self_s * scale_at(end)
    for (layer, *_), value in zip(spans, self_s.tolist()):
        out[layer]["calls"] += 1
        out[layer]["self_s"] += value
    return out


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,layer,start_s,end_s,parent,request\n")
        for n, (layer, start, end, parent, request) in enumerate(spans):
            fh.write(f"{n},{layer},{start:.9f},{end:.9f},{parent},{request}\n")
