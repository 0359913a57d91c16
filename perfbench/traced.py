"""In-process traced pass: the layers' public functions, in CLI order, under spans.

Each workload calls the functions that ``wppi.cli.cmd_pipeline``,
``cmd_build_wppi`` or ``cmd_evaluate`` call, in the same order and with
the same arguments, but from this process so a span can wrap each call.
``build_wppi`` and ``stage1_agglomerate`` run once with 1 thread and once
with 2; their results must be identical. Spans are kept in memory and
written out by the caller.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from wppi import builder, detector, evaluator, expression, fileio

import gen

THREADS = 2
MATCH_THRESHOLD = 0.10


class Tracer:
    """Spans (name, parent, start, end) and counts for one traced pass."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        start = time.perf_counter()
        self._open.append(name)
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append({"trace": self.trace_id, "name": name, "parent": parent,
                               "start": start - self.origin,
                               "end": time.perf_counter() - self.origin})

    def seconds(self, name: str) -> float:
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)


class ThreadsMismatch(AssertionError):
    """A layer gave different results for 1 and 2 threads."""


def _build(tr: Tracer, files: dict[str, Path], out: Path):
    with tr.span("fileio.load_ppi"):
        proteins, ppi = fileio.load_ppi(files["ppi"])
    with tr.span("fileio.load_expression"):
        matrix = fileio.load_expression(files["ged"])
    tr.counts["expression.tie_frac"] = gen.tie_frac(matrix.values)
    with tr.span("expression.quantile_normalize"):
        matrix = expression.quantile_normalize(matrix)
    built = {}
    for threads in (1, THREADS):
        with tr.span(f"builder.build_wppi.t{threads}"):
            built[threads] = builder.build_wppi(proteins, ppi, matrix, threads=threads)
    one, two = built[1], built[THREADS]
    if not (np.array_equal(one.network.edge_src, two.network.edge_src)
            and np.array_equal(one.network.edge_dst, two.network.edge_dst)
            and one.network.edge_weight.tobytes() == two.network.edge_weight.tobytes()
            and one.fallback_weight == two.fallback_weight):
        raise ThreadsMismatch("build_wppi differs between 1 and 2 threads")
    tr.counts["builder.matched_edges"] = two.matched_edge_count
    tr.counts["builder.unmatched_edges"] = two.unmatched_edge_count
    with tr.span("fileio.write_wppi"):
        fileio.write_wppi(out / "wppi.tsv", proteins, two.network)
    return proteins, two.network


def _detect(tr: Tracer, proteins, network) -> dict[int, set[str]]:
    """Detection as ``detector.detect`` runs it; raises where it raises."""
    config = detector.HubConfig()
    with tr.span("detector.select_hubs"):
        seeds = detector.select_hubs(network, config)
    tr.counts["detector.hubs"] = len(seeds.communities)
    stage1 = {}
    for threads in (1, THREADS):
        with tr.span(f"detector.stage1.t{threads}"):
            stage1[threads] = detector.stage1_agglomerate(network, seeds, config, threads=threads)
    one, two = stage1[1], stage1[THREADS]
    if one.partition.assignment != two.partition.assignment or one.sweeps != two.sweeps:
        raise ThreadsMismatch("stage1_agglomerate differs between 1 and 2 threads")
    tr.counts["detector.stage1_sweeps"] = two.sweeps
    tr.counts["detector.stage1_communities"] = len(two.partition.communities)
    with tr.span("detector.compress"):
        compressed = detector.compress(network, two.partition)
    with tr.span("detector.stage2"):
        stage2 = detector.stage2_refine(compressed, config)
    tr.counts["detector.stage2_passes"] = stage2.passes
    tr.counts["detector.stage2_hit_cap"] = int(stage2.hit_cap)
    tr.counts["detector.stage2_groups"] = len(stage2.groups)
    with tr.span("detector.report"):
        expanded = []
        for supers in stage2.groups.values():
            if len(supers) >= 2:
                detector.functional_cohesion(compressed, supers)
            expanded.append(sorted(v for sv in supers for v in compressed.members[sv]))
        expanded.sort(key=lambda vertices: vertices[0])
    return {cid: {proteins.label_of(v) for v in vertices}
            for cid, vertices in enumerate(expanded)}


def _evaluate(tr: Tracer, member_sets: dict[int, set[str]], files: dict[str, Path]) -> None:
    """Matching and enrichment as ``cli._evaluation_sections`` runs them."""
    universe = set().union(*member_sets.values())
    with tr.span("fileio.load_catalogue"):
        catalogue = fileio.load_catalogue(files["catalogue"])
    with tr.span("evaluator.match_complexes"):
        evaluator.match_complexes(member_sets, catalogue, MATCH_THRESHOLD)
    with tr.span("fileio.load_annotations"):
        annotations = fileio.load_annotations(files["annotations"])
    with tr.span("cli.trim_annotations"):
        trimmed = {term: frozenset(members & universe)
                   for term, members in annotations.terms.items() if members & universe}
        annotations = evaluator.AnnotationSet(trimmed)
    with tr.span("evaluator.enrich"):
        evaluator.enrich(member_sets, annotations, len(universe))
    # Communities partition the universe, so a term overlaps as many
    # communities as its members have distinct homes.
    home = {p: cid for cid, members in member_sets.items() for p in members}
    useful = sum(len({home[p] for p in members}) for members in trimmed.values())
    tr.counts["evaluator.pairs_overlapping_frac"] = useful / (len(member_sets) * len(trimmed))


def traced_pass(workload: str, files: dict[str, Path], out: Path, tr: Tracer) -> None:
    """Run one workload's layers under ``tr``; exceptions propagate as the CLI's would."""
    proteins, network = _build(tr, files, out)
    if workload == "pipeline-planted":
        _evaluate(tr, _detect(tr, proteins, network), files)
        return
    with tr.span("fileio.load_communities"):
        rows = fileio.load_communities(files["communities"])
    _evaluate(tr, {cid: set(labels) for cid, labels, _, _ in rows}, files)


# Spans reported as per-layer times, as "<span>_s".
TIMED_SPANS = (
    "fileio.load_ppi", "fileio.load_expression", "fileio.write_wppi", "fileio.load_annotations",
    "expression.quantile_normalize", "builder.build_wppi.t1", "builder.build_wppi.t2",
    "detector.select_hubs", "detector.stage1.t1", "detector.stage1.t2", "detector.compress",
    "detector.stage2", "evaluator.match_complexes", "evaluator.enrich",
)
COUNT_METRICS = {
    "expression.tie_frac": "frac",
    "builder.matched_edges": "count",
    "builder.unmatched_edges": "count",
    "detector.hubs": "count",
    "detector.stage1_sweeps": "count",
    "detector.stage1_communities": "count",
    "detector.stage2_passes": "count",
    "detector.stage2_hit_cap": "bool",
    "detector.stage2_groups": "count",
    "evaluator.pairs_overlapping_frac": "frac",
}
# Spans of the 1-thread reruns, which the CLI (run with --threads 2) never makes.
EXTRA_SPANS = ("builder.build_wppi.t1", "detector.stage1.t1")


def layer_metrics(tr: Tracer) -> dict[str, dict]:
    """Every per-layer metric; layers the workload never reached read 0."""
    metrics = {f"{span}_s": {"value": tr.seconds(span), "unit": "s"} for span in TIMED_SPANS}
    for name, unit in COUNT_METRICS.items():
        metrics[name] = {"value": tr.counts.get(name, 0), "unit": unit}
    return metrics


def cli_path_seconds(tr: Tracer) -> float:
    """Traced wall time of the calls the CLI makes (top-level spans, 1-thread reruns excluded)."""
    return sum(s["end"] - s["start"] for s in tr.spans
               if s["parent"] is None and s["name"] not in EXTRA_SPANS)
