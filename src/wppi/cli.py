"""Command-line entry point: ingestion, orchestration, and report emission.

Exit codes: 0 on success, 1 for computation failures, 2 for usage or input
errors. A flag value that is not a number or breaks its rule prints one line,
``error: <flag>: <rule>, got <value>``, before any input is read or any file
is written; a rule is checked once, by the library module that uses the
value. Every emitted manifest embeds the full effective configuration and a
sha256 of each input file, so a report is reproducible from its inputs.
Manifests are strict JSON (RFC 8259): an infinite number, such as
``--lambda inf``, is written as the string "inf" or "-inf".

The numpy-backed modules are imported by the commands that use them, so
``evaluate`` starts without numpy. ``main`` caps OpenBLAS at one thread
before numpy loads, unless the caller set ``OPENBLAS_NUM_THREADS``, so no
command runs a second OS thread. The process entry, ``run``, exits as soon
as ``main`` has returned and stdout and stderr are flushed: every output
file is closed by then, and the interpreter's teardown would only free
objects, 20-40 ms on a run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, evaluator, fileio

QUANTILE_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)
SWEEP_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


class UsageError(ValueError):
    """Bad flag combination or unusable input, reported with exit code 2."""


def resolve_threads(requested: int | None) -> int:
    """``--threads`` as recorded: the request, or the core count; no command starts a thread."""
    if requested is None:
        return os.cpu_count() or 1
    if requested < 1:
        raise ValueError("thread count must be >= 1")
    return requested


def _flag(flag: str, value, check):
    """``check(value)``, its ``ValueError`` reported as a usage error under ``flag``."""
    try:
        return check(value)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}, got {value!r}") from exc


class _NotANumber(Exception):
    """A typed flag's text that ``int`` or ``float`` rejects."""


def _number(text: str, kind):
    """``kind(text)``; text that is not a ``kind`` raises a ``ValueError`` naming the rule."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError("must be an integer" if kind is int else "must be a number") from None


def _add_number(parser: argparse.ArgumentParser, flag: str, kind, **kwargs) -> None:
    """Add a flag read as ``kind``. argparse reports a ``type``'s ``ValueError`` in its own
    format, usage block included, but lets ``_NotANumber`` through to ``main``."""
    def read(text: str):
        try:
            return _number(text, kind)
        except ValueError as exc:
            raise _NotANumber(f"{flag}: {exc}, got {text!r}") from None
    parser.add_argument(flag, type=read, **kwargs)


def _add_common(parser: argparse.ArgumentParser, *, threads: bool = False,
                report_format: bool = False) -> None:
    parser.add_argument("--output", required=True, help="output directory")
    if threads:
        _add_number(parser, "--threads", int,
                    help="recorded only; every step is serial (default: core count)")
    if report_format:
        parser.add_argument("--format", choices=("tsv", "json"), default="tsv",
                            help="report format")


def _add_build_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ppi", required=True, help="interaction TSV")
    parser.add_argument("--ged", required=True, help="gene expression TSV")
    parser.add_argument("--mapping", help="protein-to-gene mapping TSV")
    _add_number(parser, "--default-weight", float,
                help="fixed weight for unmatched edges (default: mean of matched)")
    parser.add_argument("--zero-as-unmatched", action="store_true",
                        help="give exactly-zero-correlation edges the fallback weight")


def _add_detect_flags(parser: argparse.ArgumentParser) -> None:
    _add_number(parser, "--d-alpha", float,
                help="hub weighted-degree threshold (default: mean degree)")
    _add_number(parser, "--lambda", float, default=2.0,
                help="functional-cohesion threshold (default: 2.0)")


def _add_evaluate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--catalogue", help="known-complex catalogue TSV")
    parser.add_argument("--annotations", help="protein annotation TSV")
    _add_number(parser, "--threshold", float, default=evaluator.DEFAULT_MATCH_THRESHOLD,
                help="overlap-score match threshold")
    parser.add_argument("--annotated-universe", action="store_true",
                        help="enrich over annotated proteins only (population and communities)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wppi",
        description="Weighted protein-interaction networks and community detection.",
    )
    parser.add_argument("--version", action="version", version=f"wppi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-wppi", help="weight a PPI network by gene co-expression")
    _add_build_flags(p)
    _add_common(p, threads=True)

    p = sub.add_parser("detect", help="detect communities in a weighted network")
    p.add_argument("--wppi", required=True, help="weighted network TSV from build-wppi")
    _add_detect_flags(p)
    _add_common(p)

    p = sub.add_parser("evaluate", help="score detected communities")
    p.add_argument("--communities", required=True, help="communities TSV from detect")
    _add_evaluate_flags(p)
    _add_common(p, threads=True, report_format=True)

    p = sub.add_parser("pipeline", help="build, detect, and evaluate in one run")
    _add_build_flags(p)
    _add_detect_flags(p)
    _add_evaluate_flags(p)
    p.add_argument("--no-intermediates", action="store_true",
                   help="skip writing the intermediate weighted network")
    _add_common(p, threads=True, report_format=True)

    p = sub.add_parser("gen-synthetic", help="generate a seeded planted-partition fixture")
    p.add_argument("--blocks", default="10,10", help="comma-separated block sizes")
    p.add_argument("--w-in", default="0.8,1.0", help="within-block weight range lo,hi")
    p.add_argument("--w-out", default="0.0,0.1", help="cross-block weight range lo,hi")
    _add_number(p, "--p-in", float, default=1.0, help="within-block edge probability")
    _add_number(p, "--p-out", float, default=1.0, help="cross-block edge probability")
    _add_number(p, "--samples", int, default=10,
                help="expression samples to synthesize (0 disables)")
    _add_number(p, "--seed", int, default=0)
    _add_common(p)

    return parser


def _inputs(args, *names: str) -> dict:
    """Path and sha256 of each named input file that was given."""
    paths = {name: getattr(args, name) for name in names}
    return {name: {"path": path, "sha256": fileio.sha256_file(path)}
            for name, path in paths.items() if path}


def _manifest(args, inputs: dict, **sections) -> dict:
    """Manifest with every parsed flag as config."""
    return {"tool": "wppi", "version": __version__, "config": vars(args), "inputs": inputs,
            **sections}


def _strict_json(value):
    """``value`` with each infinite float replaced by the string "inf" or "-inf"."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def _write_json(path, payload) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # an infinite number, written as a string; NaN raises again
        text = json.dumps(_strict_json(payload), indent=2, sort_keys=True, allow_nan=False)
    fileio.atomic_write_text(path, text + "\n")


def _weight_quantiles(network) -> dict[str, float]:
    """``np.quantile(w, q)`` for each of QUANTILE_POINTS, to the bit, without its import of
    ``numpy.ma``: the linear rule, (n - 1)·q between order statistics, interpolated
    from the nearer one as numpy's ``_lerp`` does."""
    import numpy as np

    w = np.sort(network.edge_weight)
    last = w.size - 1
    quantiles = {}
    for q in QUANTILE_POINTS:
        at = last * q
        below = math.floor(at)
        if at >= last:
            value = float(w[last])
        else:
            a, b = float(w[below]), float(w[below + 1])
            t = at - below
            value = a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
        quantiles[f"q{int(q * 100)}"] = value
    return quantiles


def _run_build(args):
    from . import builder
    from .expression import quantile_normalize

    _flag("--default-weight", args.default_weight, builder.check_default_weight)
    proteins, ppi = fileio.load_ppi(args.ppi)
    matrix = fileio.load_expression(args.ged)
    matrix = quantile_normalize(matrix)
    mapping = fileio.load_mapping(args.mapping) if args.mapping else None

    started = time.perf_counter()
    result = builder.build_wppi(
        proteins, ppi, matrix, mapping,
        default_weight=args.default_weight,
        zero_as_unmatched=args.zero_as_unmatched,
    )
    elapsed = time.perf_counter() - started
    summary = {
        "vertices": ppi.num_vertices,
        "edges": result.network.edge_count,
        "self_loops_dropped": ppi.self_loops_dropped,
        "duplicates_dropped": ppi.duplicates_dropped,
        "matching_ratio_percent": round(result.matching_ratio_percent, 2),
        "matched_edges": result.matched_edge_count,
        "unmatched_edges": result.unmatched_edge_count,
        "zero_variance_edges": result.zero_variance_edge_count,
        "fallback_weight": result.fallback_weight,
        "weight_quantiles": _weight_quantiles(result.network),
        "build_seconds": round(elapsed, 4),
    }
    return proteins, result.network, summary


def cmd_build_wppi(args) -> int:
    out = Path(args.output)
    proteins, network, summary = _run_build(args)
    fileio.write_wppi(out / "wppi.tsv", proteins, network)
    _write_json(out / "build_manifest.json",
                _manifest(args, _inputs(args, "ppi", "ged", "mapping"), build=summary))
    print(f"vertices: {summary['vertices']}")
    print(f"edges: {summary['edges']}")
    print(f"matching ratio: {summary['matching_ratio_percent']:.2f}%")
    quantiles = " ".join(f"{k}={v:.6f}" for k, v in summary["weight_quantiles"].items())
    print(f"weight quantiles: {quantiles}")
    return 0


def _detect_on(network, proteins, config):
    from . import detector

    started = time.perf_counter()
    try:
        result = detector.detect(network, config)
    except ValueError as exc:
        # Inputs and config are already validated, so this is a detector failure (exit 1).
        raise RuntimeError(f"detect: {exc}") from exc
    elapsed = time.perf_counter() - started
    rows = []
    for report in result.communities:
        labels = [proteins.label_of(v) for v in report.vertices]
        rows.append((report.community_id, labels, report.functional_cohesion,
                     report.modularity))
    summary = {
        "communities": len(result.communities),
        "hub_threshold": result.hub_threshold,
        "hub_count": result.hub_count,
        "stage1_communities": len(result.stage1.partition.communities),
        "stage1_sweeps": result.stage1.sweeps,
        "stage1_hit_cap": result.stage1.hit_cap,
        "stage1_evaluations": result.stage1.evaluations,
        "stage1_moves": result.stage1.moves,
        "stage1_steals": result.stage1.steals,
        "stage2_passes": result.stage2.passes,
        "detect_seconds": round(elapsed, 4),
    }
    return rows, summary


def _hub_config(args):
    """Detector thresholds, each checked by ``HubConfig`` and reported under its flag."""
    from . import detector

    hubs = _flag("--d-alpha", args.d_alpha, lambda v: detector.HubConfig(hub_threshold=v))
    return _flag("--lambda", vars(args)["lambda"],
                 lambda v: detector.HubConfig(hubs.hub_threshold, v))


def cmd_detect(args) -> int:
    config = _hub_config(args)
    out = Path(args.output)
    proteins, network = fileio.load_wppi(args.wppi)
    inputs = _inputs(args, "wppi")
    rows, summary = _detect_on(network, proteins, config)
    fileio.write_communities(out / "communities.tsv", rows)
    _write_json(out / "detect_manifest.json",
                _manifest(args, inputs, detection=summary))
    print(f"communities: {summary['communities']}")
    print(f"stage-1 sweeps: {summary['stage1_sweeps']}, "
          f"stage-2 passes: {summary['stage2_passes']}")
    return 0


def _evaluation_sections(communities, args):
    """Catalogue matching and enrichment tables for loaded communities."""
    member_sets = {cid: set(labels) for cid, labels, _, _ in communities}
    universe: set[str] = set()
    for labels in member_sets.values():
        universe |= labels

    sections: dict = {}
    if args.catalogue:
        catalogue = fileio.load_catalogue(args.catalogue)
        report = evaluator.match_complexes(member_sets, catalogue, args.threshold)
        sweep = []
        for threshold in SWEEP_THRESHOLDS:
            matched = sum(1 for m in report.matches if m.score >= threshold)
            sweep.append({"threshold": threshold, "matched": matched,
                          "total": report.total})
        sections["complex_matching"] = {
            "threshold": report.threshold,
            "matched": report.matched_count,
            "total": report.total,
            "matches": [vars(m) for m in report.matches],
            "threshold_sweep": sweep,
        }
    if args.annotations:
        terms_of, term_sizes = fileio.load_term_index(args.annotations, universe)
        if not terms_of:
            raise UsageError("no annotation covers any protein in the communities")
        population = len(universe)
        if args.annotated_universe:
            # one universe: the population and each community count annotated proteins only
            member_sets = {cid: members & terms_of.keys() for cid, members in member_sets.items()}
            population = len(terms_of)
        records = evaluator.enrich_index(member_sets, terms_of, term_sizes, population)
        sections["enrichment"] = {
            "population": population,
            "annotated_universe": args.annotated_universe,
            "records": [vars(r) for r in records],
        }
    return sections


def _write_evaluation_tsv(out: Path, sections: dict) -> None:
    if "complex_matching" in sections:
        block = sections["complex_matching"]
        lines = ["community_id\tsize\tbest_complex\tcomplex_size\toverlap"
                 "\toverlap_score\trecall_ratio\tmatched"]
        for m in block["matches"]:
            lines.append(
                f"{m['community_id']}\t{m['community_size']}\t{m['complex_name']}"
                f"\t{m['complex_size']}\t{m['overlap']}\t{m['score']:.6f}"
                f"\t{m['recall']:.6f}\t{str(m['matched']).lower()}")
        fileio.atomic_write_text(out / "complex_matches.tsv", "\n".join(lines) + "\n")
        lines = ["threshold\tmatched\ttotal"]
        for row in block["threshold_sweep"]:
            lines.append(f"{row['threshold']:.1f}\t{row['matched']}\t{row['total']}")
        fileio.atomic_write_text(out / "threshold_sweep.tsv", "\n".join(lines) + "\n")
    if "enrichment" in sections:
        block = sections["enrichment"]
        lines = ["community_id\tsize\tterm\tgroup_size\toverlap\tp_value"]
        for r in block["records"]:
            lines.append(f"{r['community_id']}\t{r['community_size']}\t{r['term']}"
                         f"\t{r['group_size']}\t{r['overlap']}\t{r['p_value']:.2E}")
        fileio.atomic_write_text(out / "enrichment.tsv", "\n".join(lines) + "\n")


def cmd_evaluate(args) -> int:
    _flag("--threshold", args.threshold, evaluator.check_match_threshold)  # before any work
    out = Path(args.output)
    if not args.catalogue and not args.annotations:
        raise UsageError("evaluate needs --catalogue and/or --annotations")
    communities = fileio.load_communities(args.communities)
    inputs = _inputs(args, "communities", "catalogue", "annotations")
    sections = _evaluation_sections(communities, args)
    manifest = _manifest(args, inputs, evaluation=sections)
    if args.format == "json":
        _write_json(out / "evaluation.json", manifest)
    else:
        _write_evaluation_tsv(out, sections)
        _write_json(out / "evaluate_manifest.json", manifest)
    if "complex_matching" in sections:
        block = sections["complex_matching"]
        print(f"matched complexes: {block['matched']}/{block['total']} "
              f"at threshold {block['threshold']:.2f}")
    if "enrichment" in sections:
        records = sections["enrichment"]["records"]
        print(f"enriched communities: {len(records)} "
              f"(best p = {records[0]['p_value']:.2E})" if records else
              "enriched communities: 0")
    return 0


def cmd_pipeline(args) -> int:
    config = _hub_config(args)
    _flag("--threshold", args.threshold, evaluator.check_match_threshold)
    out = Path(args.output)
    proteins, network, build_summary = _run_build(args)
    inputs = _inputs(args, "ppi", "ged", "mapping", "catalogue", "annotations")
    if not args.no_intermediates:
        fileio.write_wppi(out / "wppi.tsv", proteins, network)
    rows, detect_summary = _detect_on(network, proteins, config)
    del network  # evaluation never reads it: its neighbour rows are freed here
    fileio.write_communities(out / "communities.tsv", rows)

    sections = None
    if args.catalogue or args.annotations:
        sections = _evaluation_sections(rows, args)
        if args.format == "tsv":
            _write_evaluation_tsv(out, sections)
    report = _manifest(args, inputs, build=build_summary,
                       detection=detect_summary, evaluation=sections)
    name = "pipeline_report.json" if args.format == "json" else "pipeline_manifest.json"
    _write_json(out / name, report)
    print(f"vertices: {build_summary['vertices']}, edges: {build_summary['edges']}, "
          f"communities: {detect_summary['communities']}")
    return 0


def _numbers(text: str, kind=float) -> list:
    """The comma-separated numbers in ``text``; empty items are skipped, so "" gives []."""
    return [_number(x, kind) for x in text.split(",") if x]


def cmd_gen_synthetic(args) -> int:
    from . import synthetic

    out = Path(args.output)
    syn = synthetic.planted_partition(
        _flag("--blocks", args.blocks, lambda t: synthetic.check_block_sizes(_numbers(t, int))),
        w_in=_flag("--w-in", args.w_in, lambda t: synthetic.check_weight_range(_numbers(t))),
        w_out=_flag("--w-out", args.w_out, lambda t: synthetic.check_weight_range(_numbers(t))),
        p_in=_flag("--p-in", args.p_in, synthetic.check_probability),
        p_out=_flag("--p-out", args.p_out, synthetic.check_probability),
        seed=_flag("--seed", args.seed, synthetic.check_seed),
    )
    if not syn.network.edge_count:
        raise UsageError("the drawn network has no edge, so no command could read the fixture")
    if args.samples:  # 0 writes no ged.tsv; the rows are drawn before any file is written
        names, values = _flag("--samples", args.samples,
                              lambda n: synthetic.block_expression(syn, n, seed=args.seed))
    labels = syn.proteins.labels
    ppi_lines = [f"{labels[i]}\t{labels[j]}" for i, j, _ in syn.network.edges()]
    fileio.atomic_write_text(out / "ppi.tsv", "\n".join(ppi_lines) + "\n")
    fileio.write_wppi(out / "wppi.tsv", syn.proteins, syn.network)
    truth_lines = [f"{b}\t{','.join(labels[v] for v in block)}"
                   for b, block in enumerate(syn.blocks)]
    fileio.atomic_write_text(out / "truth.tsv", "\n".join(truth_lines) + "\n")
    if args.samples:
        header = "gene_id\t" + "\t".join(f"S{k + 1}" for k in range(args.samples))
        lines = [header]
        for label, row in zip(names, values):
            lines.append(label + "\t" + "\t".join(f"{x:.6f}" for x in row))
        fileio.atomic_write_text(out / "ged.tsv", "\n".join(lines) + "\n")
    print(f"generated {syn.network.num_vertices} vertices, "
          f"{syn.network.edge_count} edges in {out}")
    return 0


_COMMANDS = {
    "build-wppi": cmd_build_wppi,
    "detect": cmd_detect,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
    "gen-synthetic": cmd_gen_synthetic,
}


def _check_output(output: str) -> None:
    """Reject an ``--output`` at or under an existing non-directory, creating nothing."""
    found = next(path for path in (Path(output), *Path(output).parents) if path.exists())
    if not found.is_dir():
        raise UsageError(f"--output {output}: {found} is not a directory")


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # wppi calls no BLAS routine, yet the workers OpenBLAS starts as numpy loads spin on
        # the cores the serial work needs. A value the caller set wins.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # a typed flag's bad text raises _NotANumber here
        _check_output(args.output)
        if hasattr(args, "threads"):
            args.threads = _flag("--threads", args.threads, resolve_threads)  # recorded only
        return _COMMANDS[args.command](args)
    except (ValueError, _NotANumber, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        # A path that is not a readable file; any other OSError, such as a full disk, exits 1.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Exit with ``main``'s code, skipping the interpreter's teardown. argparse's own exits
    (``--help``, ``--version``, usage errors), Ctrl-C and a flush that fails, such as one to a
    closed pipe, take the normal exit path and report as they always did."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # noqa: BLE001 - teardown retries the flush and reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
