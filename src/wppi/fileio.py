"""File formats and atomic report writing.

All ingestion reports malformed content as ``InputError`` carrying the file
and line. Writers stage into a temporary file in the target directory and
rename into place, so an interrupted run never leaves a partial file.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .evaluator import AnnotationSet, ComplexCatalogue
from .expression import ExpressionMatrix
from .model import PpiNetwork, ProteinIndex, WeightedNetwork

WPPI_HEADER = "# wppi v1"
MISSING_ROW_LIMIT = 0.5


class InputError(ValueError):
    """Malformed or unusable input file."""


def _fail(path, line_no: int, message: str):
    raise InputError(f"{path}:{line_no}: {message}")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            yield line_no, line


def _index_pairs(rows) -> tuple[ProteinIndex, np.ndarray, np.ndarray]:
    """Intern the labels of (a, b, ...) rows in order of first appearance.

    Returns the index and the (src, dst) vertex arrays of the rows; both
    network loaders pass through here, so it alone fixes vertex order.
    """
    labels = [label for row in rows for label in row[:2]]
    proteins = ProteinIndex(labels)
    idx = np.fromiter(map(proteins.index_of, labels), dtype=np.int64, count=len(labels))
    return proteins, idx[0::2], idx[1::2]


def load_ppi(path) -> tuple[ProteinIndex, PpiNetwork]:
    """Two-column interaction TSV (extra columns ignored, '#' lines skipped)."""
    rows: list[list[str]] = []
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) < 2 or not cols[0] or not cols[1]:
            _fail(path, line_no, "expected two tab-separated protein labels")
        rows.append(cols)
    if not rows:
        raise InputError(f"{path}: no interactions found")
    proteins, src, dst = _index_pairs(rows)
    return proteins, PpiNetwork(len(proteins), src, dst)


def load_expression(path) -> ExpressionMatrix:
    """GED TSV: header of sample names, one gene per row, empty cell = missing.

    Rows with more than half of their samples missing are dropped and the
    remaining gaps are filled with the row mean.
    """
    rows: list[list[float]] = []
    gene_index: dict[str, int] = {}
    sample_names: list[str] = []
    dropped: list[str] = []
    seen: set[str] = set()
    expected = None
    header_seen = False
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if not header_seen:
            if len(cols) < 2:
                _fail(path, line_no, "header must name at least one sample")
            sample_names = cols[1:]
            expected = len(sample_names)
            header_seen = True
            continue
        if len(cols) - 1 != expected:
            _fail(path, line_no,
                  f"expected {expected} sample values, found {len(cols) - 1}")
        gene = cols[0]
        if not gene:
            _fail(path, line_no, "missing gene label")
        if gene in seen:
            _fail(path, line_no, f"duplicate gene label {gene!r}")
        seen.add(gene)
        values: list[float] = []
        missing = 0
        for c, cell in enumerate(cols[1:], start=1):
            if cell == "":
                values.append(math.nan)
                missing += 1
                continue
            try:
                values.append(float(cell))
            except ValueError:
                _fail(path, line_no, f"column {c + 1}: not a number: {cell!r}")
        if missing > MISSING_ROW_LIMIT * expected:
            dropped.append(gene)
            continue
        gene_index[gene] = len(rows)
        rows.append(values)
    if not header_seen:
        raise InputError(f"{path}: empty expression file")
    if not rows:
        raise InputError(f"{path}: no usable expression rows")
    matrix = np.empty((len(rows), expected), dtype=np.float64)
    for r, values in enumerate(rows):
        row = np.array(values)
        mask = np.isnan(row)
        if mask.any():
            row[mask] = row[~mask].mean()
        matrix[r] = row
    return ExpressionMatrix(gene_index=gene_index, values=matrix,
                            sample_names=sample_names, dropped_genes=dropped)


def load_mapping(path) -> dict[str, str]:
    """Protein-to-gene mapping TSV (protein_id, gene_id)."""
    mapping: dict[str, str] = {}
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) < 2 or not cols[0] or not cols[1]:
            _fail(path, line_no, "expected protein_id and gene_id columns")
        mapping[cols[0]] = cols[1]
    return mapping


def write_wppi(path, proteins: ProteinIndex, network: WeightedNetwork) -> None:
    """Weighted edges, full float precision so files round-trip bit for bit."""
    lines = [WPPI_HEADER]
    for i, j, w in network.edges():
        lines.append(f"{proteins.label_of(i)}\t{proteins.label_of(j)}\t{w!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_wppi(path) -> tuple[ProteinIndex, WeightedNetwork]:
    rows: list[list[str]] = []
    weights: list[float] = []
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) != 3:
            _fail(path, line_no, "expected protein_a, protein_b, weight")
        try:
            weights.append(float(cols[2]))
        except ValueError:
            _fail(path, line_no, f"not a number: {cols[2]!r}")
        rows.append(cols)
    if not rows:
        raise InputError(f"{path}: no weighted edges found")
    proteins, src, dst = _index_pairs(rows)
    return proteins, WeightedNetwork.from_arrays(len(proteins), src, dst, np.array(weights))


def load_catalogue(path) -> ComplexCatalogue:
    """Complex catalogue TSV: name, comma-separated protein labels."""
    entries: list[tuple[str, frozenset[str]]] = []
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) < 2 or not cols[0] or not cols[1]:
            _fail(path, line_no, "expected complex_name and protein list")
        members = frozenset(p for p in cols[1].split(",") if p)
        if len(members) < 2:
            _fail(path, line_no, f"complex {cols[0]!r} needs at least 2 proteins")
        entries.append((cols[0], members))
    try:
        return ComplexCatalogue(entries)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_annotations(path) -> AnnotationSet:
    """Annotation TSV: one (protein_label, term_id) pair per line."""
    terms: dict[str, set[str]] = {}
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) < 2 or not cols[0] or not cols[1]:
            _fail(path, line_no, "expected protein_label and term_id columns")
        terms.setdefault(cols[1], set()).add(cols[0])
    if not terms:
        raise InputError(f"{path}: no annotations found")
    return AnnotationSet({t: frozenset(m) for t, m in terms.items()})


def format_metric(value: float | None) -> str:
    return "NA" if value is None else f"{value:.6f}"


def write_communities(path, rows) -> None:
    """Rows of (community_id, labels, functional_cohesion, modularity)."""
    lines = ["community_id\tproteins\tfunctional_cohesion\tmodularity"]
    for cid, labels, fc, q in rows:
        lines.append(f"{cid}\t{','.join(labels)}\t{format_metric(fc)}\t{format_metric(q)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_communities(path) -> list[tuple[int, list[str], float | None, float | None]]:
    out: list[tuple[int, list[str], float | None, float | None]] = []
    for line_no, line in _data_lines(path):
        cols = line.split("\t")
        if cols[0] == "community_id":
            continue
        if len(cols) != 4:
            _fail(path, line_no, "expected 4 tab-separated columns")
        try:
            cid = int(cols[0])
        except ValueError:
            _fail(path, line_no, f"bad community id: {cols[0]!r}")
        labels = [p for p in cols[1].split(",") if p]
        if not labels:
            _fail(path, line_no, "community with no proteins")
        fc = None if cols[2] == "NA" else float(cols[2])
        q = None if cols[3] == "NA" else float(cols[3])
        out.append((cid, labels, fc, q))
    if not out:
        raise InputError(f"{path}: no communities found")
    return out
