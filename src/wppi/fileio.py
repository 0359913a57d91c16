"""File formats and atomic report writing.

Every loader reads its file through one row reader, ``_rows``, and reports
malformed content as ``InputError`` carrying the file and line. Writers
stage into a temporary file in the target directory and rename into place,
so an interrupted run never leaves a partial file.
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


def _rows(path):
    """(line_no, columns) of each line that is neither empty nor a '#' comment."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line and not line.startswith("#"):
                yield line_no, line.split("\t")


def _pairs(path, message: str):
    """The rows whose first two columns are non-empty; others fail with ``message``."""
    for line_no, cols in _rows(path):
        if len(cols) < 2 or not cols[0] or not cols[1]:
            _fail(path, line_no, message)
        yield line_no, cols


def _parse(path, line_no: int, text: str, message: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        _fail(path, line_no, f"{message}: {text!r}")


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
    rows = [cols for _, cols in _pairs(path, "expected two tab-separated protein labels")]
    if not rows:
        raise InputError(f"{path}: no interactions found")
    proteins, src, dst = _index_pairs(rows)
    return proteins, PpiNetwork(len(proteins), src, dst)


def load_expression(path) -> ExpressionMatrix:
    """GED TSV: header of sample names, one gene per row, empty cell = missing.

    Rows with more than half of their samples missing are dropped, the
    remaining gaps are filled with the row mean; other cells must be finite.
    """
    rows = _rows(path)
    line_no, header = next(rows, (0, None))
    if header is None:
        raise InputError(f"{path}: empty expression file")
    if len(header) < 2:
        _fail(path, line_no, "header must name at least one sample")
    expected = len(header) - 1
    values: list[list[float]] = []
    gene_index: dict[str, int] = {}
    dropped: list[str] = []
    seen: set[str] = set()
    for line_no, cols in rows:
        if len(cols) - 1 != expected:
            _fail(path, line_no,
                  f"expected {expected} sample values, found {len(cols) - 1}")
        gene = cols[0]
        if not gene:
            _fail(path, line_no, "missing gene label")
        if gene in seen:
            _fail(path, line_no, f"duplicate gene label {gene!r}")
        seen.add(gene)
        cells = cols[1:]
        missing = cells.count("")
        row: list[float] = []
        for c, cell in enumerate(cells, start=2):
            try:
                value = float(cell) if cell else math.nan
            except ValueError:
                _fail(path, line_no, f"column {c}: not a number: {cell!r}")
            if cell and not math.isfinite(value):
                _fail(path, line_no, f"column {c}: not a finite number: {cell!r}")
            row.append(value)
        if missing > MISSING_ROW_LIMIT * expected:
            dropped.append(gene)
            continue
        gene_index[gene] = len(values)
        values.append(row)
    if not values:
        raise InputError(f"{path}: no usable expression rows")
    matrix = np.array(values)
    gaps = np.isnan(matrix)
    for r in np.flatnonzero(gaps.any(axis=1)):
        matrix[r, gaps[r]] = matrix[r, ~gaps[r]].mean()
    return ExpressionMatrix(gene_index=gene_index, values=matrix,
                            sample_names=header[1:], dropped_genes=dropped)


def load_mapping(path) -> dict[str, str]:
    """Protein-to-gene mapping TSV (protein_id, gene_id)."""
    return {cols[0]: cols[1]
            for _, cols in _pairs(path, "expected protein_id and gene_id columns")}


def write_wppi(path, proteins: ProteinIndex, network: WeightedNetwork) -> None:
    """Weighted edges, full float precision so files round-trip bit for bit."""
    lines = [WPPI_HEADER]
    for i, j, w in network.edges():
        lines.append(f"{proteins.label_of(i)}\t{proteins.label_of(j)}\t{w!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_wppi(path) -> tuple[ProteinIndex, WeightedNetwork]:
    message = "expected protein_a, protein_b, weight"
    rows: list[list[str]] = []
    weights: list[float] = []
    for line_no, cols in _pairs(path, message):
        if len(cols) != 3:
            _fail(path, line_no, message)
        weight = _parse(path, line_no, cols[2], "not a number")
        if not 0.0 <= weight <= 1.0:
            _fail(path, line_no, f"weight out of range [0, 1]: {cols[2]!r}")
        weights.append(weight)
        rows.append(cols)
    if not rows:
        raise InputError(f"{path}: no weighted edges found")
    proteins, src, dst = _index_pairs(rows)
    return proteins, WeightedNetwork.from_arrays(len(proteins), src, dst, np.array(weights))


def load_catalogue(path) -> ComplexCatalogue:
    """Complex catalogue TSV: name, comma-separated protein labels."""
    entries: list[tuple[str, frozenset[str]]] = []
    for line_no, cols in _pairs(path, "expected complex_name and protein list"):
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
    for _, cols in _pairs(path, "expected protein_label and term_id columns"):
        terms.setdefault(cols[1], set()).add(cols[0])
    if not terms:
        raise InputError(f"{path}: no annotations found")
    return AnnotationSet({t: frozenset(m) for t, m in terms.items()})


def write_communities(path, rows) -> None:
    """Rows of (community_id, labels, functional_cohesion, modularity)."""
    lines = ["community_id\tproteins\tfunctional_cohesion\tmodularity"]
    for cid, labels, *metrics in rows:
        fc, q = ("NA" if value is None else f"{value:.6f}" for value in metrics)
        lines.append(f"{cid}\t{','.join(labels)}\t{fc}\t{q}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_communities(path) -> list[tuple[int, list[str], float | None, float | None]]:
    out: dict[int, tuple[int, list[str], float | None, float | None]] = {}
    for line_no, cols in _rows(path):
        if cols[0] == "community_id":
            continue
        if len(cols) != 4:
            _fail(path, line_no, "expected 4 tab-separated columns")
        cid = _parse(path, line_no, cols[0], "bad community id", int)
        if cid in out:
            _fail(path, line_no, f"duplicate community id {cid}")
        labels = [p for p in cols[1].split(",") if p]
        if not labels:
            _fail(path, line_no, "community with no proteins")
        fc, q = (None if text == "NA"
                 else _parse(path, line_no, text, f"column {c}: not a number")
                 for c, text in enumerate(cols[2:], start=3))
        out[cid] = (cid, labels, fc, q)
    if not out:
        raise InputError(f"{path}: no communities found")
    return list(out.values())
