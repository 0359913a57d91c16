"""File formats and atomic report writing.

Every loader reads its file in one ``read`` through ``_lines`` and reports
malformed content as ``InputError`` carrying the file and line. Expression
cells go to numpy's parser in one call; where it could differ from float()
or cannot name the bad line, the rows are read and checked one by one. Writers
stage into a temporary file in the target directory and rename into place,
so an interrupted run never leaves a partial file.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import tempfile
from functools import partial
from itertools import compress
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


def _lines(path):
    """(line_no, line) of each line that is neither empty nor a '#' comment."""
    # Text mode turns '\r\n' and '\r' into '\n'; str.splitlines would also split inside cells.
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    return ((n, line) for n, line in enumerate(lines, start=1) if line and line[0] != "#")


def _pairs(path, message: str):
    """Rows split at their first two tabs; one without two labels fails with ``message``."""
    for line_no, line in _lines(path):
        cols = line.split("\t", 2)
        if len(cols) < 2 or not cols[0] or not cols[1]:
            _fail(path, line_no, message)
        yield line_no, cols


def _parse(path, line_no: int, text: str, message: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        _fail(path, line_no, f"{message}: {text!r}")


def _index_pairs(labels: list[str]) -> tuple[ProteinIndex, np.ndarray, np.ndarray]:
    """Intern the labels a0, b0, a1, b1, ... in order of first appearance.

    Returns the index and the (src, dst) vertex arrays of the pairs; both
    network loaders pass through here, so it alone fixes vertex order.
    """
    proteins = ProteinIndex(labels)
    idx = np.fromiter(map(proteins.index_of, labels), dtype=np.int64, count=len(labels))
    return proteins, idx[0::2], idx[1::2]


def load_ppi(path) -> tuple[ProteinIndex, PpiNetwork]:
    """Two-column interaction TSV (extra columns ignored, '#' lines skipped)."""
    labels = [label for _, cols in _pairs(path, "expected two tab-separated protein labels")
              for label in cols[:2]]
    if not labels:
        raise InputError(f"{path}: no interactions found")
    proteins, src, dst = _index_pairs(labels)
    return proteins, PpiNetwork(len(proteins), src, dst)


def load_expression(path) -> ExpressionMatrix:
    """GED TSV: header of distinct sample names, one gene per row, empty cell = missing.

    Rows with more than half of their samples missing are dropped, the
    remaining gaps are filled with the row mean; other cells must be finite.
    """
    rows = list(_lines(path))
    if not rows:
        raise InputError(f"{path}: empty expression file")
    line_no, names = rows[0][0], rows[0][1].split("\t")[1:]
    if not names:
        _fail(path, line_no, "header must name at least one sample")
    if "" in names or len(set(names)) < len(names):
        name = next(name for c, name in enumerate(names) if not name or name in names[:c])
        _fail(path, line_no, f"empty or repeated sample name {name!r}")
    if len(rows) < 2:
        raise InputError(f"{path}: no usable expression rows")
    genes, matrix = _bulk_values(rows[1:], len(names)) or _row_values(path, rows[1:], len(names))
    gaps = np.isnan(matrix)
    keep = np.count_nonzero(gaps, axis=1) <= MISSING_ROW_LIMIT * len(names)
    if not keep.any():
        raise InputError(f"{path}: no usable expression rows")
    if not keep.all():
        matrix, gaps = matrix[keep], gaps[keep]
    for r in np.flatnonzero(gaps.any(axis=1)):
        matrix[r, gaps[r]] = matrix[r, ~gaps[r]].mean()
    return ExpressionMatrix(gene_index={g: i for i, g in enumerate(compress(genes, keep))},
                            values=matrix, sample_names=names,
                            dropped_genes=list(compress(genes, ~keep)))


# float() rejects a cell holding any of these or reads it as non-finite (the
# 'n' of nan and inf); numpy may read '\x1c'-'\x1f' as spaces, and 'x' as hex.
_NOT_FLOAT_TEXT = "nNxX\x1c\x1d\x1e\x1f"
_EMPTY_CELL = re.compile(r"(?<![^\t\n])(?![^\t\n])")
_parse_floats = partial(np.loadtxt, delimiter="\t", comments=None, dtype=np.float64, ndmin=2)


def _bulk_values(rows, expected: int):
    """Gene labels and cells (NaN where empty) by numpy's parser; None where it cannot tell."""
    genes, _, cells = zip(*(line.partition("\t") for _, line in rows))
    text = "\n".join(cells)
    if ("" in genes or "" in cells or len(set(genes)) < len(genes)
            or any(c in text for c in _NOT_FLOAT_TEXT)):
        return None
    try:
        values = _parse_floats(cells)
    except ValueError:  # empty cells, perhaps: parse again with 'nan' written into them
        try:
            values = _parse_floats(_EMPTY_CELL.sub("nan", text).split("\n"))
        except ValueError:
            return None
    if values.shape != (len(genes), expected) or np.isinf(values).any():
        return None
    return genes, values


def _row_values(path, rows, expected: int):
    """Gene labels and cells (NaN where empty), read and checked row by row."""
    genes: dict[str, None] = {}  # in order of appearance
    values: list[list[float]] = []
    for line_no, line in rows:
        cols = line.split("\t")
        if len(cols) - 1 != expected:
            _fail(path, line_no, f"expected {expected} sample values, found {len(cols) - 1}")
        gene = cols[0]
        if not gene:
            _fail(path, line_no, "missing gene label")
        if gene in genes:
            _fail(path, line_no, f"duplicate gene label {gene!r}")
        genes[gene] = None
        row: list[float] = []
        for c, cell in enumerate(cols[1:], start=2):
            value = _parse(path, line_no, cell, f"column {c}: not a number") if cell else math.nan
            if cell and not math.isfinite(value):
                _fail(path, line_no, f"column {c}: not a finite number: {cell!r}")
            row.append(value)
        values.append(row)
    return list(genes), np.array(values)


def load_mapping(path) -> dict[str, str]:
    """Protein-to-gene mapping TSV (protein_id, gene_id); a protein maps to one gene."""
    mapping: dict[str, str] = {}
    for line_no, (protein, gene, *_) in _pairs(path, "expected protein_id and gene_id columns"):
        if mapping.setdefault(protein, gene) != gene:
            _fail(path, line_no, f"protein {protein!r} maps to {mapping[protein]!r} and {gene!r}")
    return mapping


def write_wppi(path, proteins: ProteinIndex, network: WeightedNetwork) -> None:
    """Weighted edges, full float precision so files round-trip bit for bit."""
    lines = [WPPI_HEADER]
    for i, j, w in network.edges():
        lines.append(f"{proteins.label_of(i)}\t{proteins.label_of(j)}\t{w!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_wppi(path) -> tuple[ProteinIndex, WeightedNetwork]:
    message = "expected protein_a, protein_b, weight"
    labels: list[str] = []
    weights: list[float] = []
    for line_no, cols in _pairs(path, message):
        if len(cols) != 3 or "\t" in cols[2]:
            _fail(path, line_no, message)
        weight = _parse(path, line_no, cols[2], "not a number")
        if not 0.0 <= weight <= 1.0:
            _fail(path, line_no, f"weight out of range [0, 1]: {cols[2]!r}")
        weights.append(weight)
        labels += cols[:2]
    if not weights:
        raise InputError(f"{path}: no weighted edges found")
    proteins, src, dst = _index_pairs(labels)
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
    for line_no, line in _lines(path):
        cols = line.split("\t")
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
