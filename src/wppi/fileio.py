"""File formats and atomic report writing.

Every loader reads its file in one ``read`` and reports malformed content
as ``InputError`` carrying the file and line. A two-column file (PPI,
mapping, catalogue, annotations) whose every line is two non-empty
tab-separated labels, with no '#' or blank line, is split into its labels
in one go; any other goes through ``_pairs`` line by line, which names the
first malformed line, so both routes give the same rows and errors. For
evaluation the annotation file is read once into what enrichment reads,
each protein's terms and each term's size within the communities' universe
(``load_term_index``); ``load_annotations`` keeps the full term sets.
Expression cells go to numpy's parser in one call; where it could differ
from float() or cannot name the bad line, the rows are read and checked one
by one. numpy and the array types are imported by the loaders that build
arrays, so reading only the evaluation inputs never loads numpy. Writers
stage into a temporary file in the target directory and rename into place,
so an interrupted run never leaves a partial file.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import tempfile
from collections import Counter, deque
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .evaluator import AnnotationSet, ComplexCatalogue

if TYPE_CHECKING:
    import numpy as np

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


_NOT_A_SEPARATOR = bytes(sorted(set(range(256)) - set(b"\t\n")))


def _plain_pair_cells(path) -> list[str] | None:
    """Labels a0, b0, a1, b1, ... of a plain two-column file; None for any other file.

    A plain file has two non-empty labels and one tab on every line, and no
    '#' or blank line, so its row i is its line i + 1.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text and text[-1] != "\n":
        text += "\n"
    # One tab on every line: stripped of all else, the text is tab, newline, tab,
    # newline, ... (UTF-8 multibyte characters hold neither byte). No label is
    # empty: no tab starts or ends a line.
    separators = text.encode().translate(None, _NOT_A_SEPARATOR)
    if (separators != b"\t\n" * (len(separators) // 2) or text.startswith(("#", "\t"))
            or "\n#" in text or "\n\t" in text or "\t\n" in text):
        return None
    text = text.replace("\n", "\t")  # drops the file's text: two copies at most
    cells = text.split("\t")
    cells.pop()  # after the last line's '\n'
    return cells


def _pair_cells(path, message: str) -> tuple[Sequence[int], list[str]]:
    """Line numbers of a two-column file's rows, and their labels a0, b0, a1, b1, ...

    Extra columns are ignored; a row without two labels fails with ``message``.
    """
    cells = _plain_pair_cells(path)
    if cells is not None:
        return range(1, len(cells) // 2 + 1), cells
    line_nos: list[int] = []
    cells = []
    for line_no, cols in _pairs(path, message):
        line_nos.append(line_no)
        cells += cols[:2]
    return line_nos, cells


def _parse(path, line_no: int, text: str, message: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        _fail(path, line_no, f"{message}: {text!r}")


def _index_pairs(path, labels: list[str]) -> tuple[ProteinIndex, np.ndarray, np.ndarray]:
    """Intern the labels a0, b0, a1, b1, ... in order of first appearance.

    Returns the index and the (src, dst) vertex arrays of the pairs; both
    network loaders pass through here, so it alone fixes vertex order. A
    label holding ',', the separator of protein lists in the communities
    and catalogue files, fails at the first line that has one.
    """
    import numpy as np

    from .model import ProteinIndex

    if "," in "".join(labels):
        line_no, label = next((n, a) for n, cols in _pairs(path, "") for a in cols[:2] if "," in a)
        _fail(path, line_no, f"protein label {label!r} contains ','")
    proteins = ProteinIndex(labels)
    index = dict(zip(proteins, count()))
    idx = np.fromiter(map(index.__getitem__, labels), dtype=np.int64, count=len(labels))
    return proteins, idx[0::2], idx[1::2]


def load_ppi(path) -> tuple[ProteinIndex, PpiNetwork]:
    """Two-column interaction TSV (extra columns ignored, '#' lines skipped)."""
    from .model import PpiNetwork

    _, labels = _pair_cells(path, "expected two tab-separated protein labels")
    if not labels:
        raise InputError(f"{path}: no interactions found")
    proteins, src, dst = _index_pairs(path, labels)
    return proteins, PpiNetwork(len(proteins), src, dst)


def load_expression(path) -> ExpressionMatrix:
    """GED TSV: header of distinct sample names, one gene per row, empty cell = missing.

    Rows with more than half of their samples missing are dropped, the
    remaining gaps are filled with the row mean; other cells must be finite.
    """
    import numpy as np

    from .expression import ExpressionMatrix

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


def _parse_floats(lines):
    import numpy as np

    # With the row count given, numpy sizes its array once instead of growing it.
    return np.loadtxt(lines, delimiter="\t", comments=None, dtype=np.float64, ndmin=2,
                      max_rows=len(lines))


def _bulk_values(rows, expected: int):
    """Gene labels and cells (NaN where empty) by numpy's parser; None where it cannot tell."""
    import numpy as np

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
    import numpy as np

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
    line_nos, cells = _pair_cells(path, "expected protein_id and gene_id columns")
    mapping: dict[str, str] = {}
    for line_no, protein, gene in zip(line_nos, cells[0::2], cells[1::2]):
        if mapping.setdefault(protein, gene) != gene:
            _fail(path, line_no, f"protein {protein!r} maps to {mapping[protein]!r} and {gene!r}")
    return mapping


def write_wppi(path, proteins: ProteinIndex, network: WeightedNetwork) -> None:
    """Weighted edges, full float precision so files round-trip bit for bit."""
    import numpy as np

    # Cells are looked up and rows joined at C speed, with no per-row format.
    labels = np.array(proteins.labels, dtype=object)
    rows = map("\t".join, zip(labels[network.edge_src].tolist(),
                              labels[network.edge_dst].tolist(),
                              map(repr, network.edge_weight.tolist())))
    atomic_write_text(path, "\n".join(chain([WPPI_HEADER], rows, [""])))


def load_wppi(path) -> tuple[ProteinIndex, WeightedNetwork]:
    import numpy as np

    from .model import WeightedNetwork

    message = "expected protein_a, protein_b, weight"
    labels: list[str] = []
    weights: list[float] = []
    for line_no, cols in _pairs(path, message):
        if len(cols) != 3 or "\t" in cols[2]:
            _fail(path, line_no, message)
        if cols[0] == cols[1]:
            _fail(path, line_no, f"self-loop not allowed: {cols[0]!r}")
        weight = _parse(path, line_no, cols[2], "not a number")
        if not 0.0 <= weight <= 1.0:
            _fail(path, line_no, f"weight out of range [0, 1]: {cols[2]!r}")
        weights.append(weight)
        labels += cols[:2]
    if not weights:
        raise InputError(f"{path}: no weighted edges found")
    proteins, src, dst = _index_pairs(path, labels)
    try:
        return proteins, WeightedNetwork.from_arrays(len(proteins), src, dst, np.array(weights))
    except ValueError:  # rows checked above: a pair listed with two weights
        first: dict[frozenset[str], float] = {}
        for (line_no, (a, b, _)), weight in zip(_pairs(path, message), weights):
            if (listed := first.setdefault(frozenset((a, b)), weight)) != weight:
                _fail(path, line_no, f"conflicting duplicate edge ({a!r}, {b!r}): "
                      f"weight {weight!r} after {listed!r}")
        raise


def load_catalogue(path) -> ComplexCatalogue:
    """Complex catalogue TSV: name, comma-separated protein labels."""
    line_nos, cells = _pair_cells(path, "expected complex_name and protein list")
    entries: list[tuple[str, frozenset[str]]] = []
    for line_no, name, proteins in zip(line_nos, cells[0::2], cells[1::2]):
        members = frozenset(p for p in proteins.split(",") if p)
        if len(members) < 2:
            _fail(path, line_no, f"complex {name!r} needs at least 2 proteins")
        entries.append((name, members))
    try:
        return ComplexCatalogue(entries)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_annotations(path) -> AnnotationSet:
    """Annotation TSV: one (protein_label, term_id) pair per line."""
    _, cells = _pair_cells(path, "expected protein_label and term_id columns")
    terms: dict[str, list[str]] = {}
    for protein, term in zip(cells[0::2], cells[1::2]):
        members = terms.get(term)
        if members is None:
            terms[term] = [protein]
        else:
            members.append(protein)
    if not terms:
        raise InputError(f"{path}: no annotations found")
    # Through a set: frozenset() sizes its table to a set it copies, but grows
    # it row by row from a list, which would leave the sets larger than needed.
    return AnnotationSet({t: frozenset(set(m)) for t, m in terms.items()})


def load_term_index(path, universe) -> tuple[dict[str, dict[str, None]], Counter[str]]:
    """The annotation TSV as enrichment reads it, restricted to the proteins in ``universe``.

    Returns each annotated protein of ``universe`` with its distinct terms,
    and each term's number of such proteins. Every row is read and checked,
    as by ``load_annotations``; a repeated (protein, term) row counts once.
    """
    # The terms of each protein are dict keys, not a set: a dict of strings is
    # never tracked by the cyclic GC, so no collection walks the index. The
    # dicts are made before the file is split, so none walks the cells either.
    terms_of: dict[str, dict[str, None]] = {protein: {} for protein in universe}
    _, cells = _pair_cells(path, "expected protein_label and term_id columns")
    if not cells:
        raise InputError(f"{path}: no annotations found")
    # Each row adds its term to its protein's at C speed; the terms of a protein
    # outside the universe go to a dict that is dropped.
    outside: dict[str, None] = {}
    deque(map(dict.setdefault, map(terms_of.get, cells[0::2], repeat(outside)), cells[1::2]),
          maxlen=0)
    terms_of = {protein: terms for protein, terms in terms_of.items() if terms}
    return terms_of, Counter(chain.from_iterable(terms_of.values()))


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
