import random
import re

import numpy as np
import pytest

from wppi import fileio
from wppi.fileio import InputError

from .oracles import load_annotations_loop, load_expression_loop, load_ppi_loop


class TestLoadPpi:
    def test_basic_load_with_comments_and_extras(self, tmp_path):
        path = tmp_path / "ppi.tsv"
        path.write_text("# interactions\nA\tB\nB\tC\tscore=2\nA\tB\nC\tC\n")
        proteins, net = fileio.load_ppi(path)
        assert proteins.labels == ["A", "B", "C"]
        assert net.edge_count == 2
        assert net.duplicates_dropped == 1
        assert net.self_loops_dropped == 1

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "ppi.tsv"
        path.write_text("A\tB\njust-one-column\n")
        with pytest.raises(InputError, match=r"ppi\.tsv:2"):
            fileio.load_ppi(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ppi.tsv"
        path.write_text("# nothing\n")
        with pytest.raises(InputError, match="no interactions"):
            fileio.load_ppi(path)


class TestDecoding:
    def test_bom_dropped_on_the_plain_pair_route(self, tmp_path):
        path = tmp_path / "ppi.tsv"
        path.write_bytes(b"\xef\xbb\xbfA\tB\nB\tC")
        proteins, net = fileio.load_ppi(path)
        assert proteins.labels == ["A", "B", "C"]
        assert net.edge_count == 2

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
    @pytest.mark.parametrize("load, head", [
        (fileio.load_ppi, b"A\tB\nB\tC\n"),
        (fileio.load_ppi, b"A\tB\r\nB\tC\r"),
        (fileio.load_ppi, b"# interactions\nA\tB\n"),
        (fileio.load_expression, b"gene_id\tS1\tS2\nA\t1\t2\n"),
    ], ids=["plain-pairs", "plain-pairs-cr", "pair-lines", "expression"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, bom, load, head):
        path = tmp_path / "in.tsv"
        path.write_bytes(bom + head + b"\xd0\t3\t4\n")
        with pytest.raises(InputError) as info:
            load(path)
        assert str(info.value) == f"{path}:3: not UTF-8 text"


class TestInterning:
    def test_ppi_and_wppi_loaders_intern_alike(self, tmp_path):
        rows = [("Q", "B"), ("A", "Z"), ("B", "Q"), ("M", "B"), ("Z", "Q")]
        ppi = tmp_path / "ppi.tsv"
        ppi.write_text("".join(f"{a}\t{b}\n" for a, b in rows))
        wppi = tmp_path / "wppi.tsv"
        wppi.write_text("".join(f"{a}\t{b}\t0.5\n" for a, b in rows))
        proteins, net = fileio.load_ppi(ppi)
        wproteins, wnet = fileio.load_wppi(wppi)
        assert proteins.labels == wproteins.labels == ["Q", "B", "A", "Z", "M"]
        assert net.edge_src.tolist() == wnet.edge_src.tolist() == [0, 0, 1, 2]
        assert net.edge_dst.tolist() == wnet.edge_dst.tolist() == [1, 3, 4, 3]


@pytest.mark.parametrize("loader, weight", [(fileio.load_ppi, ""), (fileio.load_wppi, "\t0.5")],
                         ids=["ppi", "wppi"])
def test_comma_in_protein_label_rejected_at_its_line(tmp_path, loader, weight):
    # ',' separates the proteins of a communities or catalogue row.
    path = tmp_path / "net.tsv"
    path.write_text(f"# a,b\nA\tB{weight}\nB\tC{weight}\n\nC\tA,X{weight}\nA,Y\tB{weight}\n")
    with pytest.raises(InputError, match=re.escape("net.tsv:5: protein label 'A,X' contains ','")):
        loader(path)


def test_comma_outside_the_labels_is_allowed(tmp_path):
    path = tmp_path / "ppi.tsv"
    path.write_text("A\tB\tscore=1,2\n")
    assert fileio.load_ppi(path)[0].labels == ["A", "B"]


class TestLoadExpression:
    def test_round_values_and_missing_imputed(self, tmp_path):
        path = tmp_path / "ged.tsv"
        path.write_text("gene_id\tS1\tS2\tS3\nG1\t1.0\t\t3.0\nG2\t2.0\t2.5\t3.0\n")
        matrix = fileio.load_expression(path)
        assert matrix.sample_names == ["S1", "S2", "S3"]
        assert matrix.values[0].tolist() == [1.0, 2.0, 3.0]  # mean-imputed

    def test_mostly_missing_row_dropped(self, tmp_path):
        path = tmp_path / "ged.tsv"
        path.write_text("gene_id\tS1\tS2\tS3\nG1\t\t\t3.0\nG2\t1\t2\t3\n")
        matrix = fileio.load_expression(path)
        assert matrix.dropped_genes == ["G1"]
        assert "G1" not in matrix.gene_index

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "ged.tsv"
        path.write_text("gene_id\tS1\tS2\nG1\t1.0\n")
        with pytest.raises(InputError, match=r"ged\.tsv:2"):
            fileio.load_expression(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "ged.tsv"
        path.write_text("gene_id\tS1\nG1\tabc\n")
        with pytest.raises(InputError, match="not a number"):
            fileio.load_expression(path)

    def test_duplicate_gene_rejected(self, tmp_path):
        path = tmp_path / "ged.tsv"
        path.write_text("gene_id\tS1\tS2\nG1\t1\t2\n# note\nG1\t3\t4\n")
        with pytest.raises(InputError, match=r"ged\.tsv:4: duplicate gene label 'G1'"):
            fileio.load_expression(path)

    @pytest.mark.parametrize("rows", ["G1\t\t\nG1\t3\t4\n", "G1\t3\t4\nG1\t\t\n"])
    def test_duplicate_of_dropped_row_rejected(self, tmp_path, rows):
        path = tmp_path / "ged.tsv"
        path.write_text("gene_id\tS1\tS2\n" + rows)
        with pytest.raises(InputError, match=r"ged\.tsv:3: duplicate gene label 'G1'"):
            fileio.load_expression(path)


    @pytest.mark.parametrize("row, column, cell", [
        ("G1\t1\tnan\t3", 3, "nan"),
        ("G1\tinf\t2\t3", 2, "inf"),
        ("G1\t\t\t-Infinity", 4, "-Infinity"),
        ("G1\t1\t2\t-1e400", 4, "-1e400"),
    ], ids=["nan", "inf", "row-over-the-limit", "overflow"])
    def test_non_finite_cell_rejected(self, tmp_path, row, column, cell):
        path = tmp_path / "ged.tsv"
        path.write_text(f"gene_id\tS1\tS2\tS3\n{row}\n")
        message = f"ged.tsv:2: column {column}: not a finite number: {cell!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            fileio.load_expression(path)

    @pytest.mark.parametrize("header, name", [("gene_id\tS1\tS1", "S1"),
                                              ("gene_id\tS1\t\tS3", ""),
                                              ("gene_id\t", "")],
                             ids=["repeated", "empty", "only-empty"])
    @pytest.mark.parametrize("cell", ["1.5", "1_0"], ids=["bulk", "row-by-row"])
    def test_bad_sample_names_rejected_at_header(self, tmp_path, header, name, cell):
        path = tmp_path / "ged.tsv"
        width = header.count("\t")
        path.write_text(f"# samples\n{header}\nG1\t" + "\t".join([cell] * width) + "\n")
        message = f"ged.tsv:2: empty or repeated sample name {name!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            fileio.load_expression(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows, message", [
        ("G1\t\nG2\t\n", "ged.tsv: no usable expression rows"),
        ("G1\nG2\t1\n", "ged.tsv:2: expected 1 sample values, found 0"),
    ], ids=["all-empty", "no-tab"])
    def test_rows_without_cell_text(self, tmp_path, rows, message):
        path = tmp_path / "ged.tsv"
        path.write_text("gene_id\tS1\n" + rows)
        with pytest.raises(InputError, match=re.escape(message)):
            fileio.load_expression(path)

    def test_clean_file_with_gaps_is_parsed_in_bulk(self, tmp_path, monkeypatch):
        path = tmp_path / "ged.tsv"
        # Gaps in the middle, first and last cells, and runs of empty cells.
        path.write_text("gene_id\tS1\tS2\tS3\tS4\tS5\nG1\t1\t2\t3\t4\t5\n"
                        "G2\t2.5\t\t0.5\t1\t1\nG3\t\t-0\t0.25\t1\t0.75\nG4\t1\t1\t\t\t\n"
                        "G5\t\t\t\t\t7\nG6\t6\t2.5e-1\t3\t0.75\t\nG7\t4\t\t\t2\t0\n")

        def row_by_row(*args):
            raise AssertionError("fell back to the row-by-row reader")

        monkeypatch.setattr(fileio, "_row_values", row_by_row)
        matrix = fileio.load_expression(path)
        assert matrix.values.tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0], [2.5, 1.25, 0.5, 1.0, 1.0],
                                          [0.5, -0.0, 0.25, 1.0, 0.75],
                                          [6.0, 0.25, 3.0, 0.75, 2.5], [4.0, 2.0, 2.0, 2.0, 0.0]]
        assert matrix.gene_index == {"G1": 0, "G2": 1, "G3": 2, "G6": 3, "G7": 4}
        assert matrix.dropped_genes == ["G4", "G5"]


# Cells float() reads, cells numpy's parser rejects or reads differently, and
# cells that are errors, for the bulk-versus-row-by-row fuzz test below.
PLAIN_CELLS = ["1.5", "-2", "0", "3.25e2", "-0", "+.5", "7", "1e-400", ""]
ODD_CELLS = [" 1.5 ", "1_0", "\u0661", "1\x0b", "\x851", "2\x0c", "\u30001", "4\x1c", "0x10"]
BAD_CELLS = ["nan", "inf", "-Infinity", "1e400", "abc", "1 2", "1,5", "\x1f", " ", "1\x0b2"]


def _fuzz_expression_file(rng: random.Random) -> bytes:
    """A seeded expression file mixing valid rows with the ways a row goes wrong."""
    width = rng.randint(1, 6)
    pool = PLAIN_CELLS + (ODD_CELLS if rng.random() < 0.4 else []) + \
        (BAD_CELLS if rng.random() < 0.2 else [])
    lines = ["# expression"] if rng.random() < 0.3 else []
    lines.append("gene_id\t" + "\t".join(f"S{k}" for k in range(width)))
    for i in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice(["", "# note", "#G\t1"]))
            continue
        label = rng.choice([f"G{i}", f"G#{i}", f"G{i} x"])
        if roll < 0.07:
            label = rng.choice(["", "G0"])  # empty or, perhaps, repeated
        cells = [rng.choice(pool) if rng.random() < 0.5 else f"{rng.uniform(-9, 9):.3f}"
                 for _ in range(width)]
        if roll > 0.85:
            cells = [""] * width  # over the limit, unless one cell is filled again
            cells[rng.randrange(width)] = rng.choice(["", "2.5"])
        elif roll > 0.83:
            cells = cells[1:] if rng.random() < 0.5 else cells + [rng.choice(["", "1"])]
        lines.append("\t".join([label] + cells))
    ending = rng.choice(["\n", "\r\n", "\n", "\r"])
    return (ending.join(lines) + rng.choice([ending, ""])).encode("utf-8")


def _outcome(load, path):
    try:
        m = load(path)
    except InputError as exc:
        return "error", str(exc)
    return (m.values.shape, m.values.tobytes(), m.gene_index, m.dropped_genes, m.sample_names)


@pytest.mark.filterwarnings("error")
def test_bulk_reading_equals_the_row_by_row_loop(tmp_path):
    rng = random.Random(14)
    kinds = set()
    for case in range(200):
        path = tmp_path / f"ged-{case}.tsv"
        path.write_bytes(_fuzz_expression_file(rng))
        expected = _outcome(load_expression_loop, path)
        assert _outcome(fileio.load_expression, path) == expected, path.read_bytes()
        kinds.add(expected[0] == "error")
    assert kinds == {True, False}


def _fuzz_pair_file(rng: random.Random) -> bytes:
    """A seeded two-column file: plain rows, or rows mixed with the ways a file is not plain."""
    labels = [f"P{i}" for i in range(rng.randint(1, 9))] + ["Q 1", "#", "x#y", "Ωé\u3000"]
    if rng.random() < 0.1:
        labels.append("R,S")
    odd = rng.random() < 0.6
    lines = ["# pairs"] if odd and rng.random() < 0.3 else []
    for _ in range(rng.randint(0, 14)):
        a, b = rng.choice(labels), rng.choice(labels)
        line = f"{a}\t{b}"
        roll = rng.random() if odd else 1.0
        if roll < 0.08:
            line = rng.choice(["", "# note", "#P1\tP2"])
        elif roll < 0.14:
            line += rng.choice(["\tscore=1", "\t", "\t\t", "\tx\ty"])
        elif roll < 0.17:
            line = rng.choice([f"\t{b}", f"{a}\t", a, "\t", f"{a},Z\t{b}", f"{a}\t{b},Z"])
        lines.append(line)
    if odd and rng.random() < 0.05:
        lines = ["# only a comment"] * rng.randint(1, 3)
    if not odd:
        lines = [line for line in lines if line[0] != "#"]
    ending = rng.choice(["\n", "\r\n", "\n", "\r"])
    return (ending.join(lines) + rng.choice([ending, ""])).encode("utf-8")


def _pair_outcomes(path):
    """(ppi loader result, annotation loader result) for the package and the line-by-line
    oracles; each is the loaded data or the error text."""
    def ppi(load):
        try:
            proteins, net = load(path)
        except InputError as exc:
            return "error", str(exc)
        return proteins.labels, net.edge_src.tolist(), net.edge_dst.tolist()

    def annotations(load):
        try:
            terms = load(path).terms
        except InputError as exc:
            return "error", str(exc)
        return list(terms.items())

    return ((ppi(fileio.load_ppi), annotations(fileio.load_annotations)),
            (ppi(load_ppi_loop), annotations(load_annotations_loop)))


def test_bulk_pairs_equal_the_line_by_line_loop(tmp_path, monkeypatch):
    plain_cells = fileio._plain_pair_cells
    routes = []

    def spy(path):
        cells = plain_cells(path)
        routes.append("bulk" if cells is not None else "line by line")
        return cells

    monkeypatch.setattr(fileio, "_plain_pair_cells", spy)
    rng = random.Random(16)
    errors = 0
    for case in range(200):
        path = tmp_path / f"pairs-{case}.tsv"
        path.write_bytes(_fuzz_pair_file(rng))
        got, expected = _pair_outcomes(path)
        assert got == expected, path.read_bytes()
        errors += expected[0][0] == "error"
    assert {"bulk", "line by line"} <= set(routes)
    assert 0 < errors < 200


class TestLoadWppi:
    def test_empty_label_rejected(self, tmp_path):
        path = tmp_path / "wppi.tsv"
        path.write_text("# wppi v1\nA\tB\t0.5\n\tC\t0.4\n")
        with pytest.raises(InputError, match=r"wppi\.tsv:3: expected protein_a, protein_b, weight"):
            fileio.load_wppi(path)

    @pytest.mark.parametrize("weight", ["nan", "1.5", "-0.25", "inf"])
    def test_weight_outside_unit_interval_rejected(self, tmp_path, weight):
        path = tmp_path / "wppi.tsv"
        path.write_text(f"# wppi v1\nA\tB\t0.5\nB\tC\t{weight}\n")
        message = f"wppi.tsv:3: weight out of range [0, 1]: {weight!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            fileio.load_wppi(path)

    def test_edge_repeated_with_an_equal_weight_is_one_edge(self, tmp_path):
        path = tmp_path / "wppi.tsv"
        path.write_text("# wppi v1\nA\tB\t0.5\nB\tC\t0.25\nB\tA\t0.50\n")
        _, network = fileio.load_wppi(path)
        assert network.edges() == [(0, 1, 0.5), (1, 2, 0.25)]


class TestLoadMapping:
    def test_comments_blank_lines_crlf_and_extras(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_bytes(b"# protein\tgene\r\nP1\tG1\r\n\r\nP2\tG2\textra\r\nP3\tG1\r\n")
        assert fileio.load_mapping(path) == {"P1": "G1", "P2": "G2", "P3": "G1"}

    @pytest.mark.parametrize("row", ["P3\t", "\tG3", "P3"], ids=["no-gene", "no-protein", "one-column"])
    def test_row_without_two_labels_rejected(self, tmp_path, row):
        path = tmp_path / "map.tsv"
        path.write_text(f"P1\tG1\n{row}\n")
        with pytest.raises(InputError, match=r"map\.tsv:2: expected protein_id and gene_id columns"):
            fileio.load_mapping(path)

    def test_protein_mapped_to_two_genes_rejected(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("P1\tG1\nP2\tG2\nP1\tG1\textra\n# note\nP1\tG2\n")
        message = "map.tsv:5: protein 'P1' maps to 'G1' and 'G2'"
        with pytest.raises(InputError, match=re.escape(message)):
            fileio.load_mapping(path)

    def test_protein_mapped_to_two_genes_rejected_in_a_plain_file(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("P1\tG1\nP2\tG2\nP1\tG1\nP1\tG2\n")
        with pytest.raises(InputError, match=re.escape("map.tsv:4: protein 'P1' maps to")):
            fileio.load_mapping(path)

    def test_exact_repeat_allowed(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("P1\tG1\nP2\tG2\nP1\tG1\n")
        assert fileio.load_mapping(path) == {"P1": "G1", "P2": "G2"}


class TestCatalogueAndAnnotations:
    def test_catalogue_load(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("alpha\ta,b,c\nbeta\td,e\n")
        catalogue = fileio.load_catalogue(path)
        assert len(catalogue.entries) == 2
        assert catalogue.entries[0] == ("alpha", frozenset({"a", "b", "c"}))

    def test_catalogue_singleton_rejected(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("bad\tonly-one\n")
        with pytest.raises(InputError, match="at least 2"):
            fileio.load_catalogue(path)

    @pytest.mark.parametrize("head", ["", "# complexes\n"], ids=["plain", "commented"])
    def test_catalogue_singleton_rejected_at_its_line(self, tmp_path, head):
        path = tmp_path / "cat.tsv"
        path.write_text(f"{head}good\ta,b\nbad\tonly-one,only-one\n")
        line = 2 + head.count("\n")
        with pytest.raises(InputError, match=rf"cat\.tsv:{line}: complex 'bad' needs at least 2"):
            fileio.load_catalogue(path)

    def test_annotations_grouped_by_term(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("p1\tT:1\np2\tT:1\np2\tT:2\n")
        annotations = fileio.load_annotations(path)
        assert annotations.terms["T:1"] == frozenset({"p1", "p2"})
        assert annotations.terms["T:2"] == frozenset({"p2"})


class TestCommunitiesFile:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "communities.tsv"
        fileio.write_communities(path, [
            (0, ["a", "b"], 2.5, 3.0),
            (1, ["c"], None, 0.5),
        ])
        text = path.read_text()
        assert "NA" in text
        rows = fileio.load_communities(path)
        assert rows[0] == (0, ["a", "b"], 2.5, 3.0)
        assert rows[1] == (1, ["c"], None, 0.5)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "communities.tsv"
        path.write_text("community_id\tproteins\tfunctional_cohesion\tmodularity\n"
                        "0\ta,b\tNA\t1.0\n0\tc,d\tNA\t2.0\n")
        with pytest.raises(InputError, match=r"communities\.tsv:3: duplicate community id 0"):
            fileio.load_communities(path)

    @pytest.mark.parametrize("fc, q, column", [("abc", "NA", 3), ("NA", "1.0x", 4)])
    def test_non_numeric_metric_rejected(self, tmp_path, fc, q, column):
        path = tmp_path / "communities.tsv"
        path.write_text(f"0\ta,b\t{fc}\t{q}\n")
        with pytest.raises(InputError, match=rf"communities\.tsv:1: column {column}: not a number"):
            fileio.load_communities(path)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.tsv"
        fileio.atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.tsv"]
        assert leftovers == []

    def test_sha256_matches_content(self, tmp_path):
        import hashlib

        path = tmp_path / "x.bin"
        path.write_bytes(b"abc123")
        assert fileio.sha256_file(path) == hashlib.sha256(b"abc123").hexdigest()


class TestAtomicityUnderFailure:
    def test_failed_write_leaves_no_target(self, tmp_path, monkeypatch):
        import os as _os

        from wppi import fileio as fio

        target = tmp_path / "report.tsv"

        def explode(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(_os, "replace", explode)
        with pytest.raises(OSError):
            fio.atomic_write_text(target, "half-finished")
        assert not target.exists()
        assert [p for p in tmp_path.iterdir()] == []
