import re

import numpy as np
import pytest

from wppi import fileio
from wppi.fileio import InputError


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
    ], ids=["nan", "inf", "row-over-the-limit"])
    def test_non_finite_cell_rejected(self, tmp_path, row, column, cell):
        path = tmp_path / "ged.tsv"
        path.write_text(f"gene_id\tS1\tS2\tS3\n{row}\n")
        message = f"ged.tsv:2: column {column}: not a finite number: {cell!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            fileio.load_expression(path)


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


class TestCatalogueAndAnnotations:
    def test_catalogue_load(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("alpha\ta,b,c\nbeta\td,e\n")
        catalogue = fileio.load_catalogue(path)
        assert len(catalogue) == 2
        assert catalogue.entries[0] == ("alpha", frozenset({"a", "b", "c"}))

    def test_catalogue_singleton_rejected(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("bad\tonly-one\n")
        with pytest.raises(InputError, match="at least 2"):
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
