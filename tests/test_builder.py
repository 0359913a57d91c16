import math
import warnings

import numpy as np
import pytest

from wppi.builder import build_wppi
from wppi.expression import ExpressionMatrix, quantile_normalize
from wppi.model import PpiNetwork, ProteinIndex

from .oracles import fallback_mean_direct, wppi_weights_direct


def make_inputs(labels, edges, gene_values, gene_labels=None):
    proteins = ProteinIndex(labels)
    ppi = PpiNetwork(len(proteins), [proteins.index_of(a) for a, _ in edges],
                     [proteins.index_of(b) for _, b in edges])
    gene_labels = gene_labels or labels
    values = np.asarray(gene_values, dtype=float)
    matrix = ExpressionMatrix(
        gene_index={g: i for i, g in enumerate(gene_labels)},
        values=values,
        sample_names=[f"S{j}" for j in range(values.shape[1])],
    )
    return proteins, ppi, matrix


def ppi_edges(ppi):
    return list(zip(ppi.edge_src.tolist(), ppi.edge_dst.tolist()))


class TestEdgeWeight:
    def test_negative_correlation_flips_sign(self):
        proteins, ppi, matrix = make_inputs(
            ["A", "B"], [("A", "B")], [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        (_, _, w), = build_wppi(proteins, ppi, matrix).network.edges()
        assert w == pytest.approx(1.0)

    def test_no_interaction_no_weight(self):
        # A and C correlate perfectly but do not interact: no edge, no weight
        proteins, ppi, matrix = make_inputs(
            ["A", "B", "C"], [("A", "B"), ("B", "C")],
            [[1.0, 2.0, 3.0], [1.0, 3.0, 2.0], [1.0, 2.0, 3.0]])
        result = build_wppi(proteins, ppi, matrix)
        assert [(i, j) for i, j, _ in result.network.edges()] == [(0, 1), (1, 2)]

    def test_zero_correlation_stays_zero(self):
        proteins, ppi, matrix = make_inputs(
            ["A", "B"], [("A", "B")], [[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        result = build_wppi(proteins, ppi, matrix)
        (_, _, w), = result.network.edges()
        assert w == 0.0
        assert result.zero_variance_edge_count == 0

    def test_out_of_range_correlation(self):
        # rounding puts |r| of this exactly anti-correlated pair at 1 + 2**-52;
        # the weight is clamped back into [0, 1]
        proteins, ppi, matrix = make_inputs(
            ["A", "B"], [("A", "B")], [[1.0, 2.0, 4.0], [-1.0, -2.0, -4.0]])
        (_, _, w), = build_wppi(proteins, ppi, matrix).network.edges()
        assert w == 1.0


class TestBuildWppi:
    def test_perfectly_correlated_pair(self):
        proteins, ppi, matrix = make_inputs(
            ["A", "B"], [("A", "B")], [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        result = build_wppi(proteins, ppi, matrix)
        (i, j, w), = result.network.edges()
        assert w == pytest.approx(1.0)
        assert result.matched_edge_count == 1

    def test_unmatched_pair_gets_global_default(self):
        proteins, ppi, matrix = make_inputs(
            ["A", "B"], [("A", "B")], [[1.0, 2.0, 3.0]], gene_labels=["ZZZ"])
        result = build_wppi(proteins, ppi, matrix)
        (_, _, w), = result.network.edges()
        assert w == 0.5
        assert result.fallback_weight == 0.5
        assert result.unmatched_edge_count == 1

    def test_fallback_is_mean_of_matched(self):
        # A-B matched (|p| = 1), C unmatched: its edges take the 1.0 mean
        proteins, ppi, matrix = make_inputs(
            ["A", "B", "C"], [("A", "B"), ("B", "C")],
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], gene_labels=["A", "B"])
        result = build_wppi(proteins, ppi, matrix)
        weights = {(i, j): w for i, j, w in result.network.edges()}
        assert weights[(0, 1)] == pytest.approx(1.0)
        assert weights[(1, 2)] == pytest.approx(1.0)

    def test_explicit_default_weight_overrides(self):
        proteins, ppi, matrix = make_inputs(
            ["A", "B"], [("A", "B")], [[1.0, 2.0, 3.0]], gene_labels=["ZZZ"])
        result = build_wppi(proteins, ppi, matrix, default_weight=0.25)
        (_, _, w), = result.network.edges()
        assert w == 0.25

    def test_triangle_matches_serial_oracle(self):
        rng = np.random.default_rng(21)
        values = rng.normal(size=(3, 10))
        proteins, ppi, matrix = make_inputs(
            ["A", "B", "C"], [("A", "B"), ("A", "C"), ("B", "C")], values)
        result = build_wppi(proteins, ppi, matrix)
        expected = wppi_weights_direct(
            ppi_edges(ppi), [0, 1, 2], values, 0.5)
        got = [w for _, _, w in result.network.edges()]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_edge_set_preserved_exactly(self):
        rng = np.random.default_rng(8)
        labels = [f"P{i}" for i in range(25)]
        edges = []
        for i in range(25):
            for j in range(i + 1, 25):
                if rng.random() < 0.15:
                    edges.append((labels[i], labels[j]))
        values = rng.normal(size=(25, 6))
        proteins, ppi, matrix = make_inputs(labels, edges, values)
        result = build_wppi(proteins, ppi, matrix)
        assert [(i, j) for i, j, _ in result.network.edges()] == ppi_edges(ppi)

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(13)
        labels = [f"P{i}" for i in range(20)]
        edges = [(labels[i], labels[j]) for i in range(20) for j in range(i + 1, 20)
                 if rng.random() < 0.3]
        values = rng.normal(size=(12, 5))  # some proteins unmatched
        proteins, ppi, matrix = make_inputs(
            labels, edges, values, gene_labels=labels[:12])
        result = build_wppi(proteins, ppi, matrix)
        for _, _, w in result.network.edges():
            assert 0.0 <= w <= 1.0

    def test_deterministic_across_runs_and_threads(self):
        rng = np.random.default_rng(5)
        labels = [f"P{i}" for i in range(30)]
        edges = [(labels[i], labels[j]) for i in range(30) for j in range(i + 1, 30)
                 if rng.random() < 0.2]
        values = rng.normal(size=(30, 8))
        proteins, ppi, matrix = make_inputs(labels, edges, values)
        base = build_wppi(proteins, ppi, matrix, threads=1)
        base_w = [w for _, _, w in base.network.edges()]
        for threads in (2, 3, 4, 8):
            again = build_wppi(proteins, ppi, matrix, threads=threads)
            assert [w for _, _, w in again.network.edges()] == base_w

    def test_more_threads_than_edges(self):
        proteins, ppi, matrix = make_inputs(
            ["A", "B"], [("A", "B")], [[1.0, 2.0, 4.0], [1.0, 3.0, 2.0]])
        serial = build_wppi(proteins, ppi, matrix, threads=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = build_wppi(proteins, ppi, matrix, threads=8)
        assert wide.network.edge_weight.tobytes() == serial.network.edge_weight.tobytes()

    def test_fallback_rounding_is_the_blocked_fold(self):
        # more than one 1024-edge block of matched edges, plus unmatched proteins
        rng = np.random.default_rng(31)
        labels = [f"P{i}" for i in range(150)]
        edges = [(labels[i], labels[j]) for i in range(150) for j in range(i + 1, 150)
                 if rng.random() < 0.15]
        proteins, ppi, matrix = make_inputs(
            labels, edges, rng.normal(size=(130, 9)), gene_labels=labels[:130])
        result = build_wppi(proteins, ppi, matrix, threads=2)
        pool = [w for i, j, w in result.network.edges() if i < 130 and j < 130]
        assert len(pool) == result.matched_edge_count > 1024
        assert result.unmatched_edge_count > 0
        expected = fallback_mean_direct(pool)
        assert result.fallback_weight == expected
        assert expected != math.fsum(pool) / len(pool)

    def test_zero_variance_rows_flagged_and_zero(self):
        proteins, ppi, matrix = make_inputs(
            ["A", "B"], [("A", "B")], [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        result = build_wppi(proteins, ppi, matrix)
        (_, _, w), = result.network.edges()
        assert w == 0.0
        assert result.zero_variance_edge_count == 1

    def test_zero_as_unmatched_applies_fallback(self):
        proteins, ppi, matrix = make_inputs(
            ["A", "B"], [("A", "B")], [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        result = build_wppi(proteins, ppi, matrix, zero_as_unmatched=True)
        (_, _, w), = result.network.edges()
        assert w == 0.5  # no nonzero matched edges remain, global default

    def test_empty_edge_set_rejected(self):
        proteins = ProteinIndex(["A", "B"])
        ppi = PpiNetwork(2, [], [])
        matrix = ExpressionMatrix(gene_index={"A": 0}, values=np.zeros((1, 3)),
                                  sample_names=["a", "b", "c"])
        with pytest.raises(ValueError, match="empty network"):
            build_wppi(proteins, ppi, matrix)

    def test_normalized_input_end_to_end(self):
        rng = np.random.default_rng(2)
        labels = [f"P{i}" for i in range(10)]
        edges = [(labels[i], labels[(i + 1) % 10]) for i in range(10)]
        proteins, ppi, matrix = make_inputs(labels, edges, rng.normal(size=(10, 7)))
        normalized = quantile_normalize(matrix)
        result = build_wppi(proteins, ppi, normalized)
        rows = [normalized.gene_index[lbl] for lbl in labels]
        expected = wppi_weights_direct(ppi_edges(ppi), rows, normalized.values, 0.5)
        assert [w for _, _, w in result.network.edges()] == pytest.approx(
            expected, abs=1e-12)
