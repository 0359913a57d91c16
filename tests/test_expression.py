import numpy as np
import pytest

from wppi.builder import build_wppi
from wppi.expression import (
    ExpressionMatrix,
    match_genes,
    pearson,
    quantile_normalize,
    quantile_normalize_values,
    row_correlations,
    standardize_rows,
)
from wppi.model import PpiNetwork, ProteinIndex

from .oracles import pearson_direct, quantile_normalize_direct, quantile_normalize_loop


def matrix_of(values, genes=None):
    values = np.asarray(values, dtype=float)
    genes = genes or [f"G{i}" for i in range(values.shape[0])]
    return ExpressionMatrix(
        gene_index={g: i for i, g in enumerate(genes)},
        values=values,
        sample_names=[f"S{j}" for j in range(values.shape[1])],
    )


class TestQuantileNormalize:
    def test_identical_columns_unchanged(self):
        values = np.array([[1.0, 1.0], [5.0, 5.0], [2.0, 2.0]])
        out = quantile_normalize_values(values)
        assert np.allclose(out, values)

    def test_two_by_two_matches_oracle(self):
        values = [[1.0, 4.0], [3.0, 2.0]]
        expected = quantile_normalize_direct(values)
        assert expected == [[1.5, 3.5], [3.5, 1.5]]
        out = quantile_normalize_values(np.array(values))
        assert np.array_equal(out, np.array(expected))

    def test_single_column_fixed_point(self):
        values = np.array([[3.0], [1.0], [2.0]])
        assert np.array_equal(quantile_normalize_values(values), values)

    def test_ties_get_mean_of_covered_ranks(self):
        values = [[2.0, 1.0], [2.0, 3.0], [5.0, 4.0]]
        expected = quantile_normalize_direct(values)
        out = quantile_normalize_values(np.array(values))
        assert np.allclose(out, np.array(expected), atol=1e-15)

    def test_random_matrices_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            values = rng.normal(size=(rng.integers(2, 12), rng.integers(2, 6)))
            expected = np.array(quantile_normalize_direct(values.tolist()))
            assert np.allclose(quantile_normalize_values(values), expected, atol=1e-12)

    def test_matrix_level_requires_two_samples(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            quantile_normalize(matrix_of([[1.0], [2.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(20, 5))
        once = quantile_normalize_values(values)
        twice = quantile_normalize_values(once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_columns_share_sorted_values(self):
        rng = np.random.default_rng(2)
        out = quantile_normalize_values(rng.normal(size=(15, 4)))
        reference = np.sort(out[:, 0])
        for c in range(1, 4):
            assert np.allclose(np.sort(out[:, c]), reference, atol=1e-12)

    @pytest.mark.parametrize("case", ["tie_free", "poisson_ties", "all_equal_column", "one_row"])
    def test_bytes_match_the_per_element_loop(self, case):
        rng = np.random.default_rng(17)
        values = {
            "tie_free": rng.normal(size=(300, 7)),
            "poisson_ties": rng.poisson(1.5, size=(400, 9)).astype(float),
            "all_equal_column": np.column_stack([np.full(50, 2.5), rng.normal(size=50),
                                                 rng.integers(0, 4, 50).astype(float)]),
            "one_row": rng.normal(size=(1, 5)),
        }[case]
        assert quantile_normalize_values(values).tobytes() == \
            quantile_normalize_loop(values).tobytes()


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_against_direct_formula(self):
        expected = pearson_direct([1, 2, 4], [2, 2, 5])
        assert expected == pytest.approx(0.9449, abs=5e-5)
        assert pearson([1, 2, 4], [2, 2, 5]) == pytest.approx(expected, abs=1e-12)

    def test_constant_vector_flagged(self):
        # constant input correlates 0; the build counts it through the row mask
        assert pearson([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0
        assert pearson([1, 2, 3], [1.0, 1.0, 1.0]) == 0.0
        # the mean of three 0.1s rounds above 0.1, so their deviation is not 0
        assert pearson([0.1, 0.1, 0.1], [1.0, 2.0, 4.0]) == 0.0
        z, flat = standardize_rows(np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [0.1, 0.1, 0.1]]))
        assert flat.tolist() == [True, False, True]
        assert np.all(z[[0, 2]] == 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=9)
        b = rng.normal(size=9)
        assert pearson(a, b) == pytest.approx(pearson(b, a), abs=1e-15)

    def test_short_vectors_rejected(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            pearson([1.0], [2.0])

    def test_standardize_rows_reproduces_pearson(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(6, 8))
        z, flat = standardize_rows(values)
        assert not flat.any()
        for i in range(6):
            for j in range(6):
                assert row_correlations(z, [i], [j])[0] == pearson(values[i], values[j])

    @pytest.mark.parametrize("exponent", [-531, 664])  # about 1.5e-160 and 1.9e200
    def test_extreme_magnitudes_scale_exactly(self, exponent):
        # squaring these rows underflows or overflows unless they are rescaled first
        rng = np.random.default_rng(6)
        values = rng.normal(size=(4, 7))
        scaled = values * 2.0 ** exponent
        assert standardize_rows(scaled)[0].tobytes() == standardize_rows(values)[0].tobytes()
        assert pearson(scaled[0], values[1]) == pearson(values[0], values[1])

    def test_extreme_magnitudes_match_unit_rows(self):
        assert pearson([1e200, -1e200, 3e200], [1, 2, 3]) == pytest.approx(0.5, abs=1e-15)
        assert pearson([1e-160, -1e-160, 3e-160], [1, 2, 3]) == pytest.approx(0.5, abs=1e-15)


class TestMatchGenes:
    def test_full_match(self):
        proteins = ProteinIndex(["A", "B"])
        rows = match_genes(proteins, matrix_of([[1, 2], [3, 4]], ["A", "B"]))
        assert rows.tolist() == [0, 1]

    def test_no_match(self):
        proteins = ProteinIndex(["X", "Y"])
        rows = match_genes(proteins, matrix_of([[1, 2]], ["A"]))
        assert rows.tolist() == [-1, -1]

    def test_mapping_table_redirects(self):
        proteins = ProteinIndex(["P1", "P2"])
        matrix = matrix_of([[1, 2], [3, 4]], ["gA", "gB"])
        rows = match_genes(proteins, matrix, {"P1": "gB", "P2": "gMissing"})
        assert rows.tolist() == [1, -1]

    def test_ratio_formats_like_reports(self):
        # synthetic stand-in for a realistic high-coverage match ratio
        proteins = ProteinIndex([f"P{i}" for i in range(173)])
        genes = [f"P{i}" for i in range(170)]
        matrix = matrix_of(np.zeros((170, 2)), genes)
        built = build_wppi(proteins, PpiNetwork(173, [0], [172]), matrix)
        assert f"{built.matching_ratio_percent:.2f}%" == "98.27%"
