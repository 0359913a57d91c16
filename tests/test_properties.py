import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wppi.detector import (
    HubConfig,
    compress,
    detect,
    select_hubs,
    stage1_agglomerate,
)
from wppi.evaluator import hypergeom_pvalue, overlap_score
from wppi.expression import pearson, quantile_normalize_values
from wppi.model import Partition
from wppi.synthetic import planted_partition

from .conftest import random_network
from .oracles import cache_drift, cohesion_direct

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def vectors(min_size=2, max_size=64):
    return st.lists(finite, min_size=min_size, max_size=max_size)


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=64))
    a = draw(st.lists(finite, min_size=n, max_size=n))
    b = draw(st.lists(finite, min_size=n, max_size=n))
    return a, b


class TestPearsonProperties:
    @given(vector_pairs())
    @example(pair=([0.0, -1.071e-160], [0.0, 1.0]))  # squares underflow unless rescaled
    def test_bounded(self, pair):
        a, b = pair
        assert abs(pearson(a, b)) <= 1.0 + 1e-12

    @given(vector_pairs(),
           st.floats(min_value=0.01, max_value=100, allow_nan=False),
           st.floats(min_value=-50, max_value=50, allow_nan=False))
    @example(pair=([0.0, 0.0, 1.486593990761277e-44], [0.0, 0.0, 1.0]), alpha=1.0, beta=0.1)
    def test_affine_invariant_positive_scale(self, pair, alpha, beta):
        a, b = pair
        base = pearson(a, b)
        shifted = pearson([alpha * x + beta for x in a], b)
        if base == 0.0 or shifted == 0.0:
            return  # a zero-variance degeneracy on either side
        assert shifted == pytest.approx(base, abs=1e-10)

    @given(vector_pairs(), st.floats(min_value=0.01, max_value=100, allow_nan=False))
    @example(pair=([0.0, 7.14e-161], [0.0, 1.0]), alpha=1.5)
    def test_negative_scale_flips_sign(self, pair, alpha):
        a, b = pair
        base = pearson(a, b)
        flipped = pearson([-alpha * x for x in a], b)
        if base == 0.0 or flipped == 0.0:
            return
        assert flipped == pytest.approx(-base, abs=1e-10)


class TestQuantileProperties:
    def _random_unique(self, rng, n, m):
        values = rng.normal(size=(n, m))
        while len(np.unique(values)) != values.size:
            values = rng.normal(size=(n, m))
        return values

    def test_idempotent_on_tie_free_matrices(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            values = self._random_unique(rng, int(rng.integers(2, 30)),
                                         int(rng.integers(2, 8)))
            once = quantile_normalize_values(values)
            assert np.allclose(quantile_normalize_values(once), once, atol=1e-12)

    def test_columns_identical_after_normalization(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            values = self._random_unique(rng, int(rng.integers(2, 30)),
                                         int(rng.integers(2, 8)))
            out = quantile_normalize_values(values)
            first = np.sort(out[:, 0])
            for c in range(1, out.shape[1]):
                assert np.allclose(np.sort(out[:, c]), first, atol=1e-12)


class TestOverlapProperties:
    names = st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=15)

    @given(names, names)
    def test_symmetric(self, a, b):
        assert overlap_score(a, b) == overlap_score(b, a)

    @given(names, names)
    def test_bounded_by_component_ratios(self, a, b):
        inter = len(a & b)
        score = overlap_score(a, b)
        assert 0.0 <= score <= 1.0
        assert score <= min(inter / len(a), inter / len(b)) + 1e-15


class TestHypergeomProperties:
    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=40)
    def test_clamped_to_unit_interval(self, population):
        rng = np.random.default_rng(population)
        community = int(rng.integers(0, population + 1))
        group = int(rng.integers(0, population + 1))
        overlap = int(rng.integers(0, min(community, group) + 1))
        assert 0.0 <= hypergeom_pvalue(population, community, group, overlap) <= 1.0

    def test_non_increasing_in_overlap_many_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            population = int(rng.integers(2, 200))
            community = int(rng.integers(1, population + 1))
            group = int(rng.integers(1, population + 1))
            last = 1.0
            for overlap in range(min(community, group) + 1):
                p = hypergeom_pvalue(population, community, group, overlap)
                assert p <= last + 1e-12
                last = p


class TestPartitionCacheProperty:
    def test_cache_matches_recompute_on_random_graphs(self):
        rng = np.random.default_rng(55)
        for seed in range(10):
            n = int(rng.integers(10, 200))
            net = random_network(seed + 100, n=n, p=min(0.3, 8 / n))
            part = Partition(net)
            ids = [part.new_community(v)
                   for v in rng.choice(n, size=max(2, n // 6), replace=False)]
            for _ in range(300):
                v = int(rng.integers(n))
                k = ids[int(rng.integers(len(ids)))]
                if k in part.communities and part.assignment[v] != k:
                    part.move(v, k)
            assert cache_drift(part) < 1e-9


class TestStage1TerminationProperty:
    def test_always_terminates_within_cap(self):
        for seed in range(12):
            net = random_network(seed + 300, n=60, p=0.1)
            result = stage1_agglomerate(net, select_hubs(net))
            assert not result.hit_cap
            assert result.partition.is_total()


# The acceptance fuzz graphs: 100 seeded random graphs of 30 to 300 vertices.
FUZZ_SIZES = [30, 45, 60, 80, 100] * 18 + [150, 180, 200, 220, 240, 260, 280, 300,
                                           300, 300]
LAMBDAS = (1.0, 1.5, 2.0, 3.0)


def _connected(neighbors, group) -> bool:
    start = next(iter(group))
    seen = {start}
    stack = [start]
    while stack:
        for u in neighbors[stack.pop()]:
            if u in group and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == group


def _check_stage2_invariants(net, lam):
    """detect's groups, seen as super-vertex sets, are connected, cohesive
    (oracle cohesion >= lam) and locally maximal (no adjacent pair's union
    clears lam)."""
    result = detect(net, HubConfig(cohesion_threshold=lam))
    comp = compress(net, stage1_agglomerate(net, select_hubs(net)).partition)
    owner = {v: sv for sv, members in enumerate(comp.members) for v in members}
    groups = [frozenset(owner[v] for v in c.vertices) for c in result.communities]
    assert sorted(sv for g in groups for sv in g) == list(range(comp.num_vertices))
    # Every pass but the last merges, and each merge removes a group.
    assert result.stage2.passes <= comp.num_vertices - len(groups) + 1
    group_of = {sv: gid for gid, g in enumerate(groups) for sv in g}
    for g in groups:
        if len(g) > 1:
            assert _connected(comp.neighbors, g)
            assert cohesion_direct(comp.edges, g) >= lam
    adjacent = {(min(group_of[a], group_of[b]), max(group_of[a], group_of[b]))
                for a, b, _ in comp.edges if group_of[a] != group_of[b]}
    for x, y in adjacent:
        union = groups[x] | groups[y]
        assert not cohesion_direct(comp.edges, union) >= lam, (x, y)
    return result


class TestStage2Invariants:
    def test_fuzz_graphs_at_four_lambdas(self):
        for seed, n in enumerate(FUZZ_SIZES):
            net = random_network(seed, n=n, p=min(0.3, 6.0 / n))
            for lam in LAMBDAS:
                _check_stage2_invariants(net, lam)

    def test_planted_fixture_at_four_lambdas(self):
        # The stage-2 regime of the 100-block repro in ROADMAP.md (sparse,
        # light cross-block edges), at 30 blocks of 20.
        syn = planted_partition([20] * 30, p_in=0.4, p_out=0.005, w_out=(0.0, 0.5),
                                seed=1)
        for lam in LAMBDAS:
            result = _check_stage2_invariants(syn.network, lam)
            assert result.stage2.passes >= 2  # at least one merge, then a quiet pass

