import math
import random
from dataclasses import astuple

import pytest

from wppi.evaluator import (
    AnnotationSet,
    ComplexCatalogue,
    enrich,
    hypergeom_pvalue,
    match_complexes,
    overlap_score,
    recall_ratio,
)

from .oracles import (
    enrich_direct,
    enrich_loop,
    hypergeom_pvalue_loop,
    hypergeom_tail_enumerated,
    hypergeom_tail_exact,
    match_complexes_direct,
    overlap_direct,
    recall_direct,
)


class TestOverlapScore:
    def test_identical_sets(self):
        assert overlap_score({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert overlap_score({"a"}, {"b"}) == 0.0

    def test_published_convention_row(self):
        # detected size 3 fully inside a 6-member reference complex
        pc = {"YNG2", "EAF1", "ESA1"}
        kc = {"YNG2", "EAF1", "ESA1", "EPL1", "EAF3", "TRA1"}
        assert overlap_score(pc, kc) == pytest.approx(0.50)

    def test_symmetry(self):
        a = {"x", "y", "z"}
        b = {"y", "z", "w", "v"}
        assert overlap_score(a, b) == overlap_score(b, a)

    def test_factorization(self):
        a = {"x", "y", "z"}
        b = {"y", "z", "w", "v"}
        inter = len(a & b)
        assert overlap_score(a, b) == pytest.approx(
            (inter / len(a)) * (inter / len(b)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            overlap_score(set(), {"a"})


class TestRecallRatio:
    def test_published_convention_row(self):
        # 3 of an 8-member reference complex recovered
        kc = {"CDC11", "CDC12", "CDC3", "CDC10", "YDL225W", "X1", "X2", "X3"}
        pc = {"CDC11", "CDC12", "CDC3"}
        assert recall_ratio(pc, kc) == pytest.approx(0.375)

    def test_identical(self):
        assert recall_ratio({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert recall_ratio({"a"}, {"b", "c"}) == 0.0

    def test_matches_oracle(self):
        a = {"p", "q", "r", "s"}
        b = {"q", "s", "t"}
        assert recall_ratio(a, b) == pytest.approx(recall_direct(a, b))


class TestMatchComplexes:
    def catalogue(self):
        return ComplexCatalogue([
            ("alpha", frozenset({"a", "b", "c"})),
            ("beta", frozenset({"d", "e"})),
        ])

    def test_self_catalogue_matches_everything(self):
        communities = {0: {"a", "b", "c"}, 1: {"d", "e"}}
        report = match_complexes(communities, self.catalogue(), threshold=0.5)
        assert report.matched_count == 2
        assert all(m.score == 1.0 for m in report.matches)

    def test_threshold_one_requires_identity(self):
        communities = {0: {"a", "b"}}
        report = match_complexes(communities, self.catalogue(), threshold=1.0)
        assert report.matched_count == 0
        assert report.matches[0].complex_name == "alpha"

    def test_monotone_in_threshold(self):
        communities = {0: {"a", "b"}, 1: {"d", "x"}, 2: {"y"}}
        low = match_complexes(communities, self.catalogue(), threshold=0.1)
        high = match_complexes(communities, self.catalogue(), threshold=0.6)
        assert high.matched_count <= low.matched_count

    def test_empty_catalogue_warns(self):
        with pytest.warns(UserWarning, match="empty catalogue"):
            report = match_complexes({0: {"a"}}, ComplexCatalogue([]), 0.5)
        assert report.matches == []

    def test_catalogue_invariants(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            ComplexCatalogue([("solo", frozenset({"a"}))])
        with pytest.raises(ValueError, match="duplicate complex name"):
            ComplexCatalogue([("x", frozenset({"a", "b"})),
                              ("x", frozenset({"c", "d"}))])

    def test_both_conventions_reported(self):
        communities = {0: {"a", "b", "x", "y"}}
        report = match_complexes(communities, self.catalogue(), threshold=0.1)
        m = report.matches[0]
        assert m.score == pytest.approx(overlap_direct(communities[0], {"a", "b", "c"}))
        assert m.recall == pytest.approx(recall_direct(communities[0], {"a", "b", "c"}))


class TestHypergeomPvalue:
    def test_zero_overlap_is_certain(self):
        assert hypergeom_pvalue(10, 4, 5, 0) == 1.0

    def test_reference_case(self):
        assert hypergeom_pvalue(10, 4, 5, 3) == pytest.approx(55 / 210, abs=1e-12)

    def test_reference_case_by_enumeration(self):
        assert hypergeom_tail_enumerated(10, 4, 5, 3) == pytest.approx(55 / 210)

    def test_impossible_terms_contribute_zero(self):
        # population 10, group 8: a community of 4 must overlap by >= 2
        assert hypergeom_pvalue(10, 4, 8, 2) == pytest.approx(1.0)

    def test_argument_validation_names_constraint(self):
        with pytest.raises(ValueError, match="overlap"):
            hypergeom_pvalue(10, 4, 5, 5)
        with pytest.raises(ValueError, match="community size"):
            hypergeom_pvalue(10, 11, 5, 0)
        with pytest.raises(ValueError, match="group size"):
            hypergeom_pvalue(10, 4, 11, 0)

    def test_non_increasing_in_overlap(self):
        previous = 1.0
        for k in range(0, 5):
            p = hypergeom_pvalue(30, 6, 9, k)
            assert p <= previous + 1e-15
            previous = p

    def test_matches_exact_arithmetic_up_to_twenty(self):
        for population in range(1, 21):
            for community in range(0, population + 1):
                for group in range(0, population + 1):
                    for overlap in range(0, min(community, group) + 1):
                        expected = hypergeom_tail_exact(
                            population, community, group, overlap)
                        got = hypergeom_pvalue(population, community, group, overlap)
                        assert math.isclose(got, expected, abs_tol=1e-10), (
                            population, community, group, overlap)

    def test_relative_accuracy_against_exact_integers(self):
        for case in [
            (6000, 20, 20, 15),          # 6.8e-37: 1 - lower tail rounds it to 0
            (6000, 50, 40, 10),
            (16000, 2000, 8000, 1),      # overlap far below the mode; its own term underflows
            (100000, 5000, 5000, 800),   # 3.7e-197
        ]:
            expected = hypergeom_tail_exact(*case)
            assert expected > 0.0
            got = hypergeom_pvalue(*case)
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=0.0), (case, got, expected)

    def test_large_arguments_stay_finite_and_clamped(self):
        p = hypergeom_pvalue(20000, 250, 1200, 40)
        assert 0.0 <= p <= 1.0


class TestEnrich:
    def annotations(self):
        return AnnotationSet({
            "T:1": frozenset({"a", "b", "c"}),
            "T:2": frozenset({"c", "d", "e", "f"}),
        })

    def test_perfectly_enriched_community(self):
        records = enrich({0: {"a", "b", "c"}}, self.annotations(), population=50)
        best = records[0]
        assert best.term == "T:1"
        assert best.p_value == pytest.approx(
            hypergeom_tail_exact(50, 3, 3, 3), abs=1e-12)
        assert best.p_value < 1e-3

    def test_unannotated_community(self):
        records = enrich({0: {"x", "y"}}, self.annotations(), population=50)
        assert records[0].term == "unannotated"
        assert records[0].p_value == 1.0

    def test_sorted_by_pvalue(self):
        records = enrich(
            {0: {"a", "b", "c"}, 1: {"x", "y"}, 2: {"c", "d"}},
            self.annotations(), population=50)
        values = [r.p_value for r in records]
        assert values == sorted(values)

    def test_random_cases_match_enumeration(self):
        import numpy as np

        rng = np.random.default_rng(0)
        labels = [f"p{i}" for i in range(20)]
        for _ in range(15):
            community = set(rng.choice(labels, size=rng.integers(1, 8), replace=False))
            term = set(rng.choice(labels, size=rng.integers(1, 10), replace=False))
            overlap = len(community & term)
            if overlap == 0:
                continue
            records = enrich({0: community},
                             AnnotationSet({"T": frozenset(term)}), population=20)
            expected = hypergeom_tail_enumerated(20, len(community), len(term), overlap)
            assert records[0].p_value == pytest.approx(expected, abs=1e-10)

    def test_population_smaller_than_community_rejected(self):
        with pytest.raises(ValueError, match="population smaller"):
            enrich({0: {"a", "b", "c"}}, self.annotations(), population=2)


def _fuzz_case(seed):
    """Communities, annotation terms and a catalogue drawn so that ties are common.

    Some proteins belong to no term and no complex, so unannotated and
    unmatched communities occur; some terms and complexes repeat an earlier
    member set under a new name, so equal p-values and equal scores occur.
    """
    rng = random.Random(seed)
    shared = [f"p{i}" for i in range(rng.randint(4, 24))]
    lonely = [f"q{i}" for i in range(rng.randint(1, 6))]
    pool = shared + lonely
    ids = rng.sample(range(100), rng.randint(1, 8))
    communities = {cid: set(rng.sample(pool, rng.randint(0, min(8, len(pool)))))
                   for cid in ids}
    terms = {}
    groups = []
    for name in rng.sample(range(1000), rng.randint(0, 12)):
        if groups and rng.random() < 0.4:
            group = rng.choice(groups)
        else:
            group = frozenset(rng.sample(shared, rng.randint(1, min(6, len(shared)))))
            groups.append(group)
        terms[f"T{name:03d}"] = group
    entries = []
    references = []
    for name in rng.sample(range(1000), rng.randint(1, 8)):
        if references and rng.random() < 0.4:
            reference = rng.choice(references)
        else:
            reference = frozenset(rng.sample(shared, rng.randint(2, min(6, len(shared)))))
            references.append(reference)
        entries.append((f"C{name:03d}", reference))
    population = len(pool) + rng.randint(0, 20)
    threshold = rng.choice([0.1, 0.25, 0.5, 1.0])
    return communities, terms, entries, population, threshold


class TestIndexedScoringMatchesAllPairs:
    SEEDS = range(300)

    def test_records_equal_the_all_pairs_oracles(self):
        seen = {"score tie": 0, "no complex": 0, "unannotated": 0, "key tie": 0}
        for seed in self.SEEDS:
            communities, terms, entries, population, threshold = _fuzz_case(seed)

            report = match_complexes(communities, ComplexCatalogue(entries), threshold)
            expected = match_complexes_direct(communities, entries, threshold)
            assert [astuple(m) for m in report.matches] == expected, seed
            assert report.matched_count == sum(1 for row in expected if row[-1])
            assert report.total == len(expected)

            records = enrich(communities, AnnotationSet(terms), population)
            expected = enrich_direct(communities, terms, population, hypergeom_pvalue)
            assert [astuple(r) for r in records] == expected, seed

            for members in communities.values():
                if not members:
                    continue
                scores = [overlap_direct(members, ref) for _, ref in entries]
                top = max(scores)
                seen["no complex"] += top == 0.0
                seen["score tie"] += top > 0.0 and scores.count(top) > 1
                keys = [(len(members), len(group), len(members & group))
                        for group in terms.values() if members & group]
                seen["unannotated"] += not keys
                if keys:
                    best = min(hypergeom_pvalue(population, *key) for key in keys)
                    tied = [key for key in keys if hypergeom_pvalue(population, *key) == best]
                    seen["key tie"] += len(set(tied)) < len(tied)
        assert all(seen.values()), seen


def _enrichment_case(seed: int):
    """Seeded communities and annotations with repeated groups under other names, terms
    of equal size, and terms covering the whole population."""
    rng = random.Random(seed)
    proteins = [f"p{i}" for i in range(rng.randint(2, 60))]
    population = len(proteins) + rng.choice([0, 0, rng.randint(1, 40)])
    communities = {cid: set(rng.sample(proteins, rng.randint(0, min(20, len(proteins)))))
                   for cid in rng.sample(range(100), rng.randint(1, 12))}
    terms: dict[str, frozenset[str]] = {}
    groups: list[frozenset[str]] = []
    for name in rng.sample(range(1000), rng.randint(0, 40)):
        roll = rng.random()
        if groups and roll < 0.3:
            group = rng.choice(groups)
        elif roll < 0.35 and population == len(proteins):
            group = frozenset(proteins)
        else:
            group = frozenset(rng.sample(proteins, rng.randint(1, len(proteins))))
        groups.append(group)
        terms[f"T{name:03d}"] = group
    return communities, AnnotationSet(terms), population


class TestCountedEnrichmentMatchesTheLoop:
    def test_records_equal_the_loop_oracle(self):
        seen = {"key tie": 0, "p = 1": 0, "unannotated": 0}
        for seed in range(400):
            communities, annotations, population = _enrichment_case(seed)
            records = enrich(communities, annotations, population)
            assert records == enrich_loop(communities, annotations, population), seed
            for r in records:
                seen["unannotated"] += r.term == "unannotated"
                seen["p = 1"] += r.term != "unannotated" and r.p_value == 1.0
                members = set(communities[r.community_id])
                seen["key tie"] += sum(
                    1 for term, group in annotations.terms.items()
                    if term != r.term and len(group) == r.group_size
                    and len(members & group) == r.overlap) > 0
        assert all(seen.values()), seen

    @staticmethod
    def _two_terms(population, size, front, dominated, front_name="B", dominated_name="A"):
        """One community of ``size`` proteins and two terms, keyed (term size, overlap) by
        ``front`` and ``dominated``; the outsiders of each term are labels of their own."""
        members = [f"c{i}" for i in range(size)]
        terms = {}
        for name, (group, overlap) in ((front_name, front), (dominated_name, dominated)):
            outsiders = [f"{name}{i}" for i in range(group - overlap)]
            terms[name] = frozenset(members[:overlap] + outsiders)
        return {0: set(members)}, AnnotationSet(terms), population

    @pytest.mark.parametrize("case, p", [
        # p = 1.0: both tails round up to the clamp, and the dominated term's name is less.
        ((51, 20, (31, 1), (32, 1)), 1.0),
        # p = 0.0: both tails underflow.
        ((20000, 600, (600, 600), (601, 600)), 0.0),
        # Near 1 the computed tails swap: the dominated key's reads lower by 2e-11.
        ((18091, 52, (7607, 4), (7608, 4)), 0.9999999957710756),
    ], ids=["clamped to 1", "underflow to 0", "swapped near 1"])
    def test_plateaus_score_every_key(self, case, p):
        communities, annotations, population = self._two_terms(*case)
        [record] = enrich(communities, annotations, population)
        assert [record] == enrich_loop(communities, annotations, population)
        assert (record.term, record.p_value) == ("A", p)

    def test_terms_sharing_the_best_key_report_the_least_name(self):
        members = {f"c{i}" for i in range(6)}
        group = frozenset(sorted(members)[:4] + ["x1"])
        terms = {"T3": group, "T1": group, "T2": frozenset(group | {"x2"}), "T4": group}
        annotations = AnnotationSet(terms)
        [record] = enrich({0: members}, annotations, 40)
        assert [record] == enrich_loop({0: members}, annotations, 40)
        assert (record.term, record.group_size, record.overlap) == ("T1", 5, 4)

    def test_term_larger_than_population_raises_though_dominated(self):
        terms = {"small": frozenset({"a", "b"}), "huge": frozenset("abcdefgh")}
        with pytest.raises(ValueError, match="group size"):
            enrich({0: {"a", "b"}}, AnnotationSet(terms), population=5)

    def test_tails_are_computed_for_the_front_only(self, monkeypatch):
        from wppi import evaluator

        rng = random.Random(5)
        proteins = [f"p{i:04d}" for i in range(3000)]
        communities = {cid: set(rng.sample(proteins, rng.randint(3, 60))) for cid in range(120)}
        terms = {f"T{t:04d}": frozenset(rng.sample(proteins, rng.randint(1, 300)))
                 for t in range(1500)}
        annotations = AnnotationSet(terms)
        calls = []
        tail = evaluator._upper_tail
        monkeypatch.setattr(evaluator, "_upper_tail", lambda *args: calls.append(args)
                            or tail(*args))
        records = enrich(communities, annotations, len(proteins))
        assert len(calls) == len(set(calls)) == 787
        keys = {(len(m), len(g), len(m & g)) for m in communities.values()
                for g in terms.values() if m & g}
        assert len(keys) == 40062  # the tails a scan over every key computes
        monkeypatch.undo()
        assert records == enrich_loop(communities, annotations, len(proteins))

    def test_tails_keep_the_dominance_order_off_the_plateaus(self):
        """A seeded search for the front's exactness: where a key's computed tail is a
        normal float below 1/2, growing its term size or shrinking its overlap gives a
        strictly larger computed tail. The keys reach 20,000 proteins, and the search
        aims at both plateaus as well as at random overlaps."""
        import sys

        from wppi.evaluator import _upper_tail

        rng = random.Random(23)
        near = {"zero": 0, "half": 0}
        for _ in range(20000):
            population = rng.choice([rng.randint(2, 3000), rng.randint(2, 20000)])
            n = rng.choice([rng.randint(1, min(population, 100)), rng.randint(1, population)])
            group = rng.choice([rng.randint(1, min(population, 600)), rng.randint(1, population)])
            mean = n * group / population
            spread = math.sqrt(max(mean * (1 - group / population), 1.0))
            overlap = rng.choice([rng.randint(1, min(n, group)),
                                  round(mean + spread * rng.uniform(-1, 2)),
                                  round(mean + spread * rng.uniform(5, 60))])
            if not 1 <= overlap <= min(n, group):
                continue
            p = _upper_tail(population, n, group, overlap)
            if not sys.float_info.min <= p < 0.5:
                continue
            near["zero"] += p < 1e-200
            near["half"] += p > 0.25
            for bigger, fewer in ((group + 1, overlap), (group, overlap - 1)):
                if bigger <= population and fewer >= 1:
                    assert _upper_tail(population, n, bigger, fewer) > p, \
                        (population, n, group, overlap)
        assert min(near.values()) > 100, near

    def test_pvalues_equal_the_lgamma_path_bit_for_bit(self):
        rng = random.Random(11)
        for _ in range(4000):
            population = rng.choice([rng.randint(0, 40), rng.randint(0, 3000), 20000])
            n = rng.randint(0, population)
            group = rng.choice([rng.randint(0, population), rng.randint(0, min(population, 50))])
            overlap = rng.randint(0, min(n, group))
            key = (population, n, group, overlap)
            assert hypergeom_pvalue(*key).hex() == hypergeom_pvalue_loop(*key).hex(), key
