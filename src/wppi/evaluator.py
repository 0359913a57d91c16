"""Scoring detected communities against complex catalogues and annotations.

Two matching conventions are reported side by side because published tables
mix them: the squared-overlap score |A∩B|^2 / (|A|·|B|) and the plain
recall |A∩B| / |B| against the catalogue entry. Enrichment sums the
hypergeometric upper tail directly from its largest term, which is taken
from log-binomials; the other terms follow by the term ratio. The
log-binomials read one table of log-factorials, lgamma(i + 1), filled on
first use of each i and shared by every tail of an ``enrich`` call; each is
lf[n] - lf[k] - lf[n - k], the same three lgamma values in the same order
as the direct formula, so every p-value is the same to the bit.

Both checks invert their reference sets into a protein -> entries index, so
a community is scored only against the entries it shares a protein with.
An all-pairs scan never picks any other entry, except that a community
sharing no protein with any complex is reported against the first catalogue
entry at score 0; that case is kept, so ties and outputs are unchanged.
Enrichment takes that index ready-made from ``fileio.load_term_index``, or
builds it from an ``AnnotationSet``, and computes tails only for the Pareto
front of each community's (term size, overlap) keys (see ``enrich_index``).
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import lt
from typing import Iterable, Mapping

DEFAULT_MATCH_THRESHOLD = 0.10


@dataclass
class ComplexCatalogue:
    """Named reference complexes, each a set of protein labels."""

    entries: list[tuple[str, frozenset[str]]]

    def __post_init__(self):
        names = set()
        for name, members in self.entries:
            if name in names:
                raise ValueError(f"duplicate complex name: {name!r}")
            names.add(name)
            if len(members) < 2:
                raise ValueError(f"complex {name!r} has fewer than 2 proteins")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class AnnotationSet:
    """Annotation term -> set of protein labels carrying it."""

    terms: dict[str, frozenset[str]]

    def __post_init__(self):
        for term, members in self.terms.items():
            if not members:
                raise ValueError(f"annotation term {term!r} has no proteins")


def overlap_score(pc: Iterable[str], kc: Iterable[str]) -> float:
    """Squared intersection over the size product; 1.0 only for identical sets."""
    a = set(pc)
    b = set(kc)
    if not a or not b:
        raise ValueError("overlap score undefined for empty sets")
    inter = len(a & b)
    return (inter * inter) / (len(a) * len(b))


def recall_ratio(pc: Iterable[str], kc: Iterable[str]) -> float:
    """Fraction of the reference set recovered by the detected community."""
    a = set(pc)
    b = set(kc)
    if not b:
        raise ValueError("recall undefined for an empty reference set")
    return len(a & b) / len(b)


@dataclass
class ComplexMatch:
    community_id: int
    community_size: int
    complex_name: str
    complex_size: int
    overlap: int
    score: float
    recall: float
    matched: bool


@dataclass
class MatchReport:
    threshold: float
    matches: list[ComplexMatch]
    matched_count: int
    total: int


def check_match_threshold(threshold: float) -> None:
    """Raise ``ValueError`` unless ``threshold`` lies in (0, 1]; NaN fails both tests."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")


def match_complexes(communities: Mapping[int, Iterable[str]],
                    catalogue: ComplexCatalogue,
                    threshold: float = DEFAULT_MATCH_THRESHOLD) -> MatchReport:
    """Best catalogue entry per community; matched when the score clears the threshold.

    A catalogue complex may be the best match of several communities. Ties on
    the score go to the earlier catalogue entry. Only entries that share a
    protein with the community are scored; a community that shares none is
    reported against the first entry with score 0, as an all-pairs scan
    would report it.
    """
    check_match_threshold(threshold)
    matches: list[ComplexMatch] = []
    entries = catalogue.entries
    if not entries:
        warnings.warn("empty catalogue; nothing to match", stacklevel=2)
        return MatchReport(threshold, [], 0, len(communities))
    holders: dict[str, list[int]] = {}
    for index, (_, reference) in enumerate(entries):
        for protein in reference:
            holders.setdefault(protein, []).append(index)
    for cid in sorted(communities):
        members = set(communities[cid])
        if not members:
            continue
        shared: dict[int, int] = {}
        for protein in members:
            for index in holders.get(protein, ()):
                shared[index] = shared.get(index, 0) + 1
        best, score, overlap = 0, 0.0, 0
        for index in sorted(shared):
            inter = shared[index]
            candidate = (inter * inter) / (len(members) * len(entries[index][1]))
            if candidate > score:
                best, score, overlap = index, candidate, inter
        name, reference = entries[best]
        matches.append(ComplexMatch(
            community_id=cid,
            community_size=len(members),
            complex_name=name,
            complex_size=len(reference),
            overlap=overlap,
            score=score,
            recall=overlap / len(reference),
            matched=score >= threshold,
        ))
    matched = sum(1 for m in matches if m.matched)
    return MatchReport(threshold, matches, matched, len(matches))


class _LogFactorials(dict):
    """lgamma(i + 1) by i, each computed on its first lookup."""

    def __missing__(self, i: int) -> float:
        value = self[i] = math.lgamma(i + 1)
        return value


def _log_comb(lf: _LogFactorials, n: int, k: int) -> float:
    return lf[n] - lf[k] - lf[n - k]


def hypergeom_pvalue(population: int, community_size: int,
                     group_size: int, overlap: int) -> float:
    """Upper-tail probability of drawing at least ``overlap`` annotated proteins.

    The tail is summed directly, without a complement, so p-values far below
    1e-16 keep their relative precision. The largest term (at the mode,
    clamped into the tail) comes from log-binomials; the walk up and down
    from it takes each next term from the previous one by the term ratio and
    stops once a term falls below 1e-17 of the running sum.
    """
    _check_tail(population, community_size, group_size, overlap)
    return _upper_tail(_LogFactorials(), population, community_size, group_size, overlap)


def _check_tail(population: int, community_size: int, group_size: int, overlap: int) -> None:
    if population < 0:
        raise ValueError("population must be >= 0")
    if not 0 <= community_size <= population:
        raise ValueError("community size must satisfy 0 <= size <= population")
    if not 0 <= group_size <= population:
        raise ValueError("group size must satisfy 0 <= size <= population")
    if not 0 <= overlap <= min(community_size, group_size):
        raise ValueError("overlap must satisfy 0 <= overlap <= min(community, group)")


def _upper_tail(lf: _LogFactorials, population: int, n: int, K: int, overlap: int) -> float:
    """``hypergeom_pvalue`` on checked arguments, with log-factorials from ``lf``."""
    if overlap == 0:
        return 1.0
    rest = population - K
    lo = max(overlap, n - rest)
    hi = min(n, K)
    start = min(max((n + 1) * (K + 1) // (population + 2), lo), hi)
    first = math.exp(_log_comb(lf, K, start) + _log_comb(lf, rest, n - start)
                     - _log_comb(lf, population, n))
    total = first
    term = first
    for i in range(start, hi):
        term *= (K - i) * (n - i) / ((i + 1) * (rest - n + i + 1))
        total += term
        if term < 1e-17 * total:
            break
    term = first
    for i in range(start, lo, -1):
        term *= i * (rest - n + i) / ((K - i + 1) * (n - i + 1))
        total += term
        if term < 1e-17 * total:
            break
    return min(1.0, total)


@dataclass
class EnrichmentRecord:
    community_id: int
    community_size: int
    term: str
    group_size: int
    overlap: int
    p_value: float


def _least_tail(cache: dict[tuple[int, int], float], keys, lf: _LogFactorials,
                population: int, size: int) -> float:
    """The least tail over (term size, overlap) ``keys``, computing those not in ``cache``."""
    for key in set(keys).difference(cache):
        cache[key] = _upper_tail(lf, population, size, *key)
    return min(map(cache.__getitem__, keys))


def enrich(communities: Mapping[int, Iterable[str]],
           annotations: AnnotationSet,
           population: int) -> list[EnrichmentRecord]:
    """Best-enriched annotation term per community, sorted by p-value.

    Inverts ``annotations`` into the protein -> terms index that
    ``fileio.load_term_index`` reads from a file, and scores it with
    ``enrich_index``.
    """
    terms_of: defaultdict[str, list[str]] = defaultdict(list)
    for term, group in annotations.terms.items():
        for protein in group:
            terms_of[protein].append(term)
    term_sizes = {term: len(group) for term, group in annotations.terms.items()}
    return enrich_index(communities, terms_of, term_sizes, population)


def enrich_index(communities: Mapping[int, Iterable[str]],
                 terms_of: Mapping[str, Iterable[str]],
                 term_sizes: Mapping[str, int],
                 population: int) -> list[EnrichmentRecord]:
    """``enrich`` on an index: each protein's distinct terms, and each term's size.

    Only terms that share a protein with the community are scored: a
    ``Counter`` over the members' terms gives each one's overlap, and so a
    (term size, overlap) key. The tail grows with the term size and falls
    with the overlap, so the least p lies on the Pareto front of the keys:
    for each term size the largest overlap, kept only where it exceeds the
    overlap of every smaller size. Tails are computed for the front alone,
    each distinct (community size, term size, overlap) once per call, from
    one log-factorial table. The best term is the least name among the terms
    whose key has the least p, so ties and records are those of a scan over
    every term. That holds while the computed tails keep the true order of
    the keys, which fails only on the plateaus: near 0, where subnormal
    tails lose their bits, and near 1, where neighbouring keys closer than
    the rounding error of the log-binomials tie or swap (seen up to
    1 - 7e-8). So when the front's least p is below the smallest normal
    float, or at least 1/2, every key is scored, as without the front; in
    between, a seeded search in the tests finds the order kept. Communities
    without any annotated member are reported under the term
    ``unannotated`` with p = 1.0.
    """
    lf = _LogFactorials()
    tails: dict[int, dict[tuple[int, int], float]] = {}  # size -> (term size, overlap) -> p
    records: list[EnrichmentRecord] = []
    for cid in sorted(communities):
        members = set(communities[cid])
        size = len(members)
        if population < size:
            raise ValueError("population smaller than a community")
        shared = Counter(chain.from_iterable(map(terms_of.get, members, repeat(()))))
        if not shared:
            records.append(EnrichmentRecord(cid, size, "unannotated", 0, 0, 1.0))
            continue
        sizes = list(map(term_sizes.__getitem__, shared))
        overlaps = list(shared.values())
        _check_tail(population, size, max(sizes), 1)  # then every key is in range
        # The least term size has overlap >= 1, so it dominates every other term
        # shared once: the front is read off it and the terms shared more often.
        many = list(map(lt, repeat(1), overlaps))
        candidates = [(min(sizes), 1), *zip(compress(sizes, many), compress(overlaps, many))]
        front: list[tuple[int, int]] = []
        for key in dict(sorted(candidates)).items():  # the largest overlap of each size
            if not front or key[1] > front[-1][1]:
                front.append(key)
        cache = tails.setdefault(size, {})
        scored = front
        p = _least_tail(cache, scored, lf, population, size)
        if not sys.float_info.min <= p < 0.5:  # a plateau: score every key
            scored = set(zip(sizes, overlaps))
            p = _least_tail(cache, scored, lf, population, size)
        best = {key for key in scored if cache[key] == p}
        term = min(compress(shared, map(best.__contains__, zip(sizes, overlaps))))
        records.append(EnrichmentRecord(cid, size, term, term_sizes[term], shared[term], p))
    records.sort(key=lambda r: (r.p_value, r.community_id))
    return records
