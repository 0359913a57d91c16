"""Output checks and quality scorers, independent of ``wppi`` and its tests.

A check returns a list of problems; an empty list means the output holds.
The scorers re-derive quality numbers from the files the CLI wrote, with
exact integer arithmetic where the package uses floating point.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

MATCH_SCORE = 0.25
PVALUE_REL_TOL = Fraction(1, 10**9)


def _rows(path: Path):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield line.split("\t")


def check_wppi(path: Path, edges: frozenset[tuple[str, str]]) -> list[str]:
    """The weighted edge set equals the input PPI edge set; weights lie in [0, 1]."""
    seen: set[tuple[str, str]] = set()
    problems = []
    for a, b, w in _rows(path):
        pair = (a, b) if a < b else (b, a)
        if pair in seen:
            problems.append(f"{path.name}: duplicate edge {a}-{b}")
        seen.add(pair)
        if not 0.0 <= float(w) <= 1.0:
            problems.append(f"{path.name}: weight {w} of {a}-{b} outside [0, 1]")
    if seen != edges:
        problems.append(f"{path.name}: {len(seen - edges)} extra and "
                        f"{len(edges - seen)} missing edges against the input PPI")
    return problems[:5]


def read_communities(path: Path) -> list[list[str]]:
    return [row[1].split(",") for row in _rows(path) if row[0] != "community_id"]


def check_partition(communities: list[list[str]], proteins: frozenset[str]) -> list[str]:
    """Every PPI protein appears in exactly one community, and nothing else does."""
    members = [p for community in communities for p in community]
    problems = []
    if len(members) != len(set(members)):
        problems.append(f"{len(members) - len(set(members))} proteins in more than one community")
    if set(members) != proteins:
        problems.append(f"{len(proteins - set(members))} proteins in no community, "
                        f"{len(set(members) - proteins)} unknown proteins")
    return problems


def check_pvalues(pvalues: list[float]) -> list[str]:
    bad = [p for p in pvalues if not 0.0 <= p <= 1.0]
    return [f"{len(bad)} p-values outside [0, 1], first {bad[0]!r}"] if bad else []


def enrichment_tsv_pvalues(path: Path) -> list[float]:
    return [float(row[5]) for row in _rows(path) if row[0] != "community_id"]


def blocks_matched(communities: list[list[str]], blocks: list[list[str]]) -> int:
    """Planted blocks that some community matches at overlap score >= 0.25."""
    home = {p: c for c, community in enumerate(communities) for p in community}
    sizes = [len(community) for community in communities]
    matched = 0
    for block in blocks:
        overlaps: dict[int, int] = {}
        for p in block:
            if p in home:
                overlaps[home[p]] = overlaps.get(home[p], 0) + 1
        if any(k * k >= MATCH_SCORE * sizes[c] * len(block) for c, k in overlaps.items()):
            matched += 1
    return matched


def exact_upper_tail(population: int, drawn: int, group: int, overlap: int) -> Fraction:
    """P(X >= overlap) for X ~ Hypergeometric(population, group, drawn), exactly."""
    top = min(drawn, group)
    num = sum(math.comb(group, i) * math.comb(population - group, drawn - i)
              for i in range(overlap, top + 1))
    return Fraction(num, math.comb(population, drawn))


def pvalue_bad_count(records: list[dict], population: int) -> int:
    """Reported p-values whose relative error against the exact tail exceeds 1e-9."""
    bad = 0
    for r in records:
        exact = exact_upper_tail(population, r["community_size"], r["group_size"], r["overlap"])
        if abs(Fraction(r["p_value"]) - exact) > PVALUE_REL_TOL * exact:
            bad += 1
    return bad


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if not k.endswith("_seconds")}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def digest(path: Path) -> str:
    """sha256 of an output file; manifests drop their wall-clock ``*_seconds`` fields."""
    data = path.read_bytes()
    if path.name.endswith("_manifest.json"):
        data = json.dumps(_without_timings(json.loads(data)), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()
