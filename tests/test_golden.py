"""Byte-identity of the CLI's data outputs, pinned as sha256 digests.

A change meant to keep outputs must leave these digests as they are.
Manifests are not pinned: they carry timings and paths. A change that
alters outputs on purpose (for example, a canonical label order for
proteins) updates the digests here and lists the changed files and rows
in CHANGES.md.
"""

import hashlib
import random
from pathlib import Path

from wppi.cli import main

DATA = Path(__file__).parent / "data"

PIPELINE_TOY = {
    "communities.tsv": "12f018d56b3212a9ce23b6217c7f0f3147c626cccbe71b4892be4a9dfb386dd3",
    "complex_matches.tsv": "251eb407262819a0589e71307ce68197c15dcea0cac75cd00ad145c4296c7287",
    "enrichment.tsv": "ab4dc7a15275758b5da70687edc055ade8ae91eb38353efb8037e9a24c1154e3",
    "threshold_sweep.tsv": "36d40adefc39f62815d9e7eb6ed5e95f551d31f59ddf2da5e8081ae3403d754b",
    "wppi.tsv": "8ca1d780c5dd9cd0855754e4a5fc9f17e0957e8d3f11fc8288fe725623fa3819",
}

GEN_SYNTHETIC = {
    "ged.tsv": "052d5acccad84d8c0406012238bb194c5178727438e343ef88226d598bfeb55b",
    "ppi.tsv": "a48f581c4876294d9aab58319733d84e98ea4ecd1c4c5b9c565887145e26afe5",
    "truth.tsv": "1fdd981abc928a677c2f689f8c3f88b27a651196df0faed687aba043d80789b4",
    "wppi.tsv": "d62943b8b96538ae8d08be4329f4e4c0dec9b4ebc15bb5a00e68155b9e545059",
}

EVALUATE_TIES = {
    "complex_matches.tsv": "055ebc9af8f164573b277f1a4c4e6ecc64fa45c3ba1c2c1e637872b08c245769",
    "enrichment.tsv": "985c2230c88224985199dcff59d6a2c0026baf73ce623025fa6eff7f168fda73",
    "threshold_sweep.tsv": "ae503721cae8a368579cef3a6b3c9c28e049babdc309c99bf6628c1a63e4c7f3",
}


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir() if not p.name.endswith("manifest.json")}


def test_pipeline_on_toy_data(tmp_path):
    out = tmp_path / "run"
    assert main(["pipeline", "--ppi", str(DATA / "toy_ppi.tsv"),
                 "--ged", str(DATA / "toy_ged.tsv"),
                 "--catalogue", str(DATA / "toy_catalogue.tsv"),
                 "--annotations", str(DATA / "toy_annotations.tsv"),
                 "--threads", "2", "--output", str(out)]) == 0
    assert _digests(out) == PIPELINE_TOY


def test_gen_synthetic(tmp_path):
    out = tmp_path / "syn"
    assert main(["gen-synthetic", "--blocks", "8,8,8", "--samples", "6", "--seed", "4",
                 "--output", str(out)]) == 0
    assert _digests(out) == GEN_SYNTHETIC


def _evaluate_inputs(root: Path) -> dict[str, Path]:
    """50 communities, 200 terms and 40 complexes over 430 proteins, seeded.

    A third of the terms and complexes repeat an earlier member set under a
    new name, so equal p-values and equal match scores are decided by the
    term name and the catalogue order. Proteins Q* carry no term and sit in
    no complex; every fifth community holds only those, two in five start
    from part of a complex, and the rest are drawn at random. Every draw
    comes from ``Random.random``, the one method whose sequence Python keeps
    across versions, so the files and their digests do too.
    """
    rng = random.Random(8)

    def draw(lo, hi):
        return lo + int(rng.random() * (hi - lo + 1))

    def sample(items, k):
        pool = list(items)
        return [pool.pop(draw(0, len(pool) - 1)) for _ in range(k)]

    proteins = [f"P{i:03d}" for i in range(400)]
    lonely = [f"Q{i:02d}" for i in range(30)]
    terms: list[list[str]] = []
    for _ in range(200):
        if terms and rng.random() < 0.33:
            terms.append(terms[draw(0, len(terms) - 1)])
        else:
            terms.append(sorted(sample(proteins, draw(1, 30))))
    complexes: list[list[str]] = []
    for _ in range(40):
        if complexes and rng.random() < 0.33:
            complexes.append(complexes[draw(0, len(complexes) - 1)])
        else:
            complexes.append(sorted(sample(proteins, draw(2, 12))))
    communities: list[list[str]] = []
    for i in range(50):
        if i % 5 == 0:
            members = sample(lonely, draw(2, 4))
        elif i % 5 < 3:
            core = complexes[draw(0, len(complexes) - 1)]
            members = sample(core, draw(1, len(core))) + sample(proteins + lonely, draw(0, 4))
        else:
            members = sample(proteins + lonely, draw(2, 14))
        communities.append(sorted(set(members)))
    order = sample(range(200), 200)
    root.mkdir()
    paths = {name: root / f"{name}.tsv" for name in ("communities", "annotations", "catalogue")}
    paths["communities"].write_text("community_id\tproteins\tfunctional_cohesion\tmodularity\n"
                                    + "".join(f"{cid}\t{','.join(members)}\tNA\tNA\n"
                                              for cid, members in enumerate(communities)))
    paths["annotations"].write_text("".join(f"{protein}\tGO:{order[t]:07d}\n"
                                            for t, members in enumerate(terms)
                                            for protein in members))
    paths["catalogue"].write_text("".join(f"cx{i:02d}\t{','.join(members)}\n"
                                          for i, members in enumerate(complexes)))
    return paths


def test_evaluate_with_ties(tmp_path):
    paths = _evaluate_inputs(tmp_path / "in")
    out = tmp_path / "ev"
    assert main(["evaluate", "--communities", str(paths["communities"]),
                 "--catalogue", str(paths["catalogue"]),
                 "--annotations", str(paths["annotations"]),
                 "--format", "tsv", "--output", str(out)]) == 0
    assert _digests(out) == EVALUATE_TIES
