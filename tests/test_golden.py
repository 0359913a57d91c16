"""Byte-identity of the CLI's data outputs, pinned as sha256 digests.

A change meant to keep outputs must leave these digests as they are.
Manifests are not pinned: they carry timings and paths. A change that
alters outputs on purpose (for example, a canonical label order for
proteins) updates the digests here and lists the changed files and rows
in CHANGES.md.
"""

import hashlib
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
