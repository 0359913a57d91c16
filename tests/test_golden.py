"""Byte-identity of the CLI's data outputs, pinned as sha256 digests.

A change meant to keep outputs must leave these digests as they are.
Manifests are not pinned: they carry timings and paths. A change that
alters outputs on purpose (for example, a canonical label order for
proteins) updates the digests here and lists the changed files and rows
in CHANGES.md.
"""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from wppi.cli import main
from wppi.fileio import load_expression, write_wppi
from wppi.model import ProteinIndex

from .scale_fixture import scale_network

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

BUILD_INGEST = {
    "wppi.tsv": "98efd61c47379f7527337e49a3e26e455cce6770a3635e692efe472f37e657dc",
}

DETECT_SCALE = {
    "communities.tsv": "0bdefab079cf655eceb897087f5e63b3dfd6c6a3112b10e8738ed695aa6cfd4d",
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


def test_detect_on_scale_fixture(tmp_path):
    """detect --wppi at lambda 2 on the 2,000-vertex scale fixture, seed 1.

    Read back from the file, the vertices are numbered by first appearance,
    and the run gives 44 communities, 34 of them merged in stage 2.
    """
    network, _ = scale_network(2000, 1)
    wppi = tmp_path / "wppi.tsv"
    write_wppi(wppi, ProteinIndex(f"P{v:04d}" for v in range(network.num_vertices)), network)
    out = tmp_path / "detect"
    assert main(["detect", "--wppi", str(wppi), "--lambda", "2", "--output", str(out)]) == 0
    assert _digests(out) == DETECT_SCALE


def _drawing(rng: random.Random):
    """Integer and sampling draws made from ``rng.random`` alone."""
    def draw(lo, hi):
        return lo + int(rng.random() * (hi - lo + 1))

    def sample(items, k):
        pool = list(items)
        return [pool.pop(draw(0, len(pool) - 1)) for _ in range(k)]

    return draw, sample


def _build_inputs(root: Path) -> dict[str, Path]:
    """A PPI, an expression matrix and a mapping over 50 proteins, seeded.

    The PPI file has CRLF endings, '#' and blank lines, extra columns,
    reversed repeats and self-loops. The expression file has '#' lines, rows
    with one to four of eight cells empty (mean-imputed) and rows with five
    or more empty (dropped). P00-P34 map to genes g00-g34, P45-P49 to genes
    whose rows are dropped; P35-P44 are unmapped, and only P40-P44 have rows
    under their own label. Draws come from ``Random.random`` only, as in
    ``_evaluate_inputs``.
    """
    rng = random.Random(21)
    draw, sample = _drawing(rng)
    proteins = [f"P{i:02d}" for i in range(50)]
    mapping = {p: f"g{i:02d}" for i, p in enumerate(proteins) if i < 35 or i >= 45}
    genes = [mapping.get(p, p) for p in proteins[:35] + proteins[40:]]
    ged = ["# expression", "gene_id\t" + "\t".join(f"S{k}" for k in range(1, 9))]
    for i, gene in enumerate(genes):
        cells = [f"{rng.random() * 8 - 2:.3f}" for _ in range(8)]
        if i >= 40:
            gaps = draw(5, 8)  # over the limit of 4: dropped
        elif i % 3 == 0:
            gaps = draw(1, 4)  # mean-imputed
        else:
            gaps = 0
        for k in sample(range(8), gaps):
            cells[k] = ""
        ged.append("\t".join([gene] + cells))
        if i % 13 == 6:
            ged.append("# note")
    ppi = ["# interactions", "# protein_a\tprotein_b\tscore"]
    edges: list[tuple[str, str]] = []
    for _ in range(160):
        roll = rng.random()
        if edges and roll < 0.1:
            a, b = edges[draw(0, len(edges) - 1)][::-1]
        elif roll < 0.15:
            a = b = proteins[draw(0, 49)]
        else:
            a, b = sample(proteins, 2)
        edges.append((a, b))
        ppi.append(f"{a}\t{b}" + (f"\tscore={draw(1, 999)}" if rng.random() < 0.3 else ""))
        if rng.random() < 0.05:
            ppi.append("# checkpoint" if rng.random() < 0.5 else "")
    root.mkdir()
    paths = {name: root / f"{name}.tsv" for name in ("ppi", "ged", "mapping")}
    paths["ppi"].write_bytes(("\r\n".join(ppi) + "\r\n").encode())
    paths["ged"].write_text("\n".join(ged) + "\n")
    paths["mapping"].write_text("# protein_id\tgene_id\n"
                                + "".join(f"{p}\t{g}\n" for p, g in mapping.items()))
    return paths


def test_build_wppi_ingest(tmp_path):
    paths = _build_inputs(tmp_path / "in")
    out = tmp_path / "b"
    assert main(["build-wppi", "--ppi", str(paths["ppi"]), "--ged", str(paths["ged"]),
                 "--mapping", str(paths["mapping"]), "--threads", "2",
                 "--output", str(out)]) == 0
    assert _digests(out) == BUILD_INGEST
    build = json.loads((out / "build_manifest.json").read_text())["build"]
    assert build["self_loops_dropped"] > 0 and build["duplicates_dropped"] > 0
    assert build["matched_edges"] > 0 and build["unmatched_edges"] > 0
    assert load_expression(paths["ged"]).dropped_genes == [f"g{i}" for i in range(45, 50)]


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
    draw, sample = _drawing(rng)

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


def _scrubbed(value):
    if isinstance(value, dict):
        return {k: _scrubbed(v) for k, v in value.items() if not k.endswith("_seconds")}
    if isinstance(value, list):
        return [_scrubbed(v) for v in value]
    return value


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Each pass is a fresh process, so set and dict orders must not reach any output.

    Both seeds write to the same paths; manifests are compared without their
    ``*_seconds`` timings, every other file byte for byte.
    """
    build = _build_inputs(tmp_path / "build-in")
    evaluate = _evaluate_inputs(tmp_path / "evaluate-in")
    out = tmp_path / "out"
    commands = [
        ["build-wppi", "--ppi", build["ppi"], "--ged", build["ged"],
         "--mapping", build["mapping"], "--output", out / "build"],
        ["evaluate", "--communities", evaluate["communities"], "--catalogue",
         evaluate["catalogue"], "--annotations", evaluate["annotations"],
         "--format", "json", "--output", out / "evaluate"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    seen = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in commands:
            subprocess.run([sys.executable, "-m", "wppi.cli", *map(str, argv)],
                           env=env, check=True, capture_output=True)
        seen.append({path.relative_to(out).as_posix():
                     _scrubbed(json.loads(path.read_bytes())) if path.suffix == ".json"
                     else path.read_bytes()
                     for path in sorted(out.rglob("*")) if path.is_file()})
        shutil.rmtree(out)
    assert {"build/wppi.tsv", "build/build_manifest.json", "evaluate/evaluation.json"} \
        <= set(seen[0])
    assert seen[0] == seen[1]
