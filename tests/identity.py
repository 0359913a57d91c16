#!/usr/bin/env python3
"""Digest every data output of a fixed set of CLI runs, for byte-identity checks.

    PYTHONPATH=<checkout>/src python3 tests/identity.py > digests.txt

Runs the ``wppi`` command line (from whatever ``wppi`` is importable) on:
the ``tests/data`` toy fixture through ``pipeline`` in tsv and json; the
``perfbench/gen.py`` ``pipeline-planted`` inputs for seeds 1-3 through
``pipeline``; the ``build-and-evaluate`` seed 1 inputs through
``build-wppi`` and ``evaluate --format json``; and ``detect --wppi`` on that
build's ``wppi.tsv`` at lambda 1, 2 and 3; and ``build-wppi --mapping`` on a
messy fixture the script writes, whose expression file only the row-by-row
reader accepts. Everything is written into a temporary directory that is
removed afterwards.

Each run prints one ``name exit=<code>`` line, then one ``name/file sha256``
line per output file. JSON files are hashed after dropping ``*_seconds``
fields and fields that hold a file path, which differ from run to run.
Run it once per checkout and diff the two outputs. Not collected by pytest.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

THREADS = "2"
PATH_KEYS = {"path", "output", "ppi", "ged", "mapping", "catalogue", "annotations",
             "communities", "wppi"}


def _scrub(value):
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items()
                if not k.endswith("_seconds") and not (k in PATH_KEYS and isinstance(v, str))}
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        data = json.dumps(_scrub(json.loads(data)), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _run(name: str, out: Path, *argv) -> None:
    command = [sys.executable, "-m", "wppi.cli", *map(str, argv), "--output", str(out)]
    code = subprocess.run(command, capture_output=True).returncode
    print(f"{name} exit={code}", flush=True)
    if out.is_dir():
        for path in sorted(p for p in out.iterdir() if p.is_file()):
            print(f"{name}/{path.name} {_digest(path)}", flush=True)


def _messy_inputs(root: Path) -> dict[str, Path]:
    """PPI, expression and mapping files over 60 proteins, seeded, with CRLF
    endings, '#' lines, extra PPI columns, empty and padded cells, rows over
    the missing-cell limit and '1_0' cells (which float() reads as 10)."""
    rng = random.Random(5)
    proteins = [f"P{i:02d}" for i in range(60)]
    genes = {p: f"g{i:02d}" for i, p in enumerate(proteins) if i % 4}
    ged = ["# expression", "gene_id\t" + "\t".join(f"C{k}" for k in range(12))]
    for i, gene in enumerate(sorted(set(genes.values())) + proteins[:10:2]):
        cells = [f"{rng.random() * 6 - 3:.3f}" for _ in range(12)]
        for k in range(12):
            roll = rng.random()
            if roll < 0.08 or i % 11 == 3:
                cells[k] = ""
            elif roll < 0.14:
                cells[k] = f" {cells[k]} "
            elif roll < 0.17:
                cells[k] = "1_0"
        ged.append("\t".join([gene] + cells))
        if i % 9 == 4:
            ged.append("# batch")
    ppi = ["# protein_a\tprotein_b\tsource"]
    for _ in range(240):
        a, b = proteins[int(rng.random() * 60)], proteins[int(rng.random() * 60)]
        ppi.append(f"{a}\t{b}" + ("\tsrc=y2h\tscore=1" if rng.random() < 0.3 else ""))
        if rng.random() < 0.05:
            ppi.append("# checkpoint")
    root.mkdir()
    paths = {name: root / f"{name}.tsv" for name in ("ppi", "ged", "mapping")}
    mapping = ["# protein\tgene"] + [f"{p}\t{g}" for p, g in genes.items()]
    for name, lines in (("ppi", ppi), ("ged", ged), ("mapping", mapping)):
        paths[name].write_bytes(("\r\n".join(lines) + "\r\n").encode())
    return paths


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="wppi-identity-") as tmp:
        tmp = Path(tmp)
        toy = ["--ppi", DATA / "toy_ppi.tsv", "--ged", DATA / "toy_ged.tsv",
               "--catalogue", DATA / "toy_catalogue.tsv",
               "--annotations", DATA / "toy_annotations.tsv", "--threads", THREADS]
        _run("toy-tsv", tmp / "toy-tsv", "pipeline", *toy)
        _run("toy-json", tmp / "toy-json", "pipeline", *toy, "--format", "json")
        for seed in (1, 2, 3):
            f = gen.pipeline_planted(seed, tmp / f"planted-{seed}-in").files
            _run(f"planted-{seed}", tmp / f"planted-{seed}", "pipeline", "--ppi", f["ppi"],
                 "--ged", f["ged"], "--catalogue", f["catalogue"],
                 "--annotations", f["annotations"], "--threads", THREADS)
        f = gen.build_and_evaluate(1, tmp / "bae-in").files
        build = tmp / "bae-build"
        _run("bae-build", build, "build-wppi", "--ppi", f["ppi"], "--ged", f["ged"],
             "--threads", THREADS)
        _run("bae-evaluate", tmp / "bae-evaluate", "evaluate", "--communities",
             f["communities"], "--catalogue", f["catalogue"], "--annotations",
             f["annotations"], "--format", "json", "--threads", THREADS)
        for lam in ("1", "2", "3"):
            _run(f"bae-detect-{lam}", tmp / f"bae-detect-{lam}", "detect",
                 "--wppi", build / "wppi.tsv", "--lambda", lam)
        f = _messy_inputs(tmp / "messy-in")
        _run("messy-build", tmp / "messy-build", "build-wppi", "--ppi", f["ppi"],
             "--ged", f["ged"], "--mapping", f["mapping"], "--threads", THREADS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
