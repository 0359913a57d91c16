import json
import os
import random
from pathlib import Path

import pytest

from wppi.cli import build_parser, main, resolve_threads

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def toy(tmp_path):
    return {
        "ppi": DATA / "toy_ppi.tsv",
        "ged": DATA / "toy_ged.tsv",
        "catalogue": DATA / "toy_catalogue.tsv",
        "annotations": DATA / "toy_annotations.tsv",
        "out": tmp_path,
    }


@pytest.fixture
def toy_run(toy):
    """A pipeline run on the toy fixture: its wppi.tsv and communities.tsv feed later steps."""
    out = toy["out"] / "run"
    assert run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"], "--output", out) == 0
    return out


def missing_input_runs(tmp_path, flag: str) -> dict:
    """The argv of each command that takes ``flag``, every input pointing at a missing file."""
    missing = tmp_path / "missing.tsv"
    inputs = {"build-wppi": ("--ppi", missing, "--ged", missing),
              "detect": ("--wppi", missing),
              "evaluate": ("--communities", missing, "--catalogue", missing),
              "pipeline": ("--ppi", missing, "--ged", missing),
              "gen-synthetic": ()}
    commands = build_parser()._subparsers._group_actions[0].choices
    runs = {name: (name, *inputs[name]) for name, parser in commands.items()
            if flag in parser._option_string_actions}
    assert runs, flag
    return runs


def assert_flag_error(capsys, argv, flag: str, value: str, out: Path) -> str:
    """``argv`` with ``flag=value`` exits 2 with one ``error: <flag>: <rule>, got <value>`` line
    and writes nothing; returns that line."""
    assert run(*argv, f"{flag}={value}", "--output", out) == 2, argv
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and ", got " in err, (argv, err)
    assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert not out.exists(), argv
    return err


CONFIG_KEYS = {
    "build-wppi": {"command", "output", "threads", "ppi", "ged", "mapping",
                   "default_weight", "zero_as_unmatched"},
    "detect": {"command", "output", "wppi", "d_alpha", "lambda"},
    "evaluate": {"command", "output", "threads", "format", "communities", "catalogue",
                 "annotations", "threshold", "annotated_universe"},
    "pipeline": {"command", "output", "threads", "format", "ppi", "ged", "mapping",
                 "catalogue", "annotations", "threshold", "annotated_universe",
                 "no_intermediates", "default_weight", "zero_as_unmatched", "d_alpha",
                 "lambda"},
}


class TestBuildCommand:
    def test_toy_fixture_builds_forty_rows(self, toy, capsys):
        code = run("build-wppi", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--output", toy["out"] / "b", "--threads", 2)
        assert code == 0
        lines = (toy["out"] / "b" / "wppi.tsv").read_text().strip().splitlines()
        assert lines[0].startswith("# wppi v1")
        assert len(lines) == 41  # header + 40 weighted edges
        out = capsys.readouterr().out
        assert "matching ratio: 100.00%" in out
        manifest = json.loads((toy["out"] / "b" / "build_manifest.json").read_text())
        assert manifest["build"]["edges"] == 40
        assert manifest["inputs"]["ppi"]["sha256"]
        assert manifest["config"]["threads"] == 2

    def test_missing_ged_is_usage_error(self, toy, capsys):
        with pytest.raises(SystemExit) as info:
            run("build-wppi", "--ppi", toy["ppi"], "--output", toy["out"])
        assert info.value.code == 2

    def test_single_sample_ged_rejected(self, toy, tmp_path):
        bad = tmp_path / "one.tsv"
        bad.write_text("gene_id\tS1\nP00\t1.0\n")
        code = run("build-wppi", "--ppi", toy["ppi"], "--ged", bad,
                   "--output", toy["out"] / "x")
        assert code == 2

    @pytest.mark.parametrize("name, text, message", [
        ("map.tsv", "P00\tP00\nP00\tP01\n", "map.tsv:2: protein 'P00' maps to 'P00' and 'P01'"),
        ("ged.tsv", "gene_id\tS1\tS1\nP00\t1\t2\n",
         "ged.tsv:1: empty or repeated sample name 'S1'"),
    ], ids=["conflicting-mapping", "repeated-sample"])
    def test_bad_mapping_or_header_is_input_error(self, toy, tmp_path, capsys, name, text,
                                                  message):
        bad = tmp_path / name
        bad.write_text(text)
        inputs = {"map.tsv": ["--ged", toy["ged"], "--mapping", bad], "ged.tsv": ["--ged", bad]}
        code = run("build-wppi", "--ppi", toy["ppi"], *inputs[name], "--output", toy["out"] / "z")
        assert code == 2
        assert message in capsys.readouterr().err

    def test_nonexistent_input_is_input_error(self, toy):
        code = run("build-wppi", "--ppi", toy["out"] / "nope.tsv", "--ged",
                   toy["ged"], "--output", toy["out"] / "y")
        assert code == 2

    @pytest.mark.parametrize("command", ["build-wppi", "pipeline"])
    @pytest.mark.parametrize("value", ["2", "-0.5", "nan"])
    def test_bad_default_weight_is_usage_error_before_any_input_is_read(self, toy, capsys,
                                                                        command, value):
        # The inputs do not exist: the flag is reported first, so no input was opened.
        argv = missing_input_runs(toy["out"], "--default-weight")[command]
        assert assert_flag_error(capsys, argv, "--default-weight", value, toy["out"] / "w") == \
            f"error: --default-weight: default weight must lie in [0, 1], got {float(value)!r}\n"


class TestDetectCommand:
    def test_detect_from_wppi_file(self, toy):
        assert run("gen-synthetic", "--output", toy["out"] / "syn",
                   "--blocks", "10,10", "--seed", "3", "--samples", "0") == 0
        code = run("detect", "--wppi", toy["out"] / "syn" / "wppi.tsv",
                   "--output", toy["out"] / "d")
        assert code == 0
        rows = (toy["out"] / "d" / "communities.tsv").read_text().strip().splitlines()
        assert rows[0].startswith("community_id")
        assert len(rows) == 3  # header + two planted blocks
        manifest = json.loads((toy["out"] / "d" / "detect_manifest.json").read_text())
        assert manifest["detection"]["communities"] == 2
        assert "stage1_sweeps" in manifest["detection"]

    def test_huge_lambda_keeps_stage1_communities(self, toy):
        assert run("gen-synthetic", "--output", toy["out"] / "s", "--seed", "5",
                   "--samples", "0") == 0
        wppi = toy["out"] / "s" / "wppi.tsv"
        assert run("detect", "--wppi", wppi, "--lambda", "1e6",
                   "--output", toy["out"] / "high") == 0
        assert run("detect", "--wppi", wppi, "--output", toy["out"] / "norm") == 0
        high = json.loads((toy["out"] / "high" / "detect_manifest.json").read_text())
        assert high["detection"]["communities"] == \
            high["detection"]["stage1_communities"]

    def test_zero_weight_edge_detects(self, toy):
        wppi = toy["out"] / "zero.tsv"
        wppi.write_text("# wppi v1\nA\tB\t0.0\nB\tC\t0.5\n")
        assert run("detect", "--wppi", wppi, "--output", toy["out"] / "zw") == 0
        rows = (toy["out"] / "zw" / "communities.tsv").read_text().strip().splitlines()
        assert len(rows) >= 3  # header + at least two communities

    @pytest.mark.parametrize("row", ["B\tC\tnan", "B\tC\t1.5", "\tC\t0.4"],
                             ids=["nan", "above-one", "empty-label"])
    def test_bad_row_is_input_error_at_its_line(self, toy, capsys, row):
        wppi = toy["out"] / "bad.tsv"
        wppi.write_text(f"# wppi v1\nA\tB\t0.5\n{row}\n")
        assert run("detect", "--wppi", wppi, "--output", toy["out"] / "bad") == 2
        assert f"{wppi}:3: " in capsys.readouterr().err
        assert not (toy["out"] / "bad").exists()

    @pytest.mark.parametrize("rows, message", [
        ("A\tB\t0.5\nC\tC\t0.5\n", ":3: self-loop not allowed: 'C'"),
        ("A\tB\t0.5\n# note\nB\tC\t0.1\nB\tA\t0.7\n",
         ":5: conflicting duplicate edge ('B', 'A'): weight 0.7 after 0.5"),
    ], ids=["self-loop", "conflicting-duplicate"])
    def test_bad_edge_is_input_error_naming_file_line_and_labels(self, toy, capsys, rows,
                                                                  message):
        wppi = toy["out"] / "bad.tsv"
        wppi.write_text(f"# wppi v1\n{rows}")
        assert run("detect", "--wppi", wppi, "--output", toy["out"] / "bad") == 2
        assert capsys.readouterr().err == f"error: {wppi}{message}\n"
        assert not (toy["out"] / "bad").exists()

    def test_stage2_pass_cap_is_gone(self, toy, toy_run):
        import jsonschema
        from importlib import resources

        schema = json.loads(resources.files("wppi.schemas")
                            .joinpath("pipeline_report.schema.json").read_text())
        assert run("detect", "--wppi", toy_run / "wppi.tsv", "--output", toy["out"] / "d") == 0
        for path in (toy["out"] / "d" / "detect_manifest.json",
                     toy_run / "pipeline_manifest.json"):
            manifest = json.loads(path.read_text())
            assert "max_stage2_passes" not in manifest["config"]
            assert "stage2_hit_cap" not in manifest["detection"]
        jsonschema.validate(json.loads((toy_run / "pipeline_manifest.json").read_text()), schema)
        with pytest.raises(SystemExit) as info:
            run("detect", "--wppi", toy["ppi"], "--max-stage2-passes", "4",
                "--output", toy["out"] / "x")
        assert info.value.code == 2

    def test_stage1_counters_pinned(self, toy_run):
        detection = json.loads((toy_run / "pipeline_manifest.json").read_text())["detection"]
        assert (detection["stage1_evaluations"], detection["stage1_moves"],
                detection["stage1_steals"], detection["stage1_sweeps"]) == (134, 21, 11, 5)

    def test_rerun_is_byte_identical(self, toy):
        for name in ("r1", "r2"):
            out = toy["out"] / name
            assert run("build-wppi", "--ppi", toy["ppi"], "--ged", toy["ged"],
                       "--output", out) == 0
            assert run("detect", "--wppi", out / "wppi.tsv", "--output", out) == 0
        for name in ("wppi.tsv", "communities.tsv"):
            a = (toy["out"] / "r1" / name).read_bytes()
            b = (toy["out"] / "r2" / name).read_bytes()
            assert a == b, name


class TestEvaluateCommand:
    def test_reports_written(self, toy, toy_run):
        communities = toy_run / "communities.tsv"
        code = run("evaluate", "--communities", communities,
                   "--catalogue", toy["catalogue"],
                   "--annotations", toy["annotations"],
                   "--output", toy["out"] / "ev")
        assert code == 0
        out = toy["out"] / "ev"
        assert (out / "complex_matches.tsv").exists()
        assert (out / "threshold_sweep.tsv").exists()
        assert (out / "enrichment.tsv").exists()
        manifest = json.loads((out / "evaluate_manifest.json").read_text())
        assert "complex_matching" in manifest["evaluation"]

    def test_threshold_sweep_monotone(self, toy, toy_run):
        communities = toy_run / "communities.tsv"
        assert run("evaluate", "--communities", communities,
                   "--catalogue", toy["catalogue"],
                   "--output", toy["out"] / "sweep") == 0
        rows = (toy["out"] / "sweep" / "threshold_sweep.tsv").read_text()
        counts = [int(line.split("\t")[1])
                  for line in rows.strip().splitlines()[1:]]
        assert counts == sorted(counts, reverse=True)

    def test_self_catalogue_all_matched(self, toy, toy_run, tmp_path):
        communities = toy_run / "communities.tsv"
        from wppi import fileio

        rows = fileio.load_communities(communities)
        catalogue = tmp_path / "self.tsv"
        lines = [f"c{cid}\t{','.join(labels)}" for cid, labels, _, _ in rows
                 if len(labels) >= 2]
        catalogue.write_text("\n".join(lines) + "\n")
        assert run("evaluate", "--communities", communities,
                   "--catalogue", catalogue, "--threshold", "0.5",
                   "--output", toy["out"] / "self") == 0
        manifest = json.loads(
            (toy["out"] / "self" / "evaluate_manifest.json").read_text())
        block = manifest["evaluation"]["complex_matching"]
        assert block["matched"] == block["total"]

    def test_json_format_single_document(self, toy, toy_run):
        communities = toy_run / "communities.tsv"
        assert run("evaluate", "--communities", communities,
                   "--annotations", toy["annotations"], "--format", "json",
                   "--output", toy["out"] / "ej") == 0
        doc = json.loads((toy["out"] / "ej" / "evaluation.json").read_text())
        assert doc["evaluation"]["enrichment"]["records"]

    def test_annotated_universe_population(self, tmp_path):
        from wppi.evaluator import AnnotationSet, enrich

        communities = {0: {"A1", "A2", "A3", "U1"}, 1: {"A4", "A5", "U2"},
                       2: {"A6", "U3"}, 3: {"U4", "U5"}}
        terms = {"T:x": {"A1", "A2", "A3", "Z1"}, "T:y": {"A4", "A5", "A6"},
                 "T:z": {"A2", "A4", "Z2"}}
        (tmp_path / "communities.tsv").write_text("".join(
            f"{cid}\t{','.join(sorted(members))}\tNA\tNA\n"
            for cid, members in communities.items()))
        (tmp_path / "annotations.tsv").write_text("".join(
            f"{protein}\t{term}\n" for term, members in terms.items()
            for protein in sorted(members)))
        assert run("evaluate", "--communities", tmp_path / "communities.tsv",
                   "--annotations", tmp_path / "annotations.tsv", "--annotated-universe",
                   "--format", "json", "--output", tmp_path / "ev") == 0
        doc = json.loads((tmp_path / "ev" / "evaluation.json").read_text())
        block = doc["evaluation"]["enrichment"]
        universe = set().union(*communities.values())
        annotated = {protein for members in terms.values() for protein in members & universe}
        assert block["annotated_universe"] is True
        assert block["population"] == len(annotated) == 6
        trimmed = AnnotationSet({term: frozenset(members & universe)
                                 for term, members in terms.items()})
        expected = enrich({cid: members & annotated for cid, members in communities.items()},
                          trimmed, len(annotated))
        assert block["records"] == [vars(r) for r in expected]
        assert [r["community_size"] for r in sorted(block["records"],
                                                   key=lambda r: r["community_id"])] == [3, 2, 1, 0]

    def test_annotated_universe_counts_annotated_members(self, tmp_path):
        # a community larger than the annotated population is still valid input
        (tmp_path / "communities.tsv").write_text("0\tA1,U1,U2\tNA\tNA\n1\tA2,A3\tNA\tNA\n")
        (tmp_path / "annotations.tsv").write_text("A1\tT:x\nA2\tT:x\n")
        assert run("evaluate", "--communities", tmp_path / "communities.tsv",
                   "--annotations", tmp_path / "annotations.tsv", "--annotated-universe",
                   "--format", "json", "--output", tmp_path / "ev") == 0
        doc = json.loads((tmp_path / "ev" / "evaluation.json").read_text())
        block = doc["evaluation"]["enrichment"]
        assert block["population"] == 2
        assert {(r["community_id"], r["community_size"], r["overlap"])
                for r in block["records"]} == {(0, 1, 1), (1, 1, 1)}

    @staticmethod
    def _route_case(rng, path):
        """Seeded communities and annotation file for ``evaluate``; returns the member sets.

        Annotations name proteins outside every community, one protein is in two
        communities, some (protein, term) rows repeat, and every other file has '#'
        and blank lines, so both the bulk and the line-by-line pair reader run."""
        inside = [f"P{i}" for i in range(rng.randint(2, 30))]
        outside = [f"X{i}" for i in range(rng.randint(1, 6))]
        rng.shuffle(inside)
        communities, start = {}, 0
        for cid in rng.sample(range(100), len(inside)):
            if start == len(inside):
                break
            stop = min(len(inside), start + rng.randint(1, 6))
            communities[cid] = inside[start:stop]
            start = stop
        twice = rng.choice(inside)
        communities[100] = [twice, *rng.sample([p for p in inside if p != twice],
                                               min(rng.randint(0, 4), len(inside) - 1))]
        rows = [(protein, f"T{t:02d}") for t in range(rng.randint(1, 25))
                for protein in rng.sample(inside + outside, rng.randint(1, 3))]
        rows += rng.sample(rows, rng.randint(1, len(rows)))
        rng.shuffle(rows)
        lines = [f"{protein}\t{term}" for protein, term in rows]
        if rng.random() < 0.5:
            for extra in ("# annotations", "", "#T99\tP0", ""):
                lines.insert(rng.randint(0, len(lines)), extra)
        (path / "annotations.tsv").write_text("\n".join(lines) + "\n")
        (path / "communities.tsv").write_text("".join(
            f"{cid}\t{','.join(members)}\tNA\tNA\n" for cid, members in communities.items()))
        return {cid: set(members) for cid, members in communities.items()}

    def test_enrichment_equals_the_old_route(self, tmp_path, monkeypatch):
        from wppi import fileio

        from .oracles import enrichment_route_loop

        plain_cells = fileio._plain_pair_cells
        routes = set()

        def spy(path):
            cells = plain_cells(path)
            routes.add(cells is not None)
            return cells

        monkeypatch.setattr(fileio, "_plain_pair_cells", spy)
        rng = random.Random(22)
        for case in range(40):
            member_sets = self._route_case(rng, tmp_path)
            for universe in ([], ["--annotated-universe"]):
                out = tmp_path / f"ev{case}{len(universe)}"
                assert run("evaluate", "--communities", tmp_path / "communities.tsv",
                           "--annotations", tmp_path / "annotations.tsv", *universe,
                           "--format", "json", "--output", out) == 0
                block = json.loads((out / "evaluation.json").read_text())["evaluation"]["enrichment"]
                population, records = enrichment_route_loop(
                    member_sets, tmp_path / "annotations.tsv", bool(universe))
                assert block["population"] == population, case
                assert block["records"] == [vars(r) for r in records], case
        assert routes == {True, False}

    def test_term_index_holds_one_object_per_term(self, tmp_path):
        from wppi import evaluator, fileio

        from .oracles import enrichment_route_loop

        rng = random.Random(25)
        for case in range(20):
            member_sets = self._route_case(rng, tmp_path)
            universe = set().union(*member_sets.values())
            terms_of, term_sizes = fileio.load_term_index(tmp_path / "annotations.tsv", universe)
            objects = {id(term) for terms in terms_of.values() for term in terms}
            assert len(objects) == len(term_sizes), case
            _, records = enrichment_route_loop(member_sets, tmp_path / "annotations.tsv", False)
            assert evaluator.enrich_index(member_sets, terms_of, term_sizes,
                                          len(universe)) == records, case

    @pytest.mark.parametrize("text, message", [
        ("# no rows\n\n", "annotations.tsv: no annotations found"),
        ("X1\tT:1\n# P1\tT:2\nX2\tT:2\n", "no annotation covers any protein in the communities"),
    ], ids=["empty file", "no coverage"])
    def test_annotation_errors_keep_exit_two_and_message(self, tmp_path, capsys, text, message):
        from .oracles import enrichment_route_loop

        (tmp_path / "communities.tsv").write_text("0\tP1,P2\tNA\tNA\n1\tP3\tNA\tNA\n")
        (tmp_path / "annotations.tsv").write_text(text)
        with pytest.raises(ValueError) as old:  # fileio.InputError is a ValueError
            enrichment_route_loop({0: {"P1", "P2"}, 1: {"P3"}}, tmp_path / "annotations.tsv",
                                  False)
        assert str(old.value).endswith(message)
        for universe in ([], ["--annotated-universe"]):
            assert run("evaluate", "--communities", tmp_path / "communities.tsv",
                       "--annotations", tmp_path / "annotations.tsv", *universe,
                       "--output", tmp_path / "ev") == 2
            assert capsys.readouterr().err == f"error: {old.value}\n"
        assert not (tmp_path / "ev").exists()

    def test_duplicate_community_id_is_input_error(self, toy, toy_run, capsys):
        communities = toy["out"] / "dup.tsv"
        communities.write_text("community_id\tproteins\tfunctional_cohesion\tmodularity\n"
                               "0\tP00,P01\tNA\t1.0\n0\tP02,P03\tNA\t1.0\n")
        assert run("evaluate", "--communities", communities, "--catalogue", toy["catalogue"],
                   "--output", toy["out"] / "dup") == 2
        assert f"{communities}:3: duplicate community id 0" in capsys.readouterr().err

    def test_needs_some_reference(self, toy, toy_run):
        communities = toy_run / "communities.tsv"
        assert run("evaluate", "--communities", communities,
                   "--output", toy["out"] / "none") == 2


class TestPipelineCommand:
    def test_end_to_end_tsv(self, toy):
        code = run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--catalogue", toy["catalogue"],
                   "--annotations", toy["annotations"],
                   "--output", toy["out"] / "p")
        assert code == 0
        out = toy["out"] / "p"
        for name in ("wppi.tsv", "communities.tsv", "complex_matches.tsv",
                     "enrichment.tsv", "pipeline_manifest.json"):
            assert (out / name).exists(), name

    def test_no_intermediates_skips_wppi(self, toy):
        assert run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--no-intermediates", "--output", toy["out"] / "ni") == 0
        assert not (toy["out"] / "ni" / "wppi.tsv").exists()
        assert (toy["out"] / "ni" / "communities.tsv").exists()

    def test_network_is_released_before_evaluation(self, toy, monkeypatch):
        import weakref

        import wppi.cli
        import wppi.detector

        seen = []
        detect, sections = wppi.detector.detect, wppi.cli._evaluation_sections

        def tracked_detect(network, *args):
            seen.append(weakref.ref(network))
            return detect(network, *args)

        def checked_sections(*args):
            assert seen and seen[0]() is None, "the network outlived detection"
            seen.append("evaluated")
            return sections(*args)

        monkeypatch.setattr(wppi.detector, "detect", tracked_detect)
        monkeypatch.setattr(wppi.cli, "_evaluation_sections", checked_sections)
        assert run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--catalogue", toy["catalogue"], "--output", toy["out"] / "p") == 0
        assert seen[-1] == "evaluated"

    def test_json_report_validates_against_schema(self, toy):
        import jsonschema
        from importlib import resources

        assert run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--catalogue", toy["catalogue"],
                   "--annotations", toy["annotations"], "--format", "json",
                   "--output", toy["out"] / "pj") == 0
        report = json.loads((toy["out"] / "pj" / "pipeline_report.json").read_text())
        schema = json.loads(resources.files("wppi.schemas")
                            .joinpath("pipeline_report.schema.json").read_text())
        jsonschema.validate(report, schema)

    def test_stage1_counters_reported_and_optional(self, toy):
        import jsonschema
        from importlib import resources

        assert run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"], "--format", "json",
                   "--output", toy["out"] / "pk") == 0
        report = json.loads((toy["out"] / "pk" / "pipeline_report.json").read_text())
        detection = report["detection"]
        assert detection["stage1_evaluations"] >= detection["stage1_moves"] \
            >= detection["stage1_steals"] >= 0
        assert detection["stage1_moves"] > 0
        schema = json.loads(resources.files("wppi.schemas")
                            .joinpath("pipeline_report.schema.json").read_text())
        for key in ("stage1_evaluations", "stage1_moves", "stage1_steals"):
            del detection[key]
        jsonschema.validate(report, schema)  # reports written before the counters

    def test_config_and_hashes_embedded(self, toy):
        assert run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--output", toy["out"] / "pc", "--threads", "1") == 0
        report = json.loads(
            (toy["out"] / "pc" / "pipeline_manifest.json").read_text())
        assert report["config"]["lambda"] == 2.0
        assert "partition_strategy" not in report["config"]
        assert len(report["inputs"]["ppi"]["sha256"]) == 64
        assert len(report["inputs"]["ged"]["sha256"]) == 64


class TestManifestConfig:
    @pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
    def test_config_keys_are_the_flags_the_command_takes(self, toy, toy_run, command):
        argv, manifest = {
            "build-wppi": (("--ppi", toy["ppi"], "--ged", toy["ged"]), "build_manifest.json"),
            "detect": (("--wppi", toy_run / "wppi.tsv"), "detect_manifest.json"),
            "evaluate": (("--communities", toy_run / "communities.tsv",
                          "--catalogue", toy["catalogue"]), "evaluate_manifest.json"),
            "pipeline": (("--ppi", toy["ppi"], "--ged", toy["ged"]), "pipeline_manifest.json"),
        }[command]
        out = toy["out"] / "m"
        assert run(command, *argv, "--output", out) == 0
        config = json.loads((out / manifest).read_text())["config"]
        assert set(config) == CONFIG_KEYS[command]
        assert config["command"] == command


class TestSharedFlags:
    def test_pipeline_flags_match_the_stage_commands(self):
        from wppi.cli import build_parser

        commands = build_parser()._subparsers._group_actions[0].choices
        stages = {}
        for name in ("build-wppi", "detect", "evaluate"):
            for action in commands[name]._actions:
                stages.update(dict.fromkeys(action.option_strings, action))
        own = {"-h", "--help", "--no-intermediates"}
        for action in commands["pipeline"]._actions:
            for flag in set(action.option_strings) - own:
                assert action.help == stages[flag].help, flag
                assert action.default == stages[flag].default, flag


class TestGenSynthetic:
    def test_writes_all_files(self, tmp_path):
        assert run("gen-synthetic", "--output", tmp_path, "--blocks", "6,6",
                   "--samples", "8", "--seed", "1") == 0
        for name in ("ppi.tsv", "wppi.tsv", "truth.tsv", "ged.tsv"):
            assert (tmp_path / name).exists()

    def test_seeded_reproducibility(self, tmp_path):
        for name in ("a", "b"):
            assert run("gen-synthetic", "--output", tmp_path / name,
                       "--seed", "9") == 0
        assert (tmp_path / "a" / "wppi.tsv").read_bytes() == \
            (tmp_path / "b" / "wppi.tsv").read_bytes()

    def test_bad_blocks_usage_error(self, tmp_path, capsys):
        # planted_partition's rule, reported under the flag; "" names no block.
        for argv in missing_input_runs(tmp_path, "--blocks").values():
            for value in ("ten", "1.5", "0,3", "-2", "", ","):
                err = assert_flag_error(capsys, argv, "--blocks", value, tmp_path / "s")
                assert err.endswith(f", got {value!r}\n"), err

    @pytest.mark.parametrize("flag, value", [("--p-in", "nan"), ("--p-out", "nan"),
                                             ("--p-in", "1.5"), ("--p-out", "-0.5"),
                                             ("--w-in", "0.9,0.2"), ("--w-out", "0,nan"),
                                             ("--w-in", "nan,0.5"), ("--w-out", "0.5,1.5"),
                                             ("--w-in", "0.9"), ("--w-out", "0,0.1,0.2"),
                                             ("--w-in", "x,1"), ("--w-out", ""),
                                             ("--p-in", "half"), ("--p-out", "")])
    def test_edge_probability_outside_unit_interval_is_usage_error(self, tmp_path, capsys,
                                                                    flag, value):
        # Weight ranges, two numbers whose ends must lie in [0, 1] too, take the same route.
        for argv in missing_input_runs(tmp_path, flag).values():
            assert_flag_error(capsys, argv, flag, value, tmp_path / "s")

    @pytest.mark.parametrize("samples", ["1", "-3"])
    def test_sample_count_of_one_or_less_is_usage_error(self, tmp_path, capsys, samples):
        for argv in missing_input_runs(tmp_path, "--samples").values():
            assert assert_flag_error(capsys, argv, "--samples", samples, tmp_path / "s") == \
                f"error: --samples: insufficient samples (need at least 2), got {samples}\n"

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_names_its_flag_before_any_file(self, tmp_path, capsys, seed):
        # planted_partition's rule, reported under the flag rather than in numpy's words.
        for argv in missing_input_runs(tmp_path, "--seed").values():
            assert assert_flag_error(capsys, argv, "--seed", seed, tmp_path / "s") == \
                f"error: --seed: seed must be >= 0, got {seed}\n"

    @pytest.mark.parametrize("argv", [("--blocks", "1"), ("--blocks", "2", "--p-in", "0"),
                                      ("--blocks", "3,3", "--p-in", "0", "--p-out", "0")])
    def test_network_without_edges_is_usage_error(self, tmp_path, capsys, argv):
        assert run("gen-synthetic", "--output", tmp_path / "s", *argv) == 2
        assert "the drawn network has no edge" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestExitCodes:
    @staticmethod
    def detecting_runs(toy, toy_run):
        """Both routes into the detector: detect on a wppi.tsv, and pipeline."""
        yield ("detect", "--wppi", toy_run / "wppi.tsv")
        yield ("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"])

    def test_computation_failure_is_exit_one(self, toy, toy_run, monkeypatch):
        import wppi.detector

        def broken(*args, **kwargs):
            raise RuntimeError("simulated detector crash")

        monkeypatch.setattr(wppi.detector, "detect", broken)
        for argv in self.detecting_runs(toy, toy_run):
            assert run(*argv, "--output", toy["out"] / "crash") == 1, argv[0]

    def test_detector_value_error_is_exit_one(self, toy, toy_run, monkeypatch, capsys):
        import wppi.detector

        def broken(*args, **kwargs):
            raise ValueError("no internal edges")

        monkeypatch.setattr(wppi.detector, "detect", broken)
        for argv in self.detecting_runs(toy, toy_run):
            assert run(*argv, "--output", toy["out"] / "crash") == 1, argv[0]
            assert "computation failed: detect: no internal edges" in capsys.readouterr().err

    def test_bad_lambda_is_usage_error(self, toy, toy_run):
        for argv in self.detecting_runs(toy, toy_run):
            assert run(*argv, "--lambda", "0", "--output", toy["out"] / "bad") == 2, argv[0]

    @pytest.mark.parametrize("flag", ["--lambda", "--d-alpha"])
    def test_nan_threshold_is_usage_error_before_any_output(self, toy, toy_run, capsys, flag):
        out = toy["out"] / "nan"
        for argv in self.detecting_runs(toy, toy_run):
            assert run(*argv, flag, "nan", "--output", out) == 2, argv[0]
            assert "threshold must be" in capsys.readouterr().err
            assert not out.exists(), argv[0]

    @pytest.mark.parametrize("flag, value", [("--lambda", "0"), ("--lambda", "nan"),
                                             ("--d-alpha", "-1"), ("--lambda", "-inf"),
                                             ("--d-alpha", "nan"), ("--d-alpha", "-inf"),
                                             ("--lambda", "abc"), ("--d-alpha", "x")])
    def test_bad_detector_threshold_names_its_flag_before_any_input(self, toy, toy_run, capsys,
                                                                   flag, value):
        runs = [*self.detecting_runs(toy, toy_run), *missing_input_runs(toy["out"], flag).values()]
        for argv in runs:
            assert_flag_error(capsys, argv, flag, value, toy["out"] / "bad")

    @pytest.mark.parametrize("value", ["0", "nan", "1.5", "2"])
    def test_bad_match_threshold_is_usage_error_before_any_output(self, toy, toy_run, capsys,
                                                                   value):
        runs = [("evaluate", "--communities", toy_run / "communities.tsv",
                 "--catalogue", toy["catalogue"]),
                ("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"],
                 "--catalogue", toy["catalogue"]),
                *missing_input_runs(toy["out"], "--threshold").values()]
        for argv in runs:
            assert assert_flag_error(capsys, argv, "--threshold", value, toy["out"] / "bad") \
                == f"error: --threshold: threshold must lie in (0, 1], got {float(value)!r}\n"

    def test_input_path_that_is_not_a_file_is_input_error(self, toy, toy_run, capsys):
        # build-wppi reads --ppi with numpy loaded; evaluate reads --annotations without it.
        folder = toy["out"] / "folder"
        folder.mkdir()
        out = toy["out"] / "bad"
        for argv, path in [(("build-wppi", "--ppi", folder, "--ged", toy["ged"]), folder),
                           (("build-wppi", "--ppi", toy["ppi"] / "x", "--ged", toy["ged"]),
                            toy["ppi"] / "x"),
                           (("evaluate", "--communities", toy_run / "communities.tsv",
                             "--annotations", folder), folder)]:
            assert run(*argv, "--output", out) == 2, argv
            assert str(path) in capsys.readouterr().err, argv
            assert not out.exists(), argv

    @pytest.mark.parametrize("error, code", [
        (PermissionError(13, "Permission denied", "ppi.tsv"), 2),
        (OSError(28, "No space left on device", "ppi.tsv"), 1),
    ], ids=["unreadable", "disk-full"])
    def test_unreadable_input_is_input_error_other_os_errors_fail(self, toy, monkeypatch,
                                                                   capsys, error, code):
        # Permission bits do not stop root, so the unreadable file is simulated.
        import wppi.fileio

        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(wppi.fileio, "load_ppi", refuse)
        assert run("build-wppi", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--output", toy["out"] / "bad") == code
        assert "ppi.tsv" in capsys.readouterr().err

    def test_zero_threads_names_its_flag(self, toy, toy_run, capsys):
        runs = [("build-wppi", "--ppi", toy["ppi"], "--ged", toy["ged"]),
                ("evaluate", "--communities", toy_run / "communities.tsv",
                 "--catalogue", toy["catalogue"]),
                ("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"]),
                *missing_input_runs(toy["out"], "--threads").values()]
        for argv in runs:
            for value in ("0", "-1"):
                assert assert_flag_error(capsys, argv, "--threads", value, toy["out"] / "bad") \
                    == f"error: --threads: thread count must be >= 1, got {value}\n"

    @pytest.mark.parametrize("flag, kind", [
        ("--d-alpha", "a number"), ("--lambda", "a number"), ("--default-weight", "a number"),
        ("--threshold", "a number"), ("--p-in", "a number"), ("--p-out", "a number"),
        ("--threads", "an integer"), ("--samples", "an integer"), ("--seed", "an integer")])
    def test_typed_flag_value_that_is_not_a_number_names_its_flag(self, tmp_path, capsys,
                                                                   flag, kind):
        # argparse would print its usage block and its own wording; every command taking the
        # flag reports it in wppi's one-line format instead, before any input is read.
        values = ["abc", "", "1,5"] + (["1.5", "2e3"] if kind == "an integer" else [])
        for argv in missing_input_runs(tmp_path, flag).values():
            for value in values:
                assert assert_flag_error(capsys, argv, flag, value, tmp_path / "bad") == \
                    f"error: {flag}: must be {kind}, got {value!r}\n"

    def test_infinite_thresholds_are_valid(self, toy):
        # --d-alpha inf seeds every vertex; --lambda inf keeps stage 1's communities.
        out = toy["out"] / "inf"
        assert run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"], "--d-alpha", "inf",
                   "--lambda", "inf", "--output", out) == 0
        manifest = json.loads((out / "pipeline_manifest.json").read_text())
        detection = manifest["detection"]
        assert detection["hub_count"] == manifest["build"]["vertices"]
        assert detection["communities"] == detection["stage1_communities"]

    @pytest.mark.parametrize("report_format", ["tsv", "json"])
    def test_manifests_are_strict_json_with_infinite_thresholds(self, toy, report_format):
        import jsonschema
        from importlib import resources

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        out = toy["out"] / "inf"
        assert run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--catalogue", toy["catalogue"], "--annotations", toy["annotations"],
                   "--lambda", "inf", "--d-alpha", "inf", "--format", report_format,
                   "--output", out) == 0
        assert run("detect", "--wppi", out / "wppi.tsv", "--lambda", "inf", "--d-alpha", "inf",
                   "--output", out / "detect") == 0
        manifests = sorted(out.rglob("*.json"))
        assert len(manifests) == 2
        for path in manifests:
            manifest = json.loads(path.read_text(), parse_constant=reject)
            assert manifest["config"]["lambda"] == manifest["config"]["d_alpha"] == "inf"
            assert manifest["detection"]["hub_threshold"] == "inf"
        schema = json.loads(resources.files("wppi.schemas")
                            .joinpath("pipeline_report.schema.json").read_text())
        jsonschema.validate(json.loads(manifests[-1].read_text()), schema)

    def test_comma_in_protein_label_is_input_error(self, toy, capsys):
        ppi = toy["out"] / "ppi.tsv"
        ppi.write_text(toy["ppi"].read_text() + "P00\tP01,P02\n")
        out = toy["out"] / "comma"
        assert run("pipeline", "--ppi", ppi, "--ged", toy["ged"], "--output", out) == 2
        assert f"{ppi}:42: protein label 'P01,P02' contains ','" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("build-wppi", "--ppi", "ppi", "--ged", "ged", "--format", "tsv"),
        ("detect", "--wppi", "wppi", "--format", "tsv"),
        ("detect", "--wppi", "wppi", "--threads", "1"),
        ("detect", "--ppi", "ppi", "--ged", "ged"),
        ("gen-synthetic", "--format", "tsv"),
        ("gen-synthetic", "--threads", "1"),
    ])
    def test_flag_the_command_does_not_take_is_usage_error(self, toy, toy_run, argv):
        paths = {"ppi": toy["ppi"], "ged": toy["ged"], "wppi": toy_run / "wppi.tsv"}
        with pytest.raises(SystemExit) as info:
            run(*(paths.get(a, a) for a in argv), "--output", toy["out"] / "x")
        assert info.value.code == 2

    def test_toy_pipeline_under_five_seconds(self, toy):
        import time

        start = time.perf_counter()
        assert run("pipeline", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--catalogue", toy["catalogue"],
                   "--annotations", toy["annotations"],
                   "--output", toy["out"] / "timed") == 0
        assert time.perf_counter() - start < 5.0


class TestOutputIsAFile:
    @pytest.mark.parametrize("command", ["build-wppi", "detect", "evaluate", "pipeline",
                                         "gen-synthetic"])
    @pytest.mark.parametrize("under", [False, True], ids=["the-file", "under-the-file"])
    def test_usage_error_before_any_work(self, toy, toy_run, capsys, command, under):
        argv = {
            "build-wppi": ("--ppi", toy["ppi"], "--ged", toy["ged"]),
            "detect": ("--wppi", toy_run / "wppi.tsv"),
            "evaluate": ("--communities", toy_run / "communities.tsv",
                         "--catalogue", toy["catalogue"]),
            "pipeline": ("--ppi", toy["ppi"], "--ged", toy["ged"]),
            "gen-synthetic": (),
        }[command]
        afile = toy["out"] / "afile"
        afile.write_text("keep me\n")
        output = afile / "x" if under else afile
        assert run(command, *argv, "--output", output) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --output {output}: {afile} is not a directory\n"
        assert captured.out == ""
        assert afile.read_text() == "keep me\n"
        assert sorted(p.name for p in toy["out"].iterdir()) == ["afile", "run"]


class TestStartup:
    def test_evaluate_never_imports_numpy(self, toy, toy_run):
        import subprocess
        import sys

        argv = ["evaluate", "--communities", str(toy_run / "communities.tsv"),
                "--catalogue", str(toy["catalogue"]), "--annotations", str(toy["annotations"]),
                "--output", str(toy["out"] / "e")]
        script = ("import sys\nfrom wppi import cli\n"
                  f"assert cli.main({argv!r}) == 0\n"
                  "assert 'numpy' not in sys.modules, 'evaluate imported numpy'\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert (toy["out"] / "e" / "enrichment.tsv").exists()

    def test_no_command_starts_a_thread(self, toy):
        import subprocess
        import sys

        runs = [["build-wppi", "--ppi", str(toy["ppi"]), "--ged", str(toy["ged"]),
                 "--threads", "4", "--output", str(toy["out"] / "b")],
                ["pipeline", "--ppi", str(toy["ppi"]), "--ged", str(toy["ged"]),
                 "--catalogue", str(toy["catalogue"]), "--annotations", str(toy["annotations"]),
                 "--threads", "4", "--output", str(toy["out"] / "p")]]
        script = ("import sys, threading\nfrom wppi import cli\n"
                  "def refuse(self):\n    raise AssertionError('a thread was started')\n"
                  "threading.Thread.start = refuse\n"
                  f"for argv in {runs!r}:\n    assert cli.main(argv) == 0, argv[0]\n"
                  "assert 'concurrent.futures' not in sys.modules\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert (toy["out"] / "p" / "communities.tsv").exists()

    @staticmethod
    def run_in_child(script: str, **env) -> None:
        """Run ``script`` under a fresh interpreter, no BLAS thread count inherited."""
        import subprocess
        import sys

        blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        base = {k: v for k, v in os.environ.items() if k not in blas}
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**base, "PYTHONPATH": src, **env})
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    @pytest.mark.parametrize("command", ["build-wppi", "detect", "pipeline", "gen-synthetic"])
    def test_no_command_starts_an_os_thread(self, toy, toy_run, command):
        # numpy's OpenBLAS starts its workers natively, out of reach of threading.Thread.
        out = str(toy["out"] / command)
        argv = {"build-wppi": ["--ppi", str(toy["ppi"]), "--ged", str(toy["ged"])],
                "detect": ["--wppi", str(toy_run / "wppi.tsv")],
                "pipeline": ["--ppi", str(toy["ppi"]), "--ged", str(toy["ged"]),
                             "--catalogue", str(toy["catalogue"])],
                "gen-synthetic": ["--blocks", "6,6"]}[command]
        self.run_in_child("import os\nfrom wppi import cli\n"
                          f"assert cli.main({[command, *argv, '--output', out]!r}) == 0\n"
                          "tasks = os.listdir('/proc/self/task')\n"
                          "assert len(tasks) == 1, f'{len(tasks)} OS threads'\n")

    def test_user_set_blas_thread_count_wins(self, toy):
        argv = ["build-wppi", "--ppi", str(toy["ppi"]), "--ged", str(toy["ged"]),
                "--output", str(toy["out"] / "b")]
        self.run_in_child("import os\nfrom wppi import cli\n"
                          f"assert cli.main({argv!r}) == 0\n"
                          "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n",
                          OPENBLAS_NUM_THREADS="2")

    def test_in_process_caller_environment_is_left_alone(self, toy, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run("build-wppi", "--ppi", toy["ppi"], "--ged", toy["ged"],
                   "--output", toy["out"] / "b") == 0  # numpy is already loaded here
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_build_and_pipeline_never_import_numpy_ma(self, toy):
        import subprocess
        import sys

        runs = [["build-wppi", "--ppi", str(toy["ppi"]), "--ged", str(toy["ged"]),
                 "--output", str(toy["out"] / "b")],
                ["pipeline", "--ppi", str(toy["ppi"]), "--ged", str(toy["ged"]),
                 "--catalogue", str(toy["catalogue"]), "--annotations", str(toy["annotations"]),
                 "--output", str(toy["out"] / "p")]]
        script = ("import sys\nfrom wppi import cli\n"
                  f"for argv in {runs!r}:\n    assert cli.main(argv) == 0, argv[0]\n"
                  "assert 'numpy' in sys.modules\n"
                  "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert (toy["out"] / "p" / "enrichment.tsv").exists()

    def test_every_exported_name_resolves(self):
        import wppi

        for name in wppi.__all__:
            namespace: dict = {}
            exec(f"from wppi import {name}", namespace)
            assert namespace[name] is getattr(wppi, name)
        assert set(wppi.__all__) <= set(dir(wppi))
        with pytest.raises(AttributeError):
            wppi.no_such_name  # noqa: B018


class TestWeightQuantiles:
    def test_equal_np_quantile_bit_for_bit(self):
        from types import SimpleNamespace

        import numpy as np

        from wppi.cli import QUANTILE_POINTS, _weight_quantiles

        rng = np.random.default_rng(21)
        arrays = [np.array([0.3]), np.array([0.7, 0.2]), np.array([0.5, 0.5]),
                  np.full(7, 0.1), np.array([0.0, 1.0, 0.0, 1.0, 0.5])]
        for n in (1, 2, 3, 4, 5, 6, 9, 100, 1001, 4096):
            arrays += [rng.random(n), rng.random(n) ** 20, rng.integers(0, 3, n) / 3.0,
                       np.full(n, rng.random())]
        for w in arrays:
            got = _weight_quantiles(SimpleNamespace(edge_weight=w))
            expected = {f"q{int(q * 100)}": float(np.quantile(w, q)) for q in QUANTILE_POINTS}
            assert list(got) == list(expected)
            assert [v.hex() for v in got.values()] == [v.hex() for v in expected.values()], w


class TestResolveThreads:
    def test_explicit_wins(self):
        assert resolve_threads(3) == 3

    def test_hardware_default(self):
        assert resolve_threads(None) >= 1

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_threads(0)
