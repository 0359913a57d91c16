#!/usr/bin/env python3
"""End-to-end benchmark of the ``wppi`` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed makes the workload's inputs (see
``gen.py``); inputs, outputs, results and spans go under
``.perfbench_work/<workload>/``. Each pass runs the workload's CLI commands
as child processes, one at a time (a closed loop with one client), each
with ``--threads 2``; passes repeat for ``--seconds``. Every pass's outputs
are checked. ``attempted`` counts the workload's commands once each, however
many passes repeat them; a command counts as failed if any repeat exits
non-zero, fails a check, or writes outputs that differ from another repeat's.

``--trace 0`` reports the end-to-end metrics: median pass wall time,
median peak RSS of the pass's children, and median input set-up time.
``--trace 1`` additionally runs the layers in-process under spans
(``traced.py``) and reports per-layer metrics instead. A human-readable
table comes first; the last line of standard output is one JSON object.
Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREADS = 2
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


def commands(workload: str, files: dict[str, Path], out: Path) -> list[list[str]]:
    """The workload's CLI argument lists, in the order one pass runs them."""
    common = ["--threads", str(THREADS), "--output", str(out)]
    f = {name: str(path) for name, path in files.items()}
    if workload == "pipeline-planted":
        return [["pipeline", "--ppi", f["ppi"], "--ged", f["ged"], "--catalogue", f["catalogue"],
                 "--annotations", f["annotations"], *common]]
    return [["build-wppi", "--ppi", f["ppi"], "--ged", f["ged"], *common],
            ["evaluate", "--communities", f["communities"], "--catalogue", f["catalogue"],
             "--annotations", f["annotations"], "--format", "json", *common]]


# The quality number each workload reports, from its last successful pass.
QUALITY = {"pipeline-planted": "blocks_matched", "build-and-evaluate": "pvalue_bad_count"}


def run_child(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run ``wppi`` once; returns (exit code, wall seconds, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "wppi.cli", *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def check_outputs(command: str, inputs: gen.Inputs, out: Path) -> tuple[list[str], dict]:
    """Output checks of one successful command, plus the quality numbers it yields."""
    if command == "evaluate":
        enrichment = json.loads((out / "evaluation.json").read_text())["evaluation"]["enrichment"]
        records = enrichment["records"]
        problems = checks.check_pvalues([r["p_value"] for r in records])
        return problems, {"pvalue_bad_count": checks.pvalue_bad_count(records, enrichment["population"])}
    problems = checks.check_wppi(out / "wppi.tsv", inputs.edges)
    if command == "build-wppi":
        return problems, {}
    communities = checks.read_communities(out / "communities.tsv")
    problems += checks.check_partition(communities, inputs.proteins)
    problems += checks.check_pvalues(checks.enrichment_tsv_pvalues(out / "enrichment.tsv"))
    return problems, {"blocks_matched": checks.blocks_matched(communities, inputs.blocks)}


def run_pass(workload: str, inputs: gen.Inputs, work: Path) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    record = {"seconds": 0.0, "rss_mb": 0.0, "failed_ops": [],
              "errors": [], "problems": [], "quality": {}, "digests": None}
    for op, args in enumerate(commands(workload, inputs.files, out)):
        log = work / "child.log"
        code, seconds, rss_mb = run_child(args, log)
        record["seconds"] += seconds
        record["rss_mb"] = max(record["rss_mb"], rss_mb)
        if code != 0:
            record["failed_ops"].append(op)
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            record["errors"].append(f"{args[0]} exited {code}: {' '.join(tail)}")
            continue
        problems, quality = check_outputs(args[0], inputs, out)
        record["quality"].update(quality)
        if problems:
            record["failed_ops"].append(op)
            record["problems"] += problems
    if not record["errors"]:
        record["digests"] = {p.name: checks.digest(p) for p in sorted(out.iterdir()) if p.is_file()}
    return record


def setup(workload: str, seed: int, work: Path) -> tuple[gen.Inputs, float, tuple[str, ...]]:
    """Generate the inputs once; returns them, the seconds taken and the files' digests."""
    shutil.rmtree(work / "inputs", ignore_errors=True)
    start = time.perf_counter()
    inputs = gen.GENERATORS[workload](seed, work / "inputs")
    seconds = time.perf_counter() - start
    return inputs, seconds, tuple(checks.digest(p) for p in inputs.files.values())


def setup_again(workload: str, seed: int, work: Path, digests: tuple[str, ...]) -> float:
    """Repeat the set-up; it must write identical files. Returns the seconds it took."""
    _, seconds, again = setup(workload, seed, work)
    if again != digests:
        raise RuntimeError("input generation is not deterministic")
    return seconds


def traced_metrics(workload: str, seed: int, inputs: gen.Inputs, work: Path,
                   run_s: float) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics from one in-process traced pass; returns (metrics, errors, problems).

    The traced total counts one interpreter start-up per command of the pass.
    """
    sys.path.insert(0, str(SRC))
    import traced

    startup = statistics.median(run_child(["--version"], work / "child.log")[1]
                                for _ in range(STARTUP_REPEATS))
    tr = traced.Tracer(f"{workload}/{seed}")
    errors, problems = [], []
    try:
        traced.traced_pass(workload, inputs.files, work / "traced_out", tr)
    except traced.ThreadsMismatch as exc:
        problems.append(str(exc))
    except Exception as exc:  # noqa: BLE001 - the CLI turns any error into a failed exit
        errors.append(f"traced pass failed: {type(exc).__name__}: {exc}")
    (work / "trace.json").write_text(json.dumps(tr.spans, indent=1) + "\n")
    metrics = traced.layer_metrics(tr)
    metrics["cli.startup_s"] = {"value": startup, "unit": "s"}
    metrics["bench.trace_overhead_s"] = {
        "value": startup * len(commands(workload, inputs.files, work / "out"))
        + traced.cli_path_seconds(tr) - run_s, "unit": "s"}
    return metrics, errors, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wppi" / "cli.py").is_file():
        print(f"error: package source {SRC / 'wppi'} not found; run from a checkout",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    inputs, seconds, digests = setup(args.workload, args.seed, work)
    setup_times = [seconds]
    run_child(["--version"], work / "child.log")  # fill the bytecode cache before timing

    # Start a pass only if one more pass of the longest length so far still
    # ends inside the window, so a run lasts about --seconds, not up to a pass more.
    # The set-up repeats run between passes rather than back to back, so their
    # median samples the machine's speed at several moments of the run; the
    # window is extended by the time they take, so they cost no pass.
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() + max(p["seconds"] for p in passes) <= deadline:
        passes.append(run_pass(args.workload, inputs, work))
        if len(setup_times) < SETUP_REPEATS:
            start = time.perf_counter()
            setup_times.append(setup_again(args.workload, args.seed, work, digests))
            deadline += time.perf_counter() - start
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_again(args.workload, args.seed, work, digests))

    # An operation is one of the workload's commands on this run's inputs.
    # The passes repeat it only to time it: it fails if any repeat fails or
    # if the repeats' outputs differ. Counting operations, not repeats, makes
    # `attempted` and `failed` depend on the seed alone, not on how many
    # passes the machine's speed fits into the window.
    attempted = len(commands(args.workload, inputs.files, work / "out"))
    failed_ops = {op for p in passes for op in p["failed_ops"]}
    problems = [msg for p in passes for msg in p["problems"]]
    errors = sorted({msg for p in passes for msg in p["errors"]})
    digests = {json.dumps(p["digests"], sort_keys=True) for p in passes if p["digests"]}
    if len(digests) > 1:
        problems.append("output files differ between passes")
        failed_ops.update(range(attempted))
    failed = len(failed_ops)

    run_s = statistics.median(p["seconds"] for p in passes)
    quality = passes[-1]["quality"]
    report = {
        "run_s": (run_s, "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "ops_failed_frac": (failed / attempted, "frac"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    report[QUALITY[args.workload]] = (quality.get(QUALITY[args.workload], 0), "count")

    if args.trace:
        metrics, trace_errors, trace_problems = traced_metrics(
            args.workload, args.seed, inputs, work, run_s)
        for name, unit in (("ops_failed_frac", "frac"), ("blocks_matched", "count"),
                           ("pvalue_bad_count", "count")):
            metrics[f"e2e.{name}"] = {"value": report.get(name, (0,))[0], "unit": unit}
        attempted += 1
        failed += bool(trace_errors or trace_problems)
        errors += trace_errors
        problems += trace_problems
    else:
        metrics = {name: {"value": report[name][0], "unit": report[name][1]}
                   for name in ("run_s", "peak_rss_mb", "setup_s")}

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} commands attempted, {failed} failed (each repeated every pass)")
    print("input: " + ", ".join(f"{k}={v}" for k, v in inputs.descriptor.items()))
    for name, (value, unit) in report.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for message in errors + problems:
        print(f"  failure: {message}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (work / "results.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "descriptor": inputs.descriptor,
         "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
         "errors": errors, "problems": problems, "passes": passes, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
