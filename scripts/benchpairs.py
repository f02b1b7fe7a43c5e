#!/usr/bin/env python3
"""Run alternating parent/change perfbench pairs and write ``BENCH_<n>.json``.

    python3 scripts/benchpairs.py PARENT_REV [--pairs 10] [--traced] [--out BENCH_21.json]

Each side runs from its own copy of the repository under a temporary
directory: the parent from ``git archive PARENT_REV``, the change from the
working tree (tracked files as they are now, plus untracked files that are
not ignored).  For every workload that ``BENCHMARK.json`` declares, in its
order, the script runs ``--pairs`` pairs of

    python3 perfbench/run.py --workload W --seed S --seconds R --trace 0

with ``R`` the file's ``run_seconds`` and one seed per pair, which both
sides of the pair share.  The side that runs first alternates: the parent in
odd pairs, the change in even ones.  Workloads run one after another, never
two runs at once.

With ``--traced`` each side first makes one ``--trace 1`` run per workload,
at a seed of its own, parent first.  Each traced run must report every
per-layer metric ``BENCHMARK.json`` declares (a layer the workload never
calls reports null, which counts as reported); a run that lacks one, or
prints no result at all, makes the script name the metrics, keep what it
measured and exit 1 before any pair runs.

The output has ``what``, ``command``, ``sides``, ``host``, ``order``,
``notes`` and, per workload under ``end_to_end``, ``pairs``, ``seeds``,
``seconds``, ``summary`` and the raw ``runs``.  With ``--traced``, ``traced``
holds per workload the same fields, its ``summary`` the two sides' medians
of each per-layer metric both report a value for.  A metric's ``summary`` holds
its quartiles on each side, the pairs in which the change was better (a tie
counts for neither side) and the change/parent ratio of the medians.  The
file is rewritten after every pair, so an interrupted run keeps what it
measured.  By default it is ``BENCH_<n>.json`` in the repository root, ``n``
one above the highest number there.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace {trace}"


def quartiles(values: list[float]) -> dict[str, float]:
    """First quartile, median and third quartile, interpolated as NumPy's default."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict[str, dict]:
    """Per metric: quartiles per side, pairs the change won, ratio of medians.

    ``runs`` are the raw runs of one workload; a pair is the parent's and the
    change's run at one seed.  A run without a metric leaves that metric's
    pair out.  ``end_to_end`` is ``BENCHMARK.json``'s list of metrics, each
    with its ``name``, ``unit`` and ``better`` direction.
    """
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        lower = metric["better"] == "lower"
        sides = {"parent": [], "change": []}
        wins = 0
        for pair in by_seed.values():
            parent = pair.get("parent", {}).get(name)
            change = pair.get("change", {}).get(name)
            if parent is None or change is None:
                continue
            sides["parent"].append(parent)
            sides["change"].append(change)
            wins += change < parent if lower else change > parent
        if not sides["parent"]:
            continue
        entry = {"unit": metric["unit"]}
        entry.update((side, quartiles(values)) for side, values in sides.items())
        entry["change_better_pairs"] = wins
        entry["change_over_parent_median"] = round(
            statistics.median(sides["change"]) / statistics.median(sides["parent"]), 5
        )
        summary[name] = entry
    return summary


def summarize_traced(runs: list[dict], per_layer: list[dict]) -> dict[str, dict]:
    """Per declared per-layer metric that both sides report a value for: each side's median."""
    summary = {}
    for metric in per_layer:
        name = metric["name"]
        medians = {}
        for side in ("parent", "change"):
            values = [run["metrics"][name] for run in runs
                      if run["side"] == side and run["metrics"].get(name) is not None]
            if values:
                medians[f"{side}_median"] = round(statistics.median(values), 5)
        if len(medians) == 2:
            summary[name] = medians
    return summary


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout_parent(rev: str, into: Path) -> None:
    """The tree of ``rev``, as ``git archive`` gives it."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def checkout_change(into: Path) -> None:
    """The working tree: tracked files as they are, and untracked ones not ignored."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def parse_result(stdout: str) -> dict | None:
    """A run's record from perfbench's last line of output, each metric as its bare value."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    record = {key: result.get(key) for key in ("correct", "attempted", "failed")}
    record["metrics"] = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return record


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run's record, or the failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    record = parse_result(proc.stdout)
    if record is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        record = {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                  "error": f"exit {proc.returncode}: {tail[0]}"}
    return record


def host() -> str:
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    bytecode = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    return (f"{os.cpu_count()} cores ({platform.machine()}), {memory:.0f} GiB, "
            f"Python {platform.python_version()}, NumPy {numpy.__version__}, "
            f"PYTHONDONTWRITEBYTECODE {bytecode}")


def default_out() -> Path:
    numbers = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(numbers, default=0) + 1}.json"


def write(path: Path, report: dict) -> None:
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(report, indent=1) + "\n")
    partial.replace(path)


def run_traced(checkouts: dict[str, Path], bench: dict, seed: int, report: dict,
               out: Path) -> list[str]:
    """One traced run per side and workload into ``report["traced"]``; what any lacks."""
    seconds = bench["run_seconds"]
    report["traced"] = {}
    report["notes"].append(
        f"Traced runs ({COMMAND.format(seconds=seconds, trace=1)}) came first, "
        "one per side and workload, the parent first.")
    lacking = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for side in ("parent", "change"):
            result = run_side(checkouts[side], workload, seed, seconds, trace=1)
            runs.append({"side": side, "seed": seed, **result})
            print(f"{workload} traced {side}: {json.dumps(result)}", file=sys.stderr, flush=True)
            missing = [m["name"] for m in bench["per_layer"] if m["name"] not in result["metrics"]]
            if missing:
                lacking.append(f"{workload} {side}: traced run lacks {', '.join(missing)}")
        report["traced"][workload] = {
            "pairs": 1, "seeds": [seed], "seconds": seconds,
            "summary": summarize_traced(runs, bench["per_layer"]), "runs": runs,
        }
        write(out, report)
    return lacking


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--traced", action="store_true",
                        help="first one --trace 1 run per side and workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = (args.out or default_out()).resolve()
    number = re.fullmatch(r"BENCH_(\d+)\.json", out.name)
    base_seed = 100 * int(number.group(1)) if number else 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent = git("rev-parse", "--short", args.parent_rev)
    head = git("rev-parse", "--short", "HEAD")
    seeds = [base_seed + i for i in range(1, args.pairs + 1)]
    report = {
        "what": f"perfbench pairs: the working tree against commit {parent}",
        "command": COMMAND.format(seconds=seconds, trace=0),
        "sides": {
            "parent": f"commit {parent}",
            "change": f"the working tree on {head}; each side run from its own copy "
                      "of the repository",
        },
        "host": host(),
        "order": "pairs alternate which side runs first: parent first in odd pairs",
        "notes": ["Workloads ran one after another, in BENCHMARK.json's order, "
                  "with one run at a time."],
        "end_to_end": {},
    }
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        checkout_parent(args.parent_rev, checkouts["parent"])
        checkout_change(checkouts["change"])
        if args.traced:
            lacking = run_traced(checkouts, bench, base_seed + args.pairs + 1, report, out)
            for line in lacking:
                print(f"error: {line}", file=sys.stderr)
            if lacking:
                return 1
        for workload in (w["name"] for w in bench["workloads"]):
            runs: list[dict] = []
            entry = {"pairs": 0, "seeds": [], "seconds": seconds, "summary": {}, "runs": runs}
            report["end_to_end"][workload] = entry
            for pair, seed in enumerate(seeds, 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    result = run_side(checkouts[side], workload, seed, seconds)
                    runs.append({"side": side, "seed": seed, **result})
                    print(f"{workload} pair {pair} {side}: {json.dumps(result)}",
                          file=sys.stderr, flush=True)
                entry["pairs"] = pair
                entry["seeds"].append(seed)
                entry["summary"] = summarize(runs, bench["end_to_end"])
                write(out, report)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
