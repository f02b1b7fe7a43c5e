"""Run one benchmark workload against the hypotree sources of this checkout.

    python3 perfbench/run.py --workload ttt-hyp --seed 1 --seconds 25 --trace 0

The workload's tables are set up ``SETUPS`` times; ``setup_s`` is the median
set-up plus the median time of ``import hypotree`` in ``IMPORTS`` fresh
interpreters.  Then whole passes over the cells run until ``--seconds`` have
gone by, at least one.  A pass builds every tree and computes ``h``, ``L``,
``l``, ``c`` as ``harness.run_matrix`` does (``grid_s``), serializes it (with
the build, ``build_s``) and validates it (``validate_s``), timing each call
into the package on its own.

Every time is scaled by the host's slowdown (``calibration.py``): between
calls, never inside one, a fixed calibration loop measures how much slower
than its reference the host runs at that moment, and each call's seconds
are divided by the slowdown measured around it.  An end-to-end time is the
sum over the calls it covers of each call's median scaled time over the
passes.  Peak memory is read before any checking starts.  The independent
checker then verifies the first pass, and every later pass must reproduce
its digest.

With ``--trace 1`` passes come in untraced/traced pairs, the per-layer
metrics are reported instead, and the spans are written to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when correct, 1 when
a check failed, 2 when the sources cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import calibration
import checker
from calibration import Pacer
from tracing import Tracer, patched, plain_call
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
IMPORTS = 9


@dataclass
class CellOutput:
    """What one cell produced, as the program reported it."""

    text: str
    h: int
    realizable: int
    row_lengths: list[int]
    row_coverages: list[int]
    validate_ok: bool

    def digest(self) -> bytes:
        sha = hashlib.sha256(self.text.encode())
        sha.update(repr((self.h, self.realizable, self.row_lengths,
                         self.row_coverages, self.validate_ok)).encode())
        return sha.digest()


@dataclass
class PassResult:
    grid_s: float = 0.0
    build_s: float = 0.0
    validate_s: float = 0.0
    wall_s: float = 0.0  # grid + serialize + validate: every timed step once
    failed: int = 0
    nodes: int = 0
    realizable: int = 0
    serialized_bytes: int = 0
    rows_simulated: int = 0
    scaled: dict[str, float] = field(default_factory=dict)  # the times above over the slowdown
    call_scaled: np.ndarray | None = None  # [cell, call] scaled seconds, calls as STEP_NAMES
    digest: str = ""  # over every cell's output, in cell order
    outputs: list[CellOutput | None] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        """The host's mean slowdown over the pass's timed steps."""
        return self.wall_s / self.scaled["wall_s"] if self.scaled.get("wall_s") else 1.0


# The end-to-end metrics each timed call counts towards; ``wall_s`` counts
# every call once.
STEP_METRICS = {
    "build_tree": ("grid_s", "build_s", "wall_s"),
    "depth": ("grid_s", "wall_s"),
    "realizable_count": ("grid_s", "wall_s"),
    "rule_stats": ("grid_s", "wall_s"),
    "serialize": ("build_s", "wall_s"),
    "validate": ("validate_s", "wall_s"),
}
STEP_NAMES = list(STEP_METRICS)


def run_pass(hypotree, tables, cells, call, keep: bool, pace: bool = False) -> PassResult:
    """Run every cell once; ``call`` is ``Tracer.call`` or ``plain_call``.

    Each call into the package is timed on its own.  With ``pace``, the
    host's slowdown is measured between calls (never inside one) and each
    call's time is scaled by it; without, scaled times equal the raw ones.
    The times of a cell that raised are left out.
    """
    res = PassResult()
    sha = hashlib.sha256()
    raw = np.zeros((len(cells), len(STEP_NAMES)))
    pacer = Pacer(raw.shape) if pace else None
    failed: list[int] = []

    def step(index, name, span, fn, *args):
        if pacer is not None:
            pacer.tick()
        start = perf_counter()
        result = call(span, fn, *args)
        seconds = perf_counter() - start
        raw[index, STEP_NAMES.index(name)] = seconds
        if pacer is not None:
            pacer.add((index, STEP_NAMES.index(name)), seconds)
        return result

    if pacer is not None:
        pacer.tick(force=True)
    for index, (key, measure, tree_type) in enumerate(cells):
        table = tables[key]
        try:
            tree = step(index, "build_tree", "builder.build_tree",
                        hypotree.build_tree, table, tree_type, measure)
            h = step(index, "depth", "metrics.depth", hypotree.depth, tree)
            realizable = step(index, "realizable_count", "metrics.realizable_count",
                              hypotree.realizable_count, table, tree)
            stats = step(index, "rule_stats", "rules.rule_stats", hypotree.rule_stats, table, tree)
            text = step(index, "serialize", "builder.serialize", tree.serialize)
            report = step(index, "validate", "metrics.validate", hypotree.validate, table, tree)
        except Exception:  # a failing operation is counted; the run goes on
            traceback.print_exc()
            failed.append(index)
            res.failed += 1
            sha.update(b"failed")
            res.outputs.append(None)
            continue
        out = CellOutput(text, int(h), int(realizable), stats.row_lengths.tolist(),
                         stats.row_coverages.tolist(), bool(report.ok))
        res.nodes += tree.node_count
        res.realizable += out.realizable
        res.serialized_bytes += len(text.encode())
        res.rows_simulated += report.rows_simulated
        sha.update(out.digest())
        res.outputs.append(out if keep else None)
    if pacer is not None:
        pacer.tick(force=True)
    res.call_scaled = pacer.scaled if pacer is not None else raw.copy()
    raw[failed] = res.call_scaled[failed] = 0.0
    raw_per_call, scaled_per_call = raw.sum(axis=0), res.call_scaled.sum(axis=0)
    for metric in ("grid_s", "build_s", "validate_s", "wall_s"):
        covered = [i for i, name in enumerate(STEP_NAMES) if metric in STEP_METRICS[name]]
        setattr(res, metric, float(raw_per_call[covered].sum()))
        res.scaled[metric] = float(scaled_per_call[covered].sum())
    res.digest = sha.hexdigest()
    return res


def build_targets(hypotree):
    """Calls the builder makes internally, traced through module attributes."""
    builder = getattr(hypotree, "builder", None)
    uncertainty = getattr(hypotree, "uncertainty", None)
    measure_class = getattr(uncertainty, "UncertaintyMeasure", None)
    return [
        (builder, "branch_stats", "queries.branch_stats",
         lambda args: {"queries.branch_stats_calls": 1,
                       "queries.branch_stats_rows": len(args[1])}),
        (builder, "select_query_from_stats", "queries.select",
         lambda args: {"queries.select_calls": 1}),
        (measure_class, "of_count_matrix", "uncertainty.of_count_matrix",
         lambda args: {"uncertainty.branches_evaluated": len(args[1])}),
    ]


def setup_targets(hypotree):
    return [(hypotree.DecisionTable, "__init__", "table.construct",
             lambda args: {"table.tables": 1})]


# Per-layer time metrics: span name -> metric name (self time of the span).
LAYER_SPANS = {
    "builder.build_tree": "builder.self_s",
    "queries.branch_stats": "queries.branch_stats_s",
    "queries.select": "queries.select_s",
    "uncertainty.of_count_matrix": "uncertainty.of_count_matrix_s",
    "builder.serialize": "builder.serialize_s",
    "rules.rule_stats": "rules.rule_stats_s",
    "metrics.depth": "metrics.depth_s",
    "metrics.realizable_count": "metrics.realizable_s",
    "metrics.validate": "metrics.validate_s",
}
SETUP_SPANS = {
    "table.construct": "table.construct_s",
    "datasets.generate": "datasets.generate_s",
    "boolgen.generate": "boolgen.generate_s",
}
PASS_COUNTERS = (
    "queries.branch_stats_calls",
    "queries.branch_stats_rows",
    "queries.select_calls",
    "uncertainty.branches_evaluated",
)


def scaled(measure):
    """Call ``measure()``, which returns ``(seconds, result)``, and divide the
    seconds by the mean of the host's slowdown just before and just after."""
    before = calibration.slowdown_now()
    elapsed, result = measure()
    return elapsed / ((before + calibration.slowdown_now()) / 2), result


def import_once():
    code = (
        f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "t = time.perf_counter(); import hypotree; print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return float(out), None


def import_times() -> list[float]:
    """Scaled seconds ``import hypotree`` takes in ``IMPORTS`` fresh interpreters."""
    return [scaled(import_once)[0] for _ in range(IMPORTS)]


def import_package():
    """Import hypotree from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hypotree

    if not Path(hypotree.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hypotree resolved to {hypotree.__file__}, outside {src}")
    return hypotree


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


def set_up(workload, hypotree, tracer):
    """Set the tables up ``SETUPS`` times; keep the last set."""
    raw = workload.prepare()
    times, layers = [], []
    for _ in range(SETUPS):
        gc.collect()
        if tracer is None:
            elapsed, tables = scaled(lambda: timed(workload.setup, hypotree, plain_call, raw))
            times.append(elapsed)
            continue
        first = len(tracer.spans)
        tracer.counts.clear()
        before = calibration.slowdown_now()
        with patched(tracer, setup_targets(hypotree)):
            tables = workload.setup(hypotree, tracer.call, raw)
        slowdown = (before + calibration.slowdown_now()) / 2
        selfs = tracer.self_times(first)
        layer = {metric: selfs.get(span, 0.0) / slowdown for span, metric in SETUP_SPANS.items()}
        layer["table.tables"] = tracer.counts.get("table.tables", 0)
        layers.append(layer)
    return tables, times, layers


def measure(hypotree, tables, cells, tracer, seconds):
    """Whole passes until ``seconds`` have gone by; traced ones interleaved."""
    untraced, traced, layers = [], [], []
    started = perf_counter()
    while True:
        gc.collect()
        untraced.append(run_pass(hypotree, tables, cells, plain_call, keep=not untraced,
                                 pace=True))
        if tracer is not None:
            gc.collect()
            first = len(tracer.spans)
            tracer.counts.clear()
            with patched(tracer, build_targets(hypotree)):
                traced.append(run_pass(hypotree, tables, cells, tracer.call, keep=False,
                                       pace=True))
            selfs = tracer.self_times(first)
            slowdown = traced[-1].slowdown
            layer = {m: selfs[s] / slowdown for s, m in LAYER_SPANS.items() if s in selfs}
            layer.update({c: tracer.counts[c] for c in PASS_COUNTERS if c in tracer.counts})
            layers.append(layer)
        if perf_counter() - started >= seconds:
            return untraced, traced, layers


def check(hypotree, workload, tables, cells, passes, seed):
    """Check the first pass independently and the others against its digest."""
    first = passes[0]
    problems: list[str] = []
    check_tables = {
        key: checker.Table(t.attribute_names, t.values.tolist(), t.decisions.tolist())
        for key, t in tables.items()
    }
    ok_cells, results, texts = [], [], []
    for index, (cell, out) in enumerate(zip(cells, first.outputs)):
        if out is None:
            continue
        key, measure_name, tree_type = cell
        result = checker.check_tree(out.text, check_tables[key], tree_type, measure_name,
                                    greedy_nodes=workload.greedy_nodes,
                                    rng=random.Random(f"{seed}/{index}"))
        ok_cells.append(cell)
        results.append(result)
        texts.append(out.text)
        where = f"{key} {measure_name} t{tree_type}"
        problems += [f"{where}: {v}" for v in result.violations[:3]]
        if result.ok:
            if (result.h, result.realizable) != (out.h, out.realizable):
                problems.append(f"{where}: program h, L = {out.h}, {out.realizable}; "
                                f"checker {result.h}, {result.realizable}")
            if result.row_lengths != out.row_lengths:
                problems.append(f"{where}: per-row rule lengths l differ from the checker's")
            if result.row_coverages != out.row_coverages:
                problems.append(f"{where}: per-row rule coverages c differ from the checker's")
        if not out.validate_ok:
            problems.append(f"{where}: validate reported violations")
    if not problems:
        problems += workload.check(tables, ok_cells, results, texts)
    if workload.extra_check is not None:
        problems += workload.extra_check(hypotree, tables, seed)
    if any(res.digest != first.digest for res in passes):
        problems.append("a later pass produced different trees or metrics")
    return problems, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        hypotree = import_package()
    except ImportError as exc:
        print(f"error: cannot import hypotree from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    origin = perf_counter()

    tables, setup_times, setup_layers = set_up(workload, hypotree, tracer)
    cells = workload.cells(tables)
    untraced, traced, traced_layers = measure(hypotree, tables, cells, tracer, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gc.disable()  # the checker builds millions of small objects on ttt-hyp
    problems, results = check(hypotree, workload, tables, cells, untraced + traced,
                              args.seed)
    gc.enable()

    if tracer is None:
        metrics = end_to_end_metrics(untraced, import_times(), setup_times, peak_rss_mb)
    else:
        metrics = layer_metrics(untraced, traced, traced_layers, setup_layers, results)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl", origin)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    passes = len(untraced) + len(traced)
    print(f"{args.workload}: {passes} passes of {len(cells)} cells, "
          f"{sum(r.greedy_nodes_checked for r in results)} nodes checked for "
          f"greedy optimality, {len(problems)} problems; host slowdown per pass "
          f"{', '.join(f'{r.slowdown:.2f}' for r in untraced)}, raw grid_s "
          f"{', '.join(f'{r.grid_s:.3f}' for r in untraced)}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(cells) * passes,
        "failed": sum(res.failed for res in untraced + traced),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def scaled_median(passes, name: str) -> float:
    """Median over passes of a pass's scaled time."""
    return statistics.median(r.scaled[name] for r in passes)


def median_per_call(passes, name: str) -> float:
    """Each timed call's median scaled time over the passes, summed over the
    calls that ``name`` covers."""
    medians = np.median(np.stack([r.call_scaled for r in passes]), axis=0).sum(axis=0)
    return float(sum(medians[i] for i, step in enumerate(STEP_NAMES)
                     if name in STEP_METRICS[step]))


def end_to_end_metrics(untraced, import_s, setup_times, peak_rss_mb):
    """Per-call scaled medians over passes, medians over set-ups, peak memory."""
    return {
        "grid_s": (median_per_call(untraced, "grid_s"), "s"),
        "build_s": (median_per_call(untraced, "build_s"), "s"),
        "validate_s": (median_per_call(untraced, "validate_s"), "s"),
        "setup_s": (statistics.median(import_s) + statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def layer_metrics(untraced, traced, traced_layers, setup_layers, results):
    """Per-layer figures: medians over traced passes and over set-ups."""

    def median_of(rows, key):
        values = [row[key] for row in rows if key in row]
        if not values:
            return None
        # Counts stay whole numbers; they repeat exactly from pass to pass.
        return statistics.median(values) if key.endswith("_s") else statistics.median_low(values)

    metrics = {}
    for key in list(LAYER_SPANS.values()) + list(PASS_COUNTERS):
        value = median_of(traced_layers, key)
        if value is not None:
            metrics[key] = (value, "s" if key.endswith("_s") else "count")
    for key in list(SETUP_SPANS.values()) + ["table.tables"]:
        metrics[key] = (median_of(setup_layers, key), "s" if key.endswith("_s") else "count")
    last = traced[-1]
    metrics["builder.nodes"] = (last.nodes, "count")
    metrics["builder.working_nodes"] = (sum(r.working_nodes for r in results), "count")
    metrics["builder.empty_terminals"] = (sum(r.empty_terminals for r in results), "count")
    metrics["builder.realizable_share"] = (last.realizable / last.nodes, "ratio")
    metrics["builder.serialize_mb"] = (last.serialized_bytes / 1e6, "MB")
    metrics["metrics.rows_simulated"] = (last.rows_simulated, "count")
    for name in ("grid_s", "build_s", "validate_s"):
        metrics[f"trace.{name}"] = (scaled_median(traced, name), "s")
    plain = scaled_median(untraced, "wall_s")
    metrics["trace.overhead_pct"] = (100.0 * (scaled_median(traced, "wall_s") - plain) / plain, "%")
    for name in ("grid_s", "build_s", "validate_s"):
        metrics[f"wall.{name}"] = (statistics.median(getattr(r, name) for r in untraced), "s")
    metrics["host.slowdown"] = (statistics.median(r.slowdown for r in untraced), "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
