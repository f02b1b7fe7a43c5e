"""Experiment harness: load tables, build tree grids, render report tables.

A run is a cross product of datasets, uncertainty measures and tree types.
For every combination one tree is built and the requested metrics are read
off it: ``h`` tree depth, ``L`` realizable node count, ``l`` average minimum
rule length, ``c`` average maximum rule coverage.  Results come back as flat
cells that render to markdown or CSV grids; random-Boolean-function suites
additionally aggregate to min/average/max over the suite.

Rendered reports are deterministic: cells keep wall-clock seconds for
logging, but no timing enters any rendered output.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .table import ConstraintError, DecisionTable, _is_integer
from .uncertainty import MEASURES
from .queries import TREE_TYPES, _check_tree_type
from .builder import DEFAULT_NODE_BUDGET, DecisionTree, NodeBudgetExceeded, build_tree
from .metrics import depth, realizable_count
from .rules import rule_stats
from .boolgen import parse_suite_spec, random_function, table_of
from .datasets import GENERATED_TABLES, generated_table

__all__ = [
    "BoolAggregate",
    "DataError",
    "ExperimentSpec",
    "ReportCell",
    "aggregate_bool",
    "expand_sources",
    "load_source",
    "load_table",
    "render_bool_report",
    "render_report",
    "run_matrix",
    "table_from_records",
]

METRICS = ("h", "L", "l", "c")


class DataError(Exception):
    """A dataset could not be read or is not a usable decision table."""


def table_from_records(
    names: Sequence[str],
    records: Sequence[Sequence[str]],
    decisions: Sequence[str],
) -> DecisionTable:
    """Dictionary-encode raw records into a decision table.

    Attribute values and decisions are mapped to 0, 1, ... in order of first
    appearance, column by column.  Records sharing all attribute values are
    merged into one row labeled with their most common decision, the
    smallest encoded decision winning ties; merged rows keep the position of
    their first occurrence.
    """
    if len(records) != len(decisions):
        raise DataError("records and decisions differ in length")
    if not records:
        raise DataError("no data rows")
    n = len(names)
    if n < 1:
        raise DataError("a table needs at least one attribute column")
    for record in records:
        if len(record) != n:
            raise DataError(
                f"row has {len(record)} attribute values, expected {n}"
            )

    codebooks: list[dict[str, int]] = [{} for _ in range(n)]
    decision_codes: dict[str, int] = {}
    encoded_rows = []
    encoded_decisions = []
    for record, decision in zip(records, decisions):
        row = []
        for book, raw in zip(codebooks, record):
            row.append(book.setdefault(raw, len(book)))
        encoded_rows.append(tuple(row))
        encoded_decisions.append(
            decision_codes.setdefault(decision, len(decision_codes))
        )

    groups: dict[tuple[int, ...], list[int]] = {}
    order: list[tuple[int, ...]] = []
    for row, dec in zip(encoded_rows, encoded_decisions):
        seen = groups.get(row)
        if seen is None:
            groups[row] = [dec]
            order.append(row)
        else:
            seen.append(dec)

    values = np.array(order, dtype=np.int64)
    merged = np.empty(len(order), dtype=np.int64)
    for at, row in enumerate(order):
        counts = np.bincount(groups[row])
        merged[at] = int(np.argmax(counts))
    return DecisionTable(tuple(names), values, merged)


def load_table(path: str | Path, decision_column: str | int | None = None) -> DecisionTable:
    """Read a CSV file with a header row into a decision table.

    The decision column is the last one unless ``decision_column`` names or
    0-indexes another; remaining columns become attributes in file order.
    Cells are stripped of surrounding whitespace and dictionary-encoded; see
    ``table_from_records`` for the duplicate-row merge policy.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a byte-order mark is not a cell
    except FileNotFoundError:
        raise DataError(f"no such file: {path}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}")
    rows = [
        [cell.strip() for cell in record]
        for record in csv.reader(io.StringIO(text))
        if record
    ]
    if not rows:
        raise DataError(f"{path} is empty")
    header, data = rows[0], rows[1:]
    if len(header) < 2:
        raise DataError(f"{path} needs at least two columns (attributes + decision)")
    if len(set(header)) != len(header):
        raise DataError(f"{path} has duplicate column names in its header")

    if decision_column is None:
        at = len(header) - 1
    elif isinstance(decision_column, str) and decision_column in header:
        at = header.index(decision_column)
    else:
        try:
            at = int(decision_column)
        except (TypeError, ValueError):
            raise DataError(f"no column named {decision_column!r} in {path}")
        if not -len(header) <= at < len(header):
            raise DataError(f"decision column {at} out of range for {path}")
        at %= len(header)

    names = tuple(name for j, name in enumerate(header) if j != at)
    for number, record in enumerate(data, start=2):
        if len(record) != len(header):
            raise DataError(
                f"{path} line {number}: {len(record)} cells, expected {len(header)}"
            )
    records = [[cell for j, cell in enumerate(record) if j != at] for record in data]
    decisions = [record[at] for record in data]
    try:
        return table_from_records(names, records, decisions)
    except (DataError, ConstraintError) as exc:
        raise DataError(f"{path}: {exc}")


def expand_sources(tokens: Sequence[str]) -> list[tuple[str, str, int]]:
    """Expand source tokens to ``(dataset_name, token, index)`` triples.

    ``gen:NAME`` yields one built-in table; ``bool:n=...`` yields one entry
    per function in the suite, named ``<suite>#<index>``; a directory yields
    its CSV files in sorted order; anything else is a CSV path named by its
    file stem.  A malformed ``bool:`` token and a directory with no CSV file
    fail here; all other load problems surface later, when the table is read.
    """
    out: list[tuple[str, str, int]] = []
    for token in tokens:
        if token.startswith("gen:"):
            out.append((token[len("gen:"):], token, 0))
        elif token.startswith("bool:"):
            try:
                spec = parse_suite_spec(token)
            except ValueError as exc:
                raise DataError(str(exc))
            out.extend(
                (f"{spec.display}#{index}", spec.display, index)
                for index in range(spec.count)
            )
        elif Path(token).is_dir():
            paths = sorted(Path(token).glob("*.csv"))
            if not paths:
                raise DataError(f"no CSV file in directory {token}")
            out.extend((path.stem, str(path), 0) for path in paths)
        else:
            out.append((Path(token).stem, token, 0))
    return out


@lru_cache(maxsize=128)
def _load_cached(token: str, index: int) -> DecisionTable:
    if token.startswith("bool:"):
        spec = parse_suite_spec(token)
        return table_of(random_function(spec.n, spec.seed, index))
    if token.startswith("gen:"):
        try:
            return generated_table(token[len("gen:"):])
        except ValueError as exc:
            raise DataError(str(exc))
    return load_table(token)


def load_source(token: str) -> list[tuple[str, DecisionTable]]:
    """Load one source token into named tables (suites load whole)."""
    return [
        (name, _load_cached(inner, index))
        for name, inner, index in expand_sources([token])
    ]


def _check_metrics(metrics: Sequence[str]) -> None:
    """Raise ValueError unless ``metrics`` names distinct known metrics."""
    if not metrics:
        raise ValueError("no metrics given")
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; options: h, L, l, c")
    if len(set(metrics)) != len(metrics):
        raise ValueError("duplicate metric")


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: sources x measures x tree types, and which metrics."""

    datasets: tuple[str, ...]
    measures: tuple[str, ...] = ("me",)
    tree_types: tuple[int, ...] = TREE_TYPES
    metrics: tuple[str, ...] = ("h", "L")
    node_budget: int = DEFAULT_NODE_BUDGET
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ValueError("no datasets given")
        if not self.measures:
            raise ValueError("no measures given")
        for name in self.measures:
            if name not in MEASURES:
                options = ", ".join(MEASURES)
                raise ValueError(f"unknown measure {name!r}; options: {options}")
        if len(set(self.measures)) != len(self.measures):
            raise ValueError("duplicate measure")
        if not self.tree_types:
            raise ValueError("no tree types given")
        for k in self.tree_types:
            _check_tree_type(k)
        if len(set(self.tree_types)) != len(self.tree_types):
            raise ValueError("duplicate tree type")
        _check_metrics(self.metrics)
        if not _is_integer(self.node_budget) or self.node_budget < 1:
            raise ValueError(
                f"node budget must be a positive integer, got {self.node_budget!r}"
            )
        if not _is_integer(self.workers) or self.workers < 1:
            raise ValueError(f"worker count must be a positive integer, got {self.workers!r}")


@dataclass(frozen=True)
class ReportCell:
    """One metric value for one dataset/measure/tree-type combination."""

    dataset: str
    measure: str
    tree_type: int
    metric: str
    value: float | None
    nodes: int | None
    seconds: float
    aborted: bool = False
    note: str = ""


_Task = tuple[str, str, int, str, int, tuple[str, ...], int]


def _metric_values(
    table: DecisionTable, tree: DecisionTree, metrics: Sequence[str]
) -> dict[str, float]:
    """The requested metrics of a tree, keyed by name; ``l`` and ``c`` come together."""
    values: dict[str, float] = {}
    if "h" in metrics:
        values["h"] = depth(tree)
    if "L" in metrics:
        values["L"] = realizable_count(table, tree)
    if "l" in metrics or "c" in metrics:
        stats = rule_stats(table, tree)
        values["l"] = stats.average_length
        values["c"] = stats.average_coverage
    return values


def _run_task(task: _Task) -> list[ReportCell]:
    dataset, token, index, measure, tree_type, metrics, budget = task
    started = time.perf_counter()

    def cells(value_of, nodes, *, aborted=False, note=""):
        seconds = time.perf_counter() - started
        return [
            ReportCell(dataset, measure, tree_type, metric, value_of(metric),
                       nodes, seconds, aborted, note)
            for metric in metrics
        ]

    try:
        table = _load_cached(token, index)
        tree = build_tree(table, tree_type, measure, node_budget=budget)
    except NodeBudgetExceeded:
        return cells(lambda metric: None, None, aborted=True,
                     note="node budget exceeded")
    except DataError as exc:
        return cells(lambda metric: None, None, aborted=True, note=str(exc))

    return cells(_metric_values(table, tree, metrics).__getitem__, tree.node_count)


def run_matrix(spec: ExperimentSpec) -> list[ReportCell]:
    """Build every dataset x measure x tree-type tree and collect metrics.

    Cells come back in specification order (dataset outermost, then measure,
    tree type, metric) regardless of worker count, so rendered reports are
    identical for any ``workers`` setting.
    """
    expanded = expand_sources(spec.datasets)
    tasks: list[_Task] = [
        (name, token, index, measure, tree_type, spec.metrics, spec.node_budget)
        for name, token, index in expanded
        for measure in spec.measures
        for tree_type in spec.tree_types
    ]
    if spec.workers == 1 or len(tasks) <= 1:
        batches = map(_run_task, tasks)
    else:
        # Imported here: the pool's modules cost every ``import hypotree`` about 10 ms.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            batches = list(pool.map(_run_task, tasks, chunksize=1))
    return [cell for batch in batches for cell in batch]


@dataclass(frozen=True)
class BoolAggregate:
    """Minimum/average/maximum of one metric over a function suite."""

    suite: str
    n: int
    measure: str
    tree_type: int
    metric: str
    minimum: float
    average: float
    maximum: float
    count: int


def aggregate_bool(cells: Iterable[ReportCell]) -> list[BoolAggregate]:
    """Collapse per-function cells of Boolean suites to min/average/max."""
    grouped: dict[tuple[str, str, int, str], list[float]] = {}
    order: list[tuple[str, str, int, str]] = []
    for cell in cells:
        suite = cell.dataset.split("#")[0]
        if cell.aborted or cell.value is None:
            raise DataError(
                f"cannot aggregate aborted cell {cell.dataset} "
                f"({cell.measure}, t{cell.tree_type}): {cell.note}"
            )
        key = (suite, cell.measure, cell.tree_type, cell.metric)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(cell.value)
    out = []
    for suite, measure, tree_type, metric in order:
        values = grouped[(suite, measure, tree_type, metric)]
        try:
            n = parse_suite_spec(suite).n
        except ValueError as exc:
            raise DataError(f"not a Boolean suite: {suite!r} ({exc})")
        out.append(
            BoolAggregate(
                suite, n, measure, tree_type, metric,
                min(values), sum(values) / len(values), max(values),
                len(values),
            )
        )
    return out


def _format_value(metric: str, value: float | None) -> str:
    if value is None:
        return "—"
    if metric in ("h", "L"):
        return str(int(value))
    return f"{value:.2f}"


def _markdown_table(header: list[str], body: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    lines.extend("| " + " | ".join(row) + " |" for row in body)
    return lines


def _cell_grid(
    cells: Sequence[ReportCell],
) -> tuple[list[tuple[str, str]], list[str], list[int], dict]:
    groups: list[tuple[str, str]] = []
    datasets: list[str] = []
    types: list[int] = []
    lookup: dict[tuple[str, str, str, int], ReportCell] = {}
    for cell in cells:
        if (cell.measure, cell.metric) not in groups:
            groups.append((cell.measure, cell.metric))
        if cell.dataset not in datasets:
            datasets.append(cell.dataset)
        if cell.tree_type not in types:
            types.append(cell.tree_type)
        lookup[(cell.measure, cell.metric, cell.dataset, cell.tree_type)] = cell
    return groups, datasets, types, lookup


def render_report(cells: Sequence[ReportCell], fmt: str = "markdown") -> str:
    """Render cells as one grid per (measure, metric); "—" marks aborts.

    Grids have one row per dataset and one column per tree type, plus an
    Average row when more than one dataset is present.  ``fmt`` is
    ``markdown`` or ``csv``; both carry exactly the same values.
    """
    groups, datasets, types, lookup = _cell_grid(cells)

    def row_values(measure: str, metric: str, dataset: str) -> list[float | None]:
        out = []
        for k in types:
            cell = lookup.get((measure, metric, dataset, k))
            out.append(None if cell is None or cell.aborted else cell.value)
        return out

    def average_row(measure: str, metric: str) -> list[str]:
        out = []
        for at, k in enumerate(types):
            column = [row_values(measure, metric, ds)[at] for ds in datasets]
            if any(v is None for v in column):
                out.append("—")
            else:
                out.append(f"{sum(column) / len(column):.2f}")
        return out

    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["measure", "metric", "dataset"] + [f"t{k}" for k in types])
        for measure, metric in groups:
            for dataset in datasets:
                writer.writerow(
                    [measure, metric, dataset]
                    + [_format_value(metric, v)
                       for v in row_values(measure, metric, dataset)]
                )
            if len(datasets) > 1:
                writer.writerow([measure, metric, "Average"]
                                + average_row(measure, metric))
        return buffer.getvalue()
    if fmt != "markdown":
        raise ValueError(f"unknown report format {fmt!r}; options: markdown, csv")

    blocks = []
    for measure, metric in groups:
        body = [
            [dataset] + [_format_value(metric, v)
                         for v in row_values(measure, metric, dataset)]
            for dataset in datasets
        ]
        if len(datasets) > 1:
            body.append(["Average"] + average_row(measure, metric))
        lines = [f"## {metric}, measure={measure}", ""]
        lines.extend(_markdown_table(["dataset"] + [f"t{k}" for k in types], body))
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def render_bool_report(aggs: Sequence[BoolAggregate], fmt: str = "markdown") -> str:
    """Render suite aggregates; each cell reads "min average max"."""
    groups: list[tuple[str, str]] = []
    suites: list[tuple[str, int]] = []
    types: list[int] = []
    lookup: dict[tuple[str, str, str, int], BoolAggregate] = {}
    for agg in aggs:
        if (agg.measure, agg.metric) not in groups:
            groups.append((agg.measure, agg.metric))
        if (agg.suite, agg.n) not in suites:
            suites.append((agg.suite, agg.n))
        if agg.tree_type not in types:
            types.append(agg.tree_type)
        lookup[(agg.measure, agg.metric, agg.suite, agg.tree_type)] = agg

    def triple(metric: str, agg: BoolAggregate | None) -> tuple[str, str, str]:
        if agg is None:
            return ("—", "—", "—")
        return (
            _format_value(metric, agg.minimum),
            f"{agg.average:.2f}",
            _format_value(metric, agg.maximum),
        )

    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["measure", "metric", "n", "type", "min", "avg", "max"])
        for measure, metric in groups:
            for suite, n in suites:
                for k in types:
                    low, mid, high = triple(
                        metric, lookup.get((measure, metric, suite, k))
                    )
                    writer.writerow([measure, metric, n, k, low, mid, high])
        return buffer.getvalue()
    if fmt != "markdown":
        raise ValueError(f"unknown report format {fmt!r}; options: markdown, csv")

    blocks = []
    for measure, metric in groups:
        body = []
        for suite, n in suites:
            row = [f"n={n}"]
            for k in types:
                row.append(" ".join(
                    triple(metric, lookup.get((measure, metric, suite, k)))
                ))
            body.append(row)
        lines = [f"## {metric}, measure={measure} (min avg max)", ""]
        lines.extend(_markdown_table(["suite"] + [f"t{k}" for k in types], body))
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"
