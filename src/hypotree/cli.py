"""Command-line front end.

Subcommands: ``build`` (print a tree), ``metrics`` (depth, realizable nodes,
rule figures), ``rules`` (derived decision rules), ``validate`` (structural
and behavioural checks), ``experiment`` (dataset x measure x type report)
and ``experiment-bool`` (random Boolean function suites with min/avg/max
aggregation).  ``experiment`` renders a cell whose tree could not be made
as a dash and writes its reason to stderr, one ``note:`` line per aborted
(dataset, measure, type) in report order.

Exit codes: 0 success, 1 usage error or unwritable output file, 2 data or
validation error, 3 node budget exceeded.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .table import DecisionTable
from .uncertainty import MEASURES
from .builder import DEFAULT_NODE_BUDGET, DecisionTree, NodeBudgetExceeded, build_tree
from .metrics import validate
from .queries import TREE_TYPES
from .rules import derive_rules, render_rule, rules_to_csv
from .harness import (
    DataError,
    ExperimentSpec,
    _check_metrics,
    _format_value,
    _metric_values,
    aggregate_bool,
    load_source,
    load_table,
    render_bool_report,
    render_report,
    run_matrix,
)

__all__ = ["UsageError", "entry", "main"]


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_range_list(text: str, what: str, low: int, high: int) -> tuple[int, ...]:
    """Parse distinct integers in ``low..high``: ``3``, ``1,3,5`` or ``2-4``."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if "-" in token.lstrip("-"):
            first, _, last = token.partition("-")
        else:
            first = last = token
        try:
            bounds = range(int(first), int(last) + 1)
        except ValueError:
            raise UsageError(f"bad {what} {token!r}")
        if not bounds:
            raise UsageError(f"empty {what} range {token!r}")
        for k in (bounds[0], bounds[-1]):  # before a huge range is expanded
            if not low <= k <= high:
                raise UsageError(f"{what} must be {low}..{high}, got {k}")
        out.extend(bounds)
    if len(set(out)) != len(out):
        raise UsageError(f"duplicate {what} in {text!r}")
    return tuple(out)


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in text.split(",") if token.strip())


def _expand_table_args(tokens: list[str]) -> tuple[str, ...]:
    """Split comma-joined source lists, except inside ``bool:`` tokens."""
    out: list[str] = []
    for token in tokens:
        if token.startswith("bool:"):
            out.append(token)
        else:
            out.extend(part for part in token.split(",") if part)
    return tuple(out)


def _single_table(token: str, decision_column: str | None) -> DecisionTable:
    if decision_column is not None:
        if token.startswith(("gen:", "bool:")):
            raise UsageError("--decision-column only applies to CSV files")
        return load_table(token, decision_column)
    loaded = load_source(token)
    if len(loaded) != 1:
        raise UsageError(
            f"{token!r} expands to {len(loaded)} tables; this command takes "
            "exactly one (use count=1 for Boolean suites)"
        )
    return loaded[0][1]


def _single_tree(args: argparse.Namespace) -> tuple[DecisionTable, DecisionTree]:
    """The table of a single-table command and the tree it asks for."""
    if args.budget < 1:
        raise UsageError("node budget must be positive")
    table = _single_table(args.table, args.decision_column)
    return table, build_tree(table, args.type, args.measure, node_budget=args.budget)


def _add_table_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--table", required=True, metavar="SRC",
        help="CSV file, gen:NAME, or bool:n=..,count=1,seed=..",
    )
    parser.add_argument(
        "--decision-column", default=None, metavar="COL",
        help="decision column name or 0-based index (CSV only; default: last)",
    )
    parser.add_argument("--type", type=int, required=True, choices=TREE_TYPES,
                        help="tree type 1..5")
    parser.add_argument("--measure", default="me", choices=tuple(MEASURES),
                        help="uncertainty measure (default me)")
    parser.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                        metavar="N", help="abort once a tree needs more nodes")


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--measures", default="me", metavar="M1,M2",
                        help="comma-separated measures (default me)")
    parser.add_argument("--types", default="1-5", metavar="SPEC",
                        help="tree types, e.g. 1-5 or 1,3 (default 1-5)")
    parser.add_argument("--metrics", default="h,L", metavar="M1,M2",
                        help="any of h,L,l,c (default h,L)")
    parser.add_argument("--format", default="markdown", choices=("markdown", "csv"))
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the report here instead of stdout")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="parallel build processes (default 1)")
    parser.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                        metavar="N", help="per-tree node budget")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypotree", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="print a decision tree")
    _add_table_args(build)
    build.add_argument("--out", default=None, metavar="FILE")

    metrics = commands.add_parser("metrics", help="evaluate a tree")
    _add_table_args(metrics)
    metrics.add_argument("--show", default="h,L", metavar="M1,M2",
                         help="any of h,L,l,c (default h,L)")

    rules = commands.add_parser("rules", help="derive decision rules")
    _add_table_args(rules)
    rules.add_argument("--csv", nargs="?", const="-", default=None, metavar="FILE",
                       help="emit CSV, to FILE if given, else to stdout")
    rules.add_argument("--out", default=None, metavar="FILE",
                       help="write the readable rule list here")

    check = commands.add_parser("validate", help="check a built tree")
    _add_table_args(check)

    experiment = commands.add_parser("experiment", help="dataset/measure/type grid")
    experiment.add_argument("--tables", required=True, nargs="+", metavar="SRC",
                            help="sources; comma lists split except bool: tokens")
    _add_experiment_args(experiment)

    experiment_bool = commands.add_parser(
        "experiment-bool", help="random Boolean function suites"
    )
    experiment_bool.add_argument("--n", required=True, metavar="SPEC",
                                 help="variable counts, e.g. 4 or 3-6")
    experiment_bool.add_argument("--count", type=int, default=100, metavar="K",
                                 help="functions per suite (default 100)")
    experiment_bool.add_argument("--seed", type=int, default=42)
    _add_experiment_args(experiment_bool)
    return parser


def _check_writable(out: str | None) -> None:
    """Raise the UsageError ``_emit`` would for an unwritable ``out``, before any work.

    Nothing is opened, created or truncated, so a run that stops later
    leaves no file behind: an existing path must be a writable non-directory,
    a missing one needs a writable directory to be made in.
    """
    if out is None:
        return
    try:
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        try:
            os.stat(out)
            where = out
        except FileNotFoundError:  # made in its directory, which must exist
            where = os.path.dirname(out) or "."
            os.stat(where)
        if not os.access(where, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}")


def _run(args: argparse.Namespace) -> int:
    if args.command == "build":
        _check_writable(args.out)
        _, tree = _single_tree(args)
        _emit(tree.serialize(), args.out)
        return 0

    if args.command == "metrics":
        wanted = _parse_list(args.show)
        try:
            _check_metrics(wanted)
        except ValueError as exc:
            raise UsageError(str(exc))
        table, tree = _single_tree(args)
        values = _metric_values(table, tree, wanted)
        for metric in wanted:
            print(f"{metric}={_format_value(metric, values[metric])}")
        return 0

    if args.command == "rules":
        if args.csv is not None and args.out is not None:
            raise UsageError("--out does not apply with --csv; give the file to --csv")
        _check_writable(args.out if args.csv in (None, "-") else args.csv)
        table, tree = _single_tree(args)
        ruleset = derive_rules(table, tree)
        if args.csv is not None:
            text = rules_to_csv(ruleset.rules, table.attribute_names)
            _emit(text, None if args.csv == "-" else args.csv)
        else:
            lines = [render_rule(rule, table.attribute_names)
                     for rule in ruleset.rules]
            _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.command == "validate":
        table, tree = _single_tree(args)
        report = validate(table, tree)
        print(report.render())
        return 0 if report.ok else 2

    if args.command == "experiment":
        spec = _experiment_spec(args, _expand_table_args(args.tables))
        _check_writable(args.out)
        cells = run_matrix(spec)
        _emit(render_report(cells, args.format), args.out)
        aborted = {(c.dataset, c.measure, c.tree_type): c.note for c in cells if c.aborted}
        for (dataset, measure, tree_type), note in aborted.items():
            print(f"note: {dataset} ({measure}, t{tree_type}): {note}", file=sys.stderr)
        return 0

    if args.command == "experiment-bool":
        sizes = _parse_range_list(args.n, "variable count", 1, 16)
        if args.count < 1:
            raise UsageError("--count must be positive")
        if args.seed < 0:
            raise UsageError("--seed must be nonnegative")
        tokens = tuple(
            f"bool:n={n},count={args.count},seed={args.seed}" for n in sizes
        )
        spec = _experiment_spec(args, tokens)
        _check_writable(args.out)
        aggregates = aggregate_bool(run_matrix(spec))
        _emit(render_bool_report(aggregates, args.format), args.out)
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def _experiment_spec(args: argparse.Namespace, tables: tuple[str, ...]) -> ExperimentSpec:
    try:
        return ExperimentSpec(
            datasets=tables,
            measures=_parse_list(args.measures),
            tree_types=_parse_range_list(
                args.types, "tree type", TREE_TYPES[0], TREE_TYPES[-1]
            ),
            metrics=_parse_list(args.metrics),
            node_budget=args.budget,
            workers=args.workers,
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NodeBudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
