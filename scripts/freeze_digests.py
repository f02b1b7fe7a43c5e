#!/usr/bin/env python3
"""Write the frozen digest corpus, ``tests/data/frozen_digests.json``.

Builds every tree the corpus covers with the package under ``src/`` and
records it as ``tests/frozen.py`` defines: balance-scale and the three
tic-tac-toe sub-tables by the centre square, each x 5 measures x 5 types;
the whole tic-tac-toe table at t4/me, t5/me and t5/ent; functions 0-1 of the
Boolean suites n=7 and n=8 x me/ent x t4/t5; and one digest per (n, measure,
type) over the Boolean suites n=3..6.  Run it only to record a deliberate
change of the trees:

    python3 scripts/freeze_digests.py

It takes about a minute on a 2-core host; the Boolean suites are most of it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import frozen  # noqa: E402
from hypotree import BoolSuiteSpec, table_of  # noqa: E402


def main() -> None:
    trees = {}
    tables = frozen.corpus_tables()
    for name, m, k in frozen.cases():
        trees[frozen.key(name, m, k)] = frozen.tree_record(tables[name], k, m)
    rules = {}
    for name, m, k in frozen.rule_cases():
        rules[frozen.key(name, m, k)] = frozen.rules_record(tables[name], k, m)
    suites = {}
    for n in frozen.BOOL_NS:
        tables = [table_of(fn) for fn in BoolSuiteSpec(n).functions]
        for m in frozen.MEASURES:
            for k in frozen.TYPES:
                records = [frozen.bool_record(t, k, m) for t in tables]
                suites[frozen.key(f"bool n={n}", m, k)] = frozen.bool_suite_digest(records)
    frozen.DATA.parent.mkdir(parents=True, exist_ok=True)
    frozen.DATA.write_text(
        json.dumps({"trees": trees, "bool_suites": suites, "rules": rules}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(
        f"wrote {len(trees)} tree records, {len(suites)} suite digests and "
        f"{len(rules)} rules digests to {frozen.DATA}"
    )


if __name__ == "__main__":
    main()
