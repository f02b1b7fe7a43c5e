"""The reference implementations stay independent of the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_only_decision_table_from_the_package():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    from_package = [name for name in imported if name.split(".")[0] == "hypotree"]
    assert from_package == ["hypotree.DecisionTable"]
