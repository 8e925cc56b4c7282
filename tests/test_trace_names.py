"""Every name the benchmark's traced runs patch must still resolve.

``perfbench/run.py --trace 1`` records per-layer spans by replacing
package attributes by name.  A rename there would only surface when the
benchmark runs, so this test reads the span tables from
``perfbench/workloads.py`` (without importing it) and looks each name up.
"""

import ast
from pathlib import Path

import pytest

import domcount
import domcount.cli
import domcount.domination
import domcount.independence
import domcount.search

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def span_table(name):
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {WORKLOADS}")


@pytest.mark.parametrize("table, module", [
    ("SEARCH_SPANS", domcount.search),
    ("CLI_SPANS", domcount.cli),
])
def test_span_table_names_resolve(table, module):
    names = span_table(table)
    assert names
    for name in names:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


@pytest.mark.parametrize("owner, name", [
    (domcount.search, "generate_trees"),
    (domcount.CanonicalCode, "decode"),
    (domcount.CanonicalCode, "to_string"),
    (domcount.domination, "root_at"),
    (domcount.independence, "root_at"),
])
def test_traced_layer_names_resolve(owner, name):
    assert callable(getattr(owner, name, None))
