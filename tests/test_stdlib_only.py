"""The package is stdlib-only: every absolute import in ``src/domcount``
names a module of the standard library.  Relative imports stay inside the
package.

The package also declares Python 3.10, so every module must parse with
the 3.10 grammar.  ``ast.parse``'s ``feature_version`` rejects some newer
syntax, such as ``except*``, but not all of it (PEP 646's ``*Ts`` in an
annotation passes), and it does not see newer standard library APIs."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "domcount"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_package_parses_as_python_3_10():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
