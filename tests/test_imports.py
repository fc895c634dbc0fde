"""The package promises zero runtime dependencies: every module under
``src/dynbc`` imports only the standard library and its own siblings."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynbc"


def _third_party_imports(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports are the package's own
        found += [
            name for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = {p.name: _third_party_imports(p) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}
