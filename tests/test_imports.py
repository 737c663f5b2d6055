"""numpy is the only runtime dependency: every module of the package
imports from the standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

import molpeco

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_numpy_and_itself():
    modules = sorted(Path(molpeco.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside the package
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{path.name} imports {name}"
