"""Every module-level import of the package is used, so a change cannot leave
a dead dependency behind (a numpy import in a module that no longer touches an
array, say).  Names in ``__all__`` and imports marked ``# noqa: F401``
(re-exports) are exempt."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netpricing"


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` of each module-level import that the module never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_package_modules_use_every_import():
    unused = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _unused_imports(path)]
    assert unused == []
