"""Backticked ``module.name`` references in the README and the package source
name attributes of the package, and the test files and tests they cite exist,
so a rename or a deleted test cannot leave stale text behind."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "netpricing"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
DOCUMENTS = (ROOT / "README.md", *sorted(PACKAGE.glob("*.py")))
REFERENCE = re.compile(r"`+([a-z_]+)\.([A-Za-z_]\w*)`+")
TEST_FILE = re.compile(r"\btests/(\w+\.py)(?:::(\w+))?")
TEST_NAME = re.compile(r"`+(test_\w+)")


def test_doc_references_name_package_attributes():
    references = [(path.name, module, name)
                  for path in DOCUMENTS
                  for module, name in REFERENCE.findall(path.read_text(encoding="utf-8"))
                  if module in MODULES]
    stale = [ref for ref in references
             if not hasattr(importlib.import_module(f"netpricing.{ref[1]}"), ref[2])]
    assert references and not stale


def test_doc_test_references_exist():
    tests = {}
    for path in (ROOT / "tests").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tests[path.name] = {node.name for node in ast.walk(tree)
                            if isinstance(node, ast.FunctionDef)}
    every_test = set().union(*tests.values())
    cited, stale = 0, []
    for path in DOCUMENTS:
        text = path.read_text(encoding="utf-8")
        for file, name in TEST_FILE.findall(text):
            cited += 1
            if file not in tests or name and name not in tests[file]:
                stale.append((path.name, file, name))
        for name in TEST_NAME.findall(text):
            cited += 1
            if name not in every_test:
                stale.append((path.name, name))
    assert cited and not stale
