"""Backticked ``module.name`` references in the README and the package source
name attributes of the package, so a rename cannot leave stale text behind."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "netpricing"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
REFERENCE = re.compile(r"`+([a-z_]+)\.([A-Za-z_]\w*)`+")


def test_doc_references_name_package_attributes():
    references = [(path.name, module, name)
                  for path in (ROOT / "README.md", *sorted(PACKAGE.glob("*.py")))
                  for module, name in REFERENCE.findall(path.read_text(encoding="utf-8"))
                  if module in MODULES]
    stale = [ref for ref in references
             if not hasattr(importlib.import_module(f"netpricing.{ref[1]}"), ref[2])]
    assert references and not stale
