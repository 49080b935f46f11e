"""Hypothesis keeps its caches in a temporary directory removed after the
run, so the suite leaves no files behind."""

import os
import shutil
import tempfile

_HYPOTHESIS_DIR = tempfile.mkdtemp(prefix="netpricing-hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _HYPOTHESIS_DIR


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_DIR, ignore_errors=True)
