"""Run the tests against the source tree without installing the package.

``src`` goes on this process's import path, and at the front of
``PYTHONPATH`` for the child processes that tests start (``python -m
satgenus.cli``, the demos), so a plain ``python3 -m pytest`` in a fresh
checkout imports the same package everywhere.  The ``cold_tables``
fixture is the one way tests reset the package's caches.
"""

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def cold_tables():
    """Clear the per-degree caches, the ``S_n`` tables and the witness
    walk, before and after the test; calling the fixture's value clears
    them again.  Those of degree 8 add about 18 MB to a process's resident
    size."""
    from satgenus import oracle, perms

    def clear():
        perms.sn_tables.cache_clear()
        oracle._classes.cache_clear()

    clear()
    yield clear
    clear()
