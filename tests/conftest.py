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
    """Clear the per-degree cache, the witnesses of the ``S_n`` walk, before
    and after the test; calling the fixture's value clears it again.  The
    walk's tables are freed when it ends, so a cold cache means the next
    request of that degree builds them and walks again."""
    from satgenus import oracle

    clear = oracle._classes.cache_clear
    clear()
    yield clear
    clear()
