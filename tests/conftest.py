"""Run the tests against the source tree without installing the package.

``src`` goes on this process's import path, and at the front of
``PYTHONPATH`` for the child processes that tests start (``python -m
satgenus.cli``, the demos), so a plain ``python3 -m pytest`` in a fresh
checkout imports the same package everywhere.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

