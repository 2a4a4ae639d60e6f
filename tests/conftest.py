"""Some tests run ``python -m deltasolve`` in a child process.  The
children get the ``src`` directory these tests import from on their
``PYTHONPATH``, so a plain ``python -m pytest`` works without installing
the package."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path)
