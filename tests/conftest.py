"""pyproject's `pythonpath` puts `src` on the test process's import path;
the tests that start `python -m ssd.cli` in a subprocess need it there too."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
