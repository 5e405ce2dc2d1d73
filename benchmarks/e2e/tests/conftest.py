"""Make ``benchmarks.e2e`` and ``repro`` importable for the suite.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q`` from
the repository root (``benchmarks/conftest.py`` imports ``repro`` before
this file is reached, hence the ``PYTHONPATH``).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
