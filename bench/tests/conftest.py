"""Put bench/ and src/ on the path: the benchmark's modules are flat
files next to run.py, not an installed package."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
