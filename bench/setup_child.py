"""Fresh-interpreter set-up, timed as a whole process by ``run.py``.

``python3 bench/setup_child.py PLAN`` imports ``spikesim.cli`` and parses one
plan document.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spikesim.cli  # noqa: E402,F401  (the import is what is timed)
from spikesim.runner import parse_workload  # noqa: E402

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        parse_workload(json.load(fh))
