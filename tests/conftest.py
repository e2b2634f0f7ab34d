"""Run the suite against this checkout's `src/`, with no install step.

`src/` goes on `sys.path` for the in-process tests and on `PYTHONPATH` for
the CLI tests, which start `python -m mvfa` in subprocesses.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [SRC, *_paths] if p)
