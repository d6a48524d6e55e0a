"""Make the benchmark's modules and the package under `src` importable in its tests."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bootstrap  # noqa: E402

if bootstrap.SRC not in sys.path:
    sys.path.insert(0, bootstrap.SRC)
