"""Make the tests-side modules next to this file importable by name.

``per_node`` holds the per-node reference protocols that the equivalence
tests run against the program's schedule layers; test modules in any
subdirectory import it as ``from per_node import ...``.
"""

import pathlib
import sys

_TESTS = str(pathlib.Path(__file__).resolve().parent)
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)
