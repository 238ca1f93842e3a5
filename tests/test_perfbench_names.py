"""The benchmark's in-process replay wraps lattice_sb functions by name.

perfbench/replay.py resolves every (module, function) of TRACED and every
method of PREDICATES with getattr, so renaming or deleting one of them
crashes every traced benchmark run.  This test catches that in the fast
suite.
"""

import importlib
import importlib.util
from pathlib import Path

from lattice_sb.lattice import Lattice

REPLAY = Path(__file__).resolve().parent.parent / "perfbench" / "replay.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_replay", REPLAY)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    missing = [f"{mod}.{fn}" for mod, fn, _ in replay.TRACED
               if not callable(getattr(importlib.import_module(f"lattice_sb.{mod}"), fn, None))]
    missing += [f"Lattice.{p}" for p in replay.PREDICATES if p not in Lattice.__dict__]
    assert missing == []
