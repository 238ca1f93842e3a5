"""The benchmark's in-process replay wraps lattice_sb functions by name.

perfbench/replay.py resolves every (module, function) of TRACED and every
method of PREDICATES with getattr, so renaming or deleting one of them
crashes every traced benchmark run.  This test catches that in the fast
suite.
"""

import importlib
import importlib.util
import subprocess
import sys
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


def test_cli_import_loads_every_traced_module():
    # replay's installed() re-binds the traced functions of the modules that
    # `from lattice_sb import cli` has loaded, so a module it leaves unloaded
    # would lose its spans without an error
    code = (f"import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('perfbench_replay', {str(REPLAY)!r})\n"
            "replay = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(replay)\n"
            "from lattice_sb import cli\n"
            "print(sorted({mod for mod, _, _ in replay.TRACED if f'lattice_sb.{mod}' not in sys.modules}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
