"""Importing permstab loads numpy and the standard library, nothing more.

Each setup probe of the benchmark is a fresh process that imports all of
permstab, so a third-party import added anywhere under src/ (scipy, or a
test-only package such as hypothesis) is paid on every workload's setup.
The import runs in a fresh interpreter, and its new top-level modules are
compared with those the interpreter held before it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_importing_every_module_loads_only_numpy_beyond_stdlib():
    code = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import permstab\n"
        "for info in pkgutil.iter_modules(permstab.__path__):\n"
        "    importlib.import_module('permstab.' + info.name)\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy", "permstab"]
