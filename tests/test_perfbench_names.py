"""Every callable the benchmark tracer wraps by name still exists in permstab.

`perfbench/tracer.py` patches functions and methods by (module, path); a
rename or deletion in `src/` would only surface when the benchmark runs.
The tracer is loaded from its file and only its tables are read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    tables = (tracer.SPANS, tracer.COUNTS)
    return sorted({target for table in tables for targets in table.values() for target in targets})


def _resolves(module, path):
    owner = importlib.import_module(f"permstab.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
    if cls_path:  # the tracer patches the class that defines the method
        return isinstance(owner, type) and callable(vars(owner).get(attr))
    return callable(getattr(owner, attr, None))


def test_traced_names_resolve():
    targets = _targets()
    assert targets
    missing = [f"{module}.{path}" for module, path in targets if not _resolves(module, path)]
    assert not missing, f"perfbench/tracer.py wraps names permstab no longer defines: {missing}"
