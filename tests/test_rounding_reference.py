"""Every rounding item of the benchmark pool reproduces its recorded fingerprint.

`perfbench/workloads.py` builds the `rounding_mix` pool and fingerprints each
item's output; `perfbench/reference/rounding_mix.json` holds the fingerprints
the benchmark checks a run against.  The module is loaded from its file, with
the environment it pins for the benchmark restored afterwards; the test
only reads `perfbench/`.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve annotations through it
    try:
        with mock.patch.dict(os.environ):  # it pins the BLAS thread counts at import
            spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def test_rounding_pool_matches_reference():
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference" / "rounding_mix.json").read_text())
    pool = workloads.build_pool()
    got = {
        f"{kind}/{i}": workloads._run_rounding(kind, inst)
        for kind in workloads.ROUNDING_KINDS
        for i, inst in enumerate(pool[kind])
    }
    assert got == reference
