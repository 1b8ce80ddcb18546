"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known good: a later run that
differs from what this writes counts as a failed item.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads


def main():
    ref = workloads.REFERENCE_DIR
    flagship = ref / "flagship_grid"
    shutil.rmtree(flagship, ignore_errors=True)
    flagship.mkdir(parents=True)
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        wl = workloads.FlagshipGrid(0, Path(tmp))
        result = wl.run_pass(0)
    assert not result.errors, result.errors
    for name, text in result.outputs[0][1].items():
        if name == "summary.txt":
            text = text.replace("seed=0", "seed=SEED", 1)
        (flagship / name).write_text(text)

    kazhdan = {spec: json.loads(workloads.KazhdanSL2._run_one(spec)) for spec in workloads.KAZHDAN_GROUPS}
    (ref / "kazhdan_sl2.json").write_text(json.dumps(kazhdan, indent=1, sort_keys=True) + "\n")

    pool = workloads.build_pool()
    fingerprints = {
        f"{kind}/{i}": workloads._run_rounding(kind, inst)
        for kind in workloads.ROUNDING_KINDS
        for i, inst in enumerate(pool[kind])
    }
    (ref / "rounding_mix.json").write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
