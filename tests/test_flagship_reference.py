"""`permstab run` on the benchmark's flagship grid reproduces its recorded artifacts.

`perfbench/reference/flagship_grid/` holds the grid.csv, instance JSON files
and summary.txt that the `flagship_grid` workload checks a run against, with
the run's seed echo recorded as ``seed=SEED``.  Files are compared as the
benchmark reads them, as text with universal newlines: the CSV writer ends
rows with \\r\\n, which the recorded copy holds as \\n.  So grid.csv is also
read as bytes: every row must end in \\r\\n, and with those endings made
\\n its bytes must equal the recorded copy's.  The test only reads
`perfbench/`; a change that moves the artifacts re-records the reference
with `perfbench/make_reference.py`, and this test follows.
"""

import json
from pathlib import Path

from permstab.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "flagship_grid"
PRIMES = [5, 7, 13, 19, 43]
SEED = 9


def test_flagship_artifacts_match_reference(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"primes": PRIMES}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--seed", str(SEED)]) == 0
    want = {p.name: p.read_text() for p in sorted(REFERENCE.iterdir())}
    want["summary.txt"] = want["summary.txt"].replace("seed=SEED", f"seed={SEED}", 1)
    got = {p.name: p.read_text() for p in sorted(out.iterdir())}
    assert sorted(got) == sorted(want) == [
        "grid.csv",
        "instance_p13.json",
        "instance_p19.json",
        "instance_p43.json",
        "instance_p7.json",
        "summary.txt",
    ]
    for name in want:
        assert got[name] == want[name], name
    grid = (out / "grid.csv").read_bytes()
    assert grid.endswith(b"\r\n") and grid.count(b"\n") == grid.count(b"\r") == grid.count(b"\r\n")
    assert grid.replace(b"\r\n", b"\n") == (REFERENCE / "grid.csv").read_bytes()
