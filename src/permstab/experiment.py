"""Experiment harness: configured grids, deterministic CSV/JSON artifacts.

A run walks the configured prime grid, computes Kazhdan constants for the
Λ-quotients, builds the swap family on each SL2 carrier, measures all
defects and floors, and writes three kinds of artifacts to the output
directory: one JSON file per instance, a fixed-schema CSV table, and a
human-readable summary.  Identical config and seed produce byte-identical
output.  Per-instance failures are recorded and the run continues.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import ConfigError, PermstabError
from .families import DEFAULT_WINDOW, flagship_family
from .groups import cyclic
from .spectral import kazhdan_abelian_exact

CSV_COLUMNS = [
    "instance",
    "p",
    "carrier_order",
    "b_density_frac",
    "b_density",
    "a_density_frac",
    "a_density",
    "max_defect_frac",
    "max_defect",
    "floor_frac",
    "floor",
    "kappa_lambda",
    "bound_ok",
    "error",
]

DEFECT_FLOOR = Fraction(1, 126)


def read_json(path: str):
    """The JSON value in `path`; a missing, unreadable or malformed file is a ConfigError."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _is_int(value) -> bool:
    """A Python int that is not a bool: 7.9 and true are not primes or seeds."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_grid(primes: List[int], window: Tuple[Fraction, Fraction]) -> None:
    """Raise ConfigError unless every p is an integer >= 2 and 0 < alpha < beta <= 1/2."""
    alpha, beta = window
    if not (0 < alpha < beta <= Fraction(1, 2)):
        raise ConfigError("window must satisfy 0 < alpha < beta <= 1/2")
    if not all(_is_int(p) for p in primes):
        raise ConfigError(f"primes must be integers, got {primes!r}")
    if any(p < 2 for p in primes):
        raise ConfigError("primes must be >= 2")


@dataclass
class ExperimentConfig:
    primes: List[int]
    window: Tuple[Fraction, Fraction] = DEFAULT_WINDOW
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        check_grid(self.primes, self.window)
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ConfigError(f"experiment config must be a JSON object, got {raw!r}")
        try:
            unknown = sorted(set(raw) - {f.name for f in fields(ExperimentConfig)})
            if unknown:
                raise ConfigError(f"unknown config keys {unknown}")
            out_dir = raw.get("out_dir", "out")
            if not isinstance(out_dir, str):
                raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
            primes = raw["primes"]
            if not isinstance(primes, list):
                raise ConfigError(f"primes must be a list of integers, got {primes!r}")
            return ExperimentConfig(  # check_grid unpacks exactly two window ends
                primes=primes,
                window=tuple(Fraction(w) for w in raw.get("window") or DEFAULT_WINDOW),
                seed=raw.get("seed", 0),
                out_dir=out_dir,
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"invalid experiment config: {exc}") from exc


def _dec(x: Fraction) -> str:
    return f"{float(x):.12f}"


def run_instance(p: int, window) -> Dict:
    """One grid point: Kazhdan data for the Λ-quotient plus the swap family."""
    inst = flagship_family(p, window=window)
    report = inst.report
    max_defect = report.max_commutator_defect
    return {
        "p": p,
        "carrier_order": inst.X.order,
        "kappa_lambda": kazhdan_abelian_exact(cyclic(p), [1]).lower,
        "family": inst.family.to_json(),
        "report": report.to_json(),
        "b_density": inst.family.b_density,
        "a_density": inst.family.a_density,
        "max_defect": max_defect,
        "floor": inst.floor,
        "bound_ok": bool(max_defect >= DEFECT_FLOOR),
    }


def run_experiment(cfg: ExperimentConfig) -> str:
    """Execute the grid; returns the artifact directory path."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:  # out_dir names a file, or cannot be created
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    rows: List[Dict[str, str]] = []
    summary_lines: List[str] = [
        f"family=sl2-swap window={cfg.window[0]}..{cfg.window[1]} seed={cfg.seed}",
        "",
    ]
    failures = 0
    for i, p in enumerate(cfg.primes):
        row = {c: "" for c in CSV_COLUMNS}
        row["instance"] = str(i)
        row["p"] = str(p)
        try:
            data = run_instance(p, cfg.window)
        except PermstabError as exc:
            failures += 1
            row["error"] = f"{type(exc).__name__}: {exc}"
            summary_lines.append(f"p={p}: SKIPPED ({row['error']})")
            rows.append(row)
            continue
        row["carrier_order"] = str(data["carrier_order"])
        for key in ("b_density", "a_density", "max_defect", "floor"):
            row[f"{key}_frac"], row[key] = str(data[key]), _dec(data[key])
        row["kappa_lambda"] = f"{data['kappa_lambda']:.12f}"
        row["bound_ok"] = str(data["bound_ok"]).lower()
        rows.append(row)
        with open(os.path.join(cfg.out_dir, f"instance_p{p}.json"), "w") as f:
            json.dump(
                {
                    "p": p,
                    "family": data["family"],
                    "report": data["report"],
                    "kappa_lambda": data["kappa_lambda"],
                    "floor": str(data["floor"]),
                    "bound_ok": data["bound_ok"],
                },
                f,
                indent=2,
                sort_keys=True,
            )
            f.write("\n")
        summary_lines.append(
            f"p={p}: |X|={data['carrier_order']} "
            f"max_defect={data['max_defect']} (>=1/126: {data['bound_ok']}) "
            f"floor={data['floor']} kappa(Z/{p})={data['kappa_lambda']:.6f}"
        )
    with open(os.path.join(cfg.out_dir, "grid.csv"), "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    summary_lines += [
        "",
        f"instances={len(cfg.primes)} completed={len(cfg.primes) - failures} "
        f"skipped={failures}",
        "note: these finite tables sample the defect/distance relation; "
        "they exhibit evidence, not a certificate, about the asymptotic regime.",
    ]
    with open(os.path.join(cfg.out_dir, "summary.txt"), "w") as f:
        f.write("\n".join(summary_lines) + "\n")
    return cfg.out_dir
