"""Experiment harness: configured grids, deterministic CSV/JSON artifacts.

A run walks the configured prime grid, computes Kazhdan constants for the
Λ-quotients, builds the swap family on each SL2 carrier, measures all
defects and floors, and writes three kinds of artifacts to the output
directory: one JSON file per instance, a fixed-schema CSV table, and a
human-readable summary.  Identical config and seed produce byte-identical
output.  Per-instance failures are recorded and the run continues.

One ordered declaration, FIELDS, drives all three: each field's name, CSV
form, JSON flag, summary fragment and value read off p and the flagship
instance.  `run_instance` returns the record in that order.  In the CSV, a
`Fraction` is a `name_frac` and a 12-decimal `name` column, a float 12
decimals, a bool lower case, anything else its `str`; the JSON writes a
`Fraction` as its string; the summary line joins the fragments, formatted
with the whole record.  A skipped prime renders the record {p} and its
error.  Adding a field is one entry.
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

DEFECT_FLOOR = Fraction(1, 126)
NOTE = ("note: these finite tables sample the defect/distance relation; "
        "they exhibit evidence, not a certificate, about the asymptotic regime.")

# name, CSV form, in the instance JSON, summary fragment, value read off (p, instance)
FIELDS = [
    ("p", str, True, "p={p}:", lambda p, inst: p),
    ("carrier_order", str, False, "|X|={carrier_order}", lambda p, inst: inst.X.order),
    ("b_density", Fraction, False, None, lambda p, inst: inst.family.b_density),
    ("a_density", Fraction, False, None, lambda p, inst: inst.family.a_density),
    ("max_defect", Fraction, False, "max_defect={max_defect} (>=1/126: {bound_ok})",
     lambda p, inst: inst.report.max_commutator_defect),
    ("floor", Fraction, True, "floor={floor}", lambda p, inst: inst.floor),
    ("kappa_lambda", float, True, "kappa(Z/{p})={kappa_lambda:.6f}",
     lambda p, inst: kazhdan_abelian_exact(cyclic(p), [1]).lower),
    ("bound_ok", bool, True, None, lambda p, inst: inst.report.max_commutator_defect >= DEFECT_FLOOR),
    ("family", None, True, None, lambda p, inst: inst.family.to_json()),
    ("report", None, True, None, lambda p, inst: inst.report.to_json()),
]

# CSV form -> {column suffix: cell of the value}
CSV_FORMS = {
    Fraction: {"_frac": str, "": lambda x: f"{float(x):.12f}"},
    float: {"": lambda x: f"{x:.12f}"},
    bool: {"": lambda x: str(x).lower()},
    str: {"": str},
    None: {},
}


def _csv_columns() -> List[str]:
    return ["instance", *(name + s for name, form, *_ in FIELDS for s in CSV_FORMS[form]), "error"]


CSV_COLUMNS = _csv_columns()


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


def _csv_row(i: int, record: Dict, error: str = "") -> Dict[str, str]:
    """The cells of the fields `record` holds; DictWriter leaves the rest empty."""
    row = {"instance": str(i), "error": error}
    for name, form, *_ in FIELDS:
        if name in record:
            row.update((name + s, cell(record[name])) for s, cell in CSV_FORMS[form].items())
    return row


def _summary(record: Dict) -> str:
    return " ".join(frag.format(**record) for name, _, _, frag, _ in FIELDS if frag and name in record)


def run_instance(p: int, window) -> Dict:
    """One grid point's record, in FIELDS order: the swap family and κ of its Λ-quotient."""
    inst = flagship_family(p, window=window)
    return {name: get(p, inst) for name, *_, get in FIELDS}


def run_experiment(cfg: ExperimentConfig) -> str:
    """Execute the grid; returns the artifact directory path."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:  # out_dir names a file, or cannot be created
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    rows: List[Dict[str, str]] = []
    summary_lines = [f"family=sl2-swap window={cfg.window[0]}..{cfg.window[1]} seed={cfg.seed}", ""]
    for i, p in enumerate(cfg.primes):
        try:
            record, error = run_instance(p, cfg.window), ""
        except PermstabError as exc:
            record, error = {"p": p}, f"{type(exc).__name__}: {exc}"
        rows.append(_csv_row(i, record, error))
        summary_lines.append(_summary(record) + (f" SKIPPED ({error})" if error else ""))
        if error:
            continue
        data = {name: record[name] for name, _, in_json, *_ in FIELDS if in_json}
        data = {k: str(v) if isinstance(v, Fraction) else v for k, v in data.items()}
        with open(os.path.join(cfg.out_dir, f"instance_p{p}.json"), "w") as f:
            f.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    with open(os.path.join(cfg.out_dir, "grid.csv"), "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=_csv_columns())
        writer.writeheader()
        writer.writerows(rows)
    failures = sum(bool(row["error"]) for row in rows)
    tally = f"instances={len(rows)} completed={len(rows) - failures} skipped={failures}"
    with open(os.path.join(cfg.out_dir, "summary.txt"), "w") as f:
        f.write("\n".join([*summary_lines, "", tally, NOTE]) + "\n")
    return cfg.out_dir
