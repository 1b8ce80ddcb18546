"""Command-line interface.

Subcommands: kazhdan, build-family, defect, round, oracle, run.  Group specs
are strings like "cyclic:12", "sl2:7", or products joined by '*', e.g.
"cyclic:3*cyclic:4".
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .errors import ConfigError, PermstabError
from .experiment import ExperimentConfig, _is_int, check_grid, read_json, run_experiment
from .families import DEFAULT_WINDOW, flagship_family
from .groups import FinGroup, MarkedGroup, MarkedMap, cyclic, direct_product, sl2_mod
from .oracle import nearest_homomorphism_bruteforce
from .perms import Perm
from .rounding import rigidity_pipeline
from .spectral import DEFAULT_TOL, kazhdan


def parse_group_spec(spec: str) -> FinGroup:
    if not isinstance(spec, str):
        raise ConfigError(f"group spec must be a string such as cyclic:12, got {spec!r}")
    builders = {"cyclic": cyclic, "sl2": sl2_mod}
    factors = []
    for part in spec.split("*"):
        kind, _, arg = part.partition(":")
        if not arg:
            raise ConfigError(f"group spec {part!r} needs an argument, e.g. cyclic:12")
        if kind not in builders:
            raise ConfigError(f"unknown group kind {kind!r}")
        try:  # not an integer, or below the kind's least order
            factors.append(builders[kind](int(arg)))
        except ValueError as exc:
            raise ConfigError(f"group spec {part!r}: {exc}") from exc
    g = factors[0]
    for f in factors[1:]:
        g = direct_product(g, f)
    return g


def _element_indices(G: FinGroup, values) -> List[int]:
    """Element indices of G read from the command line or an input file."""
    try:
        S = [int(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"element indices must be integers: {exc}") from exc
    if not all(0 <= s < G.order for s in S):
        raise ConfigError(f"element indices {S} must lie in [0, {G.order})")
    return S


def _int(field: str, value) -> int:
    """An input file's integer field; a float such as 5.9 or a boolean is a ConfigError."""
    if not _is_int(value):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return value


def _ints(field: str, values) -> List[int]:
    """An input file's list of integers, checked entry by entry."""
    if not isinstance(values, list):
        raise ConfigError(f"{field} must be a list of integers, got {values!r}")
    return [_int(f"each entry of {field}", v) for v in values]


@contextlib.contextmanager
def _input_file(path: str):
    """Yields an input file's JSON; a bad file or a missing or malformed field is a ConfigError."""
    try:
        yield read_json(path)
    except PermstabError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:  # not an int, not a bijection, ...
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_window(s: Optional[str]):
    """The --window argument as two Fractions, DEFAULT_WINDOW when it is absent."""
    if s is None:
        return DEFAULT_WINDOW
    a, _, b = s.partition(":")
    try:
        return (Fraction(a), Fraction(b))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"window {s!r} must look like 1/7:1/6: {exc}") from exc


def _emit(data: dict, out: Optional[str]):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out is not None:  # an empty --out is a path that cannot be written
        try:
            with open(out, "w") as f:
                f.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_kazhdan(args) -> int:
    G = parse_group_spec(args.group)
    S = list(G.generators) if args.gens is None else _element_indices(G, args.gens.split(","))
    br = kazhdan(G, S, tol=args.tol)
    bounds = {"lower": br.lower, "upper": br.upper, "lambda1": br.lambda1}
    _emit({"group": args.group, "generators": S, "method": br.method, **bounds}, args.out)
    return 0


def cmd_build_family(args) -> int:
    try:
        primes = [int(p) for p in args.prime_list.split(",")]
    except ValueError as exc:
        raise ConfigError(f"primes must be integers: {exc}") from exc
    cfg = ExperimentConfig(primes=primes, window=_parse_window(args.window), out_dir=args.out)
    run_experiment(cfg)
    return 0


def cmd_defect(args) -> int:
    window = _parse_window(args.window)
    check_grid([args.prime], window)
    inst = flagship_family(args.prime, window=window)
    _emit(
        {
            "p": args.prime,
            "family": inst.family.to_json(),
            "report": inst.report.to_json(),
            "floor": str(inst.floor),
        },
        args.out,
    )
    return 0


def cmd_round(args) -> int:
    with _input_file(args.input) as raw:
        G = parse_group_spec(raw["group"])
        S = _element_indices(G, _ints("gens", raw.get("gens", G.generators)))
        y_size = _int("y_size", raw["y_size"])
        k_gens = [Perm(_ints("k_gens", p)) for p in raw["k_gens"]]
    result = rigidity_pipeline(G, S, y_size, k_gens)
    _emit(result.to_json(), args.out)
    return 0


def cmd_oracle(args) -> int:
    with _input_file(args.input) as raw:
        unknown = sorted(set(raw) - {"generator_count", "relators", "images"})
        if unknown:
            raise ConfigError(f"unknown oracle input keys {unknown}")
        marked = MarkedGroup(
            _int("generator_count", raw["generator_count"]),
            tuple(tuple(_ints("relators", r)) for r in raw.get("relators", [])),
        )
        images = [Perm(_ints("images", p)) for p in raw["images"]]
        m = MarkedMap(marked, images)
    res = nearest_homomorphism_bruteforce(marked, m)
    _emit(res.to_json(), args.out)
    return 0


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    out = run_experiment(cfg)
    sys.stdout.write(f"artifacts written to {out}\n")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args reads it and changes nothing in it."""
    ap = argparse.ArgumentParser(prog="permstab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kazhdan", help="Kazhdan constant (exact or bracket)")
    p.add_argument("--group", required=True, help="e.g. cyclic:12 or sl2:7")
    p.add_argument("--gens", help="comma-separated element indices (default: canonical)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kazhdan)

    p = sub.add_parser("build-family", help="swap families over a prime grid")
    p.add_argument("--prime-list", required=True, help="e.g. 7,13,19,43")
    p.add_argument("--window", help="density window, e.g. 1/7:1/6")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_family)

    p = sub.add_parser("defect", help="defect report for one flagship prime")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--window")
    p.add_argument("--out")
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("round", help="run the rigidity pipeline on a JSON instance")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("oracle", help="nearest exact homomorphism (brute force)")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("run", help="execute a configured experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_run)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except PermstabError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
