"""Brute-force ground truth: nearest exact homomorphism to a generator map.

The oracle is exhaustive and nothing else.  It enumerates S_n once, in
`itertools.permutations` order, and walks all (n!)^k generator tuples in
chunks, in the order of `itertools.product` over that list.  Each chunk
evaluates every relator by row gathers, keeps the tuples on which all of
them are the identity, and scores each survivor by max_i d_H to the input
images.  Ties go to the first minimum in that lexicographic order.  Above
EXHAUSTIVE_CAP tuples, or EXHAUSTIVE_CAP entries n!·n in the S_n table, it
raises CapacityError before enumerating anything.

The chosen images are re-checked against every relator through
`MarkedMap.evaluate`, which the scan does not use, and a violated relator
raises CertificateError, under ``python -O`` too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

import numpy as np

from .errors import CapacityError, certify
from .groups import MarkedGroup, MarkedMap, rows_per_chunk
from .perms import Perm

EXHAUSTIVE_CAP = 10_000_000


@dataclass
class OracleResult:
    best_hom: MarkedMap
    distance_profile: Dict[int, Fraction]  # generator index (1-based) -> d_H
    max_distance: Fraction
    search_space_size: int
    exhaustive = True  # the scan is the only path; kept for readers of to_json

    def to_json(self) -> dict:
        return {
            "images": [p.to_json() for p in self.best_hom.images],
            "distance_profile": {
                str(i): str(d) for i, d in self.distance_profile.items()
            },
            "max_distance": str(self.max_distance),
            "search_space_size": self.search_space_size,
            "exhaustive": self.exhaustive,
        }


def nearest_homomorphism_bruteforce(marked: MarkedGroup, m: MarkedMap) -> OracleResult:
    """Exact homomorphism minimizing max_i d_H to the input generator images.

    Scans all (n!)^k image tuples; ties go to the first tuple in
    lexicographic enumeration order.  Raises CapacityError when (n!)^k or
    n!·n exceeds EXHAUSTIVE_CAP.
    """
    if marked.generator_count != m.marked.generator_count:
        raise ValueError("marked presentation does not match the input map")
    n = m.points
    space = math.factorial(n) ** marked.generator_count
    if space > EXHAUSTIVE_CAP:
        raise CapacityError(f"search space (n!)^k = {space} exceeds cap {EXHAUSTIVE_CAP}")
    table = math.factorial(n) * n
    if table > EXHAUSTIVE_CAP:
        raise CapacityError(f"S_n table of n!·n = {table} entries exceeds cap {EXHAUSTIVE_CAP}")
    targets = np.stack([p.image for p in m.images])
    hom = MarkedMap(marked, [Perm(row) for row in _scan(marked, targets)])
    for rel in marked.relators:
        violated = int(not hom.evaluate(rel).is_identity())
        certify(f"oracle images violate relator {rel}", violated, 0)
    profile = {
        i + 1: Fraction(int((p.image != t).sum()), n)
        for i, (p, t) in enumerate(zip(hom.images, targets))
    }
    return OracleResult(hom, profile, max(profile.values()), space)


def _scan(marked: MarkedGroup, targets: np.ndarray) -> np.ndarray:
    """The first nearest tuple of exact images, as a (k, n) array of rows.

    Tuple number t takes its rows from np.unravel_index(t, (n!,)·k), so
    tuples come in `itertools.product` order and the identity comes first.
    """
    k, n = targets.shape
    size = math.factorial(n)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int8,
        count=size * n,
    ).reshape(size, n)
    ident = np.arange(n, dtype=np.int8)
    mismatches = np.stack([(perms != t).sum(axis=1, dtype=np.int8) for t in targets])  # n·d_H
    best, best_rows = n + 1, None
    space, step = size**k, rows_per_chunk(n)
    for start in range(0, space, step):
        rows = np.unravel_index(np.arange(start, min(start + step, space)), (size,) * k)
        for rel in marked.relators:
            out = np.broadcast_to(ident, (len(rows[0]), n))
            for letter in rel:  # right to left: out ∘ image(letter)
                image = perms[rows[abs(letter) - 1]]
                if letter < 0:
                    image = np.argsort(image, axis=1)
                out = np.take_along_axis(out, image, axis=1)
            exact = (out == ident).all(axis=1)
            rows = tuple(r[exact] for r in rows)
        score = np.max([mismatches[i, r] for i, r in enumerate(rows)], axis=0)
        if score.size and score.min() < best:
            at = int(score.argmin())
            best, best_rows = int(score[at]), [int(r[at]) for r in rows]
            if best == 0:
                break
    return perms[best_rows]
