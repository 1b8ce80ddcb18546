"""Brute-force ground truth: nearest exact homomorphism to a generator map.

Exhaustive search enumerates all (n!)^k generator tuples when that fits the
cap; otherwise a seeded transposition-descent local search runs, clearly
flagged as non-exhaustive.  Either way the result satisfies every relator
exactly, so it is a genuine homomorphism and its distance to the input is a
certified upper bound on the true minimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError
from .groups import MarkedGroup, MarkedMap
from .perms import Perm

EXHAUSTIVE_CAP = 10_000_000
LOCAL_RESTARTS = 64
LOCAL_MAX_STEPS = 2_000


@dataclass
class OracleResult:
    best_hom: MarkedMap
    distance_profile: Dict[int, Fraction]  # generator index (1-based) -> d_H
    max_distance: Fraction
    search_space_size: int
    exhaustive: bool

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


def _eval_relator(images: List[np.ndarray], relator: Sequence[int], n: int) -> np.ndarray:
    out = np.arange(n)
    for letter in relator:
        arr = images[abs(letter) - 1]
        if letter < 0:
            inv = np.empty(n, dtype=np.int64)
            inv[arr] = np.arange(n)
            arr = inv
        out = out[arr]  # right-to-left application: out ∘ arr
    return out


def _relator_defect(images: List[np.ndarray], marked: MarkedGroup, n: int) -> Fraction:
    ident = np.arange(n)
    worst = Fraction(0)
    for rel in marked.relators:
        worst = max(worst, Fraction(int((_eval_relator(images, rel, n) != ident).sum()), n))
    return worst


def _max_distance(images: List[np.ndarray], targets: List[np.ndarray], n: int) -> Fraction:
    return max(
        Fraction(int((a != b).sum()), n) for a, b in zip(images, targets)
    )


def nearest_homomorphism_bruteforce(
    marked: MarkedGroup,
    m: MarkedMap,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
    allow_local_search: bool = True,
    seed: int = 0,
) -> OracleResult:
    """Exact homomorphism minimizing max_i d_H to the input generator images.

    Exhaustive when (n!)^k <= exhaustive_cap (ties broken by lexicographic
    enumeration order of image tuples); otherwise seeded local search with a
    trivial-homomorphism fallback, flagged non-exhaustive.
    """
    if marked.generator_count != m.marked.generator_count:
        raise ValueError("marked presentation does not match the input map")
    n = m.points
    k = marked.generator_count
    targets = [np.asarray(p.image, dtype=np.int64) for p in m.images]
    space = math.factorial(n) ** k

    if space <= exhaustive_cap:
        best: Optional[Tuple[Fraction, List[np.ndarray]]] = None
        for tup in itertools.product(itertools.permutations(range(n)), repeat=k):
            images = [np.asarray(t, dtype=np.int64) for t in tup]
            if _relator_defect(images, marked, n) != 0:
                continue
            dist = _max_distance(images, targets, n)
            if best is None or dist < best[0]:
                best = (dist, images)
        assert best is not None  # identity images always qualify
        return _result(marked, best[1], targets, n, space, exhaustive=True)

    if not allow_local_search:
        raise CapacityError(
            f"search space (n!)^k = {space} exceeds cap {exhaustive_cap}"
        )
    return _local_search(marked, targets, n, k, space, seed)


def _objective(
    images: List[np.ndarray], marked: MarkedGroup, targets: List[np.ndarray], n: int
) -> Tuple[Fraction, Fraction]:
    return (_relator_defect(images, marked, n), _max_distance(images, targets, n))


def _local_search(
    marked: MarkedGroup,
    targets: List[np.ndarray],
    n: int,
    k: int,
    space: int,
    seed: int,
) -> OracleResult:
    rng = np.random.default_rng(seed)
    ident = np.arange(n)
    # trivial homomorphism: all generators to the identity (relators vacuous)
    fallback = [ident.copy() for _ in range(k)]
    best_images = fallback
    best_dist = _max_distance(fallback, targets, n)

    starts: List[List[np.ndarray]] = [[t.copy() for t in targets]]
    for _ in range(LOCAL_RESTARTS - 1):
        starts.append([rng.permutation(n).astype(np.int64) for _ in range(k)])

    for images in starts:
        score = _objective(images, marked, targets, n)
        for _ in range(LOCAL_MAX_STEPS):
            improved = False
            for i in range(k):
                for a in range(n):
                    for b in range(a + 1, n):
                        images[i][[a, b]] = images[i][[b, a]]
                        cand = _objective(images, marked, targets, n)
                        if cand < score:
                            score = cand
                            improved = True
                        else:
                            images[i][[a, b]] = images[i][[b, a]]
            if not improved:
                break
        if score[0] == 0 and score[1] < best_dist:
            best_dist = score[1]
            best_images = [im.copy() for im in images]
    return _result(marked, best_images, targets, n, space, exhaustive=False)


def _result(
    marked: MarkedGroup,
    images: List[np.ndarray],
    targets: List[np.ndarray],
    n: int,
    space: int,
    exhaustive: bool,
) -> OracleResult:
    perms = [Perm(im) for im in images]
    hom = MarkedMap(marked, perms)
    profile = {
        i + 1: Fraction(int((im != t).sum()), n)
        for i, (im, t) in enumerate(zip(images, targets))
    }
    assert _relator_defect(images, marked, n) == 0
    return OracleResult(
        best_hom=hom,
        distance_profile=profile,
        max_distance=max(profile.values(), default=Fraction(0)),
        search_space_size=space,
        exhaustive=exhaustive,
    )
