"""Permutations written as cycles, for building test inputs."""

from typing import Sequence

import numpy as np

from permstab.perms import Perm


def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> Perm:
    """Build a permutation on n points from disjoint cycles."""
    image = np.arange(n, dtype=np.int64)
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            image[a] = b
    return Perm(image)


def swap(n: int, a: int, b: int) -> Perm:
    return from_cycles(n, [(a, b)])
