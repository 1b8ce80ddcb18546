"""Permutations, partial injections, and the normalized Hamming metric.

All distances are exact rationals (`fractions.Fraction`); floating point
only appears when a caller converts for reporting.  Ground sets are always
{0, ..., n-1}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import SizeMismatchError

UNDEFINED = -1


def _as_index_array(values: Sequence[int]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("image must be one-dimensional")
    arr.setflags(write=False)
    return arr


class Perm:
    """A bijection of {0, ..., n-1} stored as an image array."""

    __slots__ = ("image",)

    def __init__(self, image: Sequence[int], *, _checked: bool = False):
        arr = _as_index_array(image)
        if not _checked:
            n = arr.shape[0]
            if n == 0:
                raise ValueError("permutation on an empty set is not supported")
            if arr.min(initial=0) < 0 or arr.max(initial=-1) >= n:
                raise ValueError("image values out of range")
            seen = np.zeros(n, dtype=bool)
            seen[arr] = True
            if not seen.all():
                raise ValueError("image is not a bijection")
        self.image = arr

    @property
    def n(self) -> int:
        return int(self.image.shape[0])

    def __call__(self, x: int) -> int:
        return int(self.image[x])

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and np.array_equal(self.image, other.image)

    def __hash__(self) -> int:
        return hash(self.image.tobytes())

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.image, np.arange(self.n)))

    def to_json(self) -> list:
        return [int(v) for v in self.image]

    def __repr__(self) -> str:
        if self.n <= 16:
            return f"Perm({list(map(int, self.image))})"
        return f"Perm(n={self.n})"


class PartialInjection:
    """A partial injection of {0, ..., n-1}; absent targets are -1."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int]):
        arr = _as_index_array(entries)
        n = arr.shape[0]
        if n == 0:
            raise ValueError("empty domain is not supported")
        defined = arr[arr != UNDEFINED]
        if defined.size and (defined.min() < 0 or defined.max() >= n):
            raise ValueError("defined targets out of range")
        if np.unique(defined).size != defined.size:
            raise ValueError("defined targets are not pairwise distinct")
        self.entries = arr


def identity(n: int) -> Perm:
    if n <= 0:
        raise ValueError("n must be positive")
    return Perm(np.arange(n, dtype=np.int64), _checked=True)


def compose(a: Perm, b: Perm) -> Perm:
    """compose(a, b)(x) = a(b(x))."""
    if a.n != b.n:
        raise SizeMismatchError(f"sizes differ: {a.n} vs {b.n}")
    return Perm(a.image[b.image], _checked=True)


def inverse(a: Perm) -> Perm:
    inv = np.empty(a.n, dtype=np.int64)
    inv[a.image] = np.arange(a.n)
    return Perm(inv, _checked=True)


def hamming(a: Perm, b: Perm) -> Fraction:
    """Normalized Hamming distance, exact."""
    if a.n != b.n:
        raise SizeMismatchError(f"sizes differ: {a.n} vs {b.n}")
    return Fraction(int(np.count_nonzero(a.image != b.image)), a.n)
