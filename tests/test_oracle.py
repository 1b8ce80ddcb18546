"""Brute-force nearest-homomorphism oracle, exhaustive and local-search paths."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from permstab.errors import CapacityError
from permstab.groups import MarkedGroup, MarkedMap
from permstab.oracle import nearest_homomorphism_bruteforce
from permstab.perms import Perm, from_cycles, identity, swap


def _independent_scan(marked, m):
    """Re-derived exhaustive minimum, written separately from the oracle."""
    n = m.points
    targets = [p.image for p in m.images]
    best = None
    for tup in itertools.product(
        itertools.permutations(range(n)), repeat=marked.generator_count
    ):
        perms = [Perm(np.array(t)) for t in tup]
        mm = MarkedMap(marked, perms)
        if any(
            not mm.evaluate(r).is_identity() for r in marked.relators
        ):
            continue
        dist = max(
            Fraction(int((p.image != t).sum()), n)
            for p, t in zip(perms, targets)
        )
        if best is None or dist < best:
            best = dist
    return best


def test_already_homomorphism():
    z2 = MarkedGroup.free_abelian(2)
    a = from_cycles(4, [(0, 1, 2, 3)])
    b = from_cycles(4, [(0, 2), (1, 3)])  # b = a^2 commutes with a
    m = MarkedMap(z2, [a, b])
    res = nearest_homomorphism_bruteforce(z2, m)
    assert res.exhaustive and res.max_distance == 0
    assert res.best_hom.images == m.images


def test_free_group_any_images_are_exact():
    f2 = MarkedGroup.free(2)
    m = MarkedMap(f2, [swap(3, 0, 1), from_cycles(3, [(0, 1, 2)])])
    res = nearest_homomorphism_bruteforce(f2, m)
    assert res.max_distance == 0 and res.exhaustive


def test_exhaustive_matches_independent_scan():
    # Z^2 on 4 points with non-commuting images
    z2 = MarkedGroup.free_abelian(2)
    m = MarkedMap(z2, [swap(4, 0, 1), swap(4, 1, 2)])
    res = nearest_homomorphism_bruteforce(z2, m)
    assert res.exhaustive and res.search_space_size == math.factorial(4) ** 2
    assert res.max_distance == _independent_scan(z2, m)
    # the returned images genuinely commute
    a, b = res.best_hom.images
    assert not any(a.image[b.image] != b.image[a.image])


def test_exhaustive_z2_n3():
    z2 = MarkedGroup.free_abelian(2)
    m = MarkedMap(z2, [from_cycles(3, [(0, 1, 2)]), swap(3, 0, 1)])
    res = nearest_homomorphism_bruteforce(z2, m)
    assert res.max_distance == _independent_scan(z2, m)


def test_capacity_without_local_search():
    z2 = MarkedGroup.free_abelian(2)
    m = MarkedMap(z2, [identity(8), identity(8)])
    with pytest.raises(CapacityError):
        nearest_homomorphism_bruteforce(
            z2, m, exhaustive_cap=100, allow_local_search=False
        )


def test_local_search_flagged_and_sound():
    z2 = MarkedGroup.free_abelian(2)
    m = MarkedMap(z2, [swap(4, 0, 1), swap(4, 1, 2)])
    res = nearest_homomorphism_bruteforce(z2, m, exhaustive_cap=100, seed=0)
    assert not res.exhaustive
    # local search always returns a genuine homomorphism, so its distance is
    # an upper bound on (hence >=) the exhaustive minimum
    exact = nearest_homomorphism_bruteforce(z2, m)
    assert res.max_distance >= exact.max_distance
    a, b = res.best_hom.images
    assert not any(a.image[b.image] != b.image[a.image])


def test_local_search_deterministic():
    z2 = MarkedGroup.free_abelian(2)
    m = MarkedMap(z2, [swap(5, 0, 1), swap(5, 1, 2)])
    r1 = nearest_homomorphism_bruteforce(z2, m, exhaustive_cap=100, seed=7)
    r2 = nearest_homomorphism_bruteforce(z2, m, exhaustive_cap=100, seed=7)
    assert r1.best_hom.images == r2.best_hom.images
