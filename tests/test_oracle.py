"""Brute-force nearest-homomorphism oracle: the exhaustive scan and its certificate."""

import itertools
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from permstab import oracle
from permstab.errors import CapacityError
from permstab.groups import MarkedGroup, MarkedMap
from permstab.oracle import nearest_homomorphism_bruteforce
from permstab.perms import Perm, identity

from perm_builders import from_cycles, swap


def _independent_scan(marked, m):
    """Re-derived exhaustive minimum and its first minimising tuple,
    written separately from the oracle."""
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
        if best is None or dist < best[0]:
            best = (dist, perms)
    return best


def _assert_matches_scan(marked, m):
    res = nearest_homomorphism_bruteforce(marked, m)
    dist, images = _independent_scan(marked, m)
    assert res.exhaustive
    assert res.max_distance == dist
    assert res.best_hom.images == images
    return res


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
    res = _assert_matches_scan(z2, m)
    assert res.search_space_size == math.factorial(4) ** 2
    # the returned images genuinely commute
    a, b = res.best_hom.images
    assert not any(a.image[b.image] != b.image[a.image])


def test_exhaustive_z2_n3():
    z2 = MarkedGroup.free_abelian(2)
    m = MarkedMap(z2, [from_cycles(3, [(0, 1, 2)]), swap(3, 0, 1)])
    _assert_matches_scan(z2, m)


def test_power_relators_z2_times_z3():
    # Z/2 x Z/3: two power relators and a commutator, so several relators
    # and a word with a repeated letter filter the same tuples
    marked = MarkedGroup(2, ((1, 1), (2, 2, 2), (1, 2, -1, -2)))
    m = MarkedMap(marked, [from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(0, 1), (2, 3)])])
    res = _assert_matches_scan(marked, m)
    assert res.max_distance > 0


def test_three_generators_z3():
    z3 = MarkedGroup.free_abelian(3)
    m = MarkedMap(z3, [swap(3, 0, 1), swap(3, 1, 2), from_cycles(3, [(0, 1, 2)])])
    res = _assert_matches_scan(z3, m)
    assert res.search_space_size == math.factorial(3) ** 3


def test_capacity_without_local_search(monkeypatch):
    # (7!)^2 tuples exceed the default cap: an error, and nothing enumerated
    def enumerate_anyway(*args):
        raise AssertionError("the scan ran above the cap")

    monkeypatch.setattr(oracle, "_scan", enumerate_anyway)
    z2 = MarkedGroup.free_abelian(2)
    m = MarkedMap(z2, [identity(7), identity(7)])
    with pytest.raises(CapacityError):
        nearest_homomorphism_bruteforce(z2, m)


def test_capacity_on_the_sn_table(monkeypatch):
    # one generator: 10! tuples fit the cap, the 10!·10 entries of the S_10 table do not
    scanned = []
    monkeypatch.setattr(
        oracle, "_scan", lambda marked, targets: scanned.append(targets.shape) or targets
    )
    z3 = MarkedGroup(1, ((1, 1, 1),))
    with pytest.raises(CapacityError, match="n!·n"):
        nearest_homomorphism_bruteforce(z3, MarkedMap(z3, [identity(10)]))
    assert scanned == []
    nearest_homomorphism_bruteforce(z3, MarkedMap(z3, [identity(9)]))  # 9!·9 entries fit
    assert scanned == [(1, 9)]


def test_violated_certificate_raises_under_optimize():
    # a scan that returns the input's non-commuting swaps must not pass as exact
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from permstab import oracle\n"
        "from permstab.errors import CertificateError\n"
        "from permstab.groups import MarkedGroup, MarkedMap\n"
        "from permstab.perms import Perm\n"
        "oracle._scan = lambda marked, targets: targets\n"
        "z2 = MarkedGroup.free_abelian(2)\n"
        "m = MarkedMap(z2, [Perm([1, 0, 2]), Perm([0, 2, 1])])\n"
        "try:\n"
        "    oracle.nearest_homomorphism_bruteforce(z2, m)\n"
        "except CertificateError as exc:\n"
        "    raise SystemExit(0 if '(1, 2, -1, -2)' in str(exc) else 2)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-O", "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
