"""Metric layer: permutations, partial injections, the Hamming distance."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstab.errors import SizeMismatchError
from permstab.perms import (
    PartialInjection,
    Perm,
    compose,
    hamming,
    identity,
    inverse,
)

from perm_builders import from_cycles, swap


def perms(n):
    return st.permutations(range(n)).map(lambda t: Perm(np.array(t)))


def test_identity_and_cycles():
    e = identity(5)
    assert e.is_identity()
    c = from_cycles(5, [(0, 1, 2)])
    assert c(0) == 1 and c(2) == 0 and c(4) == 4
    assert swap(4, 1, 3)(1) == 3


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([0, 5, 1])


def test_compose_convention():
    a = from_cycles(3, [(0, 1)])
    b = from_cycles(3, [(1, 2)])
    # compose(a, b)(x) = a(b(x))
    assert compose(a, b)(1) == a(b(1)) == a(2) == 2


def test_size_mismatch():
    with pytest.raises(SizeMismatchError):
        compose(identity(3), identity(4))
    with pytest.raises(SizeMismatchError):
        hamming(identity(3), identity(4))


def test_hamming_examples():
    assert hamming(identity(4), identity(4)) == 0
    assert hamming(identity(4), swap(4, 0, 1)) == Fraction(1, 2)
    assert hamming(identity(2), swap(2, 0, 1)) == 1


@settings(max_examples=60)
@given(perms(6), perms(6), perms(6))
def test_metric_axioms(a, b, c):
    assert hamming(a, b) == hamming(b, a)
    assert (hamming(a, b) == 0) == (a == b)
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
    assert 0 <= hamming(a, b) <= 1


@settings(max_examples=60)
@given(perms(6), perms(6), perms(6))
def test_bi_invariance(a, b, c):
    assert hamming(compose(c, a), compose(c, b)) == hamming(a, b)
    assert hamming(compose(a, c), compose(b, c)) == hamming(a, b)


@settings(max_examples=40)
@given(perms(7))
def test_inverse(p):
    assert compose(p, inverse(p)).is_identity()
    assert compose(inverse(p), p).is_identity()


def test_partial_injection_conventions():
    with pytest.raises(ValueError):
        PartialInjection([0, 0, -1])  # repeated target


def test_partial_injection_from_restriction():
    p = from_cycles(4, [(0, 1, 2, 3)])
    r = PartialInjection([1, -1, 3, -1])  # p restricted to {0, 2}
    assert r.entries[[0, 2]].tolist() == p.image[[0, 2]].tolist()
