"""Almost-invariant sets: rounding to an invariant set, window cardinalities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstab.almost_invariant import round_to_invariant, window_cardinality
from permstab.errors import WindowEmptyError
from permstab.groups import group_from_perm_generators

from perm_builders import from_cycles, swap


def _round(n, X, gens):
    """round_to_invariant on the closure of gens, with X0 back as a set."""
    x_mask = np.zeros(n, dtype=bool)
    x_mask[list(X)] = True
    x0_mask, move = round_to_invariant(x_mask, group_from_perm_generators(gens).rows)
    return set(np.flatnonzero(x0_mask).tolist()), move


def test_round_to_invariant_exact():
    # X already invariant under the subgroup -> unchanged
    p = from_cycles(6, [(0, 1, 2)])
    x0, move = _round(6, [0, 1, 2], [p])
    assert x0 == {0, 1, 2} and move == 0


def test_round_to_invariant_majority():
    # X = {0,1,2,3} under the full 3-cycle on {0,1,2}: {0,1,2} survive (count 3),
    # 3 survives (fixed), nothing else enters
    p = from_cycles(6, [(0, 1, 2)])
    x0, move = _round(6, [0, 1, 3], [p])
    assert x0 == {0, 1, 2, 3}
    assert move >= 1
    assert len(x0 ^ {0, 1, 3}) <= 2 * move


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 9))
def test_round_to_invariant_property(seed, n):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, n + 1))
    X = [int(v) for v in rng.choice(n, size=size, replace=False)]
    gens = [swap(n, 0, 1), from_cycles(n, [(1, 2, 3)])]
    x0, move = _round(n, X, gens)
    # factor-2 bound and exact invariance (also asserted internally)
    assert len(x0 ^ set(X)) <= 2 * move
    for p in gens:
        assert x0 == {int(p(v)) for v in x0}


def test_window_cardinality():
    assert window_cardinality(7, Fraction(1, 7), Fraction(1, 6)) == 1
    assert window_cardinality(43, Fraction(1, 7), Fraction(1, 6)) == 7
    for n in (5, 11, 17):
        with pytest.raises(WindowEmptyError):
            window_cardinality(n, Fraction(1, 7), Fraction(1, 6))
