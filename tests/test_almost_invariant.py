"""Almost-invariant sets: rounding, shrinking, growing, closed-form windows."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstab.almost_invariant import (
    almost_inv_set,
    grow_to_window,
    round_to_invariant,
    shrink_step,
    window_cardinality,
    window_set_cyclic,
)
from permstab.errors import NoWitnessError, WindowEmptyError
from permstab.groups import cyclic, direct_product, sl2_mod
from permstab.perms import from_cycles, swap


def test_almost_inv_set_profile():
    G = cyclic(12)
    s = almost_inv_set(G, range(6))
    assert s.density == Fraction(1, 2)
    # 1 + {0..5} = {1..6}: symmetric difference {0, 6}
    assert s.defect_profile[1] == Fraction(2, 12)


def test_round_to_invariant_exact():
    # X already invariant under the subgroup -> unchanged
    p = from_cycles(6, [(0, 1, 2)])
    x0, move = round_to_invariant(6, [0, 1, 2], [p])
    assert x0 == {0, 1, 2} and move == 0


def test_round_to_invariant_majority():
    # X = {0,1,2,3} under the full 3-cycle on {0,1,2}: {0,1,2} survive (count 3),
    # 3 survives (fixed), nothing else enters
    p = from_cycles(6, [(0, 1, 2)])
    x0, move = round_to_invariant(6, [0, 1, 3], [p])
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
    x0, move = round_to_invariant(n, X, gens)
    # factor-2 bound and exact invariance (also asserted internally)
    assert len(x0 ^ set(X)) <= 2 * move
    for p in gens:
        assert x0 == {int(p(v)) for v in x0}


def test_shrink_step_example():
    G = cyclic(12)
    D = list(range(6))
    h, inter = shrink_step(G, D)
    # the returned witness satisfies the window (h=2 and h=3 both qualify;
    # smallest index wins)
    lo, hi = Fraction(36, 48), Fraction(18, 4)
    assert lo <= len(inter) <= hi
    assert set(inter) == {G.mul(d, h) for d in D} & set(D)


def test_shrink_step_no_witness():
    # singleton D in a group where every translate is disjoint or D itself:
    # |Dh n D| is 0 or 1; window is [1/(4n), 3/4] -> only h with Dh = D works,
    # but 1 > 3/4 fails, and 0 < 1/(4n) fails
    with pytest.raises(NoWitnessError):
        shrink_step(cyclic(8), [0])


def test_shrink_step_preconditions():
    G = cyclic(8)
    with pytest.raises(ValueError):
        shrink_step(G, [])
    with pytest.raises(ValueError):
        shrink_step(G, list(range(7)))  # 7 >= 3*8/4


def test_grow_to_window():
    G = cyclic(30)
    out = grow_to_window(G, [0, 1], Fraction(1, 7), Fraction(1, 3))
    assert Fraction(1, 7) <= out.density < Fraction(1, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(12, 60), st.integers(0, 500))
def test_grow_to_window_property(n, seed):
    G = cyclic(n)
    rng = np.random.default_rng(seed)
    alpha, beta = Fraction(1, 5), Fraction(1, 2)
    max_d = int(min(beta - alpha, alpha) * n)
    if max_d == 0:
        return
    size = int(rng.integers(1, max_d + 1))
    D = [int(v) for v in rng.choice(n, size=size, replace=False)]
    out = grow_to_window(G, D, alpha, beta)
    assert alpha <= out.density < beta


def test_grow_to_window_preconditions():
    G = cyclic(12)
    with pytest.raises(ValueError):
        grow_to_window(G, [], Fraction(1, 7), Fraction(1, 6))
    with pytest.raises(ValueError):
        grow_to_window(G, [0], Fraction(1, 3), Fraction(1, 4))  # alpha >= beta
    with pytest.raises(ValueError):
        # |D|/|G| = 1/2 exceeds min(beta - alpha, alpha)
        grow_to_window(G, range(6), Fraction(1, 7), Fraction(1, 6))


def test_window_cardinality():
    assert window_cardinality(7, Fraction(1, 7), Fraction(1, 6)) == 1
    assert window_cardinality(43, Fraction(1, 7), Fraction(1, 6)) == 7
    for n in (5, 11, 17):
        with pytest.raises(WindowEmptyError):
            window_cardinality(n, Fraction(1, 7), Fraction(1, 6))


def test_window_set_cyclic():
    out = window_set_cyclic(cyclic(42), Fraction(1, 7), Fraction(1, 6))
    assert out.members == list(range(6))
    assert Fraction(1, 7) <= out.density <= Fraction(1, 6)
    # interval sets have small defect: |(k + C) xor C| = 2k for small k
    assert out.defect_profile[1] == Fraction(2, 42)


def test_window_set_box_product():
    G = direct_product(cyclic(3), cyclic(14))
    out = window_set_cyclic(G, Fraction(1, 7), Fraction(1, 6))
    assert out.density == Fraction(2, 14)


def test_window_set_rejects_bad_shapes():
    with pytest.raises(ValueError):
        window_set_cyclic(sl2_mod(3), Fraction(1, 7), Fraction(1, 6))
    with pytest.raises(WindowEmptyError):
        window_set_cyclic(cyclic(5), Fraction(1, 7), Fraction(1, 6))
