"""Almost-invariant subsets of finite groups.

Two pieces serve the certified paths: `round_to_invariant` rounds a nearly
invariant set to an exactly invariant one (the rigidity pipeline's set
step), and `window_cardinality` picks the least integer cardinality in a
density window [alpha, beta] (the swap family's C).  An empty window is
surfaced as WindowEmptyError instead of a silently relaxed bound.

`round_to_invariant` reads the subgroup H as the (|H|, |Y|) array of its
elements' image rows, which its caller already holds, so it builds no
closure of its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import WindowEmptyError, certify


def round_to_invariant(x_mask: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, int]:
    """Round X ⊂ Y, given by its mask, to an exactly H-invariant X0.

    `rows` holds the image row of every element of H.  Averages the
    indicator of X over them and thresholds at 1/2.  Returns (X0's mask,
    max_h |X △ hX|); the output satisfies |X0 △ X| <= 2 max_h |X △ hX|, and
    hX0 = X0 is certified for every row h.
    """
    hx = rows[:, np.flatnonzero(x_mask)]  # row h: hX
    counts = np.bincount(hx.ravel(), minlength=x_mask.size)  # |{h : y ∈ hX}|
    max_move = 2 * int((~x_mask[hx]).sum(axis=1).max())  # |X △ hX| = 2|hX ∖ X|
    x0_mask = 2 * counts >= len(rows)  # f(y) >= 1/2
    sym_diff = int((x0_mask ^ x_mask).sum())
    certify("invariant rounding bound violated", sym_diff, 2 * max_move)
    # h(X0) ⊆ X0 for every h, so h(X0) = X0
    certify("rounded set is not invariant", int((~x0_mask[rows[:, x0_mask]]).sum()), 0)
    return x0_mask, max_move


def window_cardinality(order: int, alpha: Fraction, beta: Fraction) -> int:
    """Smallest integer c with alpha·order <= c <= beta·order (closed window)."""
    c = math.ceil(alpha * order)
    if c > beta * order:
        raise WindowEmptyError(
            f"no integer c with {alpha}·{order} <= c <= {beta}·{order}"
        )
    return c
