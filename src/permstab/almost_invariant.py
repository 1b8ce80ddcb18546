"""Almost-invariant subsets of finite groups.

Two pieces serve the certified paths: `round_to_invariant` rounds a nearly
invariant set to an exactly invariant one (the rigidity pipeline's set
step), and `window_cardinality` picks the least integer cardinality in a
density window [alpha, beta] (the swap family's C).  An empty window is
surfaced as WindowEmptyError instead of a silently relaxed bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Set, Tuple

import numpy as np

from .errors import WindowEmptyError, certify
from .groups import group_from_perm_generators
from .perms import Perm


def _mask_of(order: int, members: Sequence[int]) -> np.ndarray:
    mask = np.zeros(order, dtype=bool)
    idx = np.asarray(sorted(set(int(m) for m in members)), dtype=np.int64)
    if idx.size:
        mask[idx] = True
    return mask


def round_to_invariant(y_size: int, X: Sequence[int], H: Sequence[Perm]) -> Tuple[Set[int], int]:
    """Round X ⊂ {0..y_size-1} to an exactly H-invariant X0.

    Averages the indicator of X over the full subgroup generated by H and
    thresholds at 1/2.  Returns (X0, max_h |X △ hX|); the output satisfies
    |X0 △ X| <= 2 max_h |X △ hX|.
    """
    x_mask = _mask_of(y_size, X)
    subgroup = group_from_perm_generators(list(H)) if H else None
    if subgroup is None or subgroup.order == 1:
        return set(int(v) for v in np.nonzero(x_mask)[0]), 0
    hx = subgroup.rows[:, np.flatnonzero(x_mask)]  # row h: hX
    counts = np.bincount(hx.ravel(), minlength=y_size)  # |{h : y ∈ hX}|
    max_move = 2 * int((~x_mask[hx]).sum(axis=1).max())  # |X △ hX| = 2|hX ∖ X|
    x0_mask = 2 * counts >= subgroup.order  # f(y) >= 1/2
    sym_diff = int((x0_mask ^ x_mask).sum())
    certify("invariant rounding bound violated", sym_diff, 2 * max_move)
    # exact invariance under every generator: p(X0) ⊆ X0, so p(X0) = X0
    gens = np.stack([p.image for p in H])
    certify("rounded set is not invariant", int((~x0_mask[gens[:, x0_mask]]).sum()), 0)
    return set(np.flatnonzero(x0_mask).tolist()), max_move


def window_cardinality(order: int, alpha: Fraction, beta: Fraction) -> int:
    """Smallest integer c with alpha·order <= c <= beta·order (closed window)."""
    c = math.ceil(alpha * order)
    if c > beta * order:
        raise WindowEmptyError(
            f"no integer c with {alpha}·{order} <= c <= {beta}·{order}"
        )
    return c
