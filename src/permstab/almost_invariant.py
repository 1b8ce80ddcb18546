"""Construction of almost-invariant subsets of finite groups.

Three constructive steps: rounding a nearly invariant set to an exactly
invariant one, shrinking a set while keeping small translation defects, and
growing a small set by greedy right translates into a density window
[alpha, beta].  At fixed finite size the asymptotic guarantees can fail; the
failures are surfaced as errors instead of silently relaxed bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .errors import NoWitnessError, WindowEmptyError, certify
from .groups import CyclicGroup, DirectProductGroup, FinGroup, group_from_perm_generators
from .perms import Perm


@dataclass
class AlmostInvSet:
    """A subset of a group with its exact density and translation defects."""

    group: FinGroup
    members: List[int]
    density: Fraction
    defect_profile: Dict[int, Fraction]  # generator index -> |gC △ C| / |G|


def _mask_of(order: int, members: Sequence[int]) -> np.ndarray:
    mask = np.zeros(order, dtype=bool)
    idx = np.asarray(sorted(set(int(m) for m in members)), dtype=np.int64)
    if idx.size:
        mask[idx] = True
    return mask


def translate_mask(G: FinGroup, mask: np.ndarray, g: int) -> np.ndarray:
    """Indicator of gC."""
    idx = np.nonzero(mask)[0]
    out = np.zeros_like(mask)
    if idx.size:
        out[G.mul_many(np.int64(g), idx)] = True
    return out


def left_defect_profile(G: FinGroup, members: Sequence[int]) -> Dict[int, Fraction]:
    mask = _mask_of(G.order, members)
    return {
        g: Fraction(int((translate_mask(G, mask, g) ^ mask).sum()), G.order)
        for g in G.generators
    }


def almost_inv_set(G: FinGroup, members: Sequence[int]) -> AlmostInvSet:
    mem = sorted(set(int(m) for m in members))
    return AlmostInvSet(
        group=G,
        members=mem,
        density=Fraction(len(mem), G.order),
        defect_profile=left_defect_profile(G, mem),
    )


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


def shrink_step(G: FinGroup, D: Sequence[int]) -> Tuple[int, List[int]]:
    """First h with |D|²/(4|G|) <= |Dh ∩ D| <= 3|D|/4; returns (h, Dh ∩ D)."""
    d_list = sorted(set(int(x) for x in D))
    d = len(d_list)
    if not (0 < d < Fraction(3, 4) * G.order):
        raise ValueError(f"|D|={d} must satisfy 0 < |D| < 3|G|/4")
    mask = _mask_of(G.order, d_list)
    lo = Fraction(d * d, 4 * G.order)
    hi = Fraction(3 * d, 4)
    d_idx = np.asarray(d_list, dtype=np.int64)
    for h in G.elements():
        shifted = np.zeros(G.order, dtype=bool)
        shifted[G.mul_many(d_idx, np.int64(h))] = True
        inter = shifted & mask
        cnt = int(inter.sum())
        if lo <= cnt <= hi:
            return h, [int(v) for v in np.nonzero(inter)[0]]
    raise NoWitnessError(
        "no group element satisfies the shrink inequalities at this size"
    )


def grow_to_window(
    G: FinGroup, D: Sequence[int], alpha: Fraction, beta: Fraction
) -> AlmostInvSet:
    """Greedy union of right translates Dg until density reaches [alpha, beta)."""
    d_list = sorted(set(int(x) for x in D))
    if not d_list:
        raise ValueError("D must be nonempty")
    dens = Fraction(len(d_list), G.order)
    if not (0 < alpha < beta <= Fraction(1, 2)):
        raise ValueError("need 0 < alpha < beta <= 1/2")
    if dens > min(beta - alpha, alpha):
        raise ValueError(
            f"|D|/|G| = {dens} exceeds min(beta-alpha, alpha) = {min(beta - alpha, alpha)}"
        )
    k_cap, uncovered = 0, Fraction(1)  # the least k with (1 - dens)^k <= 1 - alpha
    while uncovered > 1 - alpha:
        k_cap, uncovered = k_cap + 1, uncovered * (1 - dens)
    d_idx = np.asarray(d_list, dtype=np.int64)
    covered = np.zeros(G.order, dtype=bool)
    translates: List[int] = []
    while Fraction(int(covered.sum()), G.order) < alpha:
        best_g, best_gain, best_mask = -1, -1, covered
        for g in G.elements():
            shifted = np.zeros(G.order, dtype=bool)
            shifted[G.mul_many(d_idx, np.int64(g))] = True
            gain = int((shifted & ~covered).sum())
            if gain > best_gain:
                best_g, best_gain, best_mask = g, gain, shifted
        covered |= best_mask
        translates.append(best_g)
        certify("greedy cover exceeded the translate bound", len(translates), k_cap)
    result = almost_inv_set(G, [int(v) for v in np.nonzero(covered)[0]])
    certify("greedy cover overshot the density window", result.density, beta, strict=True)
    return result


def window_cardinality(order: int, alpha: Fraction, beta: Fraction) -> int:
    """Smallest integer c with alpha·order <= c <= beta·order (closed window)."""
    c = math.ceil(alpha * order)
    if c > beta * order:
        raise WindowEmptyError(
            f"no integer c with {alpha}·{order} <= c <= {beta}·{order}"
        )
    return c


def window_set_cyclic(G: FinGroup, alpha: Fraction, beta: Fraction) -> AlmostInvSet:
    """Closed-form almost-invariant set for cyclic / box-product groups.

    Cyclic groups get an initial interval {0..c-1}; a direct product with a
    cyclic right factor gets the box (full left factor) x interval when an
    integer cardinality fits.  Raises WindowEmptyError when none does.
    """
    if not G.is_abelian:
        raise ValueError("window_set_cyclic requires an abelian group")
    if isinstance(G, CyclicGroup):
        c = window_cardinality(G.order, alpha, beta)
        return almost_inv_set(G, list(range(c)))
    if isinstance(G, DirectProductGroup) and isinstance(G.right, CyclicGroup):
        c = window_cardinality(G.right.order, alpha, beta)
        members = [
            G.encode(i, j) for i in range(G.left.order) for j in range(c)
        ]
        return almost_inv_set(G, members)
    raise ValueError("unsupported abelian group shape for the closed-form window")
