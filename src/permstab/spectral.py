"""Kazhdan-constant estimation and expansion / almost-invariance checks.

Abelian groups get exact constants through their characters; general groups
get a certified bracket [sqrt(λ1/|S|) - tol, sqrt(λ1) + tol] from the
smallest eigenvalue λ1 of the generator Laplacian on the mean-zero subspace
of ℓ²(G).  For unit ξ orthogonal to constants,
Σ_s ||π(s)ξ - ξ||² = <Lξ, ξ> >= λ1 forces max_s ||π(s)ξ - ξ|| >= sqrt(λ1/|S|),
while the minimizing eigenvector witnesses max_s <= sqrt(λ1).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    CapacityError,
    EigensolveError,
    NotAbelianError,
    NonGeneratingError,
)
from .groups import FinGroup, PermAction

DENSE_DIM_CAP = 2000
DEFAULT_TOL = 1e-8


@dataclass
class KazhdanBracket:
    """Certified lower/upper bounds on the Kazhdan constant of (G, S)."""

    lower: float
    upper: float
    lambda1: float
    method: str  # "abelian-exact" or "laplacian-bracket"
    iterations: int = 0

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 2.0 + 1e-12):
            raise ValueError("bracket must satisfy 0 <= lower <= upper <= 2")


def _require_generating(G: FinGroup, S: Sequence[int]):
    if not G.generates(S):
        raise NonGeneratingError("S does not generate G")


def _characters(G: FinGroup, cand_cap: int = 10_000_000) -> np.ndarray:
    """All |G| characters of an abelian group, rows indexed by character.

    Works directly from the multiplication structure: BFS words over the
    group's generators, then a scan over root-of-unity assignments on the
    generators, keeping the consistent ones.
    """
    gens = list(G.generators)
    if not gens:
        return np.ones((1, G.order), dtype=complex)
    # BFS exponent vector E[x][i] = net power of generator i in some word for x
    k = len(gens)
    E = np.zeros((G.order, k), dtype=np.int64)
    steps = np.concatenate([np.eye(k, dtype=np.int64), -np.eye(k, dtype=np.int64)])
    reached = 1
    for new, parent, letter in G._spread(gens + [G.inv(g) for g in gens]):
        E[new] = E[parent] + steps[letter]
        reached += new.size
    if reached != G.order:
        raise NonGeneratingError("declared generators do not generate G")
    orders = [G.element_order(g) for g in gens]
    n_cand = math.prod(orders)
    if n_cand > cand_cap:
        raise CapacityError(f"character scan over {n_cand} candidates exceeds cap")
    idx = np.arange(G.order)
    shifted = [G.mul_many(idx, np.int64(g)) for g in gens]  # x ↦ x·g
    chars = []
    for exps in itertools.product(*[range(d) for d in orders]):
        # χ(x) = Π_i exp(2πi e_i E[x,i] / d_i): exact on exponents, so compute
        # the total phase as a rational multiple of 2π before exponentiating
        phase = np.zeros(G.order)
        for i, (e, d) in enumerate(zip(exps, orders)):
            phase += (e * E[:, i]) % d * (2 * math.pi / d)
        vals = np.exp(1j * phase)
        # consistency: χ(x·g) = χ(x)χ(g) for every x and generator g
        ok = True
        for i, xg in enumerate(shifted):
            gv = cmath.exp(2j * cmath.pi * exps[i] / orders[i])
            if not np.allclose(vals[xg], vals * gv, atol=1e-9):
                ok = False
                break
        if ok:
            chars.append(vals)
    if len(chars) != G.order:
        raise NotAbelianError(
            f"found {len(chars)} characters for a group of order {G.order}"
        )
    return np.stack(chars)


def kazhdan_abelian_exact(G: FinGroup, S: Sequence[int]) -> KazhdanBracket:
    """κ(G,S) = min over nontrivial characters χ of max_{s∈S} |χ(s)-1|."""
    if not G.is_abelian:
        raise NotAbelianError("kazhdan_abelian_exact requires an abelian group")
    _require_generating(G, S)
    chars = _characters(G)
    s_idx = np.asarray(sorted(set(int(s) for s in S)), dtype=np.int64)
    diffs = np.abs(chars[:, s_idx] - 1.0)
    dists = diffs.max(axis=1)
    nontrivial = dists > 1e-9
    kappa = float(dists[nontrivial].min())
    # the Laplacian diagonalizes over characters: eigenvalue Σ_s |χ(s)-1|²
    lam1 = float((diffs[nontrivial] ** 2).sum(axis=1).min())
    return KazhdanBracket(lower=kappa, upper=kappa, lambda1=lam1, method="abelian-exact")


def _laplacian(G: FinGroup, S: Sequence[int]) -> scipy.sparse.csr_matrix:
    n = G.order
    idx = np.arange(n)
    mats = []
    for s in sorted(set(int(v) for v in S)):
        for g in (s, G.inv(s)):
            col = G.mul_many(np.int64(g), idx)  # π(g)ξ(x) = ξ(g^{-1}x): entry (gx, x)
            mats.append(
                scipy.sparse.csr_matrix(
                    (np.ones(n), (col, idx)), shape=(n, n)
                )
            )
    k = len(mats) // 2
    L = 2 * k * scipy.sparse.identity(G.order, format="csr")
    for m in mats:
        L = L - m
    return L.tocsr()


def _lambda1(
    G: FinGroup, S: Sequence[int], tol: float, dense_only: bool = False
) -> Tuple[float, int]:
    """Smallest eigenvalue of the generator Laplacian on mean-zero functions."""
    n = G.order
    L = _laplacian(G, S)
    if dense_only or n <= DENSE_DIM_CAP:
        dense = L.toarray()
        vals = np.linalg.eigvalsh(dense)
        # eigenvalue 0 of the constant vector is simple when S generates
        return float(vals[1]), 0
    # locally-optimal block iteration, explicitly orthogonalized against the
    # all-ones kernel vector of L
    ones = np.ones((n, 1)) / math.sqrt(n)
    rng = np.random.default_rng(0)
    block = rng.standard_normal((n, 4))
    maxiter = 5_000
    try:
        vals, vecs, history = scipy.sparse.linalg.lobpcg(
            L, block, Y=ones, largest=False, tol=max(tol, 1e-10),
            maxiter=maxiter, retLambdaHistory=True,
        )
    except Exception as exc:  # scipy raises plain errors on breakdown
        raise EigensolveError("iterative eigensolve failed") from exc
    order = np.argsort(vals)
    lam = float(vals[order[0]])
    v = vecs[:, order[0]]
    residual = float(np.linalg.norm(L @ v - lam * v) / np.linalg.norm(v))
    if not np.isfinite(lam) or residual > max(tol, 1e-7) * (1 + abs(lam)):
        raise EigensolveError(
            f"iterative eigensolve did not converge (residual {residual:.3g})"
        )
    return lam, len(history)


def kazhdan_bracket(
    G: FinGroup,
    S: Sequence[int],
    tol: float = DEFAULT_TOL,
    spectral_cap: int = 200_000,
) -> KazhdanBracket:
    """Certified Kazhdan bracket from the Laplacian spectral gap."""
    if G.order > spectral_cap:
        raise CapacityError(f"group order {G.order} exceeds spectral cap {spectral_cap}")
    _require_generating(G, S)
    lam1, iters = _lambda1(G, S, tol=tol)
    lam1 = max(lam1, 0.0)
    k = len(set(int(v) for v in S))
    lower = max(math.sqrt(max(lam1, 0.0) / k) - tol, 0.0)
    upper = min(math.sqrt(lam1) + tol, 2.0)
    lower = min(lower, upper)
    return KazhdanBracket(
        lower=lower, upper=upper, lambda1=lam1, method="laplacian-bracket",
        iterations=iters,
    )


@dataclass
class ExpansionCheck:
    holds: bool
    lhs: float  # κ_lower² |A| |G\A|
    rhs: int  # max_g |gA △ A| · |G|
    witness_generator: int
    witness_boundary: int  # |gA △ A| at the maximizing generator


def check_expansion(
    G: FinGroup, S: Sequence[int], A: Sequence[int], kappa_lower: float
) -> ExpansionCheck:
    """κ² |A| |G∖A| <= max_{g∈S} |gA △ A| · |G|, with the certified lower κ."""
    a_set = set(int(x) for x in A)
    if any(x < 0 or x >= G.order for x in a_set):
        raise ValueError("A is not a subset of G")
    mask = np.zeros(G.order, dtype=bool)
    mask[sorted(a_set)] = True
    best_g, best_boundary = -1, -1
    a_idx = np.asarray(sorted(a_set), dtype=np.int64)
    for g in sorted(set(int(v) for v in S)):
        g_a = np.zeros(G.order, dtype=bool)
        if a_idx.size:
            g_a[G.mul_many(np.int64(g), a_idx)] = True
        boundary = int(np.count_nonzero(g_a ^ mask))
        if boundary > best_boundary:
            best_boundary, best_g = boundary, g
    lhs = kappa_lower**2 * len(a_set) * (G.order - len(a_set))
    rhs = best_boundary * G.order
    return ExpansionCheck(
        holds=bool(lhs <= rhs + 1e-9),
        lhs=lhs,
        rhs=rhs,
        witness_generator=best_g,
        witness_boundary=best_boundary,
    )


@dataclass
class GlobalInvarianceCheck:
    lhs: float  # κ · max_{g∈G} ||π(g)ξ - ξ||
    rhs: float  # 2 · max_{g∈S} ||π(g)ξ - ξ||
    holds: bool


def global_from_generators(
    G: FinGroup,
    S: Sequence[int],
    action: PermAction,
    point: np.ndarray,
    kappa_lower: float,
) -> GlobalInvarianceCheck:
    """κ · max over all of G of the displacement vs twice the max over S."""
    xi = np.asarray(point, dtype=float)
    if xi.shape != (action.points,):
        raise ValueError("vector dimension does not match the action")
    def disp(g: int) -> float:
        return float(np.linalg.norm(xi[np.argsort(action.perms[g].image)] - xi))
    # π(g)ξ(x) = ξ(g^{-1}x): permute coordinates by the inverse image
    all_max = max(disp(g) for g in G.elements())
    s_max = max(disp(int(g)) for g in S)
    lhs = kappa_lower * all_max
    rhs = 2.0 * s_max
    return GlobalInvarianceCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-9))
