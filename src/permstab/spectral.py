"""Kazhdan constants: exact for abelian groups, certified brackets otherwise.

Abelian groups get exact constants through their characters: an exponent
row e sends generator g_i of order d_i to exp(2πi·e_i/d_i), and x along its
BFS word, exponent vector E[x].  e is a character exactly when, L = lcm(d),
Σ_j e_j·r_j·(L/d_j) ≡ 0 (mod L) for every r = E[x·g_i] - E[x] - 1_i, so
integers alone decide which characters exist (the trivial one is e = 0);
floats enter only in |χ(s) - 1|, evaluated for s ∈ S alone.

General groups get a certified bracket [sqrt((λ1 - δ)/k) - tol,
sqrt(λ1 + δ) + tol] from the smallest eigenvalue λ1 of the Laplacian
L = 2k·I - Σ_{t∈S±} λ(t), k = |S|, on the mean-zero subspace of ℓ²(G).  For
unit ξ orthogonal to constants, Σ_s ||π(s)ξ - ξ||² = <Lξ, ξ> >= λ1 forces
max_s ||π(s)ξ - ξ|| >= sqrt(λ1/k), while the minimizing eigenvector
witnesses max_s <= sqrt(λ1).

L commutes with right translation by h of order m: ℓ²(G) = ⊕_j V_j,
V_j = {f : f(xh) = ω^j f(x)}, ω = e^{2πi/m}, and on the basis indexed by the
cosets of ⟨h⟩ L acts on V_j by an N×N Hermitian block, N = |G|/m.  If
n⁻¹hn = h^a, right translation by n maps V_j onto V_{ja}, and conjugation
maps V_j onto V_{-j}, both commuting with L; so with A = {a : h^a ~ h} one
block per orbit of ℤ/m under ±A is diagonalised.  V_0 holds the constants.

Every computed eigenvalue is within δ = 2k(4P + 6k + 23)u of the exact one
(Weyl), u = 2⁻⁵³, P = DENSE_DIM_CAP >= N: a phase exp(iθ̂),
θ̂ = fl(fl(2π̂r)/m), is within 19u + 2 ulp < 22u of ω^{je}, and each of an
entry's c terms adds an error < √2·u·4k; t ↔ t⁻¹ pairs the terms of (c, c')
and (c', c), so each row eigvalsh reads has 2k terms and the input error E
has ||E||₂ <= ||E||_∞ <= 2k(22 + 6k)u; LAPACK's backward error is at most
p(N)·ε·||B||₂ (Users' Guide §4.7), p(N) = N <= P, ε = 2u and
||B||₂ <= 4k + ||E||₂, the last unit of δ absorbing 2Pu·||E||₂.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    CapacityError,
    NotAbelianError,
    NonGeneratingError,
)
from .groups import FinGroup

DENSE_DIM_CAP = 2000
DEFAULT_TOL = 1e-8
SPECTRAL_CAP = 200_000  # largest group order kazhdan_bracket accepts
CHARACTER_CAP = 10_000_000  # most root-of-unity assignments _characters scans


@dataclass
class KazhdanBracket:
    """Certified lower/upper bounds on the Kazhdan constant of (G, S)."""

    lower: float
    upper: float
    lambda1: float
    method: str  # "abelian-exact" or "laplacian-bracket"

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 2.0 + 1e-12):
            raise ValueError("bracket must satisfy 0 <= lower <= upper <= 2")


def _require_generating(G: FinGroup, S: Sequence[int]):
    if not G.generates(S):
        raise NonGeneratingError("S does not generate G")


def _characters(G: FinGroup) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The characters of an abelian group as exponent rows, decided in ℤ/L.

    Returns (E, d, exps): E[x] is the exponent vector of the BFS word for x
    over the group's generators, d their orders, and each row e of exps the
    character sending generator i to exp(2πi·e_i/d_i), in lexicographic order.
    """
    gens = list(G.generators)
    k = len(gens)
    E = np.zeros((G.order, k), dtype=np.int64)
    steps = np.concatenate([np.eye(k, dtype=np.int64), -np.eye(k, dtype=np.int64)])
    reached = 1
    for new, parent, letter in G._spread(gens + [G.inv(g) for g in gens]):
        E[new] = E[parent] + steps[letter]
        reached += new.size
    if reached != G.order:
        raise NonGeneratingError("declared generators do not generate G")
    d = G.element_order(gens)
    n_cand = math.prod(d.tolist())
    if n_cand > CHARACTER_CAP:
        raise CapacityError(f"character scan over {n_cand} candidates exceeds cap")
    L = math.lcm(*d.tolist())
    exps = np.indices(d).reshape(k, n_cand).T
    for i, g in enumerate(gens):
        # e_j·r_j·(L/d_j) mod L depends on r_j mod d_j alone
        rel = (E[G.mul_many(np.arange(G.order), np.int64(g))] - E - steps[i]) % d
        for w in np.unique(rel, axis=0) * (L // d):
            exps = exps[exps @ w % L == 0]
    if len(exps) != G.order:
        raise NotAbelianError(f"found {len(exps)} characters for a group of order {G.order}")
    return E, d, exps


def kazhdan_abelian_exact(G: FinGroup, S: Sequence[int]) -> KazhdanBracket:
    """κ(G,S) = min over nontrivial characters χ of max_{s∈S} |χ(s)-1|."""
    if not G.is_abelian:
        raise NotAbelianError("kazhdan_abelian_exact requires an abelian group")
    if not set(G.generators) <= set(int(s) for s in S):
        _require_generating(G, S)  # else _characters' BFS proves the generators reach G
    E, d, exps = _characters(G)
    nontrivial = exps.any(axis=1)
    if not nontrivial.any():
        raise ValueError("the trivial group has no nontrivial character")
    s_idx = np.asarray(sorted(set(int(s) for s in S)), dtype=np.int64)
    # χ(s) = Π_i exp(2πi e_i E[s,i] / d_i): exact on exponents, so compute
    # the total phase as a rational multiple of 2π before exponentiating
    phase = np.zeros((len(exps), s_idx.size))
    for i in range(len(d)):
        phase += (exps[:, i, None] * E[s_idx, i]) % d[i] * (2 * math.pi / d[i])
    diffs = np.abs(np.exp(1j * phase) - 1.0)
    dists = diffs.max(axis=1)
    kappa = float(dists[nontrivial].min())
    # the Laplacian diagonalizes over characters: eigenvalue Σ_s |χ(s)-1|²
    lam1 = float((diffs[nontrivial] ** 2).sum(axis=1).min())
    return KazhdanBracket(lower=kappa, upper=kappa, lambda1=lam1, method="abelian-exact")


@dataclass
class _CharacterBlocks:
    """L on each V_j; every x is r_c·h^e for the smallest r_c of its coset."""

    m: int  # the order of h
    cols: np.ndarray  # (2k, N): the coset c' of t·r_c = r_c'·h^e, t ∈ S±
    exps: np.ndarray  # (2k, N): its exponent e
    powers: np.ndarray  # A = {a : h^a conjugate to h}

    @classmethod
    def of(cls, G: FinGroup, S: Sequence[int]) -> "_CharacterBlocks":
        gens = np.asarray(sorted(set(int(s) for s in S)), dtype=np.int64)
        idx = np.arange(G.order)
        central = np.logical_and.reduce([G.mul_many(idx, s) == G.mul_many(s, idx) for s in gens])
        cand = G.mul_many(gens[:, None], idx[central][None, :]).ravel()
        order = G.element_order(cand)
        m = int(order.max())
        h = int(cand[order == m].min())
        if G.order // m > DENSE_DIM_CAP:
            raise CapacityError(f"character blocks of size {G.order // m} exceed {DENSE_DIM_CAP}")
        # m rounds along x ↦ x·h: the smallest x·h^r is r_c, and then e = -r
        right_h = G.mul_many(idx, np.int64(h))
        cur, rep, back = idx, idx.copy(), np.zeros(G.order, dtype=np.int64)
        for r in range(1, m):
            cur = right_h[cur]
            better = cur < rep
            rep[better], back[better] = cur[better], r
        reps, coset = np.unique(rep, return_inverse=True)
        steps = np.asarray([t for s in gens for t in (s, G.inv(s))], dtype=np.int64)
        moved = G.mul_many(steps[:, None], reps[None, :])
        conj = G.mul_many(right_h, G.inv_many(idx))  # g·h·g⁻¹
        in_h = conj[coset[conj] == coset[G.identity_index]]  # h^a = h^{back[e] - back}
        a = (back[G.identity_index] - back[in_h]) % m
        return cls(m, coset[moved], -back[moved] % m, np.unique(a))

    def block(self, j: int) -> np.ndarray:
        """The N×N block of L on V_j: Hermitian, and real when ω^j = ±1."""
        phase = np.exp(1j * (2 * np.pi * (j * self.exps % self.m) / self.m))
        entries = phase.real if 2 * j % self.m == 0 else phase
        out = np.diag(np.full(self.cols.shape[1], self.cols.shape[0], dtype=entries.dtype))
        np.subtract.at(out, (np.arange(self.cols.shape[1]), self.cols), entries)
        return out

    def orbit_reps(self) -> np.ndarray:
        """The smallest j of each orbit of ℤ/m under multiplication by ±A."""
        mult = np.concatenate([self.powers, -self.powers])
        return np.unique((np.arange(self.m)[:, None] * mult % self.m).min(axis=1))


def _lambda1(G: FinGroup, S: Sequence[int]) -> Tuple[float, int]:
    """Smallest eigenvalue of L on mean-zero functions, and the blocks solved."""
    blocks = _CharacterBlocks.of(G, S)
    reps = blocks.orbit_reps()
    lam = math.inf
    for j in reps:
        vals = np.linalg.eigvalsh(blocks.block(int(j)))
        # block 0 holds the constants, whose eigenvalue 0 is simple when S generates
        lam = min(lam, vals[int(j == 0):].min(initial=math.inf))
    return float(lam), len(reps)


def kazhdan_bracket(G: FinGroup, S: Sequence[int], tol: float = DEFAULT_TOL) -> KazhdanBracket:
    """Certified Kazhdan bracket from the Laplacian spectral gap."""
    if G.order > SPECTRAL_CAP:
        raise CapacityError(f"group order {G.order} exceeds spectral cap {SPECTRAL_CAP}")
    _require_generating(G, S)
    lam1 = max(_lambda1(G, S)[0], 0.0)
    k = len(set(int(v) for v in S))
    delta = 2 * k * (4 * DENSE_DIM_CAP + 6 * k + 23) * 2.0**-53  # δ of the module docstring
    lower = max(math.sqrt(max(lam1 - delta, 0.0) / k) - tol, 0.0)
    upper = min(math.sqrt(lam1 + delta) + tol, 2.0)
    return KazhdanBracket(lower=lower, upper=upper, lambda1=lam1, method="laplacian-bracket")


def kazhdan(G: FinGroup, S: Sequence[int], tol: float = DEFAULT_TOL) -> KazhdanBracket:
    """The exact constant when G is abelian, the certified bracket otherwise."""
    return kazhdan_abelian_exact(G, S) if G.is_abelian else kazhdan_bracket(G, S, tol=tol)
