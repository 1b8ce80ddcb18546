"""Kazhdan constants: exact for abelian groups, certified brackets otherwise.

Abelian groups get exact constants through their characters: an exponent
row e sends generator g_i of order d_i to exp(2πi·e_i/d_i), and x along its
BFS word, exponent vector E[x].  e is a character exactly when, L = lcm(d),
Σ_j e_j·r_j·(L/d_j) ≡ 0 (mod L) for every r = E[x·g_i] - E[x] - 1_i, so
integers alone decide which characters exist (the trivial one is e = 0);
floats enter only in |χ(s) - 1|, evaluated for s ∈ S alone.

General groups get a bracket [sqrt((μ - ε)/k) - tol, sqrt(λ̃ + δ) + tol] on
the Laplacian L = 2k·I - Σ_{t∈S±} λ(t), k = |S|, on the mean-zero subspace
of ℓ²(G), whose smallest eigenvalue is λ1.  For unit ξ orthogonal to
constants, Σ_s ||π(s)ξ - ξ||² = <Lξ, ξ> >= λ1 forces max_s ||π(s)ξ - ξ|| >=
sqrt(λ1/k), while the minimizing eigenvector witnesses max_s <= sqrt(λ1).

L commutes with right translation by h of order m: ℓ²(G) = ⊕_j V_j,
V_j = {f : f(xh) = ω^j f(x)}, ω = e^{2πi/m}, and on the basis indexed by the
cosets of ⟨h⟩ L acts on V_j by an N×N Hermitian block B_j, N = |G|/m.  If
n⁻¹hn = h^a, right translation by n maps V_j onto V_{ja}, and conjugation
maps V_j onto V_{-j}, both commuting with L; so with A = {a : h^a ~ h} one
block per orbit of ℤ/m under ±A is enough.  V_0 holds the constants, the
vector 𝟙 of B_0.

`lambda1` is λ̃, the least eigenvalue other than the constant's that
`eigvalsh` finds on the blocks it runs on: block 0, and any block whose
certificate fails (every block when N = 1).  The upper end trusts it to δ = 2k(4P + 6k + 23)u, the
model of LAPACK's backward error p(N)·ε·||B||₂ (Users' Guide §4.7), with
u = 2⁻⁵³, P = DENSE_DIM_CAP >= N and the input error E below.

The lower end is a proof under IEEE-754 binary64 arithmetic (round to
nearest, u = 2⁻⁵³, least subnormal η = 2⁻¹⁰⁷⁴) and Rump's theorem (S. M.
Rump, Verification of positive definiteness, BIT 46, 2006): for a real
symmetric float matrix A of order N and a float c >= g/(1 - 2g)·tr(A) +
4n(2n + max_i a_ii)η, where n = N + 1, g = γ_n and γ_n = nu/(1 - nu), if the
floating-point Cholesky factorization of fl(A - cI) runs to completion,
then A ≻ 0.  Its proof bounds the computed factor R, in any order of
evaluation and below underflow, by |RRᵀ - (A - cI)| <= g(|R||R|ᵀ + cI); then
d_i² = (RRᵀ)_ii <= a_ii/(1 - g) and λ_min(A) > c(1 - g) - g·tr(A)/(1 - g) >= 0.
Complex constant: zpotrf works in real arithmetic on a real diagonal, and a
real or imaginary part of an entry of RRᴴ - (A - cI) is a sum of at most
2N real products, the shift and an entry of A, divided by a real pivot, so
it errs by at most γ_{2N+1} times the sum of the moduli of its terms; since
(|x_r y_r| + |x_i y_i|)² + (|x_i y_r| + |x_r y_i|)² <= 2|x|²|y|², the complex
error is at most √2·γ_{2N+1}(|R||R|ᴴ + cI), and the same lines prove the
theorem for Hermitian A with n = 2N + 1 and g = √2·γ_n (the code takes
99/70 > √2).

The blocks are computed as B̂_j: a phase exp(iθ̂), θ̂ = fl(fl(2π̂r)/m), is
within 19u + 2 ulp < 22u of ω^{je}, and each of an entry's c terms adds an
error < √2·u·4k; t ↔ t⁻¹ pairs the terms of (c, c') and (c', c), so each
row of the lower triangle that LAPACK reads has 2k terms and E = B̂_j - B_j
has ||E||₂ <= ||E||_∞ <= 2k(22 + 6k)u (E = 0 on the integer block B_0).
Block j is certified as A_j = B̂_j, or B̂_0 + s𝟙𝟙ᵀ with the exact integer
s = ⌈4k/N⌉, which lifts the constant's eigenvalue 0 to sN >= 4k >= ||L||₂ and
leaves 𝟙⊥ alone.  With c_j Rump's shift for tr(A_j), rounded up, and
μ_j = max(λ̃ - 2c_j, 0), the Cholesky of fl(fl(A_j - μ_j I) - c_j I) running
to completion proves fl(A_j - μ_j I) ≻ 0 (whose trace is at most tr(A_j)).
That rounding moves A_j - μ_j I by at most u(a_ii - μ_j) < 7ku, every
a_ii <= 6k, so on mean-zero functions L ≻ μ - ε with μ = min_j μ_j and
ε = 2k(26 + 6k)u >= ||E||₂ + 7ku.  A block refused at λ̃ gets its own
`eigvalsh`, which lowers λ̃, and one more try; a second refusal raises
CertificateError.  `lower` is sqrt((μ - ε)/k) - tol with every operation
rounded down by math.nextafter.  When N = 1 the blocks are read off as one
array; each is the real 1×1 matrix of its real part, so its Cholesky is the
sign test fl(fl(a - μ_j) - c_j) > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    NotAbelianError,
    NonGeneratingError,
    certify,
)
from .groups import FinGroup, _cycle_min

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
        raise ConfigError("the trivial group has no nontrivial character")
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
        cand = np.unique(G.mul_many(gens[:, None], idx[central][None, :]))
        # h: the first candidate of the largest order, scanned in doubling chunks
        # that stop once an order reaches |G|
        h, m, start = -1, 0, 0
        while start < cand.size and m < G.order:
            chunk = cand[start : 2 * start + 1]
            order = G.element_order(chunk)
            if order.max() > m:
                h, m = int(chunk[order.argmax()]), int(order.max())
            start += chunk.size
        if G.order // m > DENSE_DIM_CAP:
            raise CapacityError(f"character blocks of size {G.order // m} exceed {DENSE_DIM_CAP}")
        right_h = G.mul_many(idx, np.int64(h))
        rep, back = _cycle_min(right_h, m)  # x = rep·h^(-back)
        reps, coset = np.unique(rep, return_inverse=True)
        steps = np.asarray([t for s in gens for t in (s, G.inv(s))], dtype=np.int64)
        moved = G.mul_many(steps[:, None], reps[None, :])
        conj = G.mul_many(right_h, G.inv_many(idx))  # g·h·g⁻¹
        in_h = conj[coset[conj] == coset[G.identity_index]]  # h^a = h^{back[e] - back}
        a = (back[G.identity_index] - back[in_h]) % m
        return cls(m, coset[moved], -back[moved] % m, np.unique(a))

    def _phases(self, j) -> np.ndarray:
        """ω^{je} at each (t, c), for a scalar j or along the axes of an array of them."""
        j = np.asarray(j)[..., None, None]
        return np.exp(1j * (2 * np.pi * (j * self.exps % self.m) / self.m))

    def block(self, j: int) -> np.ndarray:
        """The N×N block of L on V_j: Hermitian, and real when ω^j = ±1."""
        phase = self._phases(j)
        entries = phase.real if 2 * j % self.m == 0 else phase
        out = np.diag(np.full(self.cols.shape[1], self.cols.shape[0], dtype=entries.dtype))
        np.subtract.at(out, (np.arange(self.cols.shape[1]), self.cols), entries)
        return out

    def scalars(self, js: np.ndarray) -> np.ndarray:
        """The real entries of the 1×1 blocks at js (N = 1), subtracted as `block` does."""
        out = np.full(len(js), float(self.cols.shape[0]))
        for term in self._phases(js).real[:, :, 0].T:
            out -= term
        return out

    def orbit_reps(self) -> np.ndarray:
        """The smallest j of each orbit of ℤ/m under multiplication by ±A."""
        mult = np.concatenate([self.powers, -self.powers])
        return np.unique((np.arange(self.m)[:, None] * mult % self.m).min(axis=1))


def _up(x):
    return np.nextafter(x, np.inf)


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _rump_shift(trace, top, size: int, hermitian: bool):
    """Rump's c for order-`size` blocks of trace <= `trace`, diagonal <= `top`, rounded up.

    Real symmetric blocks take n = size + 1 and g = γ_n, complex Hermitian
    ones n = 2·size + 1 and g = √2·γ_n; c = g/(1 - 2g)·trace + 4n(2n + top)η.
    Works elementwise on arrays of traces and tops.
    """
    n = 2 * size + 1 if hermitian else size + 1
    g = (Fraction(99, 70) if hermitian else 1) * Fraction(n, 2**53 - n)  # γ_n = nu/(1 - nu)
    alpha = _up(float(g / (1 - 2 * g)))
    underflow = np.ceil(4 * n * (2 * n + np.asarray(top))) * 2.0**-1074
    return _up(_up(alpha * trace) + underflow)


def _smallest(blocks: _CharacterBlocks, j: int) -> float:
    """The least eigenvalue eigvalsh finds on block j, the constant's excluded."""
    return float(np.linalg.eigvalsh(blocks.block(j))[int(j == 0):].min(initial=math.inf))


def _certified_level(blocks: _CharacterBlocks, j: int, lam: float) -> Optional[float]:
    """μ_j of the module docstring if the Cholesky of block j completes, else None."""
    A = blocks.block(j)
    size = len(A)
    if j == 0:
        A += -(-2 * len(blocks.cols) // size)  # s = ⌈4k/N⌉, 2k = len(cols)
    diag = A.diagonal().real
    shift = _rump_shift(_up(math.fsum(diag.tolist())), diag.max(), size, A.dtype.kind == "c")
    level = max(float(lam - 2 * shift), 0.0)
    A.flat[:: size + 1] -= level
    A.flat[:: size + 1] -= shift
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return level


def _lambda1(G: FinGroup, S: Sequence[int]) -> Tuple[float, int, float]:
    """(λ̃, the orbit blocks certified, their certified level μ) (module docstring).

    Raises CertificateError when a block is refused twice, under -O too.
    """
    blocks = _CharacterBlocks.of(G, S)
    reps = blocks.orbit_reps()
    if blocks.cols.shape[1] == 1:  # each eigvalsh is its entry, each Cholesky a sign test
        vals = blocks.scalars(reps)
        vals[0] += 2 * len(blocks.cols)  # s = 4k
        lam = float(vals[1:].min(initial=math.inf))
        shift = _rump_shift(vals, vals, 1, False)
        levels = np.maximum(lam - 2 * shift, 0.0)
        refused = int(np.count_nonzero(vals - levels - shift <= 0))
        certify("the Cholesky certificate refuses a block", refused, 0)
        return lam, len(reps), float(levels.min())
    lam, mu = _smallest(blocks, 0), math.inf
    for j in reps.tolist():
        level = _certified_level(blocks, j, lam)
        if level is None:
            lam = min(lam, _smallest(blocks, j))
            level = _certified_level(blocks, j, lam)
            certify("the Cholesky certificate refuses a block", int(level is None), 0)
        mu = min(mu, level)
    return lam, len(reps), mu


def kazhdan_bracket(G: FinGroup, S: Sequence[int], tol: float = DEFAULT_TOL) -> KazhdanBracket:
    """Certified Kazhdan bracket from the Laplacian spectral gap."""
    if G.order > SPECTRAL_CAP:
        raise CapacityError(f"group order {G.order} exceeds spectral cap {SPECTRAL_CAP}")
    _require_generating(G, S)
    lam, _, mu = _lambda1(G, S)
    lam1 = max(lam, 0.0)
    k = len(set(int(v) for v in S))
    eps = 2 * k * (26 + 6 * k) * 2.0**-53  # ε of the module docstring
    slack = _down(_down(mu - eps) / k)
    lower = max(_down(_down(math.sqrt(max(slack, 0.0))) - tol), 0.0)
    delta = 2 * k * (4 * DENSE_DIM_CAP + 6 * k + 23) * 2.0**-53  # δ of the module docstring
    upper = min(math.sqrt(lam1 + delta) + tol, 2.0)
    return KazhdanBracket(lower=lower, upper=upper, lambda1=lam1, method="laplacian-bracket")


def kazhdan(G: FinGroup, S: Sequence[int], tol: float = DEFAULT_TOL) -> KazhdanBracket:
    """The exact constant when G is abelian, the certified bracket otherwise."""
    if not 0 <= tol < math.inf:  # nan fails both comparisons
        raise ConfigError(f"tol must be finite and >= 0, got {tol!r}")
    return kazhdan_abelian_exact(G, S) if G.is_abelian else kazhdan_bracket(G, S, tol=tol)
