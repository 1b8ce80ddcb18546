"""Kazhdan constants: exact for abelian groups, certified brackets otherwise.

Abelian groups get exact constants through their characters: an exponent
row e sends generator g_i of order d_i to exp(2πi·e_i/d_i), and x to the
product along its word x = g_1^E_1⋯g_k^E_k, E[x] the least exponent vector
in the table of all Π d_i such words, built by k outer products with each
generator's powers and no BFS.  When Π d_i = |G| that table is an
isomorphism and every e is a character; otherwise e is one exactly when,
L = lcm(d), Σ_j e_j·r_j·(L/d_j) ≡ 0 (mod L) for every
r = E[x·g_i] - E[x] - 1_i, so integers alone decide which characters exist
(the trivial one is e = 0); floats enter only in |χ(s) - 1|, evaluated for
s ∈ S alone.

General groups get a bracket [sqrt((μ - ε)/k) - tol, sqrt(λ̃ + δ) + tol] on
the Laplacian L = 2k·I - Σ_{t∈S±} λ(t), k = |S|, on the mean-zero subspace
of ℓ²(G), whose smallest eigenvalue is λ1.  For unit ξ orthogonal to
constants, Σ_s ||π(s)ξ - ξ||² = <Lξ, ξ> >= λ1 forces max_s ||π(s)ξ - ξ|| >=
sqrt(λ1/k), while the minimizing eigenvector witnesses max_s <= sqrt(λ1).

L commutes with right translation by h of order m: ℓ²(G) = ⊕_j V_j,
V_j = {f : f(xh) = ω^j f(x)}, ω = e^{2πi/m}, and on the basis indexed by the
cosets of H = ⟨h⟩ L acts on V_j by an N×N Hermitian block B_j, N = |G|/m.

Each V_j splits once more, by automorphism-twisted right translations.  Let
α be an automorphism of G with α(S±) = S±, and g ∈ G with α(h)·g = g·h^a.
Then φ(x) = α(x)·g has φ(t·x) = α(t)·φ(x) and φ(x·h) = φ(x)·h^a, so
Φ: f ↦ f∘φ commutes with L and maps V_j onto V_{ja}; conjugation maps V_j
onto V_{-j}.  So with A the set of these a, one block per orbit of ℤ/m
under ±A is enough.  α is the identity, or `groups`' transpose-inverse β of
SL₂(ℤ/n) when β permutes S±, as it does the canonical pair u, ℓ (β(u) =
ℓ⁻¹) and the Sanov pair; β is an automorphism as ((xy)ᵀ)⁻¹ = (xᵀ)⁻¹(yᵀ)⁻¹.
The φ modulo H form Q, which holds N(H)/H, and Φ maps V_j to itself for φ
in Stab_j = {φ ∈ Q : j(a - 1) ≡ 0 mod m}.  Take the first φ ∈ Stab_j of
the largest order r modulo H, untwisted ones first, whose powers fix no
coset of H (a twisted one may); φ^r = h^e0, and K = ⟨φ⟩H.  Φ^r is ω^{j·e0}
on V_j, so V_j = ⊕_{l<r} V_{j,l} with Φ = ζ_l on V_{j,l}, ζ_l =
exp(2πi(j·e0 + l·m)/(r·m)).  Every x is φ^f(R_C)·h^e, once, with R_C the
representative of an orbit of K, f < r and e < m, and f in V_{j,l} has
f(φ^f(R_C)·h^e) = ζ_l^f·ω^{je}·f(R_C).  So on the basis indexed by the N/r
orbits of K, L acts on V_{j,l} by a Hermitian block B_{j,l}: the terms of
t·R_C = φ^f(R_C')·h^e with phase exp(2πi·num/(r·m)), num = (f·(j·e0 +
l·m) + j·e·r) mod r·m, one integer over one denominator.  When Stab_j = H,
r = 1 and B_{j,0} = B_j.  B_{j,l} is real when ω^j and ζ_l are ±1; V_{0,0}
holds the constants, the vector 𝟙 of B_{0,0}.

Nothing here trusts β's kernel.  φ is defined by its data, φ(r_c) =
α(r_c)·g = r_c'·h^d for each coset representative r_c, and φ(x·h) =
φ(x)·h^a; π(t) = α(t) is checked to permute S± as a multiset.  Two exact
compares of (2k, N) integer arrays certify, for every r_c and t ∈ S±, that
φ carries the term t·r_c = r_c'·h^e of L to π(t)·φ(r_c): the same coset
and the same exponent mod m.  Then φ(t·x) = π(t)·φ(x) for every x, and Φ
commutes with L.  The coordinates are certified exactly too: each coset
r_c·H is φ^f(R_C)·H for the (C, f) it is given, φ^r(r_c) = r_c·h^e0 for
every c, and |K-orbits|·r = N.  The first runs for every φ a split tries,
twisted or not, the second for every φ it uses.

`lambda1` is λ̃, the least eigenvalue other than the constant's that
`eigvalsh` finds on the sub-blocks it runs on: those of block 0, and any
whose certificate fails (every block when N = 1).  The upper end trusts it
to δ = 2k(4P + 6k + 23)u, the model of LAPACK's backward error
p(N)·ε·||B||₂ (Users' Guide §4.7), with u = 2⁻⁵³, the input error E below
and P = DENSE_DIM_CAP, which still bounds N = |G|/m and so every order
N/r that `eigvalsh` runs on.

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

The blocks are computed as B̂_{j,l}: a phase exp(iθ̂), θ̂ = fl(fl(2π̂·num)/D)
with D = r·m, is within 19u + 2 ulp < 22u of the exact one, a bound that
needs only an integer numerator 0 <= num < D, exact in binary64 as
D <= |G| < 2⁵³.  Each of an entry's c terms adds an error < √2·u·4k;
t ↔ t⁻¹ pairs the terms of (C, C') and (C', C), so each row of the lower
triangle that LAPACK reads has 2k terms and E = B̂ - B has ||E||₂ <= ||E||_∞
<= 2k(22 + 6k)u (E = 0 on the integer block B_{0,0}).  A sub-block of order
w = N/r is certified as A = B̂_{j,l}, or B̂_{0,0} + s𝟙𝟙ᵀ with the exact
integer s = ⌈4k/w⌉, which lifts the constant's eigenvalue 0 to sw >= 4k >=
||L||₂ and leaves 𝟙⊥ alone.  With c Rump's shift for tr(A), rounded up,
and μ_{j,l} = max(λ̃ - 2c, 0), the Cholesky of fl(fl(A - μ_{j,l} I) - cI)
running to completion proves fl(A - μ_{j,l} I) ≻ 0 (whose trace is at most
tr(A)).  That rounding moves A - μ_{j,l} I by at most u(a_ii - μ_{j,l}) <
7ku, every a_ii <= 6k, so on mean-zero functions L ≻ μ - ε with μ the least
μ_{j,l} and ε = 2k(26 + 6k)u >= ||E||₂ + 7ku.  The real and the complex
sub-blocks of V_j are stacked, and one Cholesky per stack certifies every
sub-block in it.  A stack refused at λ̃ gets its own `eigvalsh`, which
lowers λ̃, and one more try; a second refusal raises CertificateError.
`lower` is sqrt((μ - ε)/k) - tol with every operation rounded down by
math.nextafter.  When N = 1 the blocks are read off as one array; each is
the real 1×1 matrix of its real part, so its Cholesky is the sign test
fl(fl(a - μ_j) - c_j) > 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    NotAbelianError,
    NonGeneratingError,
    PermstabError,
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

    Returns (E, d, exps): E[x] is the least exponent vector e, row-major,
    with g_1^e_1⋯g_k^e_k = x over the group's generators g_i, d their
    orders, and each row e of exps the character sending generator i to
    exp(2πi·e_i/d_i), in lexicographic order.  The word table of all
    Π d_i products comes from k outer `mul_many`s with each generator's
    powers; an element it never reaches is outside the span.  G is
    abelian, so the table is a homomorphism ℤ/d_1 × ⋯ × ℤ/d_k → G: when
    Π d_i = |G| it is an isomorphism and every e is a character.
    Otherwise e is kept exactly when χ(x·g_i) = χ(x)·χ(g_i) for every x
    and i, read through E, a test that is exact for any section E with
    E(e) = 0.
    """
    gens = list(G.generators)
    k = len(gens)
    powers = [np.asarray(G.closure([g]), dtype=np.int64) for g in gens]
    d = np.array([len(p) for p in powers], dtype=np.int64)
    n_cand = math.prod(d.tolist())
    if n_cand > CHARACTER_CAP:
        raise CapacityError(f"character scan over {n_cand} candidates exceeds cap")
    words = np.array([G.identity_index], dtype=np.int64)  # row-major over ℤ/d_1 × ⋯
    for p in powers:
        words = G.mul_many(words[:, None], p[None, :]).ravel()
    code = np.full(G.order, n_cand, dtype=np.int64)
    np.minimum.at(code, words, np.arange(n_cand))
    if (code == n_cand).any():
        raise NonGeneratingError("declared generators do not generate G")
    E = code[:, None] // (n_cand // np.cumprod(d)) % d  # unravelled, row-major
    L = math.lcm(*d.tolist())
    exps = np.indices(d).reshape(k, n_cand).T
    if n_cand > G.order:  # else the table is a bijection
        idx, steps = np.arange(G.order), np.eye(k, dtype=np.int64)
        for i, g in enumerate(gens):
            # e_j·r_j·(L/d_j) mod L depends on r_j mod d_j alone
            rel = (E[G.mul_many(idx, np.int64(g))] - E - steps[i]) % d
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
        _require_generating(G, S)  # else _characters' word table proves the generators reach G
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
    """L on each V_j and each V_{j,l}; every x is r_c·h^e for the smallest r_c of its coset."""

    m: int  # the order of h
    cols: np.ndarray  # (2k, N): the coset c' of t·r_c = r_c'·h^e, t ∈ S±
    exps: np.ndarray  # (2k, N): its exponent e
    twist: np.ndarray  # a with α(h)·g = g·h^a, for each φ = α(·)·g of the extended quotient Q
    powers: np.ndarray  # A, the twists of Q
    splits: dict  # Stab_j, as the mask it keeps of `twist` -> V_j's coordinates x = φ^f(R_C)·h^e

    @classmethod
    def of(cls, G: FinGroup, S: Sequence[int]) -> "_CharacterBlocks":
        gens = np.asarray(sorted(set(int(s) for s in S)), dtype=np.int64)
        idx = np.arange(G.order)
        central = idx  # narrowed to each generator's centralizer in turn
        for s in gens.tolist():
            central = central[G.mul_many(central, np.int64(s)) == G.mul_many(np.int64(s), central)]
        cand = np.unique(G.mul_many(gens[:, None], central[None, :]))
        # h: the first candidate of the largest order, scanned in chunks of 8,
        # 16, 32, … that stop once an order reaches |G|; h = e when S is empty
        h, m, start = G.identity_index, 1, 0
        while start < cand.size and m < G.order:
            chunk = cand[start : 2 * start + 8]
            orders = G.element_order(chunk)
            if orders.max() > m:
                h, m = int(chunk[orders.argmax()]), int(orders.max())
            start += chunk.size
        if G.order // m > DENSE_DIM_CAP:
            raise CapacityError(f"character blocks of size {G.order // m} exceed {DENSE_DIM_CAP}")
        right_h = G.mul_many(idx, np.int64(h))
        rep, back = _cycle_min(right_h, m)  # x = rep·h^(-back)
        reps = np.flatnonzero(back == 0)  # the least point of each coset, ascending
        coset = np.zeros(G.order, dtype=np.int64)
        coset[reps] = np.arange(reps.size)
        coset = coset[rep]
        steps = np.stack([gens, G.inv_many(gens)], axis=1).ravel()  # s, s⁻¹ for each s
        # α ∈ {id, β}, β only when it permutes S±: lifted[α] holds α(h) and
        # α(r_c), and perm[α] the row of α(t) for each row t
        lifted, perm, beta = [np.append(h, reps)], [np.arange(steps.size)], G.automorphism_many
        if beta is not None:
            image = beta(np.append(steps, lifted[0]))
            if np.array_equal(np.sort(image[: steps.size]), np.sort(steps)):
                rows = np.argsort(steps, kind="stable")
                perm.append(rows[np.searchsorted(steps[rows], image[: steps.size])])
                lifted.append(image[steps.size :])
        lifted = np.stack(lifted)
        moved = G.mul_many(np.append(steps, lifted[:, 0])[:, None], reps[None, :])
        moved, moved_h = moved[: steps.size], moved[steps.size :]  # t·r_c, then α(h)·r_c
        # Q: the maps φ = α(·)·g with α(h)·g = g·h^a, modulo H, untwisted ones
        # first; a and the order modulo H are constant on each coset gH, so
        # the representatives carry them
        twisted, inside = np.nonzero(coset[moved_h] == np.arange(reps.size))
        twist = -back[moved_h[twisted, inside]] % m
        g = reps[inside]
        # a twisted φ = β(·)·g has φ² = x ↦ x·β(g)·g, as β is an involution
        base = np.where(twisted == 1, G.mul_many(lifted[twisted, inside + 1], g), g)
        order = G.element_order(base, coset == coset[G.identity_index]) * (1 + twisted)
        blocks = cls(m, coset[moved], -back[moved] % m, twist, np.unique(twist), {})
        # Stab_j depends on gcd(j, m) alone, and every gcd meets an orbit
        for d in np.unique(np.gcd(blocks.orbit_reps(), m)).tolist():
            stab = blocks._stabilizer(d)
            if stab.tobytes() in blocks.splits:
                continue
            # the first φ of the largest order that acts freely on the cosets
            for pick in np.flatnonzero(stab)[np.argsort(-order[stab], kind="stable")].tolist():
                y = G.mul_many(lifted[twisted[pick], 1:], np.int64(g[pick]))  # φ(r_c) = α(r_c)·g
                args = coset[y], -back[y] % m, int(twist[pick]), int(order[pick]), perm[twisted[pick]]
                coordinates = blocks._coordinates(*args)
                if coordinates is not None:
                    blocks.splits[stab.tobytes()] = coordinates
                    break
        return blocks

    def _coordinates(self, step, shift, a: int, r: int, perm) -> Optional[tuple]:
        """(r, e0, cols, turns, exps): the coordinates x = φ^f(R_C)·h^e, or None.

        φ(r_c) = r_{step[c]}·h^{shift[c]} and φ(x·h) = φ(x)·h^a define φ on G;
        φ has order r modulo H, and perm[t] is the row of π(t) = α(t).  None
        when ⟨φ⟩ does not act freely on the cosets of H.  Otherwise the
        cosets c ↦ step[c] form r-cycles, one per orbit of ⟨φ⟩H, whose least
        member R_C represents it, r_c·H = φ^f(R_C)·H for f = turns[c], and
        φ^r(x) = x·h^e0.  t·R_C = φ^f(R_C')·h^e gives the (2k, N/r) arrays
        cols = C', turns = f and exps = e.
        """
        m, cols, exps = self.m, self.cols, self.exps
        # φ(t·r_c) = φ(r_c')·h^(a·e) must be π(t)·φ(r_c) = π(t)·r_step·h^shift
        wrong = np.count_nonzero(cols[perm][:, step] != step[cols])
        wrong += np.count_nonzero((exps[perm][:, step] + shift - shift[cols] - a * exps) % m)
        certify("φ does not commute with L", int(wrong), 0)
        N = len(step)
        at, power, path, rise = np.arange(N), np.zeros(N, dtype=np.int64), [], []
        for _ in range(r):  # φ^f(r_c) = r_path·h^rise
            path.append(at)
            rise.append(power)
            at, power = step[at], (shift[at] + a * power) % m
        path, rise = np.stack(path, axis=1), np.stack(rise, axis=1)
        if (path[:, 1:] == path[:, :1]).any():
            return None  # a twisted φ^f, 0 < f < r, fixes a coset
        lead, steps = _cycle_min(step, r)
        turns = -steps % r  # r_c·H = φ^f(R_C)·H with R_C = r_lead
        heads = np.flatnonzero(lead == np.arange(N))
        wrong = np.count_nonzero(path[lead, turns] != np.arange(N)) + abs(heads.size * r - N)
        wrong += np.count_nonzero(at != np.arange(N)) + np.count_nonzero(power != power[0])
        certify("the coordinates φ^f(R_C)·h^e are not a bijection onto G", int(wrong), 0)
        label = np.searchsorted(heads, lead)
        near = cols[:, heads]  # t·R_C = r_c'·h^e1 = φ^f(R_C')·h^(e1 - rise)
        return r, int(power[0]), label[near], turns[near], (exps[:, heads] - rise[lead, turns][near]) % m

    def _stabilizer(self, j: int) -> np.ndarray:
        """Stab_j, as the mask of the φ in Q with j(a - 1) ≡ 0 mod m."""
        return j * (self.twist - 1) % self.m == 0

    def stacks(self, j: int) -> List[np.ndarray]:
        """V_j's sub-blocks B_{j,l}, l < r, stacked real ones first, then complex ones.

        B_{j,l} is real when ω^j and ζ_l are ±1.  For j = 0 the real stack
        starts with B_{0,0}, the sub-block of the constants.
        """
        r, e0, cols, turns, exps = self.splits[self._stabilizer(j).tobytes()]
        size = r * self.m
        zeta = (j * e0 + np.arange(r) * self.m) % size  # ζ_l = exp(2πi·zeta/(r·m))
        real = (2 * zeta % size == 0) & (2 * j % self.m == 0)
        return [
            _fill((turns * zeta[part, None, None] + j * r * exps) % size, cols, size, kind)
            for part, kind in ((real, True), (~real, False))
            if part.any()
        ]

    def orbit_reps(self) -> np.ndarray:
        """The smallest j of each orbit of ℤ/m under multiplication by ±A."""
        mult = np.concatenate([self.powers, -self.powers])
        return np.unique((np.arange(self.m)[:, None] * mult % self.m).min(axis=1))


def _fill(num: np.ndarray, cols: np.ndarray, size: int, real: bool) -> np.ndarray:
    """The (count, w, w) stack 2k·I − Σ_t exp(2πi·num[:, t]/size) at (C, cols[t, C]).

    Real parts only when `real`.  Each entry's terms are subtracted in t order.
    """
    phase = np.exp(1j * (2 * np.pi * num / size))
    entries = phase.real if real else phase
    count, steps, width = num.shape
    out = np.zeros((count, width * width), dtype=entries.dtype)
    out[:, :: width + 1] = steps
    flat = np.arange(0, width * width, width)[:, None] + cols.T  # (C, t) -> C·w + cols[t, C]
    np.subtract.at(out, (np.arange(count)[:, None, None], flat), entries.transpose(0, 2, 1))
    return out.reshape(count, width, width)


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
    underflow = np.ceil(4 * n * (2 * n + np.asarray(top))) * 2.0**-1074
    return _up(_up(_rump_ratio(n, hermitian) * trace) + underflow)


@functools.lru_cache(maxsize=None)  # n <= 2·DENSE_DIM_CAP + 1 keeps it small
def _rump_ratio(n: int, hermitian: bool) -> float:
    """g/(1 - 2g) of `_rump_shift`, rounded up; one exact Fraction per order."""
    g = (Fraction(99, 70) if hermitian else 1) * Fraction(n, 2**53 - n)  # γ_n = nu/(1 - nu)
    return _up(float(g / (1 - 2 * g)))


def _least(stack: np.ndarray, constant: bool) -> float:
    """The least eigenvalue eigvalsh finds on a stack, but the constants' 0 in B_{0,0} = stack[0]."""
    vals = np.linalg.eigvalsh(stack)
    if constant:
        vals[0, 0] = math.inf
    return float(vals.min())


def _certified_levels(stack: np.ndarray, lam: float, lift: int) -> Optional[np.ndarray]:
    """μ of each sub-block of the stack if one Cholesky of the stack completes, else None.

    Shifts the stack in place; a positive `lift` is B_{0,0}'s s, added to every entry of stack[0].
    """
    count, size, _ = stack.shape
    if lift:
        stack[0] += lift
    diag = stack.reshape(count, -1)[:, :: size + 1]
    trace = _up(np.array([math.fsum(row) for row in diag.real.tolist()]))
    shift = _rump_shift(trace, diag.real.max(axis=1), size, stack.dtype.kind == "c")
    levels = np.maximum(lam - 2 * shift, 0.0)
    diag -= levels[:, None]
    diag -= shift[:, None]
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None
    return levels


def _certify_block(blocks: _CharacterBlocks, j: int, lam: float) -> Tuple[float, float]:
    """(λ̃, the least level certified on V_j): one Cholesky per stack.

    Block 0 sets λ̃ first.  A refused stack gets its own eigvalsh, which
    lowers λ̃, and one more try; a second refusal raises CertificateError.
    """
    stacks = blocks.stacks(j)
    lifts = [0] * len(stacks)
    if j == 0:
        lifts[0] = -(-2 * len(blocks.cols) // stacks[0].shape[1])  # s = ⌈4k/w⌉, 2k = len(cols)
        lam = min(_least(stack, bool(lift)) for stack, lift in zip(stacks, lifts))
    mu = math.inf
    for i, lift in enumerate(lifts):
        levels = _certified_levels(stacks[i], lam, lift)
        if levels is None:
            stacks[i] = blocks.stacks(j)[i]
            lam = min(lam, _least(stacks[i], bool(lift)))
            levels = _certified_levels(stacks[i], lam, lift)
            certify("the Cholesky certificate refuses a block", int(levels is None), 0)
        mu = min(mu, float(levels.min()))
    return lam, mu


def _lambda1(G: FinGroup, S: Sequence[int]) -> Tuple[float, int, float]:
    """(λ̃, the orbit blocks certified, their certified level μ) (module docstring).

    Raises CertificateError when a stack is refused twice, under -O too.
    """
    blocks = _CharacterBlocks.of(G, S)
    reps = blocks.orbit_reps()
    if blocks.cols.shape[1] == 1:  # r = 1; each eigvalsh is its entry, each Cholesky a sign test
        num = reps[:, None, None] * blocks.exps % blocks.m
        vals = _fill(num, blocks.cols, blocks.m, True)[:, 0, 0]
        vals[0] += 2 * len(blocks.cols)  # s = 4k
        lam = float(vals[1:].min(initial=math.inf))
        shift = _rump_shift(vals, vals, 1, False)
        levels = np.maximum(lam - 2 * shift, 0.0)
        refused = int(np.count_nonzero(vals - levels - shift <= 0))
        certify("the Cholesky certificate refuses a block", refused, 0)
        return lam, len(reps), float(levels.min())
    lam, mu = math.inf, math.inf
    for j in reps.tolist():  # reps[0] = 0
        lam, level = _certify_block(blocks, j, lam)
        mu = min(mu, level)
    return lam, len(reps), mu


def kazhdan_bracket(G: FinGroup, S: Sequence[int], tol: float = DEFAULT_TOL) -> KazhdanBracket:
    """Certified Kazhdan bracket from the Laplacian spectral gap.

    A certified μ - ε > 0 already proves that S generates G: a disconnected
    Cayley graph puts a second 0 in L's spectrum on mean-zero functions.  So
    S's closure runs only when that certificate fails or raises, to name a
    non-generating S as the fault.
    """
    if G.order > SPECTRAL_CAP:
        raise CapacityError(f"group order {G.order} exceeds spectral cap {SPECTRAL_CAP}")
    try:
        lam, _, mu = _lambda1(G, S)
    except PermstabError:
        _require_generating(G, S)
        raise
    lam1 = max(lam, 0.0)
    k = len(set(int(v) for v in S))
    eps = 2 * k * (26 + 6 * k) * 2.0**-53  # ε of the module docstring
    if mu <= eps:  # fl(μ - ε) <= 0 exactly when μ <= ε
        _require_generating(G, S)
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
