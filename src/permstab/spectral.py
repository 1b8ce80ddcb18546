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
SL₂(𝔽_p) with p >= 5 prime takes blocks from its irreducible
representations (the last part below); every other group, composite SL₂(ℤ/n)
included, takes the character blocks that follow.

L commutes with right translation by h of order m: ℓ²(G) = ⊕_j V_j,
V_j = {f : f(xh) = ω^j f(x)}, ω = e^{2πi/m}, and on the basis indexed by the
cosets of H = ⟨h⟩ L acts on V_j by an N×N Hermitian block B_j, N = |G|/m.

Each V_j splits once more, by right translations that normalize H.  For g
in the normalizer N(H), h·g = g·h^a, φ(x) = x·g has φ(t·x) = t·φ(x) and
φ(x·h) = φ(x)·h^a, so Φ: f ↦ f∘φ commutes with L and maps V_j onto V_{ja};
conjugation maps V_j onto V_{-j}.  So with A the set of these a, one block
per orbit of ℤ/m under ±A is enough.  The φ modulo H form Q = N(H)/H, and
Φ maps V_j to itself for φ in Stab_j = {φ ∈ Q : j(a - 1) ≡ 0 mod m}.  Take
the first φ ∈ Stab_j of the largest order r modulo H; φ^r = h^e0, no φ^f
with 0 < f < r fixes a coset of H, as g^f ∉ H, and K = ⟨φ⟩H.  Φ^r is
ω^{j·e0} on V_j, so V_j = ⊕_{l<r} V_{j,l} with Φ = ζ_l on V_{j,l}, ζ_l =
exp(2πi(j·e0 + l·m)/(r·m)).  Every x is φ^f(R_C)·h^e, once, with R_C the
representative of an orbit of K, f < r and e < m, and f in V_{j,l} has
f(φ^f(R_C)·h^e) = ζ_l^f·ω^{je}·f(R_C).  So on the basis indexed by the N/r
orbits of K, L acts on V_{j,l} by a Hermitian block B_{j,l}: the terms of
t·R_C = φ^f(R_C')·h^e with phase exp(2πi·num/(r·m)), num = (f·(j·e0 +
l·m) + j·e·r) mod r·m, one integer over one denominator.  When Stab_j = H,
r = 1 and B_{j,0} = B_j.  B_{j,l} is real when ω^j and ζ_l are ±1; V_{0,0}
holds the constants, the vector 𝟙 of B_{0,0}.

Nothing here trusts the products that define φ.  φ is defined by its
data, φ(r_c) = r_c·g = r_c'·h^d for each coset representative r_c, and
φ(x·h) = φ(x)·h^a.  Two exact compares of (2k, N) integer arrays certify,
for every r_c and t ∈ S±, that φ carries the term t·r_c = r_c'·h^e of L to
t·φ(r_c): the same coset and the same exponent mod m.  Then φ(t·x) =
t·φ(x) for every x, and Φ commutes with L.  The coordinates are certified
exactly too: each coset r_c·H is φ^f(R_C)·H for the (C, f) it is given,
φ^r(r_c) = r_c·h^e0 for every c, and |K-orbits|·r = N.  Both run for every
φ a split uses.

`lambda1` is λ̃, the least eigenvalue other than the constant's that
`eigvalsh` finds on the sub-blocks it runs on: those of block 0 (every
block when N = 1), and any whose certificate fails.  The upper end trusts it
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
99/70 > √2).  A real sub-block, one with ω^j and ζ_l = ±1, takes the real
constant, n = w + 1 and g = γ_n, about half the complex one's shift.

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
sub-blocks of V_j are stacked, and one `_certify` certifies the stacks of
both paths: it sets λ̃ by `eigvalsh` on the first stacks it is given, V₀'s
here, then runs one Cholesky per stack, which certifies every sub-block in
it, and takes the stacks of the other V_j one at a time.  A stack refused
at λ̃ gets its own `eigvalsh`, which lowers λ̃, and one more try; a second
refusal raises CertificateError.  When N = 1 each V_j is the real 1×1
matrix of its real part, and all of them form one (R, 1, 1) float64 stack
whose first row, B_{0,0}, is lifted by s = 4k.  `lower` is
sqrt((μ - ε)/k) - tol with every operation rounded down by math.nextafter.

SL₂(𝔽_p), p >= 5 prime, reads S's entries mod p into int64 and builds no
element table.  ℓ²(G) holds every irreducible representation, the trivial
one once, so λ1 is the least eigenvalue of L = 2k·I - Σ_{t∈S±} π(t) over
the nontrivial irreducible π.  Every one of them is a constituent of one of
two families (W. Fulton and J. Harris, Representation Theory, 1991, §5.2):

- the principal series V_χ = {F on 𝔽_p² ∖ 0 : F(λv) = χ(λ)F(v)},
  (π(g)F)(v) = F(g⁻¹v), p + 1 wide, for χ_j(γ^c) = exp(2πi·jc/(p - 1)) with γ
  a generator of 𝔽_p^×.  On the basis F(v_x) over the points x of P¹(𝔽_p),
  v_x = (x, 1) and v_p = (1, 0), π(t⁻¹) is monomial: t·v_x = γ^c·v_{t·x}
  puts χ_j(γ^c) at (x, t·x), the integer numerator j·c over p - 1 that
  `_Terms` fills in;
- the norm-one torus T ⊂ 𝔽_{p²}^× (order p + 1) acts on the Weil
  representation of SL₂(𝔽_p) on ℓ²(𝔽_{p²}) for the norm form N and ψ(a) =
  exp(2πi·a/p) (P. Gérardin, Weil representations associated to finite
  fields, J. Algebra 46, 1977; D. Bump, Automorphic Forms and
  Representations, 1997, §4.1): [[a,b],[0,d]] sends f to f(a·)·ψ(ab·N), and
  for c ≠ 0 [[a,b],[c,d]] has the kernel -ψ((a·N(z) + d·N(y) - Tr(z·ȳ))/c)/p.
  W_θ = {f : f(tz) = θ(t)f(z)} for θ ≠ 1, p - 1 wide, holds the cuspidal
  representations.

So there is one block per pair {χ, χ⁻¹}, j = 0 … (p - 1)/2, and one per pair
{θ, θ⁻¹} of nontrivial characters of T, about p + 1 in all.  χ⁻¹'s block is
the complex conjugate of χ's, with the same spectrum, and W_{θ⁻¹} ≅
conj(W_θ): conjugation turns ψ into ψ(-·), that is N into -N, and f ↦ f(z0·)
with N(z0) = -1 commutes with T and carries one kernel to the other.  No
constituent but V_1's constants is trivial: a G-invariant F is constant, as
G is transitive on 𝔽_p² ∖ 0, and a G-invariant f is fixed by every
[[1,b],[0,1]], so it lives on N(z) = 0, at z = 0, where θ ≠ 1 makes it 0.
The constants are lifted by s = ⌈4k/(p + 1)⌉ as B_{0,0}'s are above.

W_θ is taken in torus-orbit coordinates: g0 generates 𝔽_{p²}^× (certified
by its p² - 1 distinct powers), t0 = g0^(p-1) generates T, and F(n) =
√(p + 1)·f(g0^n), n < p - 1, picks one point of each T-orbit, N(g0^n) =
γ^n with γ = g0^(p+1).  With g0^m = t0^q·g0^r, r < p - 1, an entry of
π(g) is one phase over p(p + 1) (a ψ and a power of θ(t0)), times
J_θ(g0^r)/p for c ≠ 0, where J_θ(y) = Σ_{t∈T} θ(t)·ψ(-Tr(y·t̄)) at
y = g0^n·conj(g0^n')/c and J_θ(y·t′) = θ(t′)·J_θ(y): p - 1 sums of p + 1
phases per θ, O(p²) terms, not O(p³).  A test checks the relations of the
computed matrices (π(s)π(s⁻¹) = I, (E·w)³ = I, π(xy) = π(x)π(y)) at small p;
the lower end rests on the cited theorems and on these exact certificates:

- the principal series: for every t ∈ S± and point x, t·v_x ≡ γ^c·v_{t·x}
  (mod p) with γ^c read from a table certified to be k ↦ γ^k for a generator
  γ (exp[k+1] = γ·exp[k] cyclically, p - 1 distinct values), so each term is
  π(t⁻¹)'s entry for a character χ_j; and the cocycle identity c(s⁻¹, s·x) +
  c(s, x) ≡ 0 (mod p - 1) at s⁻¹·(s·x) = x pairs the rows as S±.  A wrong
  numerator fails the first compare;
- the Cholesky of each stack, as above.

Entry error.  A phase is read from one table of exp(iθ̂) at numerators below
D = p(p + 1), each within 22u.  The principal series has E <= 2k(22 + 6k)u
as the blocks B_{j,l} above.  A torus sum Ĵ of p + 1 phases, in any order,
errs by at most (p + 1)(22u + γ_p(1 + 22u)) <= (p + 1)(p + 23)u, |J| <= p + 1;
dividing by p adds u|Ĵ|/p, and one complex product with a phase adds
√2·γ₂·1.21 < 3.5u and 22u·1.21 < 26.7u.  So every computed entry of π_θ(s)
is within τ = (p + 1)(p + 56)u/p of the exact one and has modulus < 1.21.
The stack is 2k·I - Σ_{s∈S} (π̂_θ(s) + π̂_θ(s)ᴴ), and π(s⁻¹) = π(s)ᴴ as the
Weil representation is unitary; its 2k subtractions per entry, of partial
sums below 4.42k, add 9k²u.  LAPACK reads the lower triangle, so E is
Hermitian with entries below 2kτ + 9k²u, and ||E||₂ <= ||E||_∞ <=
(p - 1)(2kτ + 9k²u) <= kp(2p + 112 + 9k)u, which is also above the principal
series' E.  Every a_ii <= 6k (s <= 1.67k), so ε = k(p(2p + 9k + 112) + 7)u.

`_certify` takes the principal stacks first, so `lambda1` is λ̃ from
`eigvalsh` on them, Ind 1's constants excluded; then the cuspidal stack,
built as it is certified, in chunks of as many θ, at least one, as keep the
(θ, n, n') temporaries within CUSPIDAL_ENTRIES entries: one chunk while
p <= 53.  The upper end keeps δ, a model as on the other path: these blocks
are at most p + 1 wide, and δ's share for the P - p - 1 rows they lack,
8k(P - p - 1)u, covers ε, as 8(P - p - 1) >= p(2p + 9k + 112) + 7 while
p <= 59 and k <= 3.  The path raises CapacityError when p + 1 >
DENSE_DIM_CAP, before any block is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    NotAbelianError,
    NonGeneratingError,
    PermstabError,
    certify,
)
from .groups import FinGroup, SL2Group, _cycle_min

DENSE_DIM_CAP = 2000
DEFAULT_TOL = 1e-8
SPECTRAL_CAP = 200_000  # largest group order kazhdan_bracket accepts
CHARACTER_CAP = 10_000_000  # most root-of-unity assignments _characters scans
CUSPIDAL_ENTRIES = 1 << 17  # most (θ, n, n') entries of a cuspidal chunk: one chunk while p <= 53


@dataclass
class KazhdanBracket:
    """Certified lower/upper bounds on the Kazhdan constant of (G, S)."""

    lower: float
    upper: float
    lambda1: float
    method: str  # "abelian-exact" or "laplacian-bracket"

    def __post_init__(self):
        top = 2.0 + 1e-12
        if not 0.0 <= self.lower <= self.upper <= top:  # float compares are exact; NaN fails them
            excess = 1  # NaN or an infinite end
            if math.isfinite(self.lower) and math.isfinite(self.upper):
                lower, upper = Fraction(self.lower), Fraction(self.upper)  # exact for floats
                excess = max(-lower, lower - upper, upper - Fraction(top))
            certify("bracket must satisfy 0 <= lower <= upper <= 2", excess, 0)


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
    twist: np.ndarray  # a with h·g = g·h^a, for each coset gH of Q = N(H)/H
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
        moved = G.mul_many(np.append(steps, h)[:, None], reps[None, :])
        moved, moved_h = moved[:-1], moved[-1]  # t·r_c, then h·r_c
        # Q: the cosets r_c·H with h·r_c = r_c·h^a; a and the order modulo H
        # are constant on each coset, so the representatives carry them
        inside = np.flatnonzero(coset[moved_h] == np.arange(reps.size))
        twist, g = -back[moved_h[inside]] % m, reps[inside]
        order = G.element_order(g, coset == coset[G.identity_index])
        blocks = cls(m, coset[moved], -back[moved] % m, twist, np.unique(twist), {})
        # Stab_j depends on gcd(j, m) alone, and every gcd meets an orbit
        for d in np.unique(np.gcd(blocks.orbit_reps(), m)).tolist():
            stab = blocks._stabilizer(d)
            if stab.tobytes() not in blocks.splits:
                pick = np.flatnonzero(stab)[order[stab].argmax()]  # the first φ of the largest order
                y = G.mul_many(reps, g[pick])  # φ(r_c) = r_c·g
                coordinates = blocks._coordinates(coset[y], -back[y] % m, int(twist[pick]), int(order[pick]))
                blocks.splits[stab.tobytes()] = coordinates
        return blocks

    def _coordinates(self, step, shift, a: int, r: int) -> tuple:
        """(r, e0, terms): the coordinates x = φ^f(R_C)·h^e.

        φ(r_c) = r_{step[c]}·h^{shift[c]} and φ(x·h) = φ(x)·h^a define φ on G,
        and φ has order r modulo H.  The cosets c ↦ step[c] form r-cycles, one
        per orbit of ⟨φ⟩H, whose least member R_C represents it,
        r_c·H = φ^f(R_C)·H for f = turns[c], and φ^r(x) = x·h^e0.
        t·R_C = φ^f(R_C')·h^e gives B_{j,l}'s terms, at (C, C') with turn f
        and rise e.
        """
        m, cols, exps = self.m, self.cols, self.exps
        # φ(t·r_c) = φ(r_c')·h^(a·e) must be t·φ(r_c) = t·r_step·h^shift
        wrong = np.count_nonzero(cols[:, step] != step[cols])
        wrong += np.count_nonzero((exps[:, step] + shift - shift[cols] - a * exps) % m)
        certify("φ does not commute with L", int(wrong), 0)
        N = len(step)
        at, power, path, rise = np.arange(N), np.zeros(N, dtype=np.int64), [], []
        for _ in range(r):  # φ^f(r_c) = r_path·h^rise
            path.append(at)
            rise.append(power)
            at, power = step[at], (shift[at] + a * power) % m
        path, rise = np.stack(path, axis=1), np.stack(rise, axis=1)
        lead, steps = _cycle_min(step, r)
        turns = -steps % r  # r_c·H = φ^f(R_C)·H with R_C = r_lead
        heads = np.flatnonzero(lead == np.arange(N))
        wrong = np.count_nonzero(path[lead, turns] != np.arange(N)) + abs(heads.size * r - N)
        wrong += np.count_nonzero(at != np.arange(N)) + np.count_nonzero(power != power[0])
        certify("the coordinates φ^f(R_C)·h^e are not a bijection onto G", int(wrong), 0)
        label, rise = np.searchsorted(heads, lead), rise[lead, turns]  # r_c = φ^f(R_C)·h^-rise
        near = cols[:, heads].T  # t·R_C = r_c'·h^e = φ^f(R_C')·h^(e - rise), in (C, t) order
        width = heads.size
        at = np.arange(0, width * width, width)[:, None] + label[near]
        rises = (exps[:, heads].T - rise[near]) % m
        return r, int(power[0]), _Terms(at.ravel(), turns[near].ravel(), rises.ravel(), r * m, width)

    def _stabilizer(self, j: int) -> np.ndarray:
        """Stab_j, as the mask of the φ in Q with j(a - 1) ≡ 0 mod m."""
        return j * (self.twist - 1) % self.m == 0

    def stacks(self, j: int) -> List[np.ndarray]:
        """V_j's sub-blocks B_{j,l}, l < r, stacked real ones first, then complex ones.

        B_{j,l} is real when ω^j and ζ_l are ±1.  For j = 0 the real stack
        starts with B_{0,0}, the sub-block of the constants.
        """
        r, e0, terms = self.splits[self._stabilizer(j).tobytes()]
        zeta = (j * e0 + np.arange(r) * self.m) % terms.size  # ζ_l = exp(2πi·zeta/(r·m))
        real = (2 * zeta % terms.size == 0) & (2 * j % self.m == 0)
        return [
            _stack(terms, zeta[part], j * r, kind, len(self.cols))
            for part, kind in ((real, np.float64), (~real, np.complex128))
            if part.any()
        ]

    def orbit_reps(self) -> np.ndarray:
        """The smallest j of each orbit of ℤ/m under multiplication by ±A."""
        mult = np.concatenate([self.powers, -self.powers])
        return np.unique((np.arange(self.m)[:, None] * mult % self.m).min(axis=1))


class _Terms(NamedTuple):
    """Terms exp(2πi·(ζ·turn + jr·rise)/size) at flat places `at` of a w×w block."""

    at: np.ndarray
    turn: np.ndarray
    rise: np.ndarray
    size: int
    width: int

    def fill(self, out: np.ndarray, zeta: np.ndarray, jr: int) -> None:
        """Subtract the terms for each ζ, their real parts when `out` is real, from out, in order."""
        num = (zeta[:, None] * self.turn + jr * self.rise) % self.size
        angle = 2 * np.pi * num / self.size
        entries = np.exp(1j * angle) if out.dtype.kind == "c" else np.cos(angle)
        np.subtract.at(out, (np.arange(len(out))[:, None], self.at), entries)


def _stack(terms: _Terms, zeta: np.ndarray, jr: int, kind, diagonal: int) -> np.ndarray:
    """diagonal·I minus the terms for each ζ, as a (len(ζ), w, w) stack of `kind`."""
    width = terms.width
    stack = np.zeros((len(zeta), width * width), dtype=kind)
    stack[:, :: width + 1] = diagonal
    terms.fill(stack, zeta, jr)
    return stack.reshape(-1, width, width)


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
    """μ of each sub-block of the stack if one Cholesky of a shifted copy completes, else None.

    A positive `lift` is B_{0,0}'s s, added to every entry of the copy's first sub-block.
    """
    count, size, _ = stack.shape
    stack = stack.copy()
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


def _certify(first: List[np.ndarray], lift: int, rest: Iterable[np.ndarray]) -> Tuple[float, float]:
    """(λ̃, μ): λ̃ from eigvalsh on `first`, then one Cholesky per stack of `first` and `rest` at λ̃.

    first[0][0] holds the constants: their 0 is left out of λ̃, and the
    sub-block is lifted by s = ⌈lift/w⌉ with lift = 4k.  A refused stack
    gets its own eigvalsh, which lowers λ̃, and one more try; a second
    refusal raises CertificateError.  `rest` is consumed one stack at a time.
    """
    lam = min(_least(stack, i == 0) for i, stack in enumerate(first))
    mu = math.inf
    for i, stack in enumerate(itertools.chain(first, rest)):
        s = -(-lift // stack.shape[1]) if i == 0 else 0
        levels = _certified_levels(stack, lam, s)
        if levels is None:
            lam = min(lam, _least(stack, i == 0))
            levels = _certified_levels(stack, lam, s)
            certify("the Cholesky certificate refuses a block", int(levels is None), 0)
        mu = min(mu, float(levels.min()))
    return lam, mu


def _lambda1(G: FinGroup, S: Sequence[int]) -> Tuple[float, int, float]:
    """(λ̃, the orbit blocks certified, their certified level μ) (module docstring).

    Raises CertificateError when a stack is refused twice, under -O too.
    """
    blocks = _CharacterBlocks.of(G, S)
    reps = blocks.orbit_reps()
    if blocks.cols.shape[1] == 1:  # r = 1: every V_j is the real 1×1 block of its real part
        terms = _Terms(0 * blocks.exps[:, 0], blocks.exps[:, 0], 0, blocks.m, 1)
        first, rest = [_stack(terms, reps, 0, np.float64, len(blocks.cols))], []
    else:  # reps[0] = 0
        first, rest = blocks.stacks(0), (stack for j in reps[1:].tolist() for stack in blocks.stacks(j))
    lam, mu = _certify(first, 2 * len(blocks.cols), rest)  # 4k, as 2k = len(cols)
    return lam, len(reps), mu


def _prime_modulus(G: FinGroup) -> Optional[int]:
    """p when G is SL₂(𝔽_p) for a prime p >= 5, which takes the representation path; else None."""
    n = G.modulus if isinstance(G, SL2Group) else 0
    return n if n >= 5 and all(n % q for q in range(2, math.isqrt(n) + 1)) else None


class _Field(NamedTuple):
    """𝔽_{p²} = 𝔽_p(√ε) read through discrete logarithms to a generator g0 of 𝔽_{p²}^×."""

    p: int
    trace: np.ndarray  # Tr(g0^m) = 2x mod p for g0^m = x + y√ε, m < p² - 1
    exp: np.ndarray  # γ^k mod p for k < p - 1, γ = g0^(p+1) = N(g0)
    log: np.ndarray  # log[γ^k] = k; log[0] = 0 is never a phase
    roots: np.ndarray  # the phase exp(2πi·num/D) at num < D = p(p + 1), computed as _Terms.fill does

    @classmethod
    def of(cls, p: int) -> "_Field":
        """The tables for the least non-square ε and g0 = `_generator`'s, its p² - 1 powers certified distinct."""
        eps = min(set(range(1, p)) - {x * x % p for x in range(1, p)})
        x0, y0 = _generator(p, eps)
        xs, ys = np.array([1], dtype=np.int64), np.array([0], dtype=np.int64)
        while xs.size < p * p - 1:  # g0^(n + i) = g0^n·g0^i, n = xs.size
            xn, yn = (xs[-1] * x0 + eps * ys[-1] * y0) % p, (xs[-1] * y0 + ys[-1] * x0) % p
            xs, ys = np.append(xs, (xn * xs + eps * yn * ys) % p), np.append(ys, (xn * ys + yn * xs) % p)
        xs, ys = xs[: p * p - 1], ys[: p * p - 1]
        repeats = p * p - 1 - np.unique(xs + p * ys).size
        certify("g0 does not generate 𝔽_{p²}^×", int(repeats), 0)
        exp = xs[:: p + 1]  # g0^((p+1)k) = γ^k lies in 𝔽_p
        log = np.zeros(p, dtype=np.int64)
        log[exp] = np.arange(p - 1)
        D = p * (p + 1)
        return cls(p, 2 * xs % p, exp, log, np.exp(1j * (2 * np.pi * np.arange(D) / D)))


def _generator(p: int, eps: int) -> Tuple[int, int]:
    """(x, y) of the first x + y√ε, in the order of x + p·y, of order p² - 1 in 𝔽_{p²}^×."""
    order = p * p - 1
    primes = [q for q in range(2, p + 1) if order % q == 0 and all(q % r for r in range(2, math.isqrt(q) + 1))]
    return next(
        (z % p, z // p) for z in range(1, p * p)
        if all(_fp2_pow(z % p, z // p, order // q, p, eps) != (1, 0) for q in primes)
    )


def _fp2_pow(x: int, y: int, e: int, p: int, eps: int) -> Tuple[int, int]:
    """(x + y√ε)^e in 𝔽_p(√ε), by squaring."""
    rx, ry = 1, 0
    while e:
        if e & 1:
            rx, ry = (rx * x + eps * ry * y) % p, (rx * y + ry * x) % p
        x, y, e = (x * x + eps * y * y) % p, 2 * x * y % p, e >> 1
    return rx, ry


def _principal_terms(field: _Field, rows: np.ndarray) -> _Terms:
    """The terms of Σ_t π(t) on Ind χ over P¹(𝔽_p), rows t = (a, b, c, d) in (s, s⁻¹) pairs.

    Point x < p is the line of v_x = (x, 1), point p that of (1, 0); t's term
    sits at (x, t·x) with numerator c over p - 1, where t·v_x = γ^c·v_{t·x}.
    Certified exactly (module docstring), so a wrong numerator raises
    CertificateError.
    """
    p = field.p
    a, b, c, d = (rows[:, i, None] for i in range(4))
    x = np.arange(p + 1)
    top, bottom = np.where(x < p, x, 1), (x < p).astype(np.int64)
    u, w = (a * top + b * bottom) % p, (c * top + d * bottom) % p  # t·v_x
    image = np.where(w != 0, u * field.exp[-field.log[w] % (p - 1)] % p, p)
    num = field.log[np.where(w != 0, w, u)]
    scale = field.exp[num]
    wrong = np.count_nonzero(u != scale * np.where(image < p, image, 1) % p)
    wrong += np.count_nonzero(w != scale * (image < p))
    back, there = num[1::2], image[1::2]  # s⁻¹ at s·x: c(s⁻¹, s·x) + c(s, x) ≡ 0
    paired = np.take_along_axis(there, image[::2], 1), np.take_along_axis(back, image[::2], 1)
    wrong += np.count_nonzero(paired[0] != x) + np.count_nonzero((paired[1] + num[::2]) % (p - 1))
    powers = field.exp
    wrong += np.count_nonzero(np.roll(powers, -1) != powers[1] * powers % p) + p - 1 - np.unique(powers).size
    certify("the principal-series phases fail the cocycle identity", int(wrong), 0)
    return _Terms((x * (p + 1) + image).ravel(), num.ravel(), 0, p - 1, p + 1)


def _torus_sums(field: _Field, js: np.ndarray) -> np.ndarray:
    """J_θ(g0^n)/p for θ = θ_j, θ_j(t0) = exp(2πi·j/(p + 1)), t0 = g0^(p-1), and n < p - 1.

    J_θ(y) = Σ_{t∈T} θ(t)·ψ(-Tr(y·t̄)), with t = t0^s and t̄ = g0^(-(p-1)s);
    each term is one phase over p(p + 1).
    """
    p = field.p
    s = np.arange(p + 1)
    tr = field.trace[(np.arange(p - 1)[:, None] - (p - 1) * s) % (p * p - 1)]
    num = (p * js[:, None, None] * s + (p + 1) * (-tr % p)) % (p * (p + 1))
    return field.roots[num].sum(axis=2) / p


def _weil(field: _Field, g: Sequence[int], js: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """π_θ(g) on W_θ for each θ = θ_j, in the coordinates F(n) = √(p + 1)·f(g0^n), n < p - 1.

    `sums` is `_torus_sums(field, js)`.  With x = g0^n, z = g0^m and
    g0^m = t0^q·g0^r: for c = 0 the entry at (n, r) is ψ(ab·N(x))·θ(t0)^q,
    m = n + (p + 1)·log a; otherwise the entry at (n, n') is
    -ψ((a·N(x) + d·N(x'))/c)·θ(t0)^q·J_θ(g0^r)/p, g0^m = x·x̄'/c.
    """
    p = field.p
    a, b, c, d = (int(v) % p for v in g)
    n, D = np.arange(p - 1), p * (p + 1)
    norm, j = field.exp, js[:, None, None]
    if c == 0:
        q, r = np.divmod((n + (p + 1) * field.log[a]) % (p * p - 1), p - 1)
        out = np.zeros((len(js), p - 1, p - 1), dtype=np.complex128)
        num = ((p + 1) * (a * b * norm % p) + p * j * q) % D
        out[:, n, r] = field.roots[num[:, 0]]
        return out
    q, r = np.divmod((n[:, None] + p * n - (p + 1) * field.log[c]) % (p * p - 1), p - 1)
    inv = int(field.exp[-field.log[c] % (p - 1)])
    num = ((p + 1) * ((a * norm[:, None] + d * norm) * inv % p) + p * j * q) % D
    out = sums[:, r]
    out *= field.roots[num]
    return np.negative(out, out=out)


def _cuspidal_stack(field: _Field, mats: np.ndarray, js: np.ndarray) -> np.ndarray:
    """L = 2k·I - Σ_{s∈S} (π_θ(s) + π_θ(s)ᴴ) on W_θ for each θ = θ_j."""
    width = field.p - 1
    stack = np.zeros((len(js), width, width), dtype=np.complex128)
    stack.reshape(len(js), -1)[:, :: width + 1] = 2 * len(mats)
    sums = _torus_sums(field, js)
    for g in mats.tolist():
        image = _weil(field, g, js, sums)
        stack -= image
        stack -= np.conjugate(image, out=image).swapaxes(1, 2)
    return stack


def _prime_levels(p: int, mats) -> Tuple[float, float, float]:
    """(λ̃, μ, ε) of L = 2k·I - Σ_{t∈S±} π(t) over SL₂(𝔽_p)'s representations (module docstring).

    `mats` holds S as rows (a, b, c, d) of integers, read mod p.  Raises
    CapacityError when p + 1 > DENSE_DIM_CAP, before any block is built, and
    CertificateError when a certificate fails, as for a row of determinant ≠ 1,
    whose [[d, -b], [-c, a]] is then not its inverse.
    """
    if p + 1 > DENSE_DIM_CAP:
        raise CapacityError(f"representation blocks of size {p + 1} exceed {DENSE_DIM_CAP}")
    mats = np.asarray(mats, dtype=np.int64).reshape(-1, 4) % p
    a, b, c, d = mats.T
    k = len(mats)
    rows = np.stack([mats, np.stack([d, -b, -c, a], axis=1) % p], axis=1).reshape(-1, 4)  # s, s⁻¹
    field = _Field.of(p)
    terms, half = _principal_terms(field, rows), (p - 1) // 2
    principal = [
        _stack(terms, np.array([0, half]), 0, np.float64, 2 * k),
        _stack(terms, np.arange(1, half), 0, np.complex128, 2 * k),
    ]
    js, step = np.arange(1, (p + 3) // 2), max(CUSPIDAL_ENTRIES // (p * p - 1), 1)
    cuspidal = (_cuspidal_stack(field, mats, js[i : i + step]) for i in range(0, js.size, step))
    lam, mu = _certify(principal, 4 * k, cuspidal)
    return lam, mu, k * (p * (2 * p + 9 * k + 112) + 7) * 2.0**-53  # ε of the module docstring


def kazhdan_bracket(G: FinGroup, S: Sequence[int], tol: float = DEFAULT_TOL) -> KazhdanBracket:
    """Certified Kazhdan bracket from the Laplacian spectral gap.

    SL₂(𝔽_p), p >= 5 prime, takes its irreducible representations; every
    other group takes the character blocks.  A certified μ - ε > 0 already
    proves that S generates G: a disconnected Cayley graph puts a second 0
    in L's spectrum on mean-zero functions.  So S's closure runs only when
    that certificate fails or raises, to name a non-generating S as the
    fault.
    """
    p = _prime_modulus(G)
    if p is None and G.order > SPECTRAL_CAP:
        raise CapacityError(f"group order {G.order} exceeds spectral cap {SPECTRAL_CAP}")
    gens = sorted(set(int(v) for v in S))
    k = len(gens)
    try:
        if p is None:
            lam, _, mu = _lambda1(G, S)
            eps = 2 * k * (26 + 6 * k) * 2.0**-53  # ε of the module docstring
        else:
            lam, mu, eps = _prime_levels(p, G.entries[:, gens].T)
    except PermstabError:
        _require_generating(G, S)
        raise
    if mu <= eps:  # fl(μ - ε) <= 0 exactly when μ <= ε
        _require_generating(G, S)
    return _bracket(lam, mu, eps, k, tol)


def _bracket(lam: float, mu: float, eps: float, k: int, tol: float) -> KazhdanBracket:
    """[sqrt((μ - ε)/k) - tol, sqrt(λ̃ + δ) + tol], the lower end rounded down at every step."""
    lam1 = max(lam, 0.0)
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
