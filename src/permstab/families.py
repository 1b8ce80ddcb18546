"""Almost-homomorphisms of (Γ∗ℤ)×Λ built from commuting translation actions.

The construction: realize Γ and Λ inside a finite group X through a
surjection p and a homomorphism q, let Γ act by left translation and Λ by
right translation (these commute exactly), and send the free letter t to a
swap permutation θ that exchanges a set A with a disjoint translate gA.
Because A is assembled from a density-window subset of q(Λ) spread over
coset representatives, the commutator of θ with some right translation is
provably bounded below — the family is almost multiplicative but uniformly
far from exact homomorphisms.

Everything runs on index arrays, in the coordinates x = z·q_j of the left
cosets of q(Λ): one table T[j, z] = z·q_j, certified once to meet every
x ∈ X once, carries B, the swap counts and the commutator curve.  θ is the
one permutation of X formed, and none is composed.  `defect_report` reads
each value off the curve and |A|: a relator without t has defect 0 (p and q
are homomorphisms, and left and right translations commute, g·(x·h) =
(g·x)·h); [t, λ] has the curve's value at q(λ) (d_H is bi-invariant:
d_H(θRθ⁻¹R⁻¹, id) = d_H(θR, Rθ)); the sofic profile is 1 at a translation by
g ≠ e (gx = x forces g = e) and 2|A|/|X| at θ, which moves exactly the
disjoint A ∪ gA.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .almost_invariant import window_cardinality
from .errors import ConfigError, NotSurjectiveError, certify
from .groups import (
    FinGroup,
    MarkedGroup,
    MarkedHom,
    SL2Group,
    _cycle_min,
    _min_labels,
    left_coset_reps,
    product_with_free_z,
    rows_per_chunk,
    sl2_mod,
)
from .perms import Perm

DEFAULT_WINDOW = (Fraction(1, 7), Fraction(1, 6))


@dataclass
class BiTranslationAction:
    """Γ acting on X by left translations x -> p(γ)·x and Λ by right ones
    x -> x·q(λ)⁻¹, which commute; no permutation of X is formed."""

    X: FinGroup
    p: MarkedHom
    q: MarkedHom

    def __post_init__(self):
        if not self.p.surjective:
            raise NotSurjectiveError(f"p does not map onto the carrier group {self.X.name}")


@dataclass
class SwapFamily:
    """The swap permutation θ exchanging A with gA, plus its provenance as
    int64 arrays: A, C, B, q(Λ) in closure order Q, and the coset table
    T[j, z] = z·Q[j], whose row 0 is Z since Q[0] = e."""

    base: BiTranslationAction
    A: np.ndarray
    g: int
    t_image: Perm
    C: np.ndarray
    Q: np.ndarray
    T: np.ndarray
    B: np.ndarray

    @property
    def Z(self) -> np.ndarray:
        return self.T[0]

    @property
    def a_density(self) -> Fraction:
        return Fraction(len(self.A), self.base.X.order)

    @property
    def b_density(self) -> Fraction:
        return Fraction(len(self.B), self.base.X.order)

    def to_json(self) -> dict:
        return {
            "carrier": self.base.X.name,
            "carrier_order": self.base.X.order,
            "g": int(self.g),
            "g_label": self.base.X.label(self.g),
            "C_size": len(self.C),
            "Z_size": len(self.Z),
            "B_size": len(self.B),
            "A_size": len(self.A),
            "b_density": str(self.b_density),
            "a_density": str(self.a_density),
        }


@dataclass
class DefectReport:
    relator_defects: Dict[Tuple[int, ...], Fraction]
    sofic_profile: Dict[int, Fraction]  # generator index (1-based) -> d_H(σ(g), id)
    commutator_curve: Dict[int, Fraction]  # q(Λ) element index -> defect

    @property
    def max_commutator_defect(self) -> Fraction:
        return max(self.commutator_curve.values(), default=Fraction(0))

    def to_json(self) -> dict:
        return {
            "relator_defects": {
                " ".join(map(str, r)): str(d) for r, d in self.relator_defects.items()
            },
            "sofic_profile": {str(i): str(d) for i, d in self.sofic_profile.items()},
            "commutator_curve": {
                str(h): str(d) for h, d in sorted(self.commutator_curve.items())
            },
        }


def build_bitranslation(X: FinGroup, p: MarkedHom, q: MarkedHom) -> BiTranslationAction:
    return BiTranslationAction(X, p, q)


def build_swap_family(
    base: BiTranslationAction,
    window: Tuple[Fraction, Fraction] = DEFAULT_WINDOW,
) -> SwapFamily:
    """Assemble A, g, and the swap permutation from a density-window set.

    C is the smallest-index subset of q(Λ) whose density sits in the window;
    B = Z·C over the left coset representatives Z, so |B|/|X| = |C|/|q(Λ)|;
    g maximizes |B ∖ g⁻¹B| (ties to the smallest index) and A = B ∖ g⁻¹B.

    The counts are summed over Z rather than over all |B|² quotients y·x⁻¹.
    Every x ∈ X is z·h(x) for exactly one z ∈ Z and h(x) ∈ q(Λ), so for
    b = z·c ∈ B, g·b = z′·h(g·z)·c lies in B exactly when h(g·z)·c ∈ C:

        counts[g] = |B ∩ g⁻¹B| = Σ_{z∈Z} W[g·z],  W[x] = #{c ∈ C: h(x)·c ∈ C}.

    Neither step needs q(Λ) to be abelian.  Let K = {k: kB = B}.  For
    k₁, k₂ ∈ K, using k₁⁻¹B = B and k₂B = B,

        |B ∩ (k₁gk₂)⁻¹B| = |B ∩ k₂⁻¹g⁻¹B| = |k₂B ∩ g⁻¹B| = |B ∩ g⁻¹B|,

    so counts is constant on each double coset KgK; and counts[g⁻¹] =
    counts[g], as |B ∩ g⁻¹B| = |g(B ∩ g⁻¹B)| = |gB ∩ B|.  The sum is taken
    once per class KgK ∪ Kg⁻¹K, at its least element, and spread over the
    class by one gather: R·|Z| products for R classes.  At p = 43, K is the
    diagonal torus and R·|Z| = 68 · 1,848; a trivial K, as at the composite
    moduli measured, leaves R = (|X| + #{g: g² = e})/2.

    Certified exactly, in integers: the table T[j, z] = z·q_j meets every
    x ∈ X once (Z is a left transversal), so B, the union of T's C rows, has
    |Z|·|C| points; and A ∩ gA = ∅, as x = g·y with x, y ∈ A puts g·y in B,
    against y ∈ A = B ∖ g⁻¹B.  Every generator of K maps B into B, so each
    labelled class lies inside one class KgK ∪ Kg⁻¹K; and Σ_g counts[g] =
    |B|², the number of pairs (y, x) ∈ B², each with one quotient y·x⁻¹.
    """
    X = base.X
    alpha, beta = window
    q_arr = X.closure(base.q.gen_images) if base.q.image is None else base.q.image
    c_rows = np.argsort(q_arr)[: window_cardinality(len(q_arr), alpha, beta)]  # C's rows of T
    c_arr = q_arr[c_rows]
    T = X.mul_many(np.asarray(left_coset_reps(X, q_arr), dtype=np.int64)[None, :], q_arr[:, None])
    misplaced = np.bincount(T.ravel(), minlength=X.order) != 1
    certify("coset representatives are not a left transversal", int(np.count_nonzero(misplaced)), 0)
    b_mask = np.zeros(X.order, dtype=bool)
    b_mask[T[c_rows]] = True
    b_arr = np.flatnonzero(b_mask)
    b_density = Fraction(b_arr.size, X.order)
    certify("|B|/|X| lies below the window", alpha, b_density)
    certify("|B|/|X| lies above the window", b_density, beta)

    # maximizing |B ∖ g⁻¹B| = |B| - counts[g] means minimizing counts
    counts = _swap_counts(X, T, q_arr, c_arr, b_arr)
    g = int(np.argmin(counts))  # first minimum = smallest index

    gb = X.mul_many(np.int64(g), b_arr)
    moved = ~b_mask[gb]
    a_arr, ga_arr = b_arr[moved], gb[moved]  # x ∈ B with gx ∉ B, and gx
    certify("|A| disagrees with |B ∖ g⁻¹B|", abs(a_arr.size - int(b_arr.size - counts[g])), 0)
    a_density = Fraction(a_arr.size, X.order)
    lower = b_density * (1 - b_density)
    certify("|A|/|X| fell below the certified floor", lower, a_density)
    certify("the certified floor fell below 5/42", Fraction(5, 42), lower)

    image = np.arange(X.order, dtype=np.int64)
    image[a_arr] = ga_arr
    image[ga_arr] = a_arr
    return SwapFamily(base, a_arr, g, Perm(image, _checked=True), c_arr, q_arr, T, b_arr)


def _swap_counts(
    X: FinGroup, T: np.ndarray, q_arr: np.ndarray, c_arr: np.ndarray, b_arr: np.ndarray
) -> np.ndarray:
    """counts[g] = |B ∩ g⁻¹B| at every g ∈ X, B = Z·C, as one int64 array:
    Σ_z W[r·z] at the least element r of each class KgK ∪ Kg⁻¹K
    (`build_swap_family` has the proof and the certificates)."""
    z_arr = T[0]
    W = _coset_weights(X, T, q_arr, c_arr)
    b_mask = np.zeros(X.order, dtype=bool)
    b_mask[b_arr] = True
    gens, label = _double_coset_labels(X, _stabilizer(X, z_arr, W, len(c_arr)))
    for s in gens:
        moved = int(np.count_nonzero(~b_mask[X.mul_many(np.int64(s), b_arr)]))
        certify("a generator of K moves B off itself", moved, 0)
    reps = np.flatnonzero(label == np.arange(X.order))  # each class's least element
    sums = np.zeros(X.order, dtype=np.int64)
    rows = rows_per_chunk(len(z_arr))
    for start in range(0, len(reps), rows):
        r = reps[start : start + rows]
        sums[r] = W[X.mul_many(r[:, None], z_arr[None, :])].sum(axis=1, dtype=np.int64)
    counts = sums[label]
    certify("the counts do not sum to |B|²", abs(int(counts.sum()) - b_arr.size ** 2), 0)
    return counts


def _double_coset_labels(X: FinGroup, K: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """(gens, label): generators of the subgroup K, and at every x ∈ X the
    least element of KxK ∪ Kx⁻¹K.

    A k ∈ K of order |K| generates K; then pointer doubling (`_cycle_min`)
    along x ↦ x·k gives the least element of xK, and along x ↦ k·x the
    least of those over Kx, the least of KxK.  Any other K goes through
    `_min_labels` on x ↦ s·x and x ↦ x·s, s in `greedy_generators(K)`,
    none when K is no subgroup, which `_swap_counts`' certificates refute.
    As (KxK)⁻¹ = Kx⁻¹K, each least element r then takes min(r, label[r⁻¹]).
    """
    idx = np.arange(X.order)
    full = np.flatnonzero(X.element_order(K) == len(K))
    if full.size:
        gens = [int(K[full[0]])]
        k = np.int64(gens[0])
        label = _cycle_min(X.mul_many(k, idx), len(K), _cycle_min(X.mul_many(idx, k), len(K))[0])[0]
    else:
        gens = [int(K[s]) for s in X.greedy_generators(K) or []]
        steps = [X.mul_many(np.int64(s), idx) for s in gens]
        label = _min_labels(steps + [X.mul_many(idx, np.int64(s)) for s in gens], X.order)
    reps = np.flatnonzero(label == idx)
    fold = np.empty_like(idx)  # read only at the least elements, which are the labels
    fold[reps] = np.minimum(reps, label[X.inv_many(reps)])
    return gens, fold[label]


def _coset_weights(X: FinGroup, T: np.ndarray, q_arr: np.ndarray, c_arr: np.ndarray) -> np.ndarray:
    """W[x] = #{c ∈ C: h(x)·c ∈ C} at every x = z·h(x), read through the
    coset table T[j, z] = z·q_j, whose row j holds the x with h(x) = q_j."""
    c_mask = np.zeros(X.order, dtype=bool)
    c_mask[c_arr] = True
    per_h = np.count_nonzero(c_mask[X.mul_many(q_arr[:, None], c_arr[None, :])], axis=1)
    W = np.empty(X.order, dtype=np.min_scalar_type(len(c_arr)))
    W[T] = per_h[:, None]
    return W


def _stabilizer(X: FinGroup, z_arr: np.ndarray, W: np.ndarray, c_size: int) -> np.ndarray:
    """K = {k ∈ X: kB = B}, sorted, for B = Z·C with weights W from `_coset_weights`.

    kB ⊆ B exactly when every k·z·c lies in B, i.e. when h(k·z)·C ⊆ C, or
    W[k·z] = |C|, for every z ∈ Z; and kB ⊆ B forces kB = B.  So K lies
    among the candidates F·Z[0]⁻¹, F = {x: W[x] = |C|}, and these are
    filtered against every z ∈ Z, a chunk of Z at a time sized to the
    survivors: the survivors are K exactly.
    """
    full = W == c_size
    cand = X.mul_many(np.flatnonzero(full), X.inv_many(z_arr[0]))
    done = 0
    while done < len(z_arr):
        cols = z_arr[done : done + rows_per_chunk(len(cand))]
        cand = cand[full[X.mul_many(cand[:, None], cols[None, :])].all(axis=1)]
        done += len(cols)
    return np.sort(cand)


def _commutator_curve(fam: SwapFamily) -> Dict[int, Fraction]:
    """Exact defect of [θ, right-translation by h] for every h in q(Λ) = ⟨u⟩.

    X is read in the family's coset table T[j, z] = z·u^j, whose rows run
    through u's powers e, u, …, u^(m−1) and which `build_swap_family`
    certified to meet every x ∈ X once: x has the coordinate c(x) = j·|Z| + z.
    R_h: x ↦ x·h for h = u^k moves z·u^j to z·u^(j+k mod m), row j of T to
    row j + k mod m.  Each defect is computed twice, and the two must agree
    exactly:

    - directly, as d(θ∘R_h, R_h∘θ).  One int32 key per point,
      D[j, z] = (c(θ(z·u^j)) − j·|Z|) mod |X| = ((j′ − j) mod m)·|Z| + z′ for
      θ(z·u^j) = z′·u^j′, records z′ and j′ − j mod m.  θ(R_h x) = R_h(θ x) at
      x = z·u^j says θ(z·u^(j+k)) = z′·u^(j′+k), which holds exactly when
      D[j + k mod m, z] = D[j, z]; so the defect counts the entries where D
      and D with its rows shifted by k differ.  It equals the defect
      d(θρ, ρθ) of ρ = R_h⁻¹, since d(θρ, ρθ) = d(θρ⁻¹, ρ⁻¹θ) for any
      permutation ρ (substitute x = ρ⁻¹y);
    - in closed form, from the displaced parts of A and U = A ∪ gA.  With M
      the (m, |Z|) mask of S in coordinates, #{x ∈ S: x·u^k ∈ S} counts the
      entries where M and M with its rows shifted by k are both set; it is
      |S| at k = 0, and |S ∖ S·u^k| = |S| − #{x ∈ S: x·u^k ∈ S}.

    No R_h, inverse, composition or array product is formed; gA is θ's
    image of A.  Needs q to have one generator image (Λ = ℤ), else
    ConfigError.
    """
    X, T, theta = fam.base.X, fam.T, fam.t_image.image
    gens = fam.base.q.gen_images
    if len(gens) != 1:
        raise ConfigError(f"the commutator curve needs one generator image (Λ = ℤ); q has {len(gens)}")
    m, width = T.shape
    coord = np.empty(X.order, dtype=np.int64)
    coord[T] = np.arange(X.order).reshape(m, width)
    D = ((coord[theta[T]] - (np.arange(m) * width)[:, None]) % X.order).astype(np.int32)
    a_mask, u_mask = np.zeros((2, X.order), dtype=bool)
    a_mask[fam.A] = u_mask[fam.A] = u_mask[theta[fam.A]] = True

    def shifted(v: np.ndarray, same) -> np.ndarray:
        """#{entries where same(v with its rows shifted by k, v)} for every k < m."""
        twice = np.concatenate([v, v])  # row j + k is v's row j + k mod m
        return np.array([np.count_nonzero(same(twice[k : k + m], v)) for k in range(m)])

    a_hits, u_hits = (shifted(s[T], np.logical_and) for s in (a_mask, u_mask))
    a_loss, u_loss = a_hits[0] - a_hits, u_hits[0] - u_hits  # |S ∖ S·u^k|
    # |X|·defect is 2|U ∖ Uh| when g² = e, else 2|A ∖ Ah| + |U ∖ Uh|
    rest = u_loss if X.mul(fam.g, fam.g) == X.identity_index else 2 * a_loss
    moved = shifted(D, np.not_equal)
    curve = {}
    for h, direct, closed in zip(fam.Q.tolist(), moved.tolist(), (u_loss + rest).tolist()):
        curve[h] = Fraction(direct, X.order)
        certify(f"closed-form defect disagrees at h={h}", abs(Fraction(closed, X.order) - curve[h]), 0)
    return dict(sorted(curve.items()))


def defect_report(fam: SwapFamily) -> DefectReport:
    """Relator defects, sofic profile and commutator curve on (Γ∗ℤ)×Λ, with
    generators (Γ-gens, t, Λ-gens) and the relators of `product_with_free_z`.

    A relator without t has defect 0, as p and q are homomorphisms and
    g·(x·h) = (g·x)·h; [t, λ] has the curve's value at q(λ), since
    d_H(θRθ⁻¹R⁻¹, id) = d_H(θR, Rθ) by bi-invariance; a translation by g ≠ e
    moves every point (gx = x forces g = e) and θ moves exactly A ∪ gA.  The
    curve certifies its direct values against its closed form, and [t, λ]'s
    value with them.  Needs Λ = ℤ, as the curve does.
    """
    base, X = fam.base, fam.base.X
    curve = _commutator_curve(fam)
    t = base.p.marked.generator_count + 1
    marked = product_with_free_z(base.p.marked, base.q.marked)
    t_lam = curve[base.q.gen_images[0]]  # [t, λ]; q has exactly one generator image here
    relators = {tuple(r): t_lam if t in map(abs, r) else Fraction(0) for r in marked.relators}
    moves = [Fraction(int(x != X.identity_index)) for x in base.p.gen_images + base.q.gen_images]
    moves.insert(len(base.p.gen_images), Fraction(2 * len(fam.A), X.order))  # θ, after the Γ-gens
    return DefectReport(relators, dict(enumerate(moves, 1)), curve)


# ---------------------------------------------------------------------------
# Flagship instances over SL2(Z/pZ)
# ---------------------------------------------------------------------------

FLAGSHIP_PRIMES = (7, 13, 19, 43)


@dataclass
class FlagshipInstance:
    X: SL2Group
    family: SwapFamily
    report: DefectReport
    floor: Fraction


def flagship_family(
    p: int, window: Tuple[Fraction, Fraction] = DEFAULT_WINDOW
) -> FlagshipInstance:
    """Swap family on SL2(Z/pZ) with Γ = F₂ and Λ = ℤ into a unipotent subgroup.

    Γ maps through [[1,2],[0,1]] and [[1,0],[2,1]]; Λ's generator maps to
    [[1,2],[0,1]], whose cyclic image has order p.  Raises WindowEmptyError
    for primes (such as 5, 11, 17) whose cyclic order misses the window.
    """
    X = sl2_mod(p)
    p_hom = MarkedHom(MarkedGroup.free(2), X, [X.index_of(1, 2, 0, 1), X.index_of(1, 0, 2, 1)])
    q_hom = MarkedHom(MarkedGroup.free(1), X, [X.index_of(1, 2, 0, 1)])
    fam = build_swap_family(build_bitranslation(X, p_hom, q_hom), window=window)
    report = defect_report(fam)
    return FlagshipInstance(
        X=X,
        family=fam,
        report=report,
        # a ψ commuting with every right translation has defect 0, and
        # defect(θ) <= 2·d_H(θ, ψ): half the curve's maximum floors d_H(θ, ψ)
        floor=report.max_commutator_defect / 2,
    )
