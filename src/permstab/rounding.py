"""Rounding almost-equivariant permutations back to exact group structure.

Four algorithms, in increasing ambition:
  * nearest_right_translation — a permutation of a group that almost commutes
    with all left translations is close to a single right translation.
  * extract_conjugacy — two actions of the same group that are pointwise
    close agree, after deleting a small set, up to an equivariant bijection.
  * commuting_extension — a permutation almost commuting with an action is
    close to one commuting exactly.
  * rigidity_pipeline — from a subgroup K of Sym(Y) almost normalizing the
    left-translation copy of G inside Y, recover the sub-subgroup K₀ that
    genuinely overlaps, a homomorphism δ: K₀ → G, and an equivariant partial
    bijection, with certified constants 4162/κ⁴ and 2048/κ⁴.

All set losses and displacements are counted exactly; the Kazhdan constant
enters only through its certified lower bound, which is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .almost_invariant import round_to_invariant
from .errors import CapacityError, OutOfRegimeError
from .groups import (
    CONJUGACY_CAP,
    FinGroup,
    GroupHom,
    PermAction,
    TableGroup,
    canonical_subgroup_key,
    group_from_perm_generators,
    _orbits,
    _stabilizer,
)
from .perms import Perm, PartialInjection, UNDEFINED, compose, hamming, inverse
from .spectral import kazhdan_abelian_exact, kazhdan_bracket


def certified_kappa_lower(G: FinGroup, S: Sequence[int]) -> float:
    if G.is_abelian:
        return kazhdan_abelian_exact(G, S).lower
    return kazhdan_bracket(G, S).lower


def nearest_right_translation(
    G: FinGroup, S: Sequence[int], phi: Perm, kappa_lower: Optional[float] = None
) -> Tuple[int, Fraction]:
    """Find h with κ² d_H(φ, β(h)) <= 4 max_{g∈S} d_H(α(g)φ, φα(g)).

    Scans c(x) = |{g ∈ G : φ(gx) ≠ g·φ(x)}|, takes the minimizing x (ties to
    the smallest index) and returns h = φ(x)⁻¹x with the exact distance to
    the right translation β(h): y ↦ yh⁻¹.
    """
    n = G.order
    if phi.n != n:
        raise ValueError("phi must permute the group's element indices")
    idx = np.arange(n)
    cost = np.zeros(n, dtype=np.int64)
    row_defect = np.empty(n, dtype=np.int64)  # row g: n·d_H(α(g)φ, φα(g))
    chunk = max(1, 4_000_000 // n)
    for start in range(0, n, chunk):
        gs = idx[start : start + chunk]
        gx = G.mul_many(gs[:, None], idx[None, :])  # rows g, cols x
        lhs = phi.image[gx]
        rhs = G.mul_many(gs[:, None], phi.image[None, :])
        mismatch = lhs != rhs
        cost += mismatch.sum(axis=0)
        row_defect[start : start + chunk] = mismatch.sum(axis=1)
    x_star = int(np.argmin(cost))
    h = G.mul(G.inv(phi(x_star)), x_star)
    beta_h = G.right_perm(G.inv(h))
    dist = hamming(phi, beta_h)
    if kappa_lower is None:
        kappa_lower = certified_kappa_lower(G, S)
    max_defect = Fraction(int(row_defect[list(S)].max()), n)
    assert kappa_lower**2 * float(dist) <= 4 * float(max_defect) + 1e-9, (
        "right-translation bound violated"
    )
    return h, dist


@dataclass
class MatchMatrix:
    """Sparse averaged matching matrix V between two actions of K."""

    n: int
    k_order: int
    counts: Dict[Tuple[int, int], int]  # (x1, x2) -> |{k : α₁(k)x1 = α₂(k)x2}|

    def weight(self, x1: int, x2: int) -> Fraction:
        return Fraction(self.counts.get((x1, x2), 0), self.k_order)

    def check_substochastic(self):
        rows: Dict[int, int] = {}
        cols: Dict[int, int] = {}
        for (x1, x2), c in self.counts.items():
            rows[x1] = rows.get(x1, 0) + c
            cols[x2] = cols.get(x2, 0) + c
        assert all(v <= self.k_order for v in rows.values()), "row sum exceeds 1"
        assert all(v <= self.k_order for v in cols.values()), "column sum exceeds 1"


@dataclass
class ConjugacyResult:
    X1: List[int]
    X2: List[int]
    phi: PartialInjection  # defined exactly on X1
    epsilon: Fraction
    match: MatchMatrix
    set_loss: int  # max(|X∖X1|, |X∖X2|)
    displacement: int  # |{x ∈ X1 : φ(x) ≠ x}|

    def phi_of(self, x: int) -> int:
        return int(self.phi.entries[x])


def _action_perms(K: FinGroup, action) -> List[Perm]:
    if isinstance(action, PermAction):
        if action.group is not K and action.group.order != K.order:
            raise ValueError("action does not belong to the given group")
        return list(action.perms)
    return list(action)


def extract_conjugacy(
    K: FinGroup, alpha1, alpha2, verify_actions: bool = True
) -> ConjugacyResult:
    """Equivariant partial matching of two pointwise-close actions of K.

    Thresholds the averaged matching matrix at 1/2; the outputs satisfy
    |X∖X1| = |X∖X2| <= 16ε|X|, displacement <= 16ε|X| and exact
    equivariance φ∘α₁(k) = α₂(k)∘φ on X1.
    """
    p1 = _action_perms(K, alpha1)
    p2 = _action_perms(K, alpha2)
    if verify_actions:
        PermAction(K, p1).verify()
        PermAction(K, p2).verify()
    n = p1[0].n
    if p2[0].n != n:
        raise ValueError("actions live on different point counts")
    eps = max(hamming(p1[k], p2[k]) for k in K.elements())

    # counts[x1*n + x2] over the pairs (x1, α₂(k)⁻¹α₁(k)x1) actually hit
    idx = np.arange(n)
    keys = np.concatenate(
        [idx * n + inverse(p2[k]).image[p1[k].image] for k in K.elements()]
    )
    uniq, cnt = np.unique(keys, return_counts=True)
    counts = {
        (int(u) // n, int(u) % n): int(c) for u, c in zip(uniq.tolist(), cnt.tolist())
    }
    match = MatchMatrix(n=n, k_order=K.order, counts=counts)
    match.check_substochastic()

    half = Fraction(1, 2)
    row_best: Dict[int, int] = {}
    col_best: Dict[int, int] = {}
    for (x1, x2), c in counts.items():
        if Fraction(c, K.order) > half:
            row_best[x1] = x2
            col_best[x2] = x1
    X1 = sorted(x1 for x1, x2 in row_best.items() if x2 in col_best)
    entries = np.full(n, UNDEFINED, dtype=np.int64)
    for x1 in X1:
        entries[x1] = row_best[x1]
    phi = PartialInjection(entries)
    X2 = sorted(row_best[x1] for x1 in X1)

    set_loss = max(n - len(X1), n - len(X2))
    displacement = sum(1 for x1 in X1 if row_best[x1] != x1)
    assert Fraction(set_loss) <= 16 * eps * n, "conjugacy set-loss bound violated"
    assert Fraction(displacement) <= 16 * eps * n, "displacement bound violated"
    x1_arr = np.asarray(X1, dtype=np.int64)
    x2_arr = np.asarray(X2, dtype=np.int64)
    for k in K.elements():  # exact equivariance on X1, invariance of X2
        kx1 = p1[k].image[x1_arr]
        assert np.isin(kx1, x1_arr).all()
        assert np.array_equal(entries[kx1], p2[k].image[entries[x1_arr]])
        assert np.isin(p2[k].image[x2_arr], x2_arr).all()
    if eps < Fraction(1, 16) and len(_orbits(PermAction(K, p1))) == 1:
        assert len(X1) == n, "transitive small-defect actions must fully match"
    return ConjugacyResult(
        X1=X1,
        X2=X2,
        phi=phi,
        epsilon=eps,
        match=match,
        set_loss=set_loss,
        displacement=displacement,
    )


def _orbit_list(action: PermAction, points: Set[int]) -> List[List[int]]:
    """Orbits of the action that lie inside `points` (which must be invariant)."""
    return [o for o in _orbits(action) if o[0] in points]


def _equivariant_orbit_bijection(
    action: PermAction, o1: List[int], o2: List[int]
) -> Dict[int, int]:
    """Deterministic G-equivariant bijection between two same-type orbits.

    Anchored at the smallest points a1, a2: conjugate the stabilizers by the
    smallest c with c·Stab(a1)·c⁻¹ = Stab(a2), then transport along the
    smallest group element reaching each point.
    """
    G = action.group
    a1, a2 = o1[0], o2[0]
    h1 = np.asarray(_stabilizer(action, a1), dtype=np.int64)
    h2 = np.asarray(_stabilizer(action, a2), dtype=np.int64)  # sorted
    invs = G.inv_many(np.arange(G.order))
    conjugator = None
    for c in G.elements():
        if np.array_equal(np.sort(G.mul_many(G.mul_many(np.int64(c), h1), invs[c])), h2):
            conjugator = c
            break
    assert conjugator is not None, "orbit stabilizers are not conjugate"
    c_inv = int(invs[conjugator])
    transport: Dict[int, int] = {}
    for g in G.elements():  # smallest g with α(g)a1 = x wins
        x = action.perms[g](a1)
        if x not in transport:
            transport[x] = g
    out = {}
    for x in o1:
        out[x] = action.perms[G.mul(transport[x], c_inv)](a2)
    assert sorted(out.values()) == sorted(o2)
    return out


def commuting_extension(G: FinGroup, action: PermAction, phi: Perm) -> Tuple[Perm, Fraction]:
    """Round φ to a ψ commuting exactly with the action: d_H(φ,ψ) <= 32·defect.

    Matches the action with its φ-conjugate, keeps φ∘σ on the recovered part,
    and re-routes the two leftover parts through orbit-type matching.
    """
    if G.order > CONJUGACY_CAP:
        raise CapacityError(f"group order {G.order} exceeds cap {CONJUGACY_CAP}")
    action.verify()
    n = action.points
    if phi.n != n:
        raise ValueError("phi must act on the action's points")
    phi_inv = inverse(phi)
    conj = [compose(phi_inv, compose(action.perms[g], phi)) for g in G.elements()]
    res = extract_conjugacy(G, list(action.perms), conj, verify_actions=False)
    # d_H(α(g), φ⁻¹α(g)φ) = d_H(φα(g), α(g)φ), so this is the commutation defect
    eps = res.epsilon
    x1 = res.X1
    x3 = sorted(phi(res.phi_of(x)) for x in x1)  # X3 = φ(X2)
    tau = {x: phi(res.phi_of(x)) for x in x1}  # τ = φ∘σ

    image = np.full(n, -1, dtype=np.int64)
    for x, y in tau.items():
        image[x] = y
    rest1 = set(range(n)) - set(x1)
    rest3 = set(range(n)) - set(x3)
    orbs1 = _orbit_list(action, rest1)
    orbs3 = _orbit_list(action, rest3)

    def keyed(orbs):
        out = []
        for o in orbs:
            stab = _stabilizer(action, o[0])
            out.append((canonical_subgroup_key(G, stab), o[0], o))
        return sorted(out, key=lambda t: (t[0], t[1]))

    k1, k3 = keyed(orbs1), keyed(orbs3)
    assert [t[0] for t in k1] == [t[0] for t in k3], (
        "orbit-type censuses of the leftover parts disagree"
    )
    for (key1, _, o1), (_, _, o3) in zip(k1, k3):
        for x, y in _equivariant_orbit_bijection(action, o1, o3).items():
            image[x] = y
    psi = Perm(image)
    for g in G.generators:  # they generate G: action.verify() checked it
        assert compose(psi, action.perms[g]) == compose(action.perms[g], psi), (
            "extension fails to commute with the action"
        )
    dist = hamming(phi, psi)
    assert dist <= 32 * eps, "commuting-extension distance bound violated"
    return psi, dist


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@dataclass
class AlmostResult:
    """Recovered structure: K₀ < K, δ: K₀ → G, matched sets and bijection."""

    K0: List[int]  # indices into the enumerated K
    K0_group: TableGroup
    delta: GroupHom  # K₀ → G
    X1: List[int]  # K₀-invariant subset of Y
    X2: List[int]  # β(δ(K₀))-invariant subset of X
    phi: PartialInjection  # on Y, defined exactly on X1
    epsilon: Fraction
    kappa_lower: float
    set_loss: int
    displacement: int
    bound_set_loss: float  # 4162 ε |X| / κ⁴
    bound_displacement: float  # 2048 ε |X| / κ⁴
    intermediates: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "K0_size": len(self.K0),
            "delta": [int(self.delta.image[i]) for i in range(len(self.K0))],
            "X1_size": len(self.X1),
            "X2_size": len(self.X2),
            "epsilon": str(self.epsilon),
            "kappa_lower": self.kappa_lower,
            "set_loss": self.set_loss,
            "displacement": self.displacement,
            "bound_set_loss": self.bound_set_loss,
            "bound_displacement": self.bound_displacement,
            "intermediates": dict(self.intermediates),
        }


def _measure_epsilon(G: FinGroup, S: Sequence[int], K, n_x: int) -> Fraction:
    """max over g∈S, k∈K of |{x ∈ X∩k⁻¹X : α(g)kx ≠ kα(g)x}| / |X|."""
    worst = 0
    xs = np.arange(n_x)
    gx = G.mul_many(np.asarray(S, dtype=np.int64)[:, None], xs[None, :])  # row g: α(g)x
    for ki in K.elements():
        k = K.rows[ki]
        kx = k[xs]
        dom = kx < n_x  # x ∈ X ∩ k⁻¹X
        lhs = gx[:, kx[dom]]  # α(g)·(kx)
        rhs = k[gx[:, dom]]  # k·(α(g)x)
        worst = max(worst, int((lhs != rhs).sum(axis=1).max(initial=0)))
    return Fraction(worst, n_x)


def _complete_to_perm(k_row: np.ndarray, n_x: int) -> Perm:
    """k̃ ∈ Sym(X): equal to k on X∩k⁻¹X, smallest-index completion elsewhere."""
    entries = np.full(n_x, -1, dtype=np.int64)
    kx = k_row[:n_x]
    inside = kx < n_x
    entries[inside] = kx[inside]
    used = np.zeros(n_x, dtype=bool)
    used[kx[inside]] = True
    free_targets = np.nonzero(~used)[0]
    entries[~inside] = free_targets  # both sides in increasing order
    return Perm(entries)


def rigidity_pipeline(
    G: FinGroup,
    S: Sequence[int],
    Y_size: int,
    K_gens: Sequence[Perm],
    kappa_lower: Optional[float] = None,
) -> AlmostResult:
    """Recover exact right-translation structure from an almost-normalizing K.

    X = G sits inside Y as the indices {0,…,|G|−1}; K < Sym(Y) is the closure
    of K_gens.  Requires the measured defect ε < κ⁴/200 (certified κ).
    """
    n_x = G.order
    if Y_size < n_x:
        raise ValueError("Y must contain X")
    for p in K_gens:
        if p.n != Y_size:
            raise ValueError("K generators must permute Y")
    K = group_from_perm_generators(list(K_gens))
    eps = _measure_epsilon(G, S, K, n_x)
    if kappa_lower is None:
        kappa_lower = certified_kappa_lower(G, S)
    regime = kappa_lower**4 / 200
    if eps > 0 and float(eps) >= regime:
        raise OutOfRegimeError(
            f"measured defect {float(eps):.6g} is not below κ⁴/200 = {regime:.6g}"
        )

    # K₀ = {k : |X ∩ kX| >= |X|/2}, with closure verified explicitly
    K0 = [
        ki
        for ki in K.elements()
        if int((K.rows[ki][:n_x] < n_x).sum()) * 2 >= n_x
    ]
    k0 = np.asarray(K0, dtype=np.int64)  # increasing, so searchsorted gives positions
    prods = K.mul_many(k0[:, None], k0[None, :])
    assert np.isin(K.inv_many(k0), k0).all() and np.isin(prods, k0).all(), (
        "K₀ failed to close into a subgroup"
    )
    K0_group = TableGroup(
        np.searchsorted(k0, prods),
        generators=list(range(len(K0))),
        name="K0",
        identity_index=int(np.searchsorted(k0, K.identity_index)),
    )

    # δ through right-translation rounding of each completed k̃
    delta_img = np.empty(len(K0), dtype=np.int64)
    worst_unif = 0
    for i, ki in enumerate(K0):
        k_tilde = _complete_to_perm(K.rows[ki], n_x)
        h, _ = nearest_right_translation(G, S, k_tilde, kappa_lower=kappa_lower)
        delta_img[i] = h
        beta_img = G.right_perm(G.inv(h)).image
        kx = K.rows[ki][:n_x]
        worst_unif = max(worst_unif, int((kx != beta_img).sum()))
    delta = GroupHom(K0_group, G, delta_img)
    delta.verify()  # δ(ks) = δ(k)δ(s) for every k ∈ K₀ and generator s: exact

    # invariant rounding of X inside Y, then the two K₀-actions on Z = X₀ ∪ X
    k0_perms_y = [Perm(K.rows[ki], _checked=True) for ki in K0]
    X0, max_move = round_to_invariant(Y_size, list(range(n_x)), k0_perms_y)
    # Z is sorted and holds 0..|X|−1 first, so position z ↦ z on X
    Z = sorted(X0 | set(range(n_x)))
    nz = len(Z)
    z_arr = np.asarray(Z, dtype=np.int64)
    in_x0 = np.asarray([z in X0 for z in Z])
    xs = np.arange(n_x)
    h_invs = G.inv_many(delta_img)

    alpha1, alpha2 = [], []
    for i, ki in enumerate(K0):
        a1 = np.arange(nz, dtype=np.int64)
        a1[in_x0] = np.searchsorted(z_arr, K.rows[ki][z_arr[in_x0]])  # X₀ is K₀-invariant
        alpha1.append(Perm(a1))
        a2 = np.arange(nz, dtype=np.int64)
        a2[:n_x] = G.mul_many(xs, h_invs[i])
        alpha2.append(Perm(a2))
    conj = extract_conjugacy(K0_group, alpha1, alpha2, verify_actions=True)

    # X₁ = (Z₁ ∩ X₀) ∩ φ⁻¹(Z₂ ∩ X), X₂ = φ(X₁), both back in Y / X coordinates
    z2 = set(conj.X2)
    X1_z = [
        z
        for z in conj.X1
        if in_x0[z] and conj.phi_of(z) in z2 and conj.phi_of(z) < n_x
    ]
    X1 = sorted(int(z_arr[z]) for z in X1_z)
    X2 = sorted(int(z_arr[conj.phi_of(z)]) for z in X1_z)
    entries = np.full(Y_size, UNDEFINED, dtype=np.int64)
    for z in X1_z:
        entries[int(z_arr[z])] = int(z_arr[conj.phi_of(z)])
    phi = PartialInjection(entries)

    # exact invariance and equivariance checks
    x1_arr = np.asarray(X1, dtype=np.int64)
    x2_arr = np.asarray(X2, dtype=np.int64)
    for i, ki in enumerate(K0):
        kx = K.rows[ki][x1_arr]
        assert np.isin(kx, x1_arr).all(), "X1 is not K₀-invariant"
        assert np.array_equal(entries[kx], G.mul_many(entries[x1_arr], h_invs[i])), (
            "equivariance φ∘k = β(δ(k))∘φ fails on X1"
        )
        assert np.isin(G.mul_many(x2_arr, h_invs[i]), x2_arr).all(), (
            "X2 is not β(δ(K₀))-invariant"
        )

    set_loss = max(n_x - int((x1_arr < n_x).sum()), n_x - len(X2))
    displacement = int((entries[x1_arr] != x1_arr).sum())
    bound1 = 4162 * float(eps) * n_x / kappa_lower**4
    bound2 = 2048 * float(eps) * n_x / kappa_lower**4
    if eps == 0:
        assert set_loss == 0 and displacement == 0, (
            "zero-defect instance must be recovered exactly"
        )
    else:
        assert set_loss < bound1, "set-loss bound (4162/κ⁴) violated"
        assert displacement <= bound2, "displacement bound (2048/κ⁴) violated"

    return AlmostResult(
        K0=K0,
        K0_group=K0_group,
        delta=delta,
        X1=X1,
        X2=X2,
        phi=phi,
        epsilon=eps,
        kappa_lower=kappa_lower,
        set_loss=set_loss,
        displacement=displacement,
        bound_set_loss=bound1,
        bound_displacement=bound2,
        intermediates={
            "max_translation_mismatch": worst_unif / n_x,
            "invariant_rounding_move": max_move / n_x,
            "conjugacy_epsilon": float(conj.epsilon),
            "K_order": K.order,
            "Z_size": nz,
        },
    )
