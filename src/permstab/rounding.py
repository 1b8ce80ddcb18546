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

The pipeline closes K once, reads K₀'s rows from it for δ, the invariant
rounding of X and both K₀-actions, and certifies each fact once.  K₀ is
proven a subgroup by `FinGroup.greedy_generators`, on the columns K₀·s of
its generators s, at |K₀|·|S₀| products and never on its |K₀|² table.
One kernel, `_translation_defects`, counts the translation defect of ε and
of δ off r(y) = y⁻¹·φ(y), as φ(gx) = g·φ(x) exactly when r(gx) = r(x); no
temporary of it exceeds groups.CHUNK_ENTRIES entries.  commuting_extension
reads every stabilizer from one fixed-point matrix, action.rows == arange(n).

All set losses and displacements are counted exactly; the Kazhdan constant
enters only through its certified lower bound, which is conservative.  Every
bound and consistency check goes through errors.certify: it compares ints
and Fractions exactly, κ as the Fraction of its float, and raises
CertificateError when a check fails, under ``python -O`` too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .almost_invariant import round_to_invariant
from .errors import CapacityError, ConfigError, OutOfRegimeError, certify
from .groups import (
    CONJUGACY_CAP,
    FinGroup,
    GroupHom,
    PermAction,
    PermGroup,
    group_from_perm_generators,
    rows_per_chunk,
    _orbits,
)
from .perms import Perm, PartialInjection, UNDEFINED, hamming
from .spectral import kazhdan


def certified_kappa_lower(G: FinGroup, S: Sequence[int]) -> float:
    return kazhdan(G, S).lower


def _check_kappa(kappa_lower: Optional[float]) -> None:
    if kappa_lower is not None and not 0 < kappa_lower <= 2:
        raise ConfigError(f"kappa_lower must lie in (0, 2], got {kappa_lower!r}")


def nearest_right_translation(
    G: FinGroup, S: Sequence[int], phi: Perm, kappa_lower: Optional[float] = None
) -> Tuple[int, Fraction]:
    """Find h with κ² d_H(φ, β(h)) <= 4 max_{g∈S} d_H(α(g)φ, φα(g)).

    Scans c(x) = |{g ∈ G : φ(gx) ≠ g·φ(x)}|, takes the minimizing x (ties to
    the smallest index) and returns h = φ(x)⁻¹x with the exact distance to
    the right translation β(h): y ↦ yh⁻¹.  Raises CertificateError when h
    misses the bound, which a κ above the true Kazhdan constant can cause.
    """
    if phi.n != G.order:
        raise ValueError("phi must permute the group's element indices")
    _check_kappa(kappa_lower)
    if kappa_lower is None:
        kappa_lower = certified_kappa_lower(G, S)
    h, dist, _ = _nearest_right_translations(G, S, phi.image[None, :], kappa_lower)
    return int(h[0]), Fraction(int(dist[0]), G.order)


def _nearest_right_translations(
    G: FinGroup, S: Sequence[int], phis: np.ndarray, kappa_lower: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """nearest_right_translation for each row of an (m, |G|) array of permutations.

    Returns (h, dist, beta): h[i], the image row beta[i] of β(h[i]) and
    dist[i] = |G|·d_H(φᵢ, β(h[i])).  Raises CertificateError unless
    κ²·dist[i] <= 4·max_{g∈S} |{x : φᵢ(gx) ≠ g·φᵢ(x)}| for every row, exactly.

    Everything is read off r(y) = y⁻¹·φ(y), one `mul_many` for all rows:
    φ(gx) = g·φ(x) exactly when r(gx) = r(x), as (gx)⁻¹·g·φ(x) = x⁻¹·φ(x),
    and gx runs over G with g, so c(x) = n − #{y : r(y) = r(x)}, one
    histogram of r per row.  Likewise φ(y) = y·h⁻¹ with h = r(x)⁻¹ exactly
    when r(y) = r(x), so dist = c(x*); `_translation_defects` of r is the defect.
    """
    m, n = phis.shape
    idx = np.arange(n)
    r = G.mul_many(G.inv_many(idx)[None, :], phis)  # [i, y]: y⁻¹·φᵢ(y)
    hist = np.bincount((r + n * np.arange(m)[:, None]).ravel(), minlength=m * n).reshape(m, n)
    cost = n - np.take_along_axis(hist, r, axis=1)  # [i, x]: c(x) for φᵢ
    defect = _translation_defects(G, S, r)  # n·max_{g∈S} d_H(α(g)φᵢ, φᵢα(g))
    x_star = cost.argmin(axis=1)  # ties to the smallest x
    h_inv = r[np.arange(m), x_star]  # h = φ(x*)⁻¹·x* = r(x*)⁻¹
    h = G.inv_many(h_inv)
    beta = G.mul_many(idx[None, :], h_inv[:, None])  # row i: y ↦ y·h[i]⁻¹
    dist = cost.min(axis=1)
    k2 = Fraction(kappa_lower) ** 2
    worst = max(k2 * d - 4 * e for d, e in set(zip(dist.tolist(), defect.tolist())))
    certify("right-translation bound violated", worst, 0)
    return h, dist, beta


def _translation_defects(G: FinGroup, S: Sequence[int], r: np.ndarray) -> np.ndarray:
    """Row i: max over g ∈ S of #{x : r[i, x] ≠ ⊥, r[i, g·x] ≠ r[i, x]}, with ⊥ = |G|,
    gathered in chunks of rows and of S that keep every temporary within CHUNK_ENTRIES."""
    m, n = r.shape
    out = np.zeros(m, dtype=np.int64)
    s = np.unique(np.asarray(S, dtype=np.int64))
    s_step = min(max(s.size, 1), rows_per_chunk(n))
    r_step = rows_per_chunk(s_step * n)
    for s0 in range(0, s.size, s_step):
        gx = G.mul_many(s[s0 : s0 + s_step, None], np.arange(n)[None, :])  # rows g, cols x
        for r0 in range(0, m, r_step):
            block = r[r0 : r0 + r_step]
            bad = block.take(gx, axis=1) != block[:, None, :]  # [i, g, x]: r(g·x) ≠ r(x)
            bad &= (block < n)[:, None, :]
            part = out[r0 : r0 + r_step]
            np.maximum(part, bad.sum(axis=2).max(axis=1), out=part)
    return out


@dataclass
class ConjugacyResult:
    X1: List[int]
    X2: List[int]
    phi: PartialInjection  # defined exactly on X1
    epsilon: Fraction
    set_loss: int  # max(|X∖X1|, |X∖X2|)
    displacement: int  # |{x ∈ X1 : φ(x) ≠ x}|


def _action_of(K: FinGroup, action) -> PermAction:
    """`action` itself when it is a PermAction of K, else K acting by its rows or Perms."""
    if isinstance(action, PermAction):
        if action.group is not K:
            raise ValueError("action does not belong to the given group")
        return action
    return PermAction(K, np.stack([p.image for p in action]))


def extract_conjugacy(
    K: FinGroup, alpha1, alpha2, verify_actions: bool = True
) -> ConjugacyResult:
    """Equivariant partial matching of two pointwise-close actions of K.

    Thresholds the averaged matching matrix at 1/2; the outputs satisfy
    |X∖X1| = |X∖X2| <= 16ε|X|, displacement <= 16ε|X| and exact
    equivariance φ∘α₁(k) = α₂(k)∘φ on X1, certified with α₁(k)X1 ⊆ X1.
    Hence α₂(k)X2 = α₂(k)φ(X1) = φ(α₁(k)X1) ⊆ X2, and X1 = X when α₁ is
    transitive and 16ε < 1, as X1 is invariant and |X∖X1| < |X|.  Pass
    verify_actions=False only for rows proven to be actions.
    """
    a1, a2 = _action_of(K, alpha1), _action_of(K, alpha2)
    r1, r2 = a1.rows, a2.rows
    n = r1.shape[1]
    if r2.shape[1] != n:
        raise ValueError("actions live on different point counts")
    if verify_actions:
        a1.verify()
        a2.verify()
    eps = Fraction(int((r1 != r2).sum(axis=1).max()), n)  # max_k d_H(α₁(k), α₂(k))

    # cnt[i] = |K|·V[x1, x2] = |{k : α₁(k)x1 = α₂(k)x2}| for each key x1·n + x2 hit.
    # Every row and column of |K|·V sums to exactly |K|: PermAction checked that
    # both actions' rows are permutations, so each k meets one
    # x2 = α₂(k)⁻¹α₁(k)x1 per x1, and one x1 per x2.  So V is doubly
    # stochastic, and has at most one weight above 1/2 per row and per column.
    keys = np.arange(n) * n + np.take_along_axis(np.argsort(r2, axis=1), r1, axis=1)
    uniq, cnt = np.unique(keys, return_counts=True)
    x1_arr, phi_x1 = np.divmod(uniq[2 * cnt > K.order], n)  # x1 increasing
    entries = np.full(n, UNDEFINED, dtype=np.int64)
    entries[x1_arr] = phi_x1
    phi = PartialInjection(entries)
    X1, X2 = x1_arr.tolist(), np.sort(phi_x1).tolist()

    set_loss = max(n - len(X1), n - len(X2))
    displacement = int((phi_x1 != x1_arr).sum())
    certify("conjugacy set-loss bound violated", set_loss, 16 * eps * n)
    certify("displacement bound violated", displacement, 16 * eps * n)
    image = entries[r1[:, x1_arr]]
    certify("X1 is not invariant", int((image == UNDEFINED).sum()), 0)
    mismatches = int((image != r2[:, phi_x1]).sum())
    certify("equivariance φ∘α₁(k) = α₂(k)∘φ fails on X1", mismatches, 0)
    return ConjugacyResult(
        X1=X1,
        X2=X2,
        phi=phi,
        epsilon=eps,
        set_loss=set_loss,
        displacement=displacement,
    )


def _orbit_type(fixes: np.ndarray, orbit: List[int]) -> Tuple[int, ...]:
    """The least Stab(y), y in the orbit, as a sorted tuple; fixes[g, y] says g·y = y.

    An orbit's stabilizers are exactly the conjugates of any one of them, so
    two orbits get the same key when their stabilizers are conjugate.
    """
    return min(tuple(np.flatnonzero(fixes[:, y]).tolist()) for y in orbit)


def _conjugator(action: PermAction, fixes: np.ndarray, o1: List[int], a2: int) -> int:
    """The least c with c·Stab(a1)·c⁻¹ = Stab(c·a1) = Stab(a2), where a1 = o1[0]."""
    same = np.zeros(action.points, dtype=bool)
    same[o1] = (fixes[:, o1] == fixes[:, [a2]]).all(axis=0)
    hits = np.flatnonzero(same[action.rows[:, o1[0]]])
    certify("orbit stabilizers are not conjugate", int(hits.size == 0), 0)
    return int(hits[0])


def _equivariant_orbit_bijection(
    action: PermAction, fixes: np.ndarray, o1: List[int], o2: List[int]
) -> np.ndarray:
    """Deterministic G-equivariant bijection between two same-type orbits.

    Anchored at the smallest points a1, a2: conjugate the stabilizers by the
    smallest c with c·Stab(a1)·c⁻¹ = Stab(a2), then transport along the
    smallest group element reaching each point.  Returns the images of o1.
    """
    G = action.group
    a1, a2 = o1[0], o2[0]
    conjugator = _conjugator(action, fixes, o1, a2)
    reached, transport = np.unique(action.rows[:, a1], return_index=True)  # smallest g per point
    certify("the orbit of a1 is not o1", int(not np.array_equal(reached, o1)), 0)
    out = action.rows[G.mul_many(transport, G.inv(conjugator)), a2]
    certify("the transported orbit is not o2", int(not np.array_equal(np.sort(out), o2)), 0)
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
    conj = np.argsort(phi.image)[action.rows[:, phi.image]]  # φ⁻¹α(g)φ
    res = extract_conjugacy(G, action, PermAction(G, conj), verify_actions=False)
    # d_H(α(g), φ⁻¹α(g)φ) = d_H(φα(g), α(g)φ), so this is the commutation defect
    eps = res.epsilon
    x1 = np.asarray(res.X1, dtype=np.int64)
    image = np.full(n, -1, dtype=np.int64)
    image[x1] = phi.image[res.phi.entries[x1]]  # τ = φ∘σ on X1, onto X3 = φ(X2)
    done1 = np.zeros(n, dtype=bool)
    done1[x1] = True
    done3 = np.zeros(n, dtype=bool)
    done3[image[x1]] = True
    orbits = _orbits(action)  # X1 and X3 are invariant: an orbit lies in or out
    fixes = action.rows == np.arange(n)  # [g, y]: g ∈ Stab(y)

    def keyed(done):
        return sorted((_orbit_type(fixes, o), o[0], o) for o in orbits if not done[o[0]])

    k1, k3 = keyed(done1), keyed(done3)
    census_differs = int([t[0] for t in k1] != [t[0] for t in k3])
    certify("orbit-type censuses of the leftover parts disagree", census_differs, 0)
    for (_, _, o1), (_, _, o3) in zip(k1, k3):
        image[o1] = _equivariant_orbit_bijection(action, fixes, o1, o3)
    psi = Perm(image)
    gens = action.rows[G.generators]  # they generate G: action.verify() checked it
    mismatches = int((psi.image[gens] != gens[:, psi.image]).sum())
    certify("extension fails to commute with the action", mismatches, 0)
    dist = hamming(phi, psi)
    certify("commuting-extension distance bound violated", dist, 32 * eps)
    return psi, dist


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@dataclass
class AlmostResult:
    """Recovered structure: K₀ < K, δ: K₀ → G, matched sets and bijection."""

    K0: List[int]  # indices into the enumerated K
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
    """max over g∈S, k∈K of |{x ∈ X∩k⁻¹X : α(g)kx ≠ kα(g)x}| / |X|.

    `_translation_defects` of r(x) = x⁻¹·k(x), with ⊥ = |X| where kx ∉ X,
    one chunk of K's rows at a time: for kx ∈ X, g·(kx) = k(gx) exactly when
    k(gx) ∈ X and r(gx) = r(x), as (gx)⁻¹·g·(kx) = x⁻¹·kx.
    """
    inv_x = G.inv_many(np.arange(n_x))[None, :]
    worst, step = 0, rows_per_chunk(n_x)
    for start in range(0, K.order, step):
        kx = K.rows[start : start + step, :n_x]
        inside = kx < n_x  # x ∈ X ∩ k⁻¹X
        r = np.where(inside, G.mul_many(inv_x, np.where(inside, kx, 0)), n_x)
        worst = max(worst, int(_translation_defects(G, S, r).max()))
    return Fraction(worst, n_x)


def _complete_to_perms(k_rows: np.ndarray, n_x: int) -> np.ndarray:
    """Row i: k̃ᵢ ∈ Sym(X), equal to kᵢ on X∩kᵢ⁻¹X, smallest-index completion elsewhere."""
    kx = k_rows[:, :n_x]
    inside = kx < n_x
    out = np.where(inside, kx, -1)
    r_in, c_in = np.nonzero(inside)
    used = np.zeros(kx.shape, dtype=bool)
    used[r_in, kx[r_in, c_in]] = True
    # outside points and unused targets, both first and in increasing order
    slots = np.argsort(inside, axis=1, kind="stable")
    free = np.argsort(used, axis=1, kind="stable")
    r, j = np.nonzero(~np.take_along_axis(inside, slots, axis=1))
    out[r, slots[r, j]] = free[r, j]
    return out


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

    Each fact is certified once.  `greedy_generators` proves K₀ a subgroup
    generated by S₀, at |K₀|·|S₀| products, and `delta.verify()` proves δ
    a homomorphism, without closing S₀ again.  So α₁ (k on X₀,
    certified K₀-invariant by `round_to_invariant`) and α₂ (β(δ(k)) on X),
    each the identity elsewhere on Z, are actions, and `extract_conjugacy`
    skips their checks; its certificate on Z₁ restricts to
    X₁ = Z₁ ∩ X₀ ∩ φ⁻¹(X), an intersection of invariant sets.
    """
    n_x = G.order
    _check_kappa(kappa_lower)
    if not K_gens:
        raise ConfigError("K needs at least one generator")
    if Y_size < n_x:
        raise ConfigError(f"Y must contain X: Y_size {Y_size} is below |G| = {n_x}")
    if any(p.n != Y_size for p in K_gens):
        raise ConfigError(f"K generators must permute Y: each needs Y_size = {Y_size} points")
    K = group_from_perm_generators(list(K_gens))
    eps = _measure_epsilon(G, S, K, n_x)
    if kappa_lower is None:
        kappa_lower = certified_kappa_lower(G, S)
    k4 = Fraction(kappa_lower) ** 4
    if eps > 0 and 200 * eps >= k4:
        raise OutOfRegimeError(
            f"measured defect {float(eps):.6g} is not below κ⁴/200 = {kappa_lower**4 / 200:.6g}"
        )

    # K₀ = {k : |X ∩ kX| >= |X|/2}, increasing, so that position i is K₀'s element i
    k0 = np.flatnonzero((K.rows[:, :n_x] < n_x).sum(axis=1) * 2 >= n_x)
    K0 = k0.tolist()
    gens = K.greedy_generators(k0)
    certify("K₀ failed to close into a subgroup", int(gens is None), 0)
    K0_group = PermGroup(K.rows[k0], gens, name="K0", proven=True)
    k0_rows = K0_group.rows

    # δ through right-translation rounding of every completed k̃ at once
    delta_img, _, beta = _nearest_right_translations(
        G, S, _complete_to_perms(k0_rows, n_x), kappa_lower
    )  # beta row i: β(δ(k_i))
    delta = GroupHom(K0_group, G, delta_img)
    delta.verify()  # δ(ks) = δ(k)δ(s) for every k ∈ K₀ and generator s: exact
    worst_unif = int((k0_rows[:, :n_x] != beta).sum(axis=1).max())

    # invariant rounding of X inside Y, then the two K₀-actions on Z = X₀ ∪ X
    x_mask = np.arange(Y_size) < n_x
    x0_mask, max_move = round_to_invariant(x_mask, k0_rows)
    # Z is sorted and holds 0..|X|−1 first, so position z ↦ z on X
    z_arr = np.flatnonzero(x0_mask | x_mask)
    nz = z_arr.size
    in_x0 = x0_mask[z_arr]

    alpha1 = np.tile(np.arange(nz), (len(K0), 1))
    alpha1[:, in_x0] = np.searchsorted(z_arr, k0_rows[:, z_arr[in_x0]])  # X₀ is K₀-invariant
    alpha2 = np.tile(np.arange(nz), (len(K0), 1))
    alpha2[:, :n_x] = beta
    conj = extract_conjugacy(
        K0_group, PermAction(K0_group, alpha1), PermAction(K0_group, alpha2), verify_actions=False
    )

    # X₁ = (Z₁ ∩ X₀) ∩ φ⁻¹(Z₂ ∩ X), X₂ = φ(X₁), both back in Y / X coordinates
    z1 = np.asarray(conj.X1, dtype=np.int64)  # increasing, and φ maps it onto Z₂
    phi_z1 = conj.phi.entries[z1]
    keep = in_x0[z1] & (phi_z1 < n_x)
    x1_arr = z_arr[z1[keep]]  # increasing
    phi_x1 = phi_z1[keep]  # in X, where position z is point z
    X1, X2 = x1_arr.tolist(), np.sort(phi_x1).tolist()
    entries = np.full(Y_size, UNDEFINED, dtype=np.int64)
    entries[x1_arr] = phi_x1
    phi = PartialInjection(entries)

    set_loss = max(n_x - int((x1_arr < n_x).sum()), n_x - len(X2))
    displacement = int((phi_x1 != x1_arr).sum())
    if eps == 0:
        certify("zero-defect instance must be recovered exactly", set_loss + displacement, 0)
    else:
        certify("set-loss bound (4162/κ⁴) violated", set_loss * k4, 4162 * eps * n_x, strict=True)
        certify("displacement bound (2048/κ⁴) violated", displacement * k4, 2048 * eps * n_x)

    return AlmostResult(
        K0=K0,
        delta=delta,
        X1=X1,
        X2=X2,
        phi=phi,
        epsilon=eps,
        kappa_lower=kappa_lower,
        set_loss=set_loss,
        displacement=displacement,
        bound_set_loss=4162 * float(eps) * n_x / kappa_lower**4,
        bound_displacement=2048 * float(eps) * n_x / kappa_lower**4,
        intermediates={
            "max_translation_mismatch": worst_unif / n_x,
            "invariant_rounding_move": max_move / n_x,
            "conjugacy_epsilon": float(conj.epsilon),
            "K_order": K.order,
            "Z_size": nz,
        },
    )
