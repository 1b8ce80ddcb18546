"""Swap families: bi-translation actions, defect reports, flagship instances."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from permstab import groups, perms
from permstab.errors import ConfigError, NotSurjectiveError, WindowEmptyError
from permstab.families import (
    DEFAULT_WINDOW,
    _coset_weights,
    _double_coset_labels,
    _stabilizer,
    _swap_counts,
    build_bitranslation,
    build_swap_family,
    defect_report,
    flagship_family,
)
from permstab.groups import FinGroup, MarkedGroup, MarkedHom, MarkedMap, product_with_free_z, sl2_mod
from permstab.perms import compose, hamming, identity


def _sl2_base(p, gamma_gens=((1, 2, 0, 1), (1, 0, 2, 1)), lam_gen=(1, 2, 0, 1)):
    X = sl2_mod(p)
    gamma = MarkedGroup.free(2)
    lam = MarkedGroup.free(1)
    p_hom = MarkedHom(gamma, X, [X.index_of(*m) for m in gamma_gens])
    q_hom = MarkedHom(lam, X, [X.index_of(*lam_gen)])
    return X, build_bitranslation(X, p_hom, q_hom)


def _evaluated_report(fam):
    """(relator defects, sofic profile) of the family on (F₂∗ℤ)×ℤ, by forming
    every generator's permutation of X and composing the relator words."""
    base, X = fam.base, fam.base.X
    images = [X.left_perm(g) for g in base.p.gen_images] + [fam.t_image]
    images += [X.right_perm(X.inv(h)) for h in base.q.gen_images]
    m = MarkedMap(product_with_free_z(MarkedGroup.free(2), MarkedGroup.free(1)), images)
    ident = identity(m.points)
    relators = {tuple(r): hamming(m.evaluate(r), ident) for r in m.marked.relators}
    return relators, {i + 1: hamming(p, ident) for i, p in enumerate(m.images)}


def test_bitranslation_commutes():
    X, base = _sl2_base(5)
    for g in base.p.gen_images:
        for h in base.q.gen_images:
            a, b = X.left_perm(g), X.right_perm(X.inv(h))
            assert compose(a, b) == compose(b, a)


def test_bitranslation_requires_surjective_p():
    X = sl2_mod(3)
    lam = MarkedGroup.free(1)
    q = MarkedHom(lam, X, [X.generators[0]])
    with pytest.raises(NotSurjectiveError):
        build_bitranslation(X, q, q)  # a cyclic image cannot cover SL2


def test_swap_family_trivial_q_window_empty():
    X = sl2_mod(7)
    gamma = MarkedGroup.free(2)
    p_hom = MarkedHom(gamma, X, [X.index_of(1, 2, 0, 1), X.index_of(1, 0, 2, 1)])
    q_hom = MarkedHom(MarkedGroup.free(1), X, [X.identity_index])
    base = build_bitranslation(X, p_hom, q_hom)
    with pytest.raises(WindowEmptyError):
        build_swap_family(base)


def test_swap_family_p7_frozen():
    X, base = _sl2_base(7)
    fam = build_swap_family(base)
    assert X.order == 336
    assert len(fam.Z) == 48 and len(fam.C) == 1
    assert len(fam.B) == 48 and fam.b_density == Fraction(1, 7)
    assert fam.a_density >= Fraction(5, 42)
    # A and gA are disjoint, theta swaps them and fixes the rest
    a = set(fam.A)
    ga = {X.mul(fam.g, x) for x in fam.A}
    assert not (a & ga)
    for x in fam.A:
        assert fam.t_image(x) == X.mul(fam.g, x)
        assert fam.t_image(X.mul(fam.g, x)) == x
    for x in set(range(X.order)) - a - ga:
        assert fam.t_image(x) == x


def test_swap_family_invariants_p13():
    X, base = _sl2_base(13)
    fam = build_swap_family(base)
    assert Fraction(1, 7) <= fam.b_density <= Fraction(1, 6)
    assert fam.a_density >= fam.b_density * (1 - fam.b_density) >= Fraction(5, 42)
    # theta only swaps A with gA: it is an involution supported on their union
    assert compose(fam.t_image, fam.t_image).is_identity()
    moved = {x for x in range(X.order) if fam.t_image(x) != x}
    assert moved == set(fam.A) | {X.mul(fam.g, x) for x in fam.A}


# SL2(Z/5) with Λ sent to [[0,1],[4,3]] (order 10): C·C⁻¹ holds exactly one
# involution other than e, which has no partner u⁻¹ ≠ u.  At |C| = 3 its term
# is 0 at the argmin; at |C| = 6 counting it twice would move g.
_INVOLUTION_CARRIER = (5, ((1, 1, 0, 1), (1, 0, 1, 1)), (0, 1, 4, 3))
_INVOLUTION_WINDOWS = [
    (Fraction(1, 4), Fraction(1, 3)),
    (Fraction(3, 5), Fraction(2, 3)),
]


@pytest.mark.parametrize(
    "carrier, window",
    [((p,), DEFAULT_WINDOW) for p in (7, 13, 19)]
    + [(_INVOLUTION_CARRIER, w) for w in _INVOLUTION_WINDOWS],
)
def test_swap_family_matches_brute_force(carrier, window):
    X, base = _sl2_base(*carrier)
    fam = build_swap_family(base, window=window)
    B = fam.B
    # reference: counts[g] = |B ∩ g⁻¹B| from all |B|² quotients y·x⁻¹
    counts = np.bincount(
        X.mul_many(B[:, None], X.inv_many(B)[None, :]).ravel(), minlength=X.order
    )
    got = _swap_counts(X, fam.T, fam.Q, fam.C, B)
    assert got.dtype == np.int64 and np.array_equal(got, counts)
    assert fam.g == int(np.argmin(counts))
    assert len(fam.A) == len(fam.B) - int(counts.min())
    # the coset table T[j, z] = z·q_j, q(Λ) in closure order: Z is its row 0,
    # C the |C| least elements of q(Λ) and B the union of T's C rows
    assert fam.Q.tolist() == base.q.image.tolist() and fam.Q[0] == X.identity_index
    assert fam.T.shape == (len(fam.Q), len(fam.Z)) and np.array_equal(fam.Z, fam.T[0])
    for j, h in enumerate(fam.Q.tolist()):
        assert fam.T[j].tolist() == [X.mul(z, h) for z in fam.Z.tolist()]
    assert fam.C.tolist() == sorted(fam.Q.tolist())[: len(fam.C)]
    rows = [fam.Q.tolist().index(c) for c in fam.C.tolist()]
    assert B.tolist() == sorted(fam.T[rows].ravel().tolist())


@pytest.mark.parametrize("p", [7, 13, 19])
def test_two_generator_q_builds_the_same_family(p):
    # Λ = ℤ² with both generators sent into ⟨u⟩: the rows of T come in BFS
    # order, and the family is the one q = [u] gives
    X, base = _sl2_base(p)
    u = X.index_of(1, 2, 0, 1)
    q2 = MarkedHom(MarkedGroup.free_abelian(2), X, [u, X.mul(u, u)])
    one, two = build_swap_family(base), build_swap_family(build_bitranslation(X, base.p, q2))
    for name in ("Z", "C", "B", "A"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name
    assert one.g == two.g


@pytest.mark.parametrize("p", [5, 7, 13, 19, 43])
def test_flagship_pass_runs_no_bfs_level(spread_levels, p):
    # p is onto by SL2's generation record, q's image is one cyclic closure,
    # and p = 5 stops at the window (WindowEmptyError) after both
    if p == 5:
        with pytest.raises(WindowEmptyError):
            flagship_family(p)
    else:
        flagship_family(p)
    assert spread_levels == []


@pytest.mark.parametrize("p", [2, 4])
def test_flagship_family_needs_surjective_p(p):
    # the Sanov pair [[1,2],[0,1]], [[1,0],[2,1]] is trivial mod 2 and spans a proper subgroup mod 4
    with pytest.raises(NotSurjectiveError, match=rf"onto the carrier group sl2\({p}\)$"):
        flagship_family(p)


@pytest.mark.parametrize("p", [7, 13, 19])
def test_stabilizer_of_b_is_the_diagonal_torus(p):
    X, base = _sl2_base(p)
    fam = build_swap_family(base)
    K = _stabilizer(X, fam.Z, _coset_weights(X, fam.T, fam.Q, fam.C), len(fam.C))
    torus = sorted(X.index_of(lam, 0, 0, pow(lam, -1, p)) for lam in range(1, p))
    assert K.tolist() == torus
    b_mask = np.zeros(X.order, dtype=bool)
    b_mask[fam.B] = True
    for k in torus:  # kB = B, checked directly
        assert b_mask[X.mul_many(np.int64(k), np.asarray(fam.B))].all()


def _labeller_cases():
    """(X, K, |K|, generator count): the cyclic torus at p = 7, the trivial K of
    the involution carrier, and the quaternion group Q₈ ≤ SL2(Z/5), which
    no element of order 8 generates."""
    X = sl2_mod(7)
    yield X, np.array(sorted(X.index_of(lam, 0, 0, pow(lam, -1, 7)) for lam in range(1, 7))), 6, 1
    X, base = _sl2_base(*_INVOLUTION_CARRIER)
    fam = build_swap_family(base, window=_INVOLUTION_WINDOWS[0])
    yield X, _stabilizer(X, fam.Z, _coset_weights(X, fam.T, fam.Q, fam.C), len(fam.C)), 1, 1
    X = sl2_mod(5)
    i = X.index_of(0, 4, 1, 0)
    order4 = [x for x in range(X.order) if X.element_order(x) == 4]
    Q8 = next(Q for Q in (np.sort(X.closure([i, j])) for j in order4) if len(Q) == 8)
    yield X, Q8, 8, 2


@pytest.mark.parametrize("X, K, size, gen_count", list(_labeller_cases()), ids=["torus7", "trivial5", "quaternion5"])
def test_double_coset_labels_match_brute_force(X, K, size, gen_count):
    gens, label = _double_coset_labels(X, K)
    assert len(K) == size and len(gens) == gen_count and set(gens) <= set(K.tolist())
    x = np.arange(X.order)
    # least k₁·y·k₂ over k₁, k₂ ∈ K and y ∈ {x, x⁻¹}
    sides = [X.mul_many(X.mul_many(K[:, None, None], y[None, None, :]), K[None, :, None]) for y in (x, X.inv_many(x))]
    want = np.minimum(*(side.min(axis=(0, 1)) for side in sides))
    assert np.array_equal(label, want)
    if len(K) == 1:
        assert np.array_equal(label, np.minimum(x, X.inv_many(x)))


@pytest.mark.parametrize(
    "window, c_size, diff_size, g, a_size",
    [(_INVOLUTION_WINDOWS[0], 3, 6, 30, 32), (_INVOLUTION_WINDOWS[1], 6, 10, 95, 48)],
)
def test_swap_family_unpaired_involution(window, c_size, diff_size, g, a_size):
    X, base = _sl2_base(*_INVOLUTION_CARRIER)
    fam = build_swap_family(base, window=window)
    C = np.asarray(fam.C, dtype=np.int64)
    diffs = np.unique(X.mul_many(C[:, None], X.inv_many(C)[None, :]))
    e = X.identity_index
    involutions = [u for u in diffs.tolist() if u != e and X.mul(u, u) == e]
    assert (len(fam.C), diffs.size, len(involutions)) == (c_size, diff_size, 1)
    assert (fam.g, len(fam.A)) == (g, a_size)


@pytest.mark.parametrize(
    "p, g, a_size, b_size, max_defect",
    [
        (13, 182, 312, 336, Fraction(48, 91)),
        (19, 361, 960, 1080, Fraction(881, 1710)),
        (43, 1849, 11088, 12936, Fraction(10169, 19866)),
        (47, 2209, 13440, 15456, Fraction(4141, 8648)),
        (53, 2809, 19440, 22464, Fraction(8980, 18603)),
    ],
)
def test_flagship_pinned(p, g, a_size, b_size, max_defect):
    inst = flagship_family(p)
    fam = inst.family
    assert (fam.g, len(fam.A), len(fam.B)) == (g, a_size, b_size)
    assert inst.report.max_commutator_defect == max_defect


@pytest.mark.parametrize("p", [7, 13, 19, 43])
def test_commutator_curve_matches_direct(p):
    # the defects by R_h, composition and Hamming distance, with no coset coordinates
    inst = flagship_family(p)
    base, theta = inst.family.base, inst.family.t_image
    direct = {}
    for h in np.sort(base.q.image):
        rho = base.X.right_perm(base.X.inv(h))
        direct[h] = hamming(compose(theta, rho), compose(rho, theta))
    assert len(direct) == p
    assert inst.report.commutator_curve == direct
    assert list(inst.report.commutator_curve) == np.sort(base.q.image).tolist()


def test_q_image_is_closed_once(monkeypatch):
    # MarkedHom keeps q's image in closure order, and the swap family and the
    # commutator curve read it instead of closing u again
    X, base = _sl2_base(13)
    q, u = base.q, base.q.gen_images[0]
    assert q.image.dtype == np.int64
    assert len(q.image) == 13 and q.image[:3].tolist() == [X.identity_index, u, X.mul(u, u)]
    assert base.p.surjective and base.p.image is None  # |X| entries are not kept
    seeds = []
    closure = FinGroup.closure
    monkeypatch.setattr(FinGroup, "closure", lambda G, seed: seeds.append(seed) or closure(G, seed))
    report = defect_report(build_swap_family(base))
    # the transversal's generator comes off its column and K, the cyclic
    # torus, is labelled along one generator: no closure at all
    assert seeds == []
    assert list(report.commutator_curve) == np.sort(q.image).tolist()


def test_family_relator_defects():
    X, base = _sl2_base(7)
    report = defect_report(build_swap_family(base))
    q_gen = X.index_of(1, 2, 0, 1)
    assert list(report.relator_defects) == [(1, 4, -1, -4), (2, 4, -2, -4), (3, 4, -3, -4)]
    for rel, d in report.relator_defects.items():
        if abs(rel[0]) == 3:  # [t, lambda]: exactly the commutator curve at q(1)
            assert d == report.commutator_curve[q_gen]
        else:  # [gamma_i, lambda]: translations commute exactly
            assert d == 0
    assert report.max_commutator_defect == max(report.commutator_curve.values())


@pytest.mark.parametrize("p", [7, 13, 19])
def test_report_matches_evaluated_permutations(p):
    # the report reads relators and the sofic profile off the curve and |A|;
    # forming and composing the permutations gives the same fractions
    inst = flagship_family(p)
    relators, sofic = _evaluated_report(inst.family)
    assert inst.report.relator_defects == relators
    assert inst.report.sofic_profile == sofic
    assert sofic[3] == Fraction(2 * len(inst.family.A), inst.X.order)
    assert [sofic[i] for i in (1, 2, 4)] == [1, 1, 1]


@pytest.mark.parametrize(
    "p, defect",
    [
        (7, Fraction(11, 21)),
        (13, Fraction(95, 182)),
        (19, Fraction(11, 30)),
        (43, Fraction(3343, 19866)),
        (47, Fraction(4027, 25944)),
        (53, Fraction(5149, 37206)),
    ],
)
def test_t_u_relator_defect_pinned(p, defect):
    inst = flagship_family(p)
    assert inst.report.relator_defects[(3, 4, -3, -4)] == defect
    assert inst.report.commutator_curve[inst.X.index_of(1, 2, 0, 1)] == defect


def test_flagship_forms_no_permutation_of_x(monkeypatch):
    want = flagship_family(13).report

    def refuse(*args, **kwargs):
        raise RuntimeError("the flagship formed or compared a permutation of X")

    modules = [m for k, m in sys.modules.items() if k == "permstab" or k.startswith("permstab.")]
    for name in ("compose", "hamming"):
        original = getattr(perms, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(FinGroup, "left_perm", refuse)
    monkeypatch.setattr(FinGroup, "right_perm", refuse)
    assert perms.hamming is refuse and groups.compose is refuse
    assert flagship_family(13).report == want


def test_commutator_curve_needs_one_generator_image():
    # Λ = ℤ² with both generators sent into ⟨u⟩: the family builds, the coordinate curve refuses
    X, base = _sl2_base(7)
    u = X.index_of(1, 2, 0, 1)
    lam = MarkedGroup.free_abelian(2)
    q_hom = MarkedHom(lam, X, [u, X.mul(u, u)])
    assert np.sort(q_hom.image).tolist() == np.sort(base.q.image).tolist()
    fam = build_swap_family(build_bitranslation(X, base.p, q_hom))
    with pytest.raises(ConfigError, match=r"needs one generator image \(Λ = ℤ\); q has 2"):
        defect_report(fam)


def test_flagship_primes():
    inst = flagship_family(7)
    assert inst.report.max_commutator_defect == Fraction(11, 21)
    assert inst.floor == Fraction(11, 42)
    assert inst.report.max_commutator_defect >= Fraction(1, 126)
    assert max(inst.report.relator_defects.values()) == inst.report.max_commutator_defect


def test_flagship_window_empty_primes():
    for p in (5, 11, 17):
        with pytest.raises(WindowEmptyError):
            flagship_family(p)


def test_commuting_distance_floor_vs_samples():
    inst = flagship_family(7)
    X = inst.X
    floor = inst.floor  # half the commutator curve's maximum
    assert floor > 0
    # every left translation commutes with all right translations exactly
    theta = inst.family.t_image
    for x in [X.identity_index, 1, 17, X.generators[0]]:
        psi = X.left_perm(x)
        for h in np.sort(inst.family.base.q.image):
            rho = X.right_perm(X.inv(h))
            assert compose(psi, rho) == compose(rho, psi)
        assert hamming(theta, psi) >= floor
