"""Rounding algorithms: right translations, conjugacies, commuting extensions,
and the full pipeline, cross-checked against brute-force minima."""

import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstab import groups, rounding
from permstab.errors import CertificateError, OutOfRegimeError
from permstab.groups import (
    PermAction,
    _orbits,
    cyclic,
    direct_product,
    group_from_perm_generators,
    left_regular,
    sl2_mod,
)
from permstab.perms import Perm, compose, hamming, identity
from permstab.rounding import (
    _complete_to_perms,
    _measure_epsilon,
    _nearest_right_translations,
    commuting_extension,
    extract_conjugacy,
    nearest_right_translation,
    rigidity_pipeline,
)

from perm_builders import from_cycles, swap


def _beta(G, h):
    return G.right_perm(G.inv(h))


def _embed(p, y_size):
    image = np.arange(y_size, dtype=np.int64)
    image[: p.n] = p.image
    return Perm(image)


def _z2k(k):
    G = cyclic(2)
    for _ in range(k - 1):
        G = direct_product(G, cyclic(2))
    return G


# -- nearest right translation ------------------------------------------------


def test_nearest_translation_exact():
    G = cyclic(12)
    for h in (0, 3, 7):
        got, dist = nearest_right_translation(G, [1], _beta(G, h))
        assert got == h and dist == 0


def test_nearest_translation_perturbed():
    G = cyclic(12)
    phi = compose(swap(12, 0, 1), _beta(G, 3))
    h, dist = nearest_right_translation(G, [1], phi)
    assert h == 3 and dist == Fraction(2, 12)


def _identity_then_cycle(n, a):
    # identity on [0, a), one (n - a)-cycle on [a, n): defect 3/n on Z/n with S = [1]
    image = np.arange(n)
    image[a:] = a + (np.arange(n - a) + 1) % (n - a)
    return Perm(image)


def test_nearest_translation_bound_trips():
    # κ = 2 lies above κ(Z/20, {1}) = 2 sin(π/20); distance 1/2 against defect 3/20
    with pytest.raises(CertificateError, match="right-translation bound"):
        nearest_right_translation(cyclic(20), [1], _identity_then_cycle(20, 10), kappa_lower=2.0)


def test_nearest_translation_bound_is_exact():
    # κ²·dist = 4·defect exactly at κ = 1 (12/25 against 3/25); no slack above it
    G, phi = cyclic(25), _identity_then_cycle(25, 13)
    assert nearest_right_translation(G, [1], phi, kappa_lower=1.0) == (0, Fraction(12, 25))
    with pytest.raises(CertificateError):
        nearest_right_translation(G, [1], phi, kappa_lower=math.nextafter(1.0, 2.0))


def test_nearest_translation_bound_trips_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import numpy as np\n"
        "from permstab.errors import CertificateError\n"
        "from permstab.groups import cyclic\n"
        "from permstab.perms import Perm\n"
        "from permstab.rounding import nearest_right_translation\n"
        "image = np.arange(20)\n"
        "image[10:] = 10 + (np.arange(10) + 1) % 10\n"
        "try:\n"
        "    nearest_right_translation(cyclic(20), [1], Perm(image), kappa_lower=2.0)\n"
        "except CertificateError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-O", "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("kappa", [0.0, -1.0, 2.5, 50.0, float("nan")])
def test_kappa_lower_out_of_range(kappa):
    G = cyclic(8)
    with pytest.raises(ValueError, match="kappa_lower"):
        nearest_right_translation(G, [1], _beta(G, 3), kappa_lower=kappa)
    with pytest.raises(ValueError, match="kappa_lower"):
        rigidity_pipeline(G, [1], 10, [_embed(_beta(G, 3), 10)], kappa_lower=kappa)


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 14), st.integers(0, 1000))
def test_nearest_translation_vs_bruteforce(n, seed):
    G = cyclic(n)
    rng = np.random.default_rng(seed)
    h0 = int(rng.integers(0, n))
    phi = _beta(G, h0)
    if n >= 7:  # small perturbation keeps the defect in range
        a, b = rng.choice(n, size=2, replace=False)
        phi = compose(swap(n, int(a), int(b)), phi)
    h, dist = nearest_right_translation(G, [1], phi)
    brute = min(hamming(phi, _beta(G, x)) for x in range(G.order))
    assert dist >= brute
    # the certified bound holds with the exact abelian kappa
    kappa = 2 * np.sin(np.pi / n)
    defect = hamming(compose(G.left_perm(1), phi), compose(phi, G.left_perm(1)))
    assert kappa**2 * float(dist) <= 4 * float(defect) + 1e-9


def test_nearest_translation_nonabelian():
    X = sl2_mod(3)
    phi = _beta(X, 5)
    h, dist = nearest_right_translation(X, list(X.generators), phi)
    assert h == 5 and dist == 0


def _nearest_right_translation_loop(G, S, phi):
    # reference: one permutation at a time, the g-rows of G in one block
    n = G.order
    idx = np.arange(n)
    gx = G.mul_many(idx[:, None], idx[None, :])
    mismatch = phi[gx] != G.mul_many(idx[:, None], phi[None, :])
    cost = mismatch.sum(axis=0)
    x_star = int(np.argmin(cost))
    h = G.mul(G.inv(int(phi[x_star])), x_star)
    dist = int((phi != G.right_perm(G.inv(h)).image).sum())
    minimizers = np.flatnonzero(cost == cost.min())
    tied_hs = {G.mul(G.inv(int(phi[x])), int(x)) for x in minimizers}
    return h, dist, int(mismatch.sum(axis=1)[list(S)].max()), len(tied_hs) > 1


def _last_kappa(dist, defect):
    """The largest float κ with κ²·dist <= 4·defect, exactly."""
    def ok(k):
        return Fraction(k) ** 2 * dist <= 4 * defect

    k = math.sqrt(4 * defect / dist)
    while not ok(k):
        k = math.nextafter(k, 0.0)
    while ok(math.nextafter(k, math.inf)):
        k = math.nextafter(k, math.inf)
    return k


@pytest.mark.parametrize("case", ["cyclic", "z2^4", "sl2(3)", "cyclic-chunked", "cyclic-wide-s"])
def test_batched_scan_matches_loop(case):
    G, S, m = {
        "cyclic": (cyclic(15), [1], 40),
        "z2^4": (_z2k(4), list(range(1, 16)), 40),
        "sl2(3)": (sl2_mod(3), None, 40),
        "cyclic-chunked": (cyclic(300), [1, 7], 6),  # several g-chunks and row chunks
        # |S|·n > CHUNK_ENTRIES; the one odd g, 199, falls in the second S-chunk
        "cyclic-wide-s": (cyclic(300), list(range(2, 201, 2)) + [199], 6),
    }[case]
    S = S if S is not None else list(G.generators)
    rng = np.random.default_rng(7)
    n = G.order
    phis = np.empty((m, n), dtype=np.int64)
    for i in range(m):  # right translations carrying 0 to 3 random swaps, or random rows
        phis[i] = G.right_perm(int(rng.integers(n))).image
        if i % 5 == 4:
            phis[i] = rng.permutation(n)
        for _ in range(i % 4):
            a, b = rng.choice(n, size=2, replace=False)
            phis[i, [a, b]] = phis[i, [b, a]]
    if case.startswith("cyclic-"):  # x ↦ x on even x, x + 2 on odd: even and odd x* tie
        x = np.arange(n)
        phis[-1] = np.where(x % 2, (x + 2) % n, x)
    kappa = 1e-3  # low enough that the certificate holds on every row
    h, dist, beta = _nearest_right_translations(G, S, phis, kappa)
    ties = 0
    for i in range(m):
        ref_h, ref_dist, ref_defect, tied = _nearest_right_translation_loop(G, S, phis[i])
        assert (int(h[i]), int(dist[i])) == (ref_h, ref_dist)
        assert np.array_equal(beta[i], G.right_perm(G.inv(ref_h)).image)
        assert kappa**2 * ref_dist <= 4 * ref_defect
        if ref_dist:  # the certificate holds at the last κ that ref_defect allows, and fails above
            k = _last_kappa(ref_dist, ref_defect)
            _nearest_right_translations(G, S, phis[i : i + 1], k)
            with pytest.raises(CertificateError, match="right-translation bound"):
                _nearest_right_translations(G, S, phis[i : i + 1], math.nextafter(k, math.inf))
        ties += tied
    assert ties > 0  # some row has minimizers with different h: the smallest x decides


def _complete_to_perm_loop(k_row, n_x):
    # reference: the outside points in increasing order take the unused targets in order
    image = [int(v) if v < n_x else None for v in k_row[:n_x]]
    free = iter(sorted(set(range(n_x)) - {v for v in image if v is not None}))
    return [v if v is not None else next(free) for v in image]


def test_complete_to_perms_matches_loop():
    n_x, y_size = 7, 16
    rng = np.random.default_rng(3)
    rows = [np.arange(y_size), np.roll(np.arange(y_size), -n_x)]  # none / every point outside
    rows += [rng.permutation(y_size) for _ in range(30)]
    rows = np.stack(rows)
    assert (rows[0, :n_x] < n_x).all() and (rows[1, :n_x] >= n_x).all()
    got = _complete_to_perms(rows, n_x)
    for row, out in zip(rows, got):
        assert out.tolist() == _complete_to_perm_loop(row, n_x)
        assert sorted(out.tolist()) == list(range(n_x))


# -- conjugacy extraction ------------------------------------------------------


def test_extract_conjugacy_identical_actions():
    K = cyclic(6)
    act = left_regular(K)
    res = extract_conjugacy(K, act, list(act.perms))
    assert res.epsilon == 0 and res.set_loss == 0 and res.displacement == 0
    assert res.X1 == list(range(6))
    assert all(int(res.phi.entries[x]) == x for x in res.X1)


@settings(max_examples=40, deadline=None)
@given(st.integers(6, 24), st.integers(0, 2000))
def test_extract_conjugacy_property(n, seed):
    # alpha2 = tau alpha1 tau^{-1} for a transposition tau: a genuine action
    # pointwise close to alpha1
    K = cyclic(n)
    act = left_regular(K)
    rng = np.random.default_rng(seed)
    a, b = rng.choice(n, size=2, replace=False)
    tau = swap(n, int(a), int(b))
    conj = [compose(tau, compose(p, tau)) for p in act.perms]  # tau = tau^{-1}
    res = extract_conjugacy(K, list(act.perms), conj)
    assert Fraction(res.set_loss) <= 16 * res.epsilon * n
    assert Fraction(res.displacement) <= 16 * res.epsilon * n
    # the averaged matching matrix V[x1, x2] = |{k : α₁(k)x1 = α₂(k)x2}| / |K| is doubly stochastic
    match = np.zeros((n, n), dtype=np.int64)
    for k in range(K.order):
        for x in range(n):
            match[x, conj[k].image.tolist().index(act.rows[k, x])] += 1
    assert (match.sum(axis=1) == K.order).all() and (match.sum(axis=0) == K.order).all()
    # exact equivariance on X1
    x1 = set(res.X1)
    for k in range(K.order):
        for x in res.X1:
            kx = act.rows[k, x]
            assert kx in x1
            assert int(res.phi.entries[kx]) == conj[k](int(res.phi.entries[x]))
    # transitive + small defect: nothing is lost
    if res.epsilon < Fraction(1, 16):
        assert res.set_loss == 0


# -- commuting extension -------------------------------------------------------


def test_commuting_extension_exact_input():
    G = cyclic(6)
    act = left_regular(G)
    phi = _beta(G, 2)  # already commutes with all left translations
    psi, dist = commuting_extension(G, act, phi)
    assert dist == 0 and psi == phi


def test_commuting_extension_vs_centralizer_bruteforce():
    # for the regular action the exact commutant is the right translations
    G = cyclic(6)
    act = left_regular(G)
    phi = compose(swap(6, 0, 1), _beta(G, 2))
    psi, dist = commuting_extension(G, act, phi)
    for p in act.perms:
        assert compose(psi, p) == compose(p, psi)
    brute = min(hamming(phi, _beta(G, h)) for h in range(G.order))
    assert brute <= dist
    eps = max(
        hamming(compose(p, phi), compose(phi, p)) for p in act.perms
    )
    assert dist <= 32 * eps


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 12), st.integers(0, 1000))
def test_commuting_extension_property(n, seed):
    G = cyclic(n)
    act = left_regular(G)
    rng = np.random.default_rng(seed)
    a, b = rng.choice(n, size=2, replace=False)
    phi = compose(swap(n, int(a), int(b)), _beta(G, int(rng.integers(0, n))))
    psi, dist = commuting_extension(G, act, phi)
    eps = max(hamming(compose(p, phi), compose(phi, p)) for p in act.perms)
    assert dist <= 32 * eps
    for p in act.perms:
        assert compose(psi, p) == compose(p, psi)


def test_commuting_extension_nonregular_action():
    # two 3-orbits of cyclic(3) on six points; phi swapping the orbits commutes
    G = cyclic(3)
    act = PermAction(G, np.stack([identity(6).image, from_cycles(6, [(0, 1, 2), (3, 4, 5)]).image,
                                  from_cycles(6, [(0, 2, 1), (3, 5, 4)]).image]))
    phi = from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    psi, dist = commuting_extension(G, act, phi)
    assert dist == 0 and psi == phi


def _canonical_subgroup_key_loop(G, H):
    """Reference: the least conjugate c·H·c⁻¹ over every c ∈ G, as a sorted tuple."""
    return min(tuple(sorted(G.mul(G.mul(c, h), G.inv(c)) for h in H)) for c in range(G.order))


def _stabilizer_loop(action, point):
    return [g for g in range(action.group.order) if action.rows[g, point] == point]


def _conjugator_loop(action, a1, a2):
    """Reference: the least c with c·Stab(a1)·c⁻¹ = Stab(a2), None when there is none."""
    G = action.group
    h1, h2 = _stabilizer_loop(action, a1), _stabilizer_loop(action, a2)
    for c in range(G.order):
        if sorted(G.mul(G.mul(c, h), G.inv(c)) for h in h1) == h2:
            return c
    return None


def _coset_action_rows(G, H_gens):
    """Image rows of G's left multiplication on the left cosets of <H_gens>."""
    idx = np.arange(G.order)
    H = np.asarray(G.closure(sorted(set(H_gens) | {G.inv(h) for h in H_gens})))
    _, coset = np.unique(G.mul_many(idx[:, None], H[None, :]).min(axis=1), return_inverse=True)
    rows = np.empty((G.order, coset.max() + 1), dtype=np.int64)
    rows[:, coset] = coset[G.mul_many(idx[:, None], idx[None, :])]  # g·xH = (g·x)H
    return rows


def _mixed_actions():
    """Disjoint unions of coset actions with several orbit types, some repeated."""
    sym4 = group_from_perm_generators([from_cycles(4, [(0, 1, 2, 3)]), swap(4, 0, 1)])
    element = {tuple(sym4.rows[g]): g for g in range(sym4.order)}

    def s4(*cycles):
        return element[tuple(from_cycles(4, cycles).image)]

    natural = [s4((1, 2, 3)), s4((1, 2))]  # Stab(0) = Sym({1, 2, 3})
    pairs = [s4((0, 1)), s4((2, 3))]  # Stab({0, 1}) has order 4
    sign = [s4((0, 1, 2)), s4((0, 1), (2, 3))]  # A4
    z4 = [s4((0, 1, 2, 3))]  # order 4 too, but not conjugate to Stab({0, 1})
    sl2 = sl2_mod(3)
    minus = sl2.index_of(2, 0, 0, 2)
    upper = sl2.index_of(1, 1, 0, 1)
    cases = {  # [] is the regular action
        "sym4": (sym4, [natural, pairs, sign, [], natural, z4, pairs, sign]),
        "sl2_3": (sl2, [[minus], [upper], [], [upper], [minus, upper], [minus]]),
    }
    out = {}
    for name, (G, subgroups) in cases.items():
        blocks, at = [], 0
        for H in subgroups:
            rows = _coset_action_rows(G, H)
            blocks.append(rows + at)
            at += rows.shape[1]
        out[name] = PermAction(G, np.hstack(blocks))
        out[name].verify()
    return out


def _orbits_by_type(action):
    """Orbits grouped by their reference key, each orbit as an array of its points."""
    by_type = {}
    for o in _orbits(action):
        key = _canonical_subgroup_key_loop(action.group, _stabilizer_loop(action, o[0]))
        by_type.setdefault(key, []).append(np.asarray(o))
    return by_type


@pytest.mark.parametrize("name", ["sym4", "sl2_3"])
def test_commuting_extension_orbit_types_match_scalar_reference(name, monkeypatch):
    # every orbit key and conjugator commuting_extension uses equals the scalar
    # loops over G, for φ that sends each orbit onto a same-type orbit,
    # equivariantly or scrambled
    act = _mixed_actions()[name]
    G, n = act.group, act.points
    orbit_type, conjugator = rounding._orbit_type, rounding._conjugator
    keys, conjugators = [], []

    def record_type(fixes, orbit):
        keys.append((orbit, orbit_type(fixes, orbit)))
        return keys[-1][1]

    def record_conjugator(action, fixes, o1, a2):
        conjugators.append((o1[0], a2, conjugator(action, fixes, o1, a2)))
        return conjugators[-1][2]

    monkeypatch.setattr(rounding, "_orbit_type", record_type)
    monkeypatch.setattr(rounding, "_conjugator", record_conjugator)
    rng = np.random.default_rng(len(name))
    for _ in range(12):
        phi = np.arange(n)
        for same_type in _orbits_by_type(act).values():
            for i, src in zip(rng.permutation(len(same_type)), same_type):
                dst = same_type[i]
                phi[src] = rng.permutation(dst) if rng.random() < 0.5 else dst
        commuting_extension(G, act, Perm(phi))
    assert keys and any(a1 != a2 for a1, a2, _ in conjugators)
    for orbit, key in keys:
        assert key == _canonical_subgroup_key_loop(G, _stabilizer_loop(act, orbit[0]))
    for a1, a2, c in conjugators:
        assert c == _conjugator_loop(act, a1, a2)


# -- full pipeline ---------------------------------------------------------------


def test_pipeline_exact_instance():
    G = cyclic(8)
    y_size = 10
    k_gens = [_embed(_beta(G, 3), y_size)]
    res = rigidity_pipeline(G, [1], y_size, k_gens)
    assert res.epsilon == 0
    assert res.set_loss == 0 and res.displacement == 0
    assert res.X1 == list(range(8)) and res.X2 == list(range(8))
    # K0 = <beta(3)> has order 8 and delta recovers every translation amount
    res.delta.verify()
    assert len(res.K0) == 8
    assert sorted(int(v) for v in res.delta.image) == list(range(8))


def test_pipeline_in_regime_perturbed():
    # kappa = 2 for (Z/2)^6 with all non-identity generators, so the regime
    # boundary kappa^4/200 = 0.08 admits the measured defect 3/64
    G = _z2k(6)
    S = list(range(1, G.order))
    y_size = G.order + 4
    tau = swap(y_size, G.order - 1, G.order)
    k_gens = [
        compose(tau, compose(_embed(_beta(G, g), y_size), tau))
        for g in G.generators
    ]
    res = rigidity_pipeline(G, S, y_size, k_gens, kappa_lower=2.0)
    assert res.epsilon == Fraction(3, 64)
    assert res.set_loss < res.bound_set_loss
    assert res.displacement <= res.bound_displacement
    res.delta.verify()
    data = res.to_json()
    assert data["epsilon"] == "3/64" and data["K0_size"] == len(res.K0)


def test_pipeline_out_of_regime():
    G = _z2k(4)
    S = list(range(1, G.order))
    y_size = G.order + 4
    tau = swap(y_size, G.order - 1, G.order)
    k_gens = [
        compose(tau, compose(_embed(_beta(G, g), y_size), tau))
        for g in G.generators
    ]
    with pytest.raises(OutOfRegimeError):
        rigidity_pipeline(G, S, y_size, k_gens, kappa_lower=2.0)


def test_pipeline_input_validation():
    G = cyclic(4)
    with pytest.raises(ValueError):
        rigidity_pipeline(G, [1], 2, [identity(2)])  # Y smaller than X
    with pytest.raises(ValueError):
        rigidity_pipeline(G, [1], 6, [identity(5)])  # wrong point count


def test_pipeline_closes_permutation_generators_once(monkeypatch):
    # K₀'s rows come from K's closure: the invariant rounding builds no second one
    calls = []
    closure = groups.group_from_perm_generators

    def counted(gens):
        calls.append(len(gens))
        return closure(gens)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("permstab") and hasattr(module, "group_from_perm_generators"):
            monkeypatch.setattr(module, "group_from_perm_generators", counted)
    G = _z2k(6)
    y_size = G.order + 4
    tau = swap(y_size, G.order - 1, G.order)
    k_gens = [compose(tau, compose(_embed(_beta(G, g), y_size), tau)) for g in G.generators]
    res = rigidity_pipeline(G, list(range(1, G.order)), y_size, k_gens, kappa_lower=2.0)
    assert len(res.K0) > 1 and calls == [len(k_gens)]


def _measure_epsilon_loop(G, S, K, n_x):
    # reference: one (k, g) pair at a time
    worst = 0
    for ki in range(K.order):
        k = K.rows[ki]
        for g in S:
            bad = sum(
                1 for x in range(n_x)
                if k[x] < n_x and G.mul(g, int(k[x])) != k[G.mul(g, x)]
            )
            worst = max(worst, bad)
    return Fraction(worst, n_x)


@pytest.mark.parametrize("y_extra, moved", [(4, 1), (3, 5), (2, 0)])
def test_measure_epsilon_matches_loop(y_extra, moved):
    G = _z2k(4)
    S = list(range(1, G.order))
    y_size = G.order + y_extra
    tau = swap(y_size, G.order - 1 - moved, G.order)
    k_gens = [
        compose(tau, compose(_embed(_beta(G, g), y_size), tau)) for g in G.generators
    ]
    K = group_from_perm_generators(k_gens)
    assert _measure_epsilon(G, S, K, G.order) == _measure_epsilon_loop(G, S, K, G.order)
    C = cyclic(9)
    rng = np.random.default_rng(moved)
    k_gens = [_embed(compose(_beta(C, 2), Perm(rng.permutation(9))), 9 + y_extra)]
    K = group_from_perm_generators(k_gens)
    for S in ([1], [1, 4, 4]):
        assert _measure_epsilon(C, S, K, 9) == _measure_epsilon_loop(C, S, K, 9)


@pytest.mark.parametrize("case", ["cyclic-wide-s", "cyclic-many-k"])
def test_measure_epsilon_chunks_match_loop(case):
    # K conjugates a right translation of ℤ/200 by the swap of X's last point
    # with Y's first point outside X, so kx ∉ X for some x
    G, h, S = {
        "cyclic-wide-s": (cyclic(200), 50, list(range(1, 200))),  # |S|·|X| > CHUNK_ENTRIES
        "cyclic-many-k": (cyclic(200), 1, [1, 3]),  # |K|·|X| > CHUNK_ENTRIES
    }[case]
    y_size = G.order + 4
    tau = swap(y_size, G.order - 1, G.order)
    K = group_from_perm_generators([compose(tau, compose(_embed(_beta(G, h), y_size), tau))])
    assert (K.rows[:, : G.order] >= G.order).any()
    eps = _measure_epsilon(G, S, K, G.order)  # first, so that lazy imports are not traced
    assert eps == _measure_epsilon_loop(G, S, K, G.order) > 0
    tracemalloc.start()
    try:
        _measure_epsilon(G, S, K, G.order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every temporary stays within CHUNK_ENTRIES int64 entries, a few at a time
    assert peak <= 6 * 8 * groups.CHUNK_ENTRIES


def test_pipeline_proves_each_fact_once(monkeypatch):
    # the actions, δ and K₀'s inverses are certified by what comes before them
    calls = {"PermAction.verify": 0, "GroupHom.verify": 0, "PermGroup.inv_many": 0}
    for cls, name in ((groups.PermAction, "verify"), (groups.GroupHom, "verify"),
                      (groups.PermGroup, "inv_many")):
        def counted(*args, _key=f"{cls.__name__}.{name}", _fn=getattr(cls, name)):
            calls[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(cls, name, counted)
    G = _z2k(6)
    y_size = G.order + 4
    tau = swap(y_size, G.order - 1, G.order)
    k_gens = [compose(tau, compose(_embed(_beta(G, g), y_size), tau)) for g in G.generators]
    res = rigidity_pipeline(G, list(range(1, G.order)), y_size, k_gens, kappa_lower=2.0)
    assert res.set_loss == res.displacement == 1
    assert calls == {"PermAction.verify": 0, "GroupHom.verify": 1, "PermGroup.inv_many": 0}


def _k0_cases():
    G = _z2k(6)  # the perturbed (ℤ/2)⁶ instance: |K₀| = 64 on 6 generators
    y_size = G.order + 4
    tau = swap(y_size, G.order - 1, G.order)
    k_gens = [compose(tau, compose(_embed(_beta(G, g), y_size), tau)) for g in G.generators]
    yield pytest.param(G.order, k_gens, id="z2^6")
    C = cyclic(30)  # one column reaches all 30 positions
    yield pytest.param(30, [_embed(_beta(C, 7), 33)], id="cyclic(30)")
    C = cyclic(66)  # the same, spanned by doubling in ⌈log₂ 66⌉ = 7 rounds
    yield pytest.param(66, [_embed(_beta(C, 5), 70)], id="cyclic(66)")
    # Sym(4) on points 5..8 beside X = ℤ/5, and X's own translations
    sym4 = [_embed(_beta(cyclic(5), 1), 9), from_cycles(9, [(5, 6, 7, 8)]), swap(9, 5, 6)]
    yield pytest.param(5, sym4, id="cyclic(5)xsym(4)")


@pytest.mark.parametrize("n_x, k_gens", list(_k0_cases()))
def test_k0_closes_on_generator_columns(monkeypatch, n_x, k_gens):
    K = group_from_perm_generators(k_gens)
    k0 = np.flatnonzero((K.rows[:, :n_x] < n_x).sum(axis=1) * 2 >= n_x)
    sizes, levels = [], []
    mul_many, unique = groups.PermGroup.mul_many, np.unique
    monkeypatch.setattr(
        groups.PermGroup, "mul_many", lambda G, a, b: sizes.append(np.broadcast(a, b).size) or mul_many(G, a, b)
    )
    monkeypatch.setattr(np, "unique", lambda x: levels.append(x.size) or unique(x))
    gens = K.greedy_generators(k0)
    monkeypatch.undo()
    # |K₀|·|S₀| products, one column of |K₀| per generator, |S₀| <= log₂|K₀|
    assert sizes == [k0.size] * len(gens)
    # the first generator's span comes by doubling: a BFS level only for later ones
    assert (levels == []) == (len(gens) == 1)
    assert len(gens) <= math.log2(k0.size)
    # K₀ as the pipeline builds it, against the numbering and identity of its
    # whole table and the greedy rule run by closures over its elements
    K0 = groups.PermGroup(K.rows[k0], gens, name="K0", proven=True)
    prods = np.searchsorted(k0, K.mul_many(k0[:, None], k0[None, :]))
    table = groups.TableGroup(prods, [], identity_index=int(np.searchsorted(k0, K.identity_index)))
    want, spanned = [], {table.identity_index}
    for h in range(k0.size):
        if h not in spanned:
            want.append(h)
            spanned = set(table.closure(want).tolist())
    assert spanned == set(range(k0.size))
    assert K0.generators == want == K0._generated_by and K0.identity_index == table.identity_index
    idx = np.arange(k0.size)
    assert np.array_equal(K0.mul_many(idx[:, None], idx[None, :]), prods)
    assert np.array_equal(K0.rows, K.rows[k0])


def test_k0_refuses_a_set_that_does_not_close():
    # a swaps X's [0, 7) out and b swaps X's [7, 14) out: both keep half of X,
    # and a·b keeps none of it
    a = Perm(np.r_[14:21, 7:14, 0:7, 21:28])
    b = Perm(np.r_[0:7, 21:28, 14:21, 7:14])
    K = group_from_perm_generators([a, b])
    k0 = np.flatnonzero((K.rows[:, :14] < 14).sum(axis=1) * 2 >= 14)
    assert K.greedy_generators(k0) is None
    assert K.greedy_generators(k0[1:]) is None  # without e
    # κ(ℤ/14, {1}) overstated as 2 lets ε = 1/14 through to the certificate
    with pytest.raises(CertificateError, match="^K₀ failed to close into a subgroup"):
        rigidity_pipeline(cyclic(14), [1], 28, [a, b], kappa_lower=2.0)


def test_pipeline_k_inside_k0_of_order_40320_fits_3gib():
    # K = Sym(8) on the points 17..24 of Y, fixing X = ℤ/17, so K₀ = K; a
    # |K₀|² product table would need 12.1 GiB.  The child runs under an
    # address-space limit of 3 GiB, set on it alone.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "import numpy as np\n"
        "from permstab.groups import cyclic\n"
        "from permstab.perms import Perm\n"
        "from permstab.rounding import rigidity_pipeline\n"
        "cycle, swap = np.arange(32), np.arange(32)\n"
        "cycle[17:25] = np.r_[18:25, 17]\n"
        "swap[[17, 18]] = [18, 17]\n"
        "res = rigidity_pipeline(cyclic(17), [1], 32, [Perm(cycle), Perm(swap)], kappa_lower=2.0)\n"
        "print(len(res.K0), res.intermediates['K_order'], res.epsilon, res.set_loss, res.displacement)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["40320", "40320", "0", "0", "0"]
