"""Acceptance suite: eight criteria, one pass/fail line each.

Each criterion measures its own wall-clock budget and records a single
``[PASS]``/``[FAIL]`` line; the conftest terminal-summary hook prints the
lines at the end of the run.  Nothing here relaxes a bound to make a
criterion pass.
"""

import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from permstab.errors import WindowEmptyError
from permstab.experiment import ExperimentConfig, run_experiment
from permstab.families import flagship_family
from permstab.groups import (
    MarkedGroup,
    MarkedMap,
    cyclic,
    direct_product,
    left_regular,
    sl2_mod,
)
from permstab.oracle import nearest_homomorphism_bruteforce
from permstab.perms import Perm, compose, hamming, identity
from permstab.rounding import (
    commuting_extension,
    extract_conjugacy,
    nearest_right_translation,
    rigidity_pipeline,
)
from permstab.spectral import kazhdan_abelian_exact, kazhdan_bracket

from perm_builders import swap


CRITERION_LINES = []


def _criterion(num: int, desc: str, budget: float, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        CRITERION_LINES.append(f"[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        CRITERION_LINES.append(
            f"[FAIL] criterion {num}: {desc} (took {elapsed:.2f}s, budget {budget}s)"
        )
        pytest.fail(f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s")
    CRITERION_LINES.append(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s)")


# -- 1: exact abelian Kazhdan values and bracket containment -------------------


def test_criterion_1_kazhdan_exactness():
    def body():
        for n in range(2, 25):
            exact = kazhdan_abelian_exact(cyclic(n), [1])
            assert abs(exact.lower - 2 * math.sin(math.pi / n)) < 1e-9
            br = kazhdan_bracket(cyclic(n), [1])
            assert br.lower <= exact.lower <= br.upper

    _criterion(1, "kazhdan exact grid n=2..24 + bracket containment", 1.0, body)


# -- 2: group enumeration -------------------------------------------------------


def test_criterion_2_group_enumeration():
    def body():
        for p in (2, 3, 5, 7, 11, 13):
            X = sl2_mod(p)
            assert X.order == p * (p * p - 1)
            if p > 2:
                a = X.index_of(1, 2, 0, 1)
                b = X.index_of(1, 0, 2, 1)
                assert len(X.closure(sorted({a, b, X.inv(a), X.inv(b)}))) == X.order

    _criterion(2, "SL2(Z/p) orders and canonical generators", 5.0, body)


# -- 3: flagship swap families ---------------------------------------------------


def test_criterion_3_flagship_families():
    def body():
        for p in (7, 13, 19, 43):
            inst = flagship_family(p)
            fam = inst.family
            assert Fraction(1, 7) <= fam.b_density <= Fraction(1, 6)
            assert fam.a_density >= Fraction(5, 42)
            assert inst.report.max_commutator_defect >= Fraction(1, 126)
            # closed form vs direct composition, re-verified here for every h
            X = inst.X
            theta = fam.t_image
            for h, d in inst.report.commutator_curve.items():
                rho = X.right_perm(X.inv(h))
                assert d == hamming(compose(theta, rho), compose(rho, theta))

    _criterion(3, "flagship p in {7,13,19,43}: densities, >=1/126, closed form", 60.0, body)


# -- 4: window-empty honesty -----------------------------------------------------


def test_criterion_4_window_empty():
    def body():
        for p in (5, 11, 17):
            with pytest.raises(WindowEmptyError):
                flagship_family(p)

    _criterion(4, "p in {5,11,17} raise WindowEmptyError", 1.0, body)


# -- 5: rounding constants, 200 randomized instances per suite -------------------


def _beta(G, h):
    return G.right_perm(G.inv(h))


def _embed(p, y_size):
    image = np.arange(y_size, dtype=np.int64)
    image[: p.n] = p.image
    return Perm(image)


def _perturb(n, rng, count):
    out = identity(n)
    for _ in range(count):
        a, b = rng.choice(n, size=2, replace=False)
        out = compose(swap(n, int(a), int(b)), out)
    return out


def test_criterion_5_rounding_property_suites():
    def body():
        rng = np.random.default_rng(5)
        orders = lambda: int(rng.integers(6, 121))

        # suite A: nearest right translation (constant 4, kappa^2-scaled);
        # the bound is checked exactly inside nearest_right_translation itself
        for _ in range(200):
            n = orders()
            G = cyclic(n)
            phi = compose(_perturb(n, rng, int(rng.integers(0, 3))), _beta(G, int(rng.integers(0, n))))
            nearest_right_translation(G, [1], phi)

        # suite B: conjugacy extraction (constant 16, three clauses)
        for _ in range(200):
            n = orders()
            K = cyclic(n)
            act = left_regular(K)
            tau = _perturb(n, rng, int(rng.integers(1, 3)))
            tau_inv = Perm(np.argsort(tau.image))
            conj = [compose(tau, compose(p, tau_inv)) for p in act.perms]
            res = extract_conjugacy(K, list(act.perms), conj, verify_actions=False)
            assert Fraction(res.set_loss) <= 16 * res.epsilon * n
            assert Fraction(res.displacement) <= 16 * res.epsilon * n
            phi = res.phi.entries
            for k in (1, n - 1):  # equivariance spot check (full check is internal)
                for x in res.X1:
                    assert int(phi[act.rows[k, x]]) == conj[k](int(phi[x]))

        # suite C: commuting extension (constant 32, exact commutation)
        for _ in range(200):
            n = orders()
            G = cyclic(n)
            act = left_regular(G)
            phi = compose(_perturb(n, rng, int(rng.integers(0, 2))), _beta(G, int(rng.integers(0, n))))
            psi, dist = commuting_extension(G, act, phi)
            eps = max(hamming(compose(p, phi), compose(phi, p)) for p in act.perms)
            assert dist <= 32 * eps
            for p in act.perms:
                assert compose(psi, p) == compose(p, psi)

        # suite D: full pipeline (constants 4162/kappa^4 and 2048/kappa^4,
        # delta a homomorphism, equivariance exact — all asserted internally).
        # kappa^4/200 keeps perturbed instances feasible only at kappa = 2,
        # i.e. (Z/2)^k with every non-identity element a generator; exact
        # (epsilon = 0) instances run across the full 6..120 order range.
        z26 = direct_product(cyclic(2), cyclic(2))
        for _ in range(4):
            z26 = direct_product(z26, cyclic(2))
        S26 = list(range(1, z26.order))
        kappa26 = kazhdan_abelian_exact(z26, S26).lower
        assert kappa26 == pytest.approx(2.0)
        for i in range(200):
            if i % 8 == 0:  # 25 perturbed in-regime instances
                y = z26.order + 2 + int(rng.integers(0, 3))
                a = int(rng.integers(z26.order - 8, z26.order))
                tau = swap(y, a, z26.order)
                k_gens = [
                    compose(tau, compose(_embed(_beta(z26, g), y), tau))
                    for g in z26.generators
                ]
                res = rigidity_pipeline(z26, S26, y, k_gens, kappa_lower=kappa26)
                assert res.epsilon > 0
                assert res.set_loss < res.bound_set_loss
                assert res.displacement <= res.bound_displacement
            else:
                n = orders()
                G = cyclic(n)
                y = n + int(rng.integers(0, 5))
                h = int(rng.integers(0, n))
                res = rigidity_pipeline(G, [1], y, [_embed(_beta(G, h), y)])
                assert res.epsilon == 0
                assert res.set_loss == 0 and res.displacement == 0
            res.delta.verify()

    _criterion(5, "rounding constants, 200 randomized instances per suite", 120.0, body)


# -- 6: oracle cross-validation ---------------------------------------------------


def _independent_scan(marked, m):
    """Exhaustive minimum and its first minimising tuple, coded separately
    from the oracle module."""
    n = m.points
    targets = [p.image for p in m.images]
    best = None
    for tup in itertools.product(
        itertools.permutations(range(n)), repeat=marked.generator_count
    ):
        perms = [Perm(np.array(t)) for t in tup]
        mm = MarkedMap(marked, perms)
        if any(not mm.evaluate(r).is_identity() for r in marked.relators):
            continue
        dist = max(
            Fraction(int((p.image != t).sum()), n) for p, t in zip(perms, targets)
        )
        if best is None or dist < best[0]:
            best = (dist, perms)
    return best


def test_criterion_6_oracle_cross_validation():
    def body():
        z2 = MarkedGroup.free_abelian(2)
        rng = np.random.default_rng(6)
        for n in (2, 3, 4, 5):
            for _ in range(2):
                images = [
                    Perm(rng.permutation(n).astype(np.int64)) for _ in range(2)
                ]
                m = MarkedMap(z2, images)
                res = nearest_homomorphism_bruteforce(z2, m)
                dist, first = _independent_scan(z2, m)
                assert res.exhaustive
                assert res.max_distance == dist and res.best_hom.images == first
        # conjugated-homomorphism instances: the conjugate of an exact action
        # is exact, so the oracle distance is 0 and the conjugacy displacement
        # must fit inside 16 epsilon |X|
        for n in (4, 5):
            K = cyclic(n)
            act = left_regular(K)
            tau = swap(n, 0, 1)
            conj = [compose(tau, compose(p, tau)) for p in act.perms]
            m = MarkedMap(z2, [conj[1], conj[(2 * 1) % n]])
            oracle = nearest_homomorphism_bruteforce(z2, m)
            assert oracle.max_distance == 0
            res = extract_conjugacy(K, list(act.perms), conj)
            assert Fraction(res.displacement) <= (
                oracle.max_distance + 16 * res.epsilon
            ) * n

    _criterion(6, "oracle vs independent scan (Z^2, n<=5) + conjugacy displacement", 120.0, body)


# -- 7: non-stability floor --------------------------------------------------------


def test_criterion_7_distance_floor():
    def body():
        for p in (7, 13, 19, 43):
            inst = flagship_family(p)
            assert inst.floor >= Fraction(1, 252)
            X = inst.X
            theta = inst.family.t_image
            rhos = [X.right_perm(X.inv(h)) for h in np.sort(inst.family.base.q.image)]
            # sampled permutations commuting exactly with every right
            # translation: left translations (and the identity)
            samples = [X.identity_index, 1, X.generators[0], X.order // 2]
            for x in samples:
                psi = X.left_perm(x)
                for rho in rhos:
                    assert compose(psi, rho) == compose(rho, psi)
                assert hamming(theta, psi) >= inst.floor

    _criterion(7, "commuting-distance floor >= 1/252 at every flagship prime", 120.0, body)
    CRITERION_LINES.append(
        "       note: the asymptotic non-stability conclusions are NOT "
        "reproducible at desk scale; this floor plus criterion 3 is the "
        "property-based substitute."
    )


# -- 8: determinism ------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    def body():
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for d in dirs:
            run_experiment(ExperimentConfig(primes=[5, 7, 13], seed=11, out_dir=d))
        with open(os.path.join(dirs[0], "grid.csv"), "rb") as f1, open(
            os.path.join(dirs[1], "grid.csv"), "rb"
        ) as f2:
            assert f1.read() == f2.read()

    _criterion(8, "byte-identical CSVs from identical config and seed", 120.0, body)
