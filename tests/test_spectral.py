"""Kazhdan constants: exact abelian values and certified Laplacian brackets."""

import collections
import copy
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permstab
from permstab import spectral
from permstab.errors import CapacityError, CertificateError, NonGeneratingError, NotAbelianError
from permstab.groups import (
    FinGroup,
    SL2Group,
    TableGroup,
    cyclic,
    direct_product,
    group_from_perm_generators,
    sl2_mod,
)
from permstab.perms import Perm
from permstab.spectral import (
    _CharacterBlocks,
    kazhdan_abelian_exact,
    kazhdan_bracket,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "kazhdan_sl2.json"


def test_cyclic_exact_closed_form():
    # for Z/n with S = {1}: kappa = 2 sin(pi/n), lambda1 = 2 - 2 cos(2 pi/n)
    for n in range(2, 25):
        br = kazhdan_abelian_exact(cyclic(n), [1])
        assert br.method == "abelian-exact"
        assert br.lower == br.upper
        assert br.lower == pytest.approx(2 * math.sin(math.pi / n), abs=1e-12)
        assert br.lambda1 == pytest.approx(2 - 2 * math.cos(2 * math.pi / n), abs=1e-12)


def test_abelian_exact_product():
    G = direct_product(cyclic(3), cyclic(4))
    S = [G.right.order, 1]  # (1, 0) and (0, 1), at index a·|B| + b
    br = kazhdan_abelian_exact(G, S)
    # the worst character is trivial on the larger factor
    assert br.lower == pytest.approx(2 * math.sin(math.pi / 4), abs=1e-12)


def test_abelian_exact_pinned_values():
    # bit-exact values recorded before the character BFS was vectorised, and
    # kept by the word table that replaced it: the floats depend on E[s] mod
    # d, which is unique for independent generators such as these
    G = direct_product(cyclic(4), cyclic(6))
    br = kazhdan_abelian_exact(G, G.generators)
    assert (br.lower, br.upper, br.lambda1) == (
        0.9999999999999999, 0.9999999999999999, 0.9999999999999998
    )
    Z = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
    br = kazhdan_abelian_exact(Z, [x for x in range(Z.order) if x != Z.identity_index])
    assert (br.lower, br.upper, br.lambda1) == (2.0, 2.0, 16.0)
    # the benchmark compares these with tolerance 0
    reference = json.loads(REFERENCE.read_text())
    for n in range(2, 25):
        br = kazhdan_abelian_exact(cyclic(n), [1])
        want = reference[f"cyclic:{n}"]
        assert (br.lower, br.upper, br.lambda1) == (want["lower"], want["upper"], want["lambda1"])


def _additive_table_group(n, gens):
    idx = np.arange(n)
    return TableGroup((idx[:, None] + idx[None, :]) % n, gens)


@pytest.mark.parametrize("n, gens, pinned", [
    (6, [1, 2], (1.7320508075688772, 1.7320508075688772, 3.999999999999999)),
    (12, [2, 3], (1.414213562373095, 1.414213562373095, 2.999999999999999)),
])
def test_characters_reject_inconsistent_candidates(n, gens, pinned):
    # generator orders (6, 3) and (6, 4) give 18 and 24 candidates, but only n characters
    G = _additive_table_group(n, gens)
    E, d, exps = spectral._characters(G)
    L = math.lcm(*d.tolist())
    idx = np.arange(n)

    def is_character(e):
        chi = E @ (np.asarray(e) * (L // d)) % L  # χ as a map into ℤ/L
        return all(
            np.all((chi[G.mul_many(idx, g)] - chi - e_i * (L // d_i)) % L == 0)
            for g, e_i, d_i in zip(gens, e, d.tolist())
        )

    expected = [e for e in itertools.product(*map(range, d.tolist())) if is_character(e)]
    assert math.prod(d.tolist()) > n == len(expected)
    assert exps.tolist() == [list(e) for e in expected]
    # independently of E: χ_a(x) = a·x/n sends g_i to e_i/d_i with e_i = a·g_i·d_i/n
    closed_form = {
        tuple(a * g * d_i // n % d_i for g, d_i in zip(gens, d.tolist())) for a in range(n)
    }
    assert set(map(tuple, expected)) == closed_form
    # bit-exact values recorded before characters were selected in ℤ/L
    br = kazhdan_abelian_exact(G, gens)
    assert (br.lower, br.upper, br.lambda1) == pinned


def _characters_bfs(G):
    """Reference: E along each element's first BFS word over g_i and g_i⁻¹,
    found by a Python BFS of scalar products, and the exponent rows kept by
    the relation scan over every candidate."""
    gens = list(G.generators)
    k = len(gens)
    E = np.zeros((G.order, k), dtype=np.int64)
    steps = np.concatenate([np.eye(k, dtype=np.int64), -np.eye(k, dtype=np.int64)])
    letters = gens + [G.inv(g) for g in gens]
    seen, frontier = {G.identity_index}, [G.identity_index]
    while frontier:
        level = []
        for x in frontier:
            for step, s in zip(steps, letters):
                if (y := G.mul(x, s)) not in seen:
                    seen.add(y)
                    level.append(y)
                    E[y] = E[x] + step
        frontier = level
    d = G.element_order(gens)
    L = math.lcm(*d.tolist())
    exps = np.indices(d).reshape(k, -1).T
    for i, g in enumerate(gens):
        rel = (E[G.mul_many(np.arange(G.order), np.int64(g))] - E - steps[i]) % d
        for w in np.unique(rel, axis=0) * (L // d):
            exps = exps[exps @ w % L == 0]
    return E, d, exps


@pytest.mark.parametrize("G", [
    cyclic(2000),
    direct_product(cyclic(4), cyclic(6)),
    direct_product(direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
                   direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))),
], ids=["cyclic(2000)", "Z4xZ6", "(Z2)^6"])
def test_characters_match_bfs_without_spread(G, monkeypatch):
    want_E, want_d, want_exps = _characters_bfs(G)

    def no_bfs(*args):
        raise AssertionError("_characters ran a BFS")

    monkeypatch.setattr(FinGroup, "_spread", no_bfs)
    E, d, exps = spectral._characters(G)
    assert d.tolist() == want_d.tolist() and math.prod(d.tolist()) == G.order
    assert np.array_equal(E % d, want_E % d) and np.array_equal(exps, want_exps)
    assert E.min() >= 0 and (E < d).all()


def test_trivial_group_has_no_nontrivial_character():
    with pytest.raises(ValueError, match="no nontrivial character"):
        kazhdan_abelian_exact(cyclic(1), [])


def test_abelian_exact_rejects_nonabelian():
    X = sl2_mod(3)
    with pytest.raises(NotAbelianError):
        kazhdan_abelian_exact(X, list(X.generators))


def test_nongenerating_raises():
    G = cyclic(6)
    with pytest.raises(NonGeneratingError):
        kazhdan_abelian_exact(G, [2])  # <2> has order 3
    with pytest.raises(NonGeneratingError):
        kazhdan_bracket(G, [3])
    X = sl2_mod(5)
    for S in ([X.index_of(1, 1, 0, 1)], []):  # <u> has order 5
        with pytest.raises(NonGeneratingError):
            kazhdan_bracket(X, S)


def test_bracket_runs_no_closure_when_certified(monkeypatch):
    # a certified μ - ε > 0 proves that S generates G, so no closure runs
    closures = []
    real = FinGroup.closure
    monkeypatch.setattr(FinGroup, "closure", lambda G, seed: closures.append(seed) or real(G, seed))
    X = sl2_mod(43)
    assert kazhdan_bracket(X, X.generators).lower > 0
    assert closures == []
    with pytest.raises(NonGeneratingError):
        kazhdan_bracket(sl2_mod(5), [sl2_mod(5).index_of(1, 1, 0, 1)])
    assert len(closures) == 1


def test_generating_check_only_when_s_omits_a_generator(monkeypatch):
    C = cyclic(6)  # (i, j) = 3i + j in G below is 3i + 4j in C
    want = [kazhdan_abelian_exact(C, S).lower for S in ([4, 3, 5], [1])]
    checked = []
    real = spectral._require_generating
    monkeypatch.setattr(spectral, "_require_generating", lambda G, S: checked.append(S) or real(G, S))
    G = direct_product(cyclic(2), cyclic(3))  # generators (1, 0) = 3 and (0, 1) = 1
    assert kazhdan_abelian_exact(G, [1, 3, 5]).lower == pytest.approx(want[0])
    assert checked == []  # the word table of _characters already reaches G from 1 and 3
    # (1, 1) = 4 has order 6, so S = [4] omits both generators and still generates G
    assert kazhdan_abelian_exact(G, [4]).lower == pytest.approx(want[1])
    assert checked == [[4]]
    with pytest.raises(NonGeneratingError):
        kazhdan_abelian_exact(G, [2])  # (0, 2) has order 3


def test_bracket_contains_exact_value():
    for n in (5, 12, 30, 101):
        exact = kazhdan_abelian_exact(cyclic(n), [1]).lower
        br = kazhdan_bracket(cyclic(n), [1])
        assert br.method == "laplacian-bracket"
        assert br.lower <= exact <= br.upper


def test_bracket_nonabelian():
    X = sl2_mod(5)
    br = kazhdan_bracket(X, list(X.generators))
    assert 0 < br.lower <= br.upper <= 2
    assert br.lambda1 > 0  # generating set => positive gap


def _dense_laplacian(G, S):
    # L = 2k·I - Σ_{t∈S±} λ(t), with λ(t) sending the basis vector x to t·x
    n = G.order
    idx = np.arange(n)
    L = 2.0 * len(set(S)) * np.eye(n)
    for s in sorted(set(S)):
        for t in (s, G.inv(s)):
            L[G.mul_many(np.int64(t), idx), idx] -= 1.0
    return L


def _dihedral(n):
    return group_from_perm_generators([Perm(np.roll(np.arange(n), 1)), Perm(np.arange(n)[::-1].copy())])


def _sanov(p):
    """SL2(Z/p) with the Sanov pair [[1,2],[0,1]], [[1,0],[2,1]]."""
    X = sl2_mod(p)
    return X, [X.index_of(1, 2, 0, 1), X.index_of(1, 0, 2, 1)]


# the dihedral group's λ1 lies outside block 0, so its certificate takes the fallback
BLOCK_GROUPS = [sl2_mod(5), sl2_mod(7), direct_product(sl2_mod(5), cyclic(4)), _dihedral(12)]
# Stab_j ⊂ Q is not cyclic in these: (max |Stab_j/H|, max r) = (8, 4), (8, 4), (48, 12);
# β doubles the first two, whose Stab_j ⊂ N(H)/H gave (4, 2) and (4, 2)
NONCYCLIC = [
    (sl2_mod(8), 8, 4), (sl2_mod(15), 8, 4), (direct_product(sl2_mod(5), sl2_mod(3)), 48, 12),
]
# β permutes S± in these
TWISTED = [(X, list(X.generators)) for X in (sl2_mod(11), sl2_mod(13))] + [_sanov(7), _sanov(13)]


def _block(blocks, j):
    """The unsplit N×N block of L on V_j: Hermitian, and real when ω^j = ±1."""
    phase = np.exp(1j * (2 * np.pi * (j * blocks.exps % blocks.m) / blocks.m))
    entries = phase.real if 2 * j % blocks.m == 0 else phase
    out = np.diag(np.full(blocks.cols.shape[1], blocks.cols.shape[0], dtype=entries.dtype))
    np.subtract.at(out, (np.arange(blocks.cols.shape[1]), blocks.cols), entries)
    return out


@pytest.mark.parametrize("G", BLOCK_GROUPS, ids=str)
def test_blocks_reproduce_dense_spectrum(G):
    blocks = _CharacterBlocks.of(G, G.generators)
    assert G.order % blocks.m == 0 and blocks.cols.shape[1] == G.order // blocks.m
    assert _block(blocks, 0).dtype == np.float64 and _block(blocks, 1).dtype == np.complex128
    spectrum = np.sort(np.concatenate(
        [np.linalg.eigvalsh(_block(blocks, j)) for j in range(blocks.m)]
    ))
    dense = np.linalg.eigvalsh(_dense_laplacian(G, G.generators))
    assert spectrum.shape == dense.shape
    np.testing.assert_allclose(spectrum, dense, rtol=0, atol=1e-10)
    lam1, solved, _ = spectral._lambda1(G, G.generators)
    assert solved == len(blocks.orbit_reps()) < blocks.m
    assert abs(lam1 - dense[1]) < 1e-10


def _sub_block_sizes(G, S):
    """(|Stab_j/H|, r) for each j, checking that block j's r sub-blocks of width N/r
    make up its spectrum: V_j = ⊕_l V_{j,l}."""
    blocks = _CharacterBlocks.of(G, S)
    N, sizes, splits = blocks.cols.shape[1], [], []
    for j in range(blocks.m):
        stab = j * (blocks.twist - 1) % blocks.m == 0
        sizes.append(int(stab.sum()))
        stacks = blocks.stacks(j)
        splits.append(sum(len(s) for s in stacks))  # r
        assert all(s.shape[1:] == (N // splits[-1],) * 2 for s in stacks)
        assert [s.dtype.kind for s in stacks] in (["f"], ["c"], ["f", "c"])
        for s in stacks:  # Hermitian up to the phases' rounding
            np.testing.assert_allclose(s, s.conj().transpose(0, 2, 1), rtol=0, atol=1e-14)
        got = np.sort(np.concatenate([np.linalg.eigvalsh(s).ravel() for s in stacks]))
        np.testing.assert_allclose(got, np.linalg.eigvalsh(_block(blocks, j)), rtol=0, atol=1e-10)
    return sizes, splits


@pytest.mark.parametrize(
    "G, stab_size, r", [(G, None, None) for G in BLOCK_GROUPS] + NONCYCLIC, ids=str
)
def test_sub_blocks_reproduce_block_spectrum(G, stab_size, r):
    sizes, splits = _sub_block_sizes(G, G.generators)
    assert splits[0] > 1  # block 0 splits in every one of these groups
    if stab_size is not None:
        assert (max(sizes), max(splits)) == (stab_size, r)


@pytest.mark.parametrize("G, S", TWISTED, ids=str)
def test_twisted_sub_blocks_reproduce_block_spectrum(G, S):
    _, splits = _sub_block_sizes(G, S)
    assert min(splits) > 1  # β splits every block


def test_twisted_split_halves_the_widest_blocks():
    # h = -u at sl2:43: Stab_j ⊂ N(H)/H is H alone at j = 1 and 2, whose 924-wide
    # blocks now split in two by β; no stack of an orbit block is wider than 462
    X = sl2_mod(43)
    blocks = _CharacterBlocks.of(X, X.generators)
    assert blocks.cols.shape[1] == 924
    widths = {j: {s.shape[1] for s in blocks.stacks(j)} for j in blocks.orbit_reps().tolist()}
    assert widths == {0: {22}, 1: {462}, 2: {462}, 43: {22}}
    # J fixes both sub-blocks of blocks 1 and 2, so each is one real stack
    assert [(s.shape, s.dtype) for s in blocks.stacks(1) + blocks.stacks(2)] == [((2, 462, 462), np.float64)] * 2


def test_twisted_map_that_fixes_a_coset_is_passed_over():
    # SL2(Z/2) ≅ Sym(3): h = u has order 2 and N = 3 cosets, so the twisted φ of
    # order 2 in Q fixes one of them; no block splits, and λ1 is still the dense one's
    X = sl2_mod(2)
    blocks = _CharacterBlocks.of(X, X.generators)
    assert blocks.cols.shape[1] == 3 and blocks.twist.tolist() == [1, 1]
    assert [sum(len(s) for s in blocks.stacks(j)) for j in range(blocks.m)] == [1, 1]
    dense = np.linalg.eigvalsh(_dense_laplacian(X, X.generators))
    assert abs(spectral._lambda1(X, X.generators)[0] - dense[1]) < 1e-10


def test_split_without_beta_when_beta_does_not_permute_s():
    # β(u) = ℓ⁻¹ is not in {u, ℓ²}±, so Q is N(H)/H and the stacks are those of a
    # group that supplies no automorphism
    X = sl2_mod(7)
    S = [X.index_of(1, 1, 0, 1), X.index_of(1, 0, 2, 1)]
    twisted = _CharacterBlocks.of(X, S)
    plain = sl2_mod(7)
    plain.automorphism_many = None
    untwisted = _CharacterBlocks.of(plain, S)
    assert np.array_equal(twisted.twist, untwisted.twist)
    for j in range(twisted.m):
        got, want = twisted.stacks(j), untwisted.stacks(j)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _without_reflection(G):
    """The same group with no ρ, so every sub-block keeps its complex form."""
    H = copy.copy(G)
    H.reflection_many = None
    return H


@pytest.mark.parametrize(
    "G, S", TWISTED + [(G, G.generators) for G in BLOCK_GROUPS] + [(sl2_mod(43), sl2_mod(43).generators)],
    ids=str,
)
def test_real_forms_reproduce_their_sub_blocks_spectra(monkeypatch, G, S):
    # every sub-block J fixes becomes a real symmetric stack entry with the
    # eigenvalues of the complex B_{j,l} it replaces; every other sub-block is
    # byte-identical to the one built without ρ
    if G.order < 10_000:
        monkeypatch.setattr(spectral, "REAL_FORM_WIDTH", 0)
    with_rho, without = _CharacterBlocks.of(G, S), _CharacterBlocks.of(_without_reflection(G), S)
    forms = 0
    for j in with_rho.orbit_reps().tolist():
        got, want = with_rho.stacks(j), without.stacks(j)
        real = [s for s in got if s.dtype == np.float64]
        plain = [s for s in want if s.dtype == np.float64]
        complex_got = [b for s in got if s.dtype == np.complex128 for b in s]
        if plain:  # the real stack starts with the sub-blocks that were real already
            assert np.array_equal(real[0][: len(plain[0])], plain[0])
        new = [b for s in real for b in s][sum(len(s) for s in plain) :]
        forms += len(new)
        for b in [b for s in want if s.dtype == np.complex128 for b in s]:
            if complex_got and np.array_equal(b, complex_got[0]):
                complex_got.pop(0)
            else:  # the next real form, in l order
                np.testing.assert_allclose(np.linalg.eigvalsh(new.pop(0)), np.linalg.eigvalsh(b), rtol=0, atol=1e-10)
        assert new == [] and complex_got == []
    assert (forms > 0) == (G.reflection_many is not None)


def test_stacks_without_reflection_when_rho_does_not_permute_s(monkeypatch):
    # ρ(u·ℓ) = u⁻¹ℓ⁻¹ is not in {u, u·ℓ}±, so no J: the stacks are those of a
    # group that supplies no ρ
    monkeypatch.setattr(spectral, "REAL_FORM_WIDTH", 0)
    X = sl2_mod(7)
    E, F = X.generators
    S = [E, X.mul(E, F)]
    got, want = _CharacterBlocks.of(X, S), _CharacterBlocks.of(_without_reflection(X), S)
    for j in range(got.m):
        a, b = got.stacks(j), want.stacks(j)
        assert len(a) == len(b) and all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(a, b))


def test_certificate_refuses_a_level_above_a_real_form(monkeypatch):
    # the real forms of sl2_mod(13)'s blocks 1, 2, 4 and 5 are certified at their
    # least eigenvalue and refused 1e-6 above it, with Rump's real constant
    monkeypatch.setattr(spectral, "REAL_FORM_WIDTH", 0)
    X = sl2_mod(13)
    blocks = _CharacterBlocks.of(X, X.generators)
    for j in (1, 2, 4, 5):
        (stack,) = blocks.stacks(j)
        assert stack.dtype == np.float64 and stack.shape == (2, 42, 42)
        for l in range(len(stack)):
            least = spectral._least(stack[l : l + 1], False)
            level = spectral._certified_levels(stack[l : l + 1].copy(), least, 0)
            assert 0 < least - level[0] < 1e-9
            assert spectral._certified_levels(stack[l : l + 1].copy(), least + 1e-6, 0) is None


@pytest.mark.parametrize("G", BLOCK_GROUPS, ids=str)
def test_orbit_blocks_isospectral(G):
    blocks = _CharacterBlocks.of(G, G.generators)
    m = blocks.m
    for j in range(m):
        vals = np.linalg.eigvalsh(_block(blocks, j))
        for a in blocks.powers:
            for ja in (j * a % m, -j * a % m):
                other = np.linalg.eigvalsh(_block(blocks, int(ja)))
                np.testing.assert_allclose(other, vals, rtol=0, atol=1e-10)


def _blocks_reference(G, S):
    """(m, cols, exps, powers) by the scan of every candidate and m rounds along x ↦ x·h."""
    gens = np.asarray(sorted(set(int(s) for s in S)), dtype=np.int64)
    idx = np.arange(G.order)
    central = np.logical_and.reduce([G.mul_many(idx, s) == G.mul_many(s, idx) for s in gens])
    cand = G.mul_many(gens[:, None], idx[central][None, :]).ravel()
    order = G.element_order(cand)
    m = int(order.max())
    h = int(cand[order == m].min())
    right_h = G.mul_many(idx, np.int64(h))
    cur, rep, back = idx, idx.copy(), np.zeros(G.order, dtype=np.int64)
    for r in range(1, m):
        cur = right_h[cur]
        better = cur < rep
        rep[better], back[better] = cur[better], r
    reps, coset = np.unique(rep, return_inverse=True)
    steps = np.asarray([t for s in gens for t in (s, G.inv(s))], dtype=np.int64)
    moved = G.mul_many(steps[:, None], reps[None, :])
    conj = G.mul_many(right_h, G.inv_many(idx))
    in_h = conj[coset[conj] == coset[G.identity_index]]
    a = (back[G.identity_index] - back[in_h]) % m
    return m, coset[moved], -back[moved] % m, np.unique(a)


@pytest.mark.parametrize(
    "G", BLOCK_GROUPS + [sl2_mod(11), sl2_mod(13), sl2_mod(43), cyclic(2000)], ids=str
)
def test_blocks_match_round_by_round_reference(G):
    blocks = _CharacterBlocks.of(G, G.generators)
    m, cols, exps, powers = _blocks_reference(G, G.generators)
    assert blocks.m == m
    for got, want in ((blocks.cols, cols), (blocks.exps, exps), (blocks.powers, powers)):
        assert np.array_equal(got, want)


def _count_lapack(monkeypatch):
    """The (dtype, shape) of every stack eigvalsh and cholesky are called on."""
    calls = {"eigvalsh": [], "cholesky": []}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(a, _real=real, _name=name):
            calls[_name].append((a.dtype, a.shape))
            return _real(a)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("G, retries", [
    (sl2_mod(13), 0), (sl2_mod(19), 0), (_dihedral(12), 1), (cyclic(20000), 0), (sl2_mod(43), 0),
], ids=["sl2_13", "sl2_19", "dihedral_12", "cyclic_20000", "sl2_43"])
def test_one_eigensolve_and_one_cholesky_per_block(monkeypatch, G, retries):
    # eigvalsh runs on block 0's stacks alone, unless a stack is refused and
    # gets its own; each stack of each orbit block gets one Cholesky, each
    # refused one a second, of the same dtype; N = 1 blocks need neither
    blocks = _CharacterBlocks.of(G, G.generators)
    dense = blocks.cols.shape[1] > 1
    stacks = [s.dtype for j in blocks.orbit_reps().tolist() for s in blocks.stacks(j)] if dense else []
    first = [s.dtype for s in blocks.stacks(0)] if dense else []
    calls = _count_lapack(monkeypatch)
    lam, solved, _ = spectral._lambda1(G, G.generators)
    assert solved == len(blocks.orbit_reps())
    eig, chol = (collections.Counter(dtype for dtype, _ in calls[name]) for name in ("eigvalsh", "cholesky"))
    refused = eig - collections.Counter(first)
    assert sum(refused.values()) == retries and eig == collections.Counter(first) + refused
    assert chol == collections.Counter(stacks) + refused
    if G.is_abelian:
        exact = kazhdan_abelian_exact(G, G.generators)
        br = kazhdan_bracket(G, G.generators)
        assert br.lower <= exact.lower <= br.upper
        assert abs(br.lambda1 - exact.lambda1) < 1e-12


def test_sl2_43_factors_its_widest_sub_blocks_in_real_form(monkeypatch):
    # the four 462-wide sub-blocks of blocks 1 and 2 go to LAPACK as two real stacks
    X = sl2_mod(43)
    calls = _count_lapack(monkeypatch)
    spectral._lambda1(X, X.generators)
    assert [c for c in calls["cholesky"] if c[1][1] == 462] == [(np.float64, (2, 462, 462))] * 2
    assert all(shape[1] == 22 for _, shape in calls["eigvalsh"])  # block 0 alone


def test_certificate_refuses_a_level_above_the_block():
    # sl2_mod(13) has real and complex sub-blocks; each is certified at its own
    # least eigenvalue and refused 1e-6 above it
    X = sl2_mod(13)
    blocks = _CharacterBlocks.of(X, X.generators)
    kinds = set()
    for j in blocks.orbit_reps().tolist():
        for i, stack in enumerate(blocks.stacks(j)):
            kinds.add(stack.dtype.kind)
            for l in range(len(stack)):
                constant = j == 0 and i == 0 and l == 0  # B_{0,0}, lifted by s = ⌈4k/w⌉
                lift = -(-2 * len(blocks.cols) // stack.shape[1]) if constant else 0
                least = spectral._least(stack[l : l + 1], constant)
                level = spectral._certified_levels(stack[l : l + 1].copy(), least, lift)
                assert 0 < least - level[0] < 1e-9
                above = spectral._certified_levels(stack[l : l + 1].copy(), least + 1e-6, lift)
                assert above is None
    assert kinds == {"f", "c"}


def test_bracket_refuses_mu_above_lambda1(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 1e-6)
    X = sl2_mod(13)
    with pytest.raises(CertificateError, match="^the Cholesky certificate refuses a block"):
        kazhdan_bracket(X, X.generators)


def test_bracket_matches_reference_file():
    # the benchmark accepts these within KAZHDAN_TOL = 1e-8; a margin that moved
    # `lower` further would fail here first
    reference = json.loads(REFERENCE.read_text())
    for p in (11, 13, 43):
        X = sl2_mod(p)
        want = reference[f"sl2:{p}"]
        br = kazhdan_bracket(X, X.generators)
        assert br.method == want["method"]
        for key in ("lambda1", "lower", "upper"):
            assert abs(getattr(br, key) - want[key]) <= 1e-8, key


def test_bracket_matches_reference_lambda1():
    # λ1 recorded in perfbench/reference/kazhdan_sl2.json, where the values for 13
    # and 43 came from an iterative solver that the blocks' dense eigvalsh replaced
    reference = {11: 0.38196601125009766, 13: 0.3248691294333531, 43: 0.16616505151860148}
    for p, lam1 in reference.items():
        X = sl2_mod(p)
        assert abs(kazhdan_bracket(X, X.generators).lambda1 - lam1) < 1e-12
        assert spectral._lambda1(X, X.generators)[1] == (6 if p == 13 else 4)


def test_bracket_lower_end_keeps_margin():
    down = spectral._down
    for G in (sl2_mod(5), direct_product(sl2_mod(3), cyclic(2))):
        tol = 1e-8
        br = kazhdan_bracket(G, G.generators, tol=tol)
        k = len(set(G.generators))
        if G.order == 120:  # SL2(F_5) takes its representations, with their own μ and ε
            lam, mu, eps = spectral._prime_levels(5, G.entries[:, sorted(G.generators)].T)
            assert eps == k * (5 * (10 + 9 * k + 112) + 7) * 2.0**-53  # ε of the spectral module docstring
        else:
            lam, _, mu = spectral._lambda1(G, G.generators)
            eps = 2 * k * (54 + 25 * k) * 2.0**-53  # ε of the spectral module docstring
        # the lower end stands on the certified level μ, strictly below λ̃, less ε:
        # sqrt((μ - ε)/k) - tol with every step rounded down
        assert mu < lam == br.lambda1
        assert br.lower == down(down(math.sqrt(down(down(mu - eps) / k))) - tol)
        assert br.upper >= math.sqrt(br.lambda1) + tol


def test_bracket_block_cap(monkeypatch):
    X = sl2_mod(4)  # composite, so character blocks: h of order 4, blocks of size 12
    monkeypatch.setattr(spectral, "DENSE_DIM_CAP", 11)
    with pytest.raises(CapacityError):
        kazhdan_bracket(X, X.generators)
    monkeypatch.setattr(spectral, "DENSE_DIM_CAP", 12)
    assert kazhdan_bracket(X, X.generators).lambda1 > 0


def test_import_leaves_scipy_unloaded():
    src = str(Path(permstab.__file__).resolve().parents[1])
    code = "import sys, permstab; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_lambda1_monotone_in_generators():
    # adding generators can only increase the Laplacian, hence lambda1
    G = cyclic(20)
    small = kazhdan_abelian_exact(G, [1]).lambda1
    large = kazhdan_abelian_exact(G, [1, 3]).lambda1
    assert large >= small - 1e-12


# SL2(F_p), p >= 5 prime: blocks from the irreducible representations

PRIMES = [p for p in range(5, 54) if all(p % q for q in range(2, p))]


def _sanov_pair(X):
    return [X.index_of(1, 2, 0, 1), X.index_of(1, 0, 2, 1)]


def _character_bracket(X, S):
    """kazhdan_bracket's result on the character blocks, as for every group but SL2(F_p)."""
    with mock.patch.object(spectral, "_prime_modulus", lambda G: None):
        return kazhdan_bracket(X, S)


@pytest.mark.parametrize("p", PRIMES)
def test_representations_agree_with_character_blocks(p):
    X = sl2_mod(p)
    assert spectral._prime_modulus(X) == p
    for S in (list(X.generators), _sanov_pair(X)):
        new, old = kazhdan_bracket(X, S), _character_bracket(X, S)
        assert abs(new.lambda1 - old.lambda1) < 1e-9
        assert abs(new.lower - old.lower) < 1e-8
        assert 0 < new.lower <= new.upper and new.method == old.method


def _mul(g, h, p):
    a, b, c, d = g
    e, f, x, y = h
    return ((a * e + b * x) % p, (a * f + b * y) % p, (c * e + d * x) % p, (c * f + d * y) % p)


def _inv(g, p):
    a, b, c, d = g
    return (d, -b % p, -c % p, a)


def _principal(field, g, j):
    """π(g⁻¹) on Ind χ_j, dense, from the certified terms of the pair (g, g⁻¹)."""
    p = field.p
    terms = spectral._principal_terms(field, np.array([g, _inv(g, p)]))
    out = np.zeros((p + 1) ** 2, dtype=np.complex128)
    out[terms.at[: p + 1]] = np.exp(2j * np.pi * j * terms.turn[: p + 1] / (p - 1))
    return out.reshape(p + 1, p + 1)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_representation_matrices_obey_the_group_law(p):
    field = spectral._Field.of(p)
    js = np.arange(1, p + 1)  # every nontrivial character of T
    sums = spectral._torus_sums(field, js)

    def weil(g):
        return spectral._weil(field, g, js, sums)

    E, w = (1, 1, 0, 1), (0, 1, p - 1, 0)
    eye = np.eye(p - 1)
    Ew = weil(E) @ weil(w)
    assert np.abs(Ew @ Ew @ Ew - eye).max() < 1e-9
    assert np.abs(weil(w) @ weil(w) - weil((p - 1, 0, 0, p - 1))).max() < 1e-9  # w² = -I
    rng = np.random.default_rng(p)
    letters = [E, (1, 0, 1, 1), w, (2, 0, 0, (p + 1) // 2)]
    letters += [_inv(g, p) for g in letters]
    for _ in range(6):
        x, y = ((1, 0, 0, 1), (1, 0, 0, 1))
        for _ in range(5):
            x = _mul(x, letters[rng.integers(len(letters))], p)
            y = _mul(y, letters[rng.integers(len(letters))], p)
        assert np.abs(weil(x) @ weil(_inv(x, p)) - eye).max() < 1e-9
        assert np.abs(weil(_inv(x, p)) - weil(x).conj().swapaxes(1, 2)).max() < 1e-9  # unitary
        assert np.abs(weil(_mul(x, y, p)) - weil(x) @ weil(y)).max() < 1e-9
        for j in range(p - 1):  # the terms at (x, t·x) are π(t⁻¹)'s, so π(t⁻¹) reverses products
            assert np.abs(_principal(field, x, j) @ _principal(field, _inv(x, p), j) - np.eye(p + 1)).max() < 1e-9
            product = _principal(field, y, j) @ _principal(field, x, j)
            assert np.abs(_principal(field, _mul(x, y, p), j) - product).max() < 1e-9


def test_representations_reach_past_the_order_cap(monkeypatch):
    # S's entries are read mod p into int64: no SL2Group, whose int16 entries
    # overflow from n = 130, is built
    def refused(self, n):
        raise AssertionError("an SL2Group was built")

    monkeypatch.setattr(SL2Group, "__init__", refused)
    k = 2
    lam, mu, eps = spectral._prime_levels(101, [[1, 2, 0, 1], [1, 0, 2, 1]])
    br = spectral._bracket(lam, mu, eps, k, spectral.DEFAULT_TOL)
    assert br.lower > 0
    assert br.lambda1 <= 0.475029  # the principal-series minimum at p = 101


def test_representations_refuse_wide_blocks_before_building_one(monkeypatch):
    X = sl2_mod(5)
    built = []
    real = spectral._Field.of
    monkeypatch.setattr(spectral._Field, "of", lambda p: built.append(p) or real(p))
    monkeypatch.setattr(spectral, "DENSE_DIM_CAP", 5)  # p + 1 = 6
    with pytest.raises(CapacityError, match="representation blocks of size 6 exceed 5"):
        kazhdan_bracket(X, X.generators)
    assert built == []
    monkeypatch.setattr(spectral, "DENSE_DIM_CAP", 6)
    assert kazhdan_bracket(X, X.generators).lambda1 > 0
    assert built == [5]


def test_sl2_43_takes_no_block_wider_than_p_plus_one(monkeypatch):
    # a silent fallback to the character blocks, 462 wide at sl2:43, fails here
    X = sl2_mod(43)
    calls = _count_lapack(monkeypatch)
    kazhdan_bracket(X, X.generators)
    assert calls["eigvalsh"] == [(np.float64, (2, 44, 44)), (np.complex128, (20, 44, 44))]
    assert len(calls["cholesky"]) == 3
    assert max(shape[-1] for name in calls for _, shape in calls[name]) <= 44


SMALL = {p: sl2_mod(p) for p in (5, 7, 11, 13)}


def _both_paths(X, S):
    """Each path's bracket, or NonGeneratingError when it raises that."""
    out = []
    for run in (kazhdan_bracket, _character_bracket):
        try:
            out.append(run(X, S))
        except NonGeneratingError:
            out.append(NonGeneratingError)
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL)).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, SMALL[p].order - 1), min_size=1, max_size=3))
))
def test_representations_agree_on_random_generators(case):
    p, S = case
    new, old = _both_paths(SMALL[p], S)
    if NonGeneratingError in (new, old):
        assert new is old is NonGeneratingError
    else:
        assert abs(new.lambda1 - old.lambda1) < 1e-9
        assert abs(new.lower - old.lower) < 1e-8


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from(sorted(SMALL)).flatmap(
    lambda p: st.tuples(
        st.just(p), st.lists(st.tuples(st.integers(1, p - 1), st.integers(0, p - 1)), min_size=1, max_size=3)
    )
))
def test_borel_generators_raise_on_both_paths(case):
    p, entries = case
    X = SMALL[p]
    S = [X.index_of(a, b, 0, pow(a, -1, p)) for a, b in entries]  # upper triangular
    assert _both_paths(X, S) == [NonGeneratingError, NonGeneratingError]


@pytest.mark.parametrize("lower, upper", [
    (0.5, 0.25), (math.nan, 1.0), (0.1, math.inf), (-1e-300, 0.0), (0.0, 2.0 + 1e-11),
])
def test_bracket_refuses_ends_out_of_order(lower, upper):
    with pytest.raises(CertificateError, match="^bracket must satisfy 0 <= lower <= upper <= 2"):
        spectral.KazhdanBracket(lower=lower, upper=upper, lambda1=0.0, method="laplacian-bracket")
