"""Group engine: enumeration, closure, homs, actions, orbits, cosets."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstab import groups
from permstab.errors import (
    CapacityError,
    CertificateError,
    NotAHomomorphismError,
    NotAnActionError,
    NotASubgroupError,
)
from permstab.groups import (
    CHUNK_ENTRIES,
    GroupHom,
    MarkedGroup,
    MarkedHom,
    PermAction,
    TableGroup,
    _cycle_min,
    _min_labels,
    _orbits,
    cyclic,
    direct_product,
    group_from_perm_generators,
    left_coset_reps,
    left_regular,
    product_with_free_z,
    right_regular,
    sl2_mod,
)
from permstab.perms import Perm, compose, identity, inverse

from perm_builders import from_cycles, swap


def test_cyclic_basics():
    G = cyclic(6)
    assert G.order == 6 and G.mul(4, 5) == 3 and G.inv(2) == 4
    assert G.is_abelian
    assert G.element_order(2) == 3


def _scalar_order(G, g):
    k, x = 1, g
    while x != G.identity_index:
        x, k = G.mul(x, g), k + 1
    return k


@pytest.mark.parametrize("spec", ["sl2_mod(5)", "table of sl2_mod(3)", "cyclic(2000)"])
def test_element_order_array(spec):
    if spec == "cyclic(2000)":  # blocks stop doubling at 8 rows, then move on by g^8
        G = cyclic(2000)
        want = [2000 // math.gcd(g, 2000) for g in range(2000)]
    else:
        G = sl2_mod(5) if spec == "sl2_mod(5)" else _table_of(sl2_mod(3))
        want = [_scalar_order(G, g) for g in range(G.order)]
    idx = np.arange(G.order)
    assert G.element_order(idx).tolist() == want
    assert G.element_order(idx.reshape(-1, 2)).tolist() == np.reshape(want, (-1, 2)).tolist()
    some = range(0, G.order, G.order // 100 + 1)
    assert [G.element_order(g) for g in some] == [want[g] for g in some]
    assert all(type(G.element_order(g)) is int for g in some)


def _table_of(G):
    idx = np.arange(G.order)
    return TableGroup(G.mul_many(idx[:, None], idx[None, :]), generators=list(G.generators))


def test_sl2_orders():
    for p in (2, 3, 5, 7, 11, 13):
        X = sl2_mod(p)
        assert X.order == p * (p * p - 1) * (1 if p > 2 else 1)


def test_sl2_order_small():
    assert sl2_mod(2).order == 6  # isomorphic to Sym(3)
    assert sl2_mod(3).order == 24


def test_sl2_structure():
    X = sl2_mod(5)
    e = X.identity_index
    assert X.mul(e, 3) == 3
    for g in range(0, X.order, 7):
        assert X.mul(g, X.inv(g)) == e
    assert X.label(e) == "[[1,0],[0,1]]"
    assert X.generates(X.generators)


def test_sl2_canonical_f2_images_generate():
    for p in (3, 5, 7, 11, 13):
        X = sl2_mod(p)
        a = X.index_of(1, 2, 0, 1)
        b = X.index_of(1, 0, 2, 1)
        assert X.generates([a, b]), p


def test_generates_empty_and_partial_seeds():
    assert cyclic(1).generates([]) and not cyclic(3).generates([])
    assert cyclic(6).generates([2, 3]) and not cyclic(6).generates([2])
    X = sl2_mod(5)
    assert not X.generates([X.generators[0]])


def _bfs_closure(G, seed):
    """The closure as the BFS lists it: the identity, then each level of `_spread`."""
    return [G.identity_index] + [h for level in G._spread(seed) for h in level.tolist()]


def _one_element_cases():
    X = sl2_mod(7)
    orders = X.element_order(np.arange(X.order))
    for k in np.unique(orders).tolist():  # one g of every order in SL2(Z/7)
        yield pytest.param(X, int(np.flatnonzero(orders == k)[0]), id=f"sl2(7)-order-{k}")
    X43 = sl2_mod(43)
    yield pytest.param(X43, X43.index_of(1, 2, 0, 1), id="sl2(43)-u")
    yield pytest.param(X43, X43.identity_index, id="sl2(43)-identity")
    yield pytest.param(cyclic(97), 5, id="cyclic(97)-generator")
    G = direct_product(cyclic(4), sl2_mod(3))
    yield pytest.param(G, 1 * G.right.order + G.right.index_of(1, 1, 0, 1), id="cyclic(4)xsl2(3)")


@pytest.mark.parametrize("G, g", list(_one_element_cases()))
def test_one_element_closure_matches_bfs(G, g):
    powers = G.closure([g])
    assert powers.dtype == np.int64 and powers.tolist() == _bfs_closure(G, [g])
    assert len(powers) == G.element_order(g)


def _criterion_5_groups():
    z26 = cyclic(2)
    for _ in range(5):
        z26 = direct_product(z26, cyclic(2))
    yield z26, [z26.generators, z26.generators[:-1], list(range(1, z26.order)), [3, 5, 6]]
    for n in range(6, 121):
        yield cyclic(n), [[1], [2], [3], [n // 2, n // 3], []]


def test_generates_matches_inverse_seeded_closure():
    for G, seeds in _criterion_5_groups():
        for seed in seeds:
            with_inverses = sorted({*seed, *(G.inv(s) for s in seed)})
            assert G.generates(seed) == (len(_bfs_closure(G, with_inverses)) == G.order), (G, seed)


def test_sl2_cap():
    # |SL2(Z/59)| = 205,320 exceeds SL2_ORDER_CAP = 200,000
    with pytest.raises(CapacityError):
        sl2_mod(59)


def test_sl2_entries_fit_int16_under_the_cap(monkeypatch):
    # the largest modulus the cap admits is 66, where 2·65² = 8,450; from 1,291 on, n³
    # overflows the int32 lookup key, which the constructor refuses first
    largest = max(n for n in range(2, 1300) if groups._sl2_order(n) <= groups.SL2_ORDER_CAP)
    assert largest == 66
    assert 2 * (largest - 1) ** 2 <= np.iinfo(np.int16).max
    assert sl2_mod(largest).entries.dtype == np.int16
    # 2·129² = 33,282 would need int32; the cap refuses 130 before any table is built
    monkeypatch.setattr(groups, "_sl2_tables", lambda n: pytest.fail("enumerated past the cap"))
    with pytest.raises(CapacityError, match="exceeds cap"):
        sl2_mod(130)


def _sl2_matrices(n):
    """Every matrix of SL2(Z/n) in lexicographic (a, b, c, d) order, as (N, 2, 2) int64."""
    b, c, d = np.indices((n, n, n)).reshape(3, -1)
    rows = [np.stack([np.full_like(b, a), b, c, d], 1)[(a * d - b * c) % n == 1] for a in range(n)]
    return np.concatenate(rows).reshape(-1, 2, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 13, 25, 27, 43])
def test_sl2_kernel_matches_matrix_product(n):
    # composite moduli give runs of several d per (a, b, c) prefix, and at 25 and 27 the
    # closed-form enumeration meets a with gcd(a, n) > 1 at a prime power; the swap search
    # runs at 43
    X = sl2_mod(n)
    mats = _sl2_matrices(n)
    assert len(mats) == X.order
    if n <= 13:
        brute = itertools.product(range(n), repeat=4)
        brute = [m for m in brute if (m[0] * m[3] - m[1] * m[2]) % n == 1]
        assert brute == list(map(tuple, mats.reshape(-1, 4).tolist()))
    place = n ** np.arange(3, -1, -1)
    codes = mats.reshape(-1, 4) @ place  # increasing, since mats is lexicographic

    def index(m):  # indices of integer matrices (..., 2, 2), reduced mod n explicitly
        key = (m % n).reshape(*m.shape[:-2], 4) @ place
        found = np.searchsorted(codes, key)
        assert np.array_equal(codes[found], key)
        return found

    assert np.array_equal(X.entries.T, mats.reshape(-1, 4))  # row for row
    assert [X.index_of(*m) for m in mats.reshape(-1, 4).tolist()] == list(range(X.order))
    rng = np.random.default_rng(n)
    xs = rng.integers(0, X.order, 40)
    ys = rng.integers(0, X.order, 30)
    expected = index(mats[xs, None] @ mats[None, ys])
    # broadcasts larger than one kernel block of 4·CHUNK_ENTRIES products: 301 rows of 513
    # columns make blocks of 127 rows and a ragged last one; `long` spans two 1-D blocks
    rows = rng.integers(0, X.order, 301)
    cols = rng.integers(0, X.order, 4 * CHUNK_ENTRIES // 128 + 1)
    long = rng.integers(0, X.order, 4 * CHUNK_ENTRIES + 1001)
    g = rng.integers(0, X.order)
    tall = rng.integers(0, X.order, (4 * CHUNK_ENTRIES // 3 + 7, 3))
    every = np.arange(X.order)
    adjugate = np.swapaxes(mats[:, ::-1, ::-1], 1, 2) * [[1, -1], [-1, 1]]  # [[d, -b], [-c, a]]
    for got, want in [
        (X.mul_many(xs[:, None], ys[None, :]), expected),
        (X.mul_many(np.int64(xs[0]), ys), expected[0]),
        (X.mul_many(xs, np.int64(ys[0])), expected[:, 0]),
        (X.mul_many(rows[:, None], cols[None, :]), index(mats[rows, None] @ mats[None, cols])),
        (X.mul_many(cols[None, :], rows[:, None]), index(mats[None, cols] @ mats[rows, None])),
        (X.mul_many(long, np.int64(g)), index(mats[long] @ mats[g])),
        (X.mul_many(np.int64(g), long), index(mats[g] @ mats[long])),
        # an (N, 4) broadcast runs transposed, with a ragged last block
        (X.mul_many(long[:, None], ys[None, :4]), index(mats[long, None] @ mats[None, ys[:4]])),
        (X.mul_many(tall, tall[::-1]), index(mats[tall] @ mats[tall[::-1]])),
        (X.inv_many(every), index(adjugate)),
        (X.inv_many(long), index(adjugate[long])),
        # β(x) = (xᵀ)⁻¹ = [[d, -c], [-b, a]]
        (X.automorphism_many(every), index(np.swapaxes(adjugate, 1, 2))),
        (X.automorphism_many(long), index(np.swapaxes(adjugate, 1, 2)[long])),
    ]:
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert np.ndim(X.mul_many(np.int64(xs[0]), np.int64(ys[0]))) == 0
    assert X.mul(int(xs[0]), int(ys[0])) == expected[0, 0]
    assert X.inv(int(g)) == index(adjugate[g])


@pytest.mark.parametrize("n", list(range(2, 17)) + [43])
def test_transpose_inverse_is_an_involutive_automorphism(n):
    X = sl2_mod(n)
    every = np.arange(X.order)
    beta = X.automorphism_many(every)
    assert np.array_equal(beta[beta], every)  # an involution, so a bijection
    GroupHom(X, X, beta).verify()  # the exact generator-wise check
    assert cyclic(n).automorphism_many is None  # no other group supplies one


def test_sl2_kernel_memory_is_its_output():
    # the kernel works in blocks, so a large broadcast adds little beyond its int64 output
    X = sl2_mod(43)
    rng = np.random.default_rng(43)
    a, b = rng.integers(0, X.order, 1848), rng.integers(0, X.order, 1082)
    # and a narrow trailing axis, which runs transposed block by block
    long, four = rng.integers(0, X.order, 200_000), rng.integers(0, X.order, 4)
    for left, right in [(a[:, None], b[None, :]), (long[:, None], four[None, :])]:
        tracemalloc.start()
        try:
            out = X.mul_many(left, right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * 2**20


def _sl2_rows(a, n):
    """The a, b, c, d rows of SL2(Z/n) with top-left entry a, in lexicographic
    order, one n² mask per a: the reference for the gcd-class enumeration."""
    g = math.gcd(a, n)
    m = n // g
    b, c = np.divmod(np.arange(n * n), n)
    q, r = np.divmod(b * c + 1, g)
    ok = r == 0
    d = (q[ok] * pow(a // g, -1, m) % m)[:, None] + m * np.arange(g)  # d₀ + k·m
    return np.stack([np.full(d.size, a), np.repeat(b[ok], g), np.repeat(c[ok], g), d.ravel()])


def test_sl2_tables_match_the_per_entry_reference():
    # n = 59 is over the order cap, so the tables are built directly
    for n in range(2, 61):
        rows = np.concatenate([_sl2_rows(a, n) for a in range(n)], axis=1)
        width = np.int16 if 2 * (n - 1) ** 2 <= np.iinfo(np.int16).max else np.int32
        entries, first = groups._sl2_tables(n)
        assert entries.dtype == width and entries.tobytes() == rows.astype(width).tobytes(), n
        prefix = (rows[0] * n + rows[1]) * n + rows[2]
        starts = np.flatnonzero(np.diff(prefix, prepend=-1))
        want = np.full(n**3, -1, dtype=np.int32)
        want[prefix[starts]] = starts
        assert first.dtype == np.int32 and first.tobytes() == want.tobytes(), n


def test_sl2_generation_record_holds_at_desk_scale():
    # SL2(Z) = ⟨E, F⟩ and reduction mod n is onto: the record, checked by the plain BFS
    for n in range(2, 41):
        X = sl2_mod(n)
        E, F = X.index_of(1, 1, 0, 1), X.index_of(1, 0, 1, 1)
        assert X._generated_by == X.generators == [E, F], n
        assert X.generates(X.generators), n


def test_sl2_record_skips_only_the_closure(monkeypatch):
    X = sl2_mod(5)
    closures = []
    generates = groups.FinGroup.generates
    monkeypatch.setattr(groups.FinGroup, "generates", lambda G, seed: closures.append(list(seed)) or generates(G, seed))
    trivial = np.full(X.order, cyclic(2).identity_index)
    GroupHom(X, cyclic(2), trivial).verify()
    bad = trivial.copy()
    bad[X.generators[0]] = 1  # SL2(Z/5) is perfect: no nontrivial map to Z/2 is multiplicative
    with pytest.raises(NotAHomomorphismError, match="not multiplicative"):
        GroupHom(X, cyclic(2), bad).verify()
    assert closures == []
    E, F = X.generators
    X.generators = [F, E]  # reassigned: the record no longer covers it
    GroupHom(X, cyclic(2), trivial).verify()
    X.generators = [E]
    with pytest.raises(NotAHomomorphismError, match="generators do not generate the group"):
        GroupHom(X, cyclic(2), trivial).verify()
    assert closures == [[F, E], [E]]


@pytest.mark.parametrize("p", [7, 13])
def test_sanov_pair_is_onto_by_the_record(spread_levels, p):
    # E = [[1,2],[0,1]]^((p+1)/2) and F = [[1,0],[2,1]]^((p+1)/2): no BFS level
    X = sl2_mod(p)
    h = MarkedHom(MarkedGroup.free(2), X, [X.index_of(1, 2, 0, 1), X.index_of(1, 0, 2, 1)])
    assert h.surjective and h.image is None and spread_levels == []


def test_surjectivity_falls_back_to_the_closure(spread_levels):
    X = sl2_mod(7)
    E, F = X.generators
    EF = X.mul(E, F)
    # ⟨EF⟩ and ⟨F⟩ miss E, so the cyclic test cannot decide, and the BFS finds ⟨EF, F⟩ = X
    assert not any(E in X.closure([g]) for g in (EF, F))
    onto = MarkedHom(MarkedGroup.free(2), X, [EF, F])
    assert onto.surjective and onto.image is None and spread_levels != []
    # a proper image keeps the closure, in closure order
    E2 = X.mul(E, E)
    proper = MarkedHom(MarkedGroup.free(2), X, [E, E2])
    assert not proper.surjective and proper.image.dtype == np.int64
    assert proper.image.tolist() == _bfs_closure(X, [E, E2])


def test_sl2_tables_certified_at_construction(monkeypatch):
    # with every gcd(a, n) taken as 1, a non-unit a finds the wrong d in its run
    monkeypatch.setattr(np, "gcd", lambda a, n: np.ones_like(a))
    with pytest.raises(CertificateError, match="^the lookup table misses an SL2 matrix"):
        sl2_mod(4)


def test_sl2_key_capacity():
    # (a·n + b)·n + c must fit int32: refused before anything is enumerated
    with pytest.raises(CapacityError, match="int32"):
        sl2_mod(1291)


def test_direct_product():
    G = direct_product(cyclic(3), cyclic(4))
    assert G.order == 12 and G.is_abelian
    a = 1 * G.right.order + 2
    b = 2 * G.right.order + 3
    assert divmod(G.mul(a, b), G.right.order) == (0, 1)


def _z2_power(k):
    G = cyclic(2)
    for _ in range(k - 1):
        G = direct_product(G, cyclic(2))
    return G


@pytest.mark.parametrize(
    "G",
    [_z2_power(k) for k in range(2, 8)] + [direct_product(cyclic(4), sl2_mod(3))],
    ids=[f"z2^{k}" for k in range(2, 8)] + ["cyclic(4)xsl2(3)"],
)
def test_small_direct_product_table_matches_factor_arithmetic(G):
    # |G|² <= CHUNK_ENTRIES: every product and inverse is read from the table
    # the factors filled, and equals the factor arithmetic
    assert G.order**2 <= CHUNK_ENTRIES and G._table is not None
    idx = np.arange(G.order)
    want = G._factor_mul(idx[:, None], idx[None, :])
    assert np.array_equal(G.mul_many(idx[:, None], idx[None, :]), want)
    assert np.array_equal(G.inv_many(idx), G._factor_inv(idx))
    a, b = G.order - 1, G.order // 2
    assert G.mul(a, b) == want[a, b] and G.inv(b) == G._factor_inv(b)
    m = G.right.order
    i, j = np.divmod(want, m)
    assert np.array_equal(i, G.left.mul_many(idx[:, None] // m, idx[None, :] // m))
    assert np.array_equal(j, G.right.mul_many(idx[:, None] % m, idx[None, :] % m))


def test_larger_direct_product_stays_arithmetic():
    G = direct_product(cyclic(11), cyclic(12))  # 132² > CHUNK_ENTRIES
    assert G._table is None and G._inv is None
    idx = np.arange(G.order)
    want = ((idx[:, None] // 12 + idx[None, :] // 12) % 11) * 12 + (idx[:, None] + idx[None, :]) % 12
    assert np.array_equal(G.mul_many(idx[:, None], idx[None, :]), want)
    assert np.array_equal(G.inv_many(idx), (-(idx // 12) % 11) * 12 + (-idx % 12))


def test_group_from_perm_generators():
    g = group_from_perm_generators([swap(2, 0, 1)])
    assert g.order == 2
    s3 = group_from_perm_generators([from_cycles(3, [(0, 1, 2)]), swap(3, 0, 1)])
    assert s3.order == 6
    assert s3.identity_index == 0


def _closure_reference(gens):
    """Scalar BFS closure: rows in discovery order (frontier, then generator)."""
    rows = [np.arange(gens[0].n)]
    index = {rows[0].tobytes(): 0}
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = rows[e][g.image]
                if f.tobytes() not in index:
                    index[f.tobytes()] = len(rows)
                    nxt.append(len(rows))
                    rows.append(f)
        frontier = nxt
    return np.stack(rows), [index[g.image.tobytes()] for g in gens], index


def _n_cycle(n):
    return Perm(np.roll(np.arange(n), 1))


def _perm_group_cases():
    rng = np.random.default_rng(8)
    X = sl2_mod(5)
    five_cycle = from_cycles(5, [(0, 1, 2, 3, 4)])
    return {
        "sym3": [from_cycles(3, [(0, 1, 2)]), swap(3, 0, 1)],
        "sl2_5_regular": [X.left_perm(g) for g in X.generators],
        "random_7": [Perm(rng.permutation(7)), Perm(rng.permutation(7))],
        "identity_and_repeat": [identity(5), five_cycle, five_cycle],
        # one generator, closed by doubling
        "cycle_2": [swap(2, 0, 1)],
        "cycle_120": [_n_cycle(120)],
        "cycles_3_5_7": [from_cycles(15, [(0, 1, 2), (3, 4, 5, 6, 7), tuple(range(8, 15))])],
        "random_40": [Perm(rng.permutation(40))],
        "identity": [identity(6)],
    }


@pytest.mark.parametrize("name", sorted(_perm_group_cases()))
def test_perm_group_matches_scalar_reference(name):
    gens = _perm_group_cases()[name]
    rows, gen_indices, index = _closure_reference(gens)
    K = group_from_perm_generators(gens)
    assert K.rows.dtype == np.int64 and np.array_equal(K.rows, rows)
    assert K.order == len(rows) and K.points == gens[0].n
    assert K.generators == gen_indices and K.identity_index == 0
    if len(gens) == 1:  # [g, g] takes the BFS with its lookups, whose level j is {g^j}
        assert np.array_equal(K.rows, group_from_perm_generators(gens * 2).rows)
    rng = np.random.default_rng(K.order)
    a = rng.integers(0, K.order, 70)
    b = rng.integers(0, K.order, 80)
    perm = [Perm(r) for r in rows]
    want = np.array([[index[compose(perm[x], perm[y]).image.tobytes()] for y in b] for x in a])
    want_inv = np.array([index[inverse(perm[x]).image.tobytes()] for x in a])
    for got, expected in [
        (K.mul_many(a[:, None], b[None, :]), want),  # (k,1) x (1,m)
        (K.mul_many(a, b[:70]), want[np.arange(70), np.arange(70)]),
        (K.mul_many(np.int64(a[0]), b), want[0]),
        (K.mul_many(a[:3, None], np.int64(b[0])), want[:3, :1]),
        (K.mul_many(np.int64(a[1]), np.int64(b[1])), want[1, 1]),
        (K.inv_many(a), want_inv),
        (K.inv_many(a.reshape(7, 10)), want_inv.reshape(7, 10)),
        (K.inv_many(np.int64(a[2])), want_inv[2]),
    ]:
        assert got.dtype == np.int64 and got.shape == np.shape(expected)
        assert np.array_equal(got, expected)
    assert K.mul(int(a[0]), int(b[0])) == want[0, 0] and K.inv(int(a[0])) == want_inv[0]


def test_group_from_perm_generators_sl2_regular():
    X = sl2_mod(5)
    gens = [X.left_perm(g) for g in X.generators]
    g = group_from_perm_generators(gens)
    assert g.order == 120


def test_group_from_perm_generators_cap(monkeypatch):
    X = sl2_mod(5)
    gens = [X.left_perm(g) for g in X.generators]
    monkeypatch.setattr(groups, "PERM_CLOSURE_CAP", 119)
    with pytest.raises(CapacityError, match="perm closure exceeds cap 119"):
        group_from_perm_generators(gens)
    # one generator: a 7- and a 17-cycle (order 119) fit, a 120-cycle does
    # not, nor a 300-cycle, whose next doubling block would overshoot the cap
    assert group_from_perm_generators([from_cycles(24, [range(7), range(7, 24)])]).order == 119
    for n in (120, 300):
        for gens in ([_n_cycle(n)], [_n_cycle(n)] * 2):
            with pytest.raises(CapacityError, match="perm closure exceeds cap 119"):
                group_from_perm_generators(gens)


def _python_bfs(G, letters):
    """Each BFS level's new elements, sorted, from scalar products in a Python loop."""
    seen, frontier, levels = {G.identity_index}, [G.identity_index], []
    while frontier:
        frontier = sorted({G.mul(x, s) for x in frontier for s in letters} - seen)
        seen.update(frontier)
        levels.append(frontier)
    return levels


@pytest.mark.parametrize("name", ["sl2:7", "sl2:12", "cyclic:30", "sl2:5 x cyclic:4", "table"])
def test_spread_levels_match_python_bfs(name):
    if name == "table":  # SL2(Z/3) through its multiplication table
        X = sl2_mod(3)
        idx = np.arange(X.order)
        G = TableGroup(X.mul_many(idx[:, None], idx[None, :]), X.generators)
    elif name == "sl2:5 x cyclic:4":
        G = direct_product(sl2_mod(5), cyclic(4))
    else:
        kind, n = name.split(":")
        G = sl2_mod(int(n)) if kind == "sl2" else cyclic(int(n))
    gens = list(G.generators)
    letter_sets = [gens + [G.inv(g) for g in gens], gens[::-1] + gens]  # a repeated letter
    if name == "cyclic:30":
        letter_sets.append([12, 20, 18])  # spans the subgroup of order 15
    for letters in letter_sets:
        got = list(G._spread(np.asarray(letters, dtype=np.int64)))
        assert all(level.dtype == np.int64 for level in got)
        assert [level.tolist() for level in got] == _python_bfs(G, letters)


def _z4_table():
    idx = np.arange(4)
    return (idx[:, None] + idx[None, :]) % 4


def test_table_group_identity_and_inverses():
    z4 = TableGroup(_z4_table(), generators=[1])
    assert z4.identity_index == 0 and z4.inv_many(np.arange(4)).tolist() == [0, 3, 2, 1]
    assert TableGroup(np.zeros((2, 2)) + np.arange(2), generators=[]).identity_index == 0  # first match
    with pytest.raises(ValueError, match="no identity element"):
        TableGroup(np.zeros((4, 4)), generators=[])
    for row, col, value in ((2, 3, 0), (1, 3, 1)):  # row 2 hits the identity twice, row 1 never
        bad = _z4_table()
        bad[row, col] = value
        with pytest.raises(ValueError, match="no unique inverse"):
            TableGroup(bad, generators=[1])


def test_hom_verify_catches_one_corrupted_element():
    # x -> x mod 2 on Z/40000, wrong at x = 2 only; a sample of 10k random
    # pairs drawn with seed 0 never touches 2 as x, y or x·y
    G, H = cyclic(40000), cyclic(2)
    image = np.arange(G.order) % 2
    GroupHom(G, H, image).verify()
    image[2] = 1
    with pytest.raises(NotAHomomorphismError):
        GroupHom(G, H, image).verify()


def test_action_verify_catches_one_corrupted_element():
    # Z/10000 acting on two points through x mod 2, wrong at x = 7 only; a
    # sample of 4096 random pairs drawn with seed 0 never touches 7
    G = cyclic(10000)
    rows = np.array([[1, 0] if x % 2 else [0, 1] for x in range(G.order)])
    PermAction(G, rows).verify()
    rows[7] = [0, 1]
    with pytest.raises(NotAnActionError):
        PermAction(G, rows).verify()


def test_verify_requires_generating_set():
    z4 = TableGroup(_z4_table(), generators=[2])  # generates {0, 2} only
    with pytest.raises(NotAHomomorphismError):
        GroupHom(z4, cyclic(4), np.arange(4)).verify()
    with pytest.raises(NotAnActionError):
        left_regular(z4).verify()
    # with no generator to force f(e) = e, only the identity test can fail
    trivial = TableGroup(np.zeros((1, 1), dtype=np.int64), generators=[])
    with pytest.raises(NotAHomomorphismError, match="identity"):
        GroupHom(trivial, cyclic(2), [1]).verify()
    with pytest.raises(NotAnActionError, match="identity"):
        PermAction(trivial, [[1, 0]]).verify()


def test_a_group_of_order_above_one_without_generators_is_refused():
    # the closure of no generators is {e}, so no check may pass on the rest
    for G in (cyclic(3), sl2_mod(5)):
        G.generators = []
        with pytest.raises(NotAHomomorphismError, match="generators do not generate the group"):
            GroupHom(G, G, np.arange(G.order)).verify()
        with pytest.raises(NotAnActionError, match="generators do not generate the group"):
            left_regular(G).verify()


def test_greedy_generators_are_positions_or_none():
    X = sl2_mod(5)
    e = X.identity_index
    assert X.greedy_generators(np.delete(np.arange(X.order), e)) is None  # no e
    assert X.greedy_generators([X.generators[0]]) is None  # no e, and no column to refute it
    assert X.greedy_generators([e]) == []
    Z12 = cyclic(12)
    assert Z12.greedy_generators([0, 3, 6, 9]) == [1]  # the position of 3
    assert Z12.greedy_generators([0, 3, 6]) is None  # 6 + 6 falls outside
    # ⟨(0, 1)⟩ = positions 0..3, then (1, 0) at position 4
    assert direct_product(cyclic(2), cyclic(4)).greedy_generators(range(8)) == [1, 4]


def test_verify_skips_generation_only_for_the_proven_list(monkeypatch):
    rows = group_from_perm_generators([from_cycles(4, [(0, 1, 2, 3)])]).rows  # e, c, c², c³
    halves = groups.PermGroup(rows, [2])  # ⟨c²⟩ ≠ the group, and no record
    with pytest.raises(NotAHomomorphismError, match="generators do not generate the group"):
        GroupHom(halves, cyclic(4), np.arange(4)).verify()
    closures = []
    generates = groups.FinGroup.generates
    monkeypatch.setattr(groups.FinGroup, "generates", lambda G, seed: closures.append(list(seed)) or generates(G, seed))
    proven = groups.PermGroup(rows, [1], proven=True)
    GroupHom(proven, cyclic(4), np.arange(4)).verify()
    PermAction(proven, rows).verify()
    assert closures == []
    proven.generators = [2]  # reassigned: the record no longer covers it
    with pytest.raises(NotAnActionError, match="generators do not generate the group"):
        PermAction(proven, rows).verify()
    proven.generators = [3]
    GroupHom(proven, cyclic(4), np.arange(4) * 3 % 4).verify()
    assert closures == [[2], [3]]


def test_perm_action_rejects_non_actions():
    G = cyclic(3)
    rows = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    act = PermAction(G, rows)
    assert act.points == 3 and act.rows.dtype == np.int64
    assert act.perms == [Perm(r) for r in rows]
    with pytest.raises(ValueError):  # the Perm views are read-only
        act.perms[1].image[0] = 0
    for bad_row in ([1, 1, 0], [0, 1, 3], [-1, 0, 1]):
        bad = rows.copy()
        bad[1] = bad_row
        with pytest.raises(NotAnActionError, match="not a permutation"):
            PermAction(G, bad)
    for wrong_count in (rows[:2], np.vstack([rows, rows[:1]]), rows[0]):
        with pytest.raises(NotAnActionError, match="one permutation per group element"):
            PermAction(G, wrong_count)


def _orbits_reference(action):
    """Scalar BFS along every generator and its inverse."""
    steps = [p for g in action.group.generators for p in (action.perms[g], inverse(action.perms[g]))]
    orbits, seen = [], set()
    for x in range(action.points):
        if x in seen:
            continue
        orbit, queue = {x}, [x]
        while queue:
            y = queue.pop()
            for p in steps:
                if p(y) not in orbit:
                    orbit.add(p(y))
                    queue.append(p(y))
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def _orbit_cases():
    z6 = cyclic(6)
    z2_z3 = direct_product(cyclic(2), cyclic(3))  # generators 3 = (1,0) and 1 = (0,1)
    trivial = TableGroup(np.zeros((1, 1), dtype=np.int64), generators=[])
    c = from_cycles(9, [(0, 1), (2, 3, 4), (6, 8)]).image
    c_pow = [np.arange(9)]
    for _ in range(5):
        c_pow.append(c[c_pow[-1]])  # x ↦ c^x on Z/6
    u = from_cycles(7, [(0, 1), (5, 6)]).image
    v = from_cycles(7, [(2, 3, 4)]).image
    u_pow, v_pow = [np.arange(7), u], [np.arange(7), v, v[v]]
    z6_act = PermAction(z6, c_pow)
    z2_z3_act = PermAction(z2_z3, [ua[vb] for ua in u_pow for vb in v_pow])  # 3a + b ↦ u^a∘v^b
    z6_act.verify()
    z2_z3_act.verify()
    return {
        "regular_z12": left_regular(cyclic(12)),
        "regular_sl2_3": right_regular(sl2_mod(3)),
        "z6_three_orbits": z6_act,
        "z2_z3_two_generators": z2_z3_act,
        "no_generators": PermAction(trivial, np.arange(4)[None, :]),
    }


@pytest.mark.parametrize("name", sorted(_orbit_cases()))
def test_orbits_and_stabilizers_match_scalar_reference(name):
    act = _orbit_cases()[name]
    assert _orbits(act) == _orbits_reference(act)


def test_marked_groups():
    f2 = MarkedGroup.free(2)
    assert f2.relators == ()
    z2 = MarkedGroup.free_abelian(2)
    assert z2.relators == ((1, 2, -1, -2),)
    with pytest.raises(ValueError):
        MarkedGroup(1, ((2,),))


def test_product_with_free_z_presentation():
    mk = product_with_free_z(MarkedGroup.free(2), MarkedGroup.free_abelian(1))
    # generators: two from the free factor, t, one commuting generator
    assert mk.generator_count == 4
    # every relator is a commutator of the free-factor/t side with the last gen
    for rel in mk.relators:
        assert len(rel) == 4 and abs(rel[1]) == 4


def test_marked_hom():
    z = MarkedGroup.free_abelian(1)
    X = cyclic(5)
    h = MarkedHom(z, X, [2])
    assert h.surjective and h.evaluate([1, 1, 1]) == 1
    zz = MarkedGroup.free_abelian(2)
    with pytest.raises(NotAHomomorphismError):
        # images must commute for a free-abelian presentation
        Y = sl2_mod(3)
        MarkedHom(zz, Y, list(Y.generators))


def test_regular_actions_commute():
    G = sl2_mod(3)
    alpha = left_regular(G)
    beta = right_regular(G)
    alpha.verify()
    beta.verify()
    for g in G.generators:
        for h in G.generators:
            a, b = alpha.rows[g], beta.rows[h]
            assert np.array_equal(a[b], b[a])  # α(g)∘β(h) = β(h)∘α(g)


def _brute_force_reps(G, H):
    """The smallest index of every x·H, by one product per (x, h)."""
    return sorted({min(G.mul(x, h) for h in H) for x in range(G.order)})


def test_left_coset_reps():
    X = sl2_mod(7)
    q = MarkedHom(MarkedGroup.free_abelian(1), X, [X.index_of(1, 2, 0, 1)])
    H = np.sort(q.image)
    assert len(H) == 7
    reps = left_coset_reps(X, H)
    assert len(reps) == X.order // 7 == 48
    # reps are smallest-index and cover everything
    assert reps == _brute_force_reps(X, H)
    cover = set()
    for r in reps:
        for h in H:
            cover.add(X.mul(r, h))
    assert len(cover) == X.order
    with pytest.raises(NotASubgroupError):
        left_coset_reps(X, [1, 2, 3])
    s = X.index_of(0, 6, 1, 6)  # {e, s} misses s² when s has order 3
    assert X.element_order(s) == 3
    with pytest.raises(NotASubgroupError):
        left_coset_reps(X, [X.identity_index, s])


Z4_Z6 = direct_product(cyclic(4), cyclic(6))
SL2_4 = sl2_mod(4)
SL2_5 = sl2_mod(5)


@pytest.mark.parametrize(
    "G, H",
    [
        (Z4_Z6, [0, 3, 12, 15]),  # <(2,0), (0,3)>: not cyclic, index 6
        # <[[1,1],[0,1]], -I>: Z/4 x Z/2 in a non-abelian group
        (SL2_4, SL2_4.closure([SL2_4.index_of(1, 1, 0, 1), SL2_4.index_of(3, 0, 0, 3)])),
        (SL2_5, [SL2_5.identity_index]),  # H = {e}
        (SL2_5, list(range(SL2_5.order))),  # H = G
    ],
)
def test_left_coset_reps_smallest_index(G, H):
    reps = left_coset_reps(G, H)
    assert reps == _brute_force_reps(G, H)
    assert len(reps) * len(set(H)) == G.order
    if len(H) == 1:
        assert reps == list(range(G.order))
    if len(H) == G.order:
        assert reps == [0]


def _cyclic_cases():
    """(G, s): unipotent s in SL2(Z/p) at p = 7 and 43, and a rotation of order 12 in
    the dihedral group of order 24 that is not the least generator of its subgroup."""
    for p in (7, 43):
        X = sl2_mod(p)
        yield X, X.index_of(1, 2, 0, 1)
    D = group_from_perm_generators([Perm(np.roll(np.arange(12), 1)), Perm(np.arange(12)[::-1].copy())])
    rotations = D.closure([D.generators[0]])
    s = max(r for r in rotations if D.element_order(r) == 12)
    assert s > min(r for r in rotations if D.element_order(r) == 12)
    yield D, s


@pytest.mark.parametrize("G, s", list(_cyclic_cases()), ids=["sl2(7)", "sl2(43)", "dihedral(12)"])
def test_cycle_min_matches_min_labels(G, s):
    m = G.element_order(s)
    step = G.mul_many(np.arange(G.order), np.int64(s))
    rep, back = _cycle_min(step, m)
    assert np.array_equal(rep, _min_labels([step], G.order))
    assert ((0 <= back) & (back < m)).all()
    walk = np.arange(G.order)  # step^r
    for r in range(m):
        hit = back == r
        assert np.array_equal(walk[hit], rep[hit])
        walk = step[walk]
    H = G.closure([s])
    assert left_coset_reps(G, H) == np.unique(rep).tolist()
    if G.order <= 400:
        assert left_coset_reps(G, H) == _brute_force_reps(G, H)


def test_lagrange_property():
    X = sl2_mod(5)
    for seed in ([X.generators[0]], [X.generators[1]], list(X.generators)):
        H = X.closure(sorted(set(seed) | {X.inv(s) for s in seed}))
        assert X.order % len(H) == 0


@settings(max_examples=20)
@given(st.integers(2, 10), st.integers(0, 100))
def test_cyclic_group_laws(n, seed):
    G = cyclic(n)
    rng = np.random.default_rng(seed)
    a, b, c = rng.integers(0, n, 3)
    assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
    assert G.mul(a, G.inv(a)) == G.identity_index
