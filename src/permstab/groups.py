"""Fully enumerated finite groups, homomorphisms, actions and coset machinery.

Elements of a group of order N are the indices 0..N-1, and index arrays are
the only currency.  `TableGroup` looks products up in a flat multiplication
table, and so does a small `DirectProductGroup`: when |A×B|² <= CHUNK_ENTRIES
(|A×B| <= 128), its factor arithmetic fills a product table and an inverse
array once, at construction, and each call is then one gather, about 11×
faster than the five nested levels of factor arithmetic of (ℤ/2)⁶ on a 64×64
broadcast.  Larger products keep the arithmetic.  `CyclicGroup` stays
arithmetic: its product is one add and one mod, within 1.4× of a gather on a
120×120 broadcast at n = 120, and a table would be filled anew for every
group built, as each rounding call builds its own.  `SL2Group` computes
products with vectorized arithmetic; `PermGroup` composes its stored
permutation rows in chunks, through buffers allocated once per call, and
finds each product by one `searchsorted` over the rows' sorted byte keys.
Closures of several elements go by one BFS, `FinGroup._spread`, one sorted
array of new elements per level; the closure of one element g, and
`group_from_perm_generators` with one generator, list e, g, g², … by
doubling, and `spectral` builds its characters' word table from such
closures, with no BFS.  `FinGroup.greedy_generators` alone picks generators
of a known subgroup M and proves M closed, on the columns M·s of its
generators s.  An action is one (|G|, n) array of image rows.
Orbits, the cosets of a subgroup with several generators and the swap
search's double cosets of such a subgroup (`families._double_coset_labels`)
share one min-label propagation, `_min_labels`; the cosets of a cyclic
subgroup, its double cosets, and the character blocks' cosets of ⟨h⟩ in
`spectral` are labelled by pointer doubling along one permutation,
`_cycle_min`.  `closure` returns an int64 array.  `GroupHom.verify` and
`PermAction.verify` are one generator-wise check, `_verify_on_generators`;
it skips closing the generators of a group whose construction proved that
they generate it, as long as `generators` is still that list.  `MarkedHom`
reads its surjectivity off that record R when it can: every r ∈ R in the
cyclic span of some generator image makes the map onto, with no BFS.

`SL2Group` records E = [[1,1],[0,1]] and F = [[1,0],[1,1]] as generating
SL2(Z/n): SL2(Z) = ⟨E, F⟩ by Euclid's algorithm on the first column and
−I = (EF⁻¹E)², and reduction SL2(Z) → SL2(Z/n) is onto (Shimura,
*Introduction to the Arithmetic Theory of Automorphic Functions*, 1971,
Lemma 1.38); the steps are in `SL2Group`'s docstring.  It enumerates
SL2(Z/n) in closed form, one gcd class at a time (`_sl2_tables`).  With
g = gcd(a, n) and m = n/g, the d with a·d ≡ 1 + bc (mod n) exist exactly
when g divides 1 + bc, and they are d₀ + k·m for k < g,
d₀ = ((1 + bc)/g)·(a/g)⁻¹ mod m: so the elements with one prefix (a, b, c)
are a contiguous run in lexicographic order, and d's place in its run is
off[d, a] = d // m.  The a with one g share the mask of (b, c), so a class
is one outer product of the (a/g)⁻¹ by the (1 + bc)/g, two classes for a
prime n instead of n masks of n² entries.  The count is certified against
|SL2(Z/n)| = n³·Π(1 - ℓ⁻²), ℓ over the primes dividing n; the same formula
refuses a modulus over the order cap before anything is enumerated.  It
stores the entries a, b, c, d as four contiguous rows of int16: the order
cap admits no modulus above 66, so 2(n-1)², the largest x·y + z·w of
reduced entries, is at most 2·65² = 8,450.  Its kernel multiplies in int16
and reduces mod n in place as x - (x // n)·n, since numpy's `//` by a
scalar is a SIMD loop and its `%` is not.  It then finds the product's
index as first[(a·n + b)·n + c] + off[d, a], into one int64 output.  A broadcast is
done in blocks of about 4·CHUNK_ENTRIES products along its leading axis,
so each block's narrow temporaries stay in cache, and a 2-D block with
more rows than columns runs transposed, so that numpy's inner loop runs
along the block's longer axis; each block gathers its
operands' entries by one `take` along the element axis, about 3× faster
than fancy indexing, and operands whose leading axis is 1 are not sliced
but broadcast inside the arithmetic.  `first`, an int32 table of n³
entries (318 KB at n = 43), holds where each run starts.  Construction
certifies that the tables send every element's entries back
to its index; index arrays come back as int64.  The same `_blockwise`
runs `inv_many`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CapacityError,
    NotAHomomorphismError,
    NotAnActionError,
    NotASubgroupError,
    certify,
)
from .perms import Perm, compose, identity, inverse

PRODUCT_ORDER_CAP = 10_000_000
PERM_CLOSURE_CAP = 100_000
SL2_ORDER_CAP = 200_000
CONJUGACY_CAP = 4096  # largest group whose subgroups are compared up to conjugacy
CHUNK_ENTRIES = 1 << 14  # bounds the temporaries of every chunked array scan


def rows_per_chunk(width: int) -> int:
    """How many rows of `width` entries fit the CHUNK_ENTRIES budget (at least 1)."""
    return max(1, CHUNK_ENTRIES // max(width, 1))


class FinGroup:
    """Base class; subclasses provide mul/inv (scalar and vectorized)."""

    order: int
    identity_index: int
    generators: List[int]
    name: str = "group"

    _abelian: Optional[bool] = None
    # the generator list whose generation the group's construction proved;
    # `_verify_on_generators` closes `generators` only when they differ from it
    _generated_by: Optional[List[int]] = None

    # -- core multiplication ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_many(np.int64(a), np.int64(b)))

    def inv(self, a: int) -> int:
        return int(self.inv_many(np.int64(a)))

    def mul_many(self, a, b) -> np.ndarray:
        raise NotImplementedError

    def inv_many(self, a) -> np.ndarray:
        raise NotImplementedError

    # -- derived helpers ----------------------------------------------------

    def left_perm(self, g: int) -> Perm:
        """x -> g*x as a permutation of element indices."""
        return Perm(self.mul_many(np.int64(g), np.arange(self.order)), _checked=True)

    def right_perm(self, g: int) -> Perm:
        """x -> x*g as a permutation of element indices."""
        return Perm(self.mul_many(np.arange(self.order), np.int64(g)), _checked=True)

    def label(self, g: int) -> str:
        return str(g)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:  # generators commuting with everything force abelian
            idx = np.arange(self.order)
            self._abelian = all(
                np.array_equal(self.mul_many(np.int64(g), idx), self.mul_many(idx, np.int64(g)))
                for g in self.generators
            )
        return self._abelian

    def element_order(self, g, within: Optional[np.ndarray] = None):
        """The order of g; for an array of elements, the array of their orders.

        With `within`, a boolean mask of a subgroup H, the least k >= 1 with
        g^k in H instead.  Walks the powers of every element together, in
        blocks g^(j+1) … g^(j+b) that double up to CHUNK_ENTRIES entries and
        then move on by g^b.
        """
        elems = np.asarray(g, dtype=np.int64)
        flat = elems.ravel()
        e = self.identity_index
        arrived = (lambda p: p == e) if within is None else (lambda p: within[p])
        powers = flat[None, :]  # row i: g^(i+1)
        while 2 * powers.size <= CHUNK_ENTRIES and not arrived(powers).any(axis=0).all():
            powers = np.concatenate([powers, self.mul_many(powers[-1], powers)])
        order, step, done = np.zeros(flat.size, dtype=np.int64), powers[-1], 0
        while True:
            at_e = arrived(powers)
            new = (order == 0) & at_e.any(axis=0)
            order[new] = done + 1 + at_e[:, new].argmax(axis=0)
            if order.all():
                break
            powers, done = self.mul_many(step, powers), done + len(powers)
        return int(order[0]) if elems.ndim == 0 else order.reshape(elems.shape)

    def _spread(self, letters: Sequence[int]):
        """BFS from the identity by right multiplication with `letters`.

        Yields each level's new elements, sorted, as one int64 array; the
        last level yielded is empty.
        """
        letters = np.asarray(letters, dtype=np.int64)
        seen = np.zeros(self.order, dtype=bool)
        seen[self.identity_index] = True
        frontier = np.array([self.identity_index], dtype=np.int64)
        while frontier.size and letters.size:
            prods = self.mul_many(frontier[:, None], letters[None, :]).ravel()
            frontier = np.unique(prods[~seen[prods]])
            seen[frontier] = True
            yield frontier

    def closure(self, seed: Sequence[int]) -> np.ndarray:
        """BFS product closure of a set of element indices, level by level, as int64.

        A one-element seed g gives e, g, g², … by doubling: the block
        g¹ … g^b times its last element is g^(b+1) … g^(2b), so g of order m
        takes ⌈log₂ m⌉ `mul_many` calls, in the BFS's order.
        """
        e = np.array([self.identity_index], dtype=np.int64)
        seed = np.asarray(seed, dtype=np.int64)
        if seed.size == 1:
            powers = seed  # g¹ … g^b
            while not (powers == e).any():
                powers = np.concatenate([powers, self.mul_many(powers[-1], powers)])
            return np.concatenate([e, powers[: int(np.argmax(powers == e))]])
        return np.concatenate([e, *self._spread(seed)])

    def generates(self, seed: Sequence[int]) -> bool:
        # no inverses needed: in a finite group s⁻¹ = s^(ord s − 1)
        return len(self.closure(list(seed))) == self.order

    def greedy_generators(self, members: Sequence[int]) -> Optional[List[int]]:
        """Generators of M = `members` (sorted, distinct element indices),
        picked greedily, as positions in M; None when M is not a subgroup.

        pos maps the group to positions in M, −1 outside it.  The first
        position the span has not reached becomes a generator s, and its
        column pos[M·s] is one `mul_many` of |M| products; |S| <= log₂|M|,
        as each s at least doubles the span.  e ∉ M or a −1 in a column
        refutes closure.  The first s's span is listed by doubling along its
        column (the block {s^k : k < 2^j} joins its image under s^(2^j), and
        a round that adds nothing ends it); later spans grow by a BFS over
        the columns, by gathers only.  Proof: e ∈ M and M·S ⊆ M give
        ⟨S⟩ ⊆ M, and ⟨S⟩ covers M, so M = ⟨S⟩ is a subgroup.
        """
        members = np.asarray(members, dtype=np.int64)
        pos = np.full(self.order, -1, dtype=np.int64)
        pos[members] = np.arange(members.size)
        reached = np.arange(members.size) == pos[self.identity_index]  # no position if e ∉ M
        if not reached.any():
            return None
        gens, cols = [], []
        while not reached.all():
            s = int(np.argmin(reached))  # the first position outside the span
            col = pos[self.mul_many(members, members[s])]  # position i: members[i]·s
            if (col < 0).any():
                return None
            gens.append(s)
            cols.append(col)
            if len(cols) == 1:
                jump = col
                while not reached[grown := jump[reached]].all():
                    reached[grown] = True
                    jump = jump[jump]
                continue
            letters, frontier = np.stack(cols), np.flatnonzero(reached)
            while frontier.size:
                new = letters[:, frontier].ravel()
                frontier = np.unique(new[~reached[new]])
                reached[frontier] = True
        return gens

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, order={self.order})"


class TableGroup(FinGroup):
    """Group backed by a flat order x order multiplication table."""

    def __init__(
        self,
        table: np.ndarray,
        generators: Sequence[int],
        name: str = "table-group",
        identity_index: Optional[int] = None,
    ):
        table = np.asarray(table, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("table must be square")
        self.order = n
        self.table = table
        if identity_index is None:
            matches = np.nonzero((table == np.arange(n)).all(1))[0]
            if not matches.size:
                raise ValueError("no identity element in table")
            identity_index = matches[0]
        self.identity_index = int(identity_index)
        hits = table == self.identity_index
        if (hits.sum(1) != 1).any():
            raise ValueError("table row has no unique inverse")
        self._inv = hits.argmax(1)
        self.generators = [int(g) for g in generators]
        self.name = name

    def mul_many(self, a, b) -> np.ndarray:
        return self.table[a, b]

    def inv_many(self, a) -> np.ndarray:
        return self._inv[a]


class CyclicGroup(FinGroup):
    """Z/nZ, additive, identity 0, canonical generator 1."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.order = n
        self.identity_index = 0
        self.generators = [1] if n > 1 else []
        self.name = f"cyclic({n})"
        self._abelian = True

    def mul_many(self, a, b) -> np.ndarray:
        return (np.asarray(a) + np.asarray(b)) % self.order

    def inv_many(self, a) -> np.ndarray:
        return (-np.asarray(a)) % self.order


class DirectProductGroup(FinGroup):
    """A x B with index (a, b) -> a*|B| + b.

    When |A×B|² <= CHUNK_ENTRIES (|A×B| <= 128), the factor arithmetic,
    `_factor_mul` and `_factor_inv`, fills a product table and an inverse
    array once, and `mul_many`/`inv_many` read them; larger products keep
    the arithmetic.
    """

    def __init__(self, a: FinGroup, b: FinGroup):
        self.left = a
        self.right = b
        self.order = a.order * b.order
        self.identity_index = a.identity_index * b.order + b.identity_index
        self.generators = [g * b.order + b.identity_index for g in a.generators] + [
            a.identity_index * b.order + h for h in b.generators
        ]
        self.name = f"{a.name}x{b.name}"
        self._abelian = a.is_abelian and b.is_abelian
        self._table = self._inv = None
        if self.order**2 <= CHUNK_ENTRIES:
            idx = np.arange(self.order)
            self._table = self._factor_mul(idx[:, None], idx[None, :])
            self._inv = self._factor_inv(idx)

    def _factor_mul(self, a, b) -> np.ndarray:
        m = self.right.order
        a = np.asarray(a)
        b = np.asarray(b)
        ai, aj = a // m, a % m
        bi, bj = b // m, b % m
        return self.left.mul_many(ai, bi) * m + self.right.mul_many(aj, bj)

    def _factor_inv(self, a) -> np.ndarray:
        m = self.right.order
        a = np.asarray(a)
        return self.left.inv_many(a // m) * m + self.right.inv_many(a % m)

    def mul_many(self, a, b) -> np.ndarray:
        if self._table is None:
            return self._factor_mul(a, b)
        return self._table[a, b]

    def inv_many(self, a) -> np.ndarray:
        if self._inv is None:
            return self._factor_inv(a)
        return self._inv[a]


class SL2Group(FinGroup):
    """SL2(Z/nZ), elements enumerated in lexicographic (a,b,c,d) order.

    The generators E = [[1,1],[0,1]] and F = [[1,0],[1,1]] are recorded as
    generating the group (`_generated_by`), so `_verify_on_generators` does
    not close them.  Proof:

    1. SL2(Z) = ⟨E, F⟩.  Left multiplication by E^k maps the first column
       (a, c) to (a + kc, c), and by F^k to (a, c + ka).  As gcd(a, c) = 1,
       Euclid's algorithm takes the column to (±1, 0), so a word W in E, F
       gives W·M = ±[[1, b'],[0, 1]] = ±E^(±b'), and −I = (EF⁻¹E)².
    2. Reduction SL2(Z) → SL2(Z/n) is onto (G. Shimura, *Introduction to
       the Arithmetic Theory of Automorphic Functions*, 1971, Lemma 1.38).
    3. So the images of E and F generate SL2(Z/n); in a finite group the
       inverses are positive powers, so the product closure of [E, F] is
       all of it.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        if n**3 > np.iinfo(np.int32).max:
            raise CapacityError(f"modulus {n} overflows the int32 lookup key")
        self.modulus = n
        order = _sl2_order(n)
        if order > SL2_ORDER_CAP:
            raise CapacityError(f"|SL2(Z/{n}Z)| exceeds cap {SL2_ORDER_CAP}")
        self.entries, self._first = _sl2_tables(n)  # entries: rows a, b, c, d
        certify("|SL2(Z/n)| disagrees with n³·Π(1 - ℓ⁻²)", abs(self.entries.shape[1] - order), 0)
        self.order = order
        ints = np.arange(n)
        self._off = (ints[:, None] // (n // np.gcd(ints, n))).ravel()  # at d·n + a
        decoded = self._lookup(self.entries[[3, 0, 1, 2]], np.empty(self.order, dtype=np.int64))
        misses = int(np.count_nonzero(decoded != np.arange(self.order)))
        certify("the lookup table misses an SL2 matrix", misses, 0)
        self.identity_index = self.index_of(1, 0, 0, 1)
        self.generators = [self.index_of(1, 1, 0, 1), self.index_of(1, 0, 1, 1)]  # E, F
        self._generated_by = list(self.generators)  # proven in the class docstring
        self.name = f"sl2({n})"
        self._abelian = False

    def label(self, g: int) -> str:
        return "[[{},{}],[{},{}]]".format(*self.entries[:, g].tolist())

    def index_of(self, a: int, b: int, c: int, d: int) -> int:
        n = self.modulus
        a, b, c, d = a % n, b % n, c % n, d % n
        if (a * d - b * c) % n != 1:
            raise ValueError("matrix is not in SL2")
        idx = int(self._first[(a * n + b) * n + c] + self._off[d * n + a])
        found = 0 <= idx < self.order and self.entries[:, idx].tolist() == [a, b, c, d]
        certify("the lookup table misses an SL2 matrix", int(not found), 0)
        return idx

    def _lookup(self, entries, out: np.ndarray) -> np.ndarray:
        """Fill `out` with the indices of the matrices whose reduced d, a, b, c
        `entries` yields, and return it.

        An int32 key d·n + a reads off[d, a]; a second key, rebuilt from a and
        grown in place to (a·n + b)·n + c, reads first.
        """
        n = np.int32(self.modulus)  # a typed scalar makes int16 products int32
        entries = iter(entries)
        d, a = next(entries), next(entries)
        key = d * n
        key += a
        self._off.take(key, out=out, mode="clip")  # keys are in range; "raise" would buffer
        key = a * n
        key += next(entries)
        key *= n
        key += next(entries)
        out += self._first.take(key)
        return out

    def _blockwise(self, kernel, *ops) -> np.ndarray:
        """int64 indices of the d, a, b, c that `kernel` yields from the operands' entries.

        The broadcast of `ops` is cut along its leading axis into blocks of
        about 4·CHUNK_ENTRIES products; an operand whose leading axis is 1 is
        not sliced, so broadcasting still happens inside the kernel.  A 2-D
        block with more rows than columns is computed transposed into a
        block-sized buffer, so numpy's inner loop runs along its longer axis.
        """
        ops = [np.asarray(x) for x in ops]
        out = np.empty(np.broadcast(*ops).shape, dtype=np.int64)
        if out.ndim == 0:
            return self._lookup(kernel(*(self.entries.take(x, axis=1) for x in ops)), out)[()]
        ops = [x.reshape((1,) * (out.ndim - x.ndim) + x.shape) for x in ops]
        rows = max(1, 4 * CHUNK_ENTRIES // max(1, math.prod(out.shape[1:])))
        flip = out.ndim == 2 and min(rows, len(out)) > out.shape[1]
        for start in range(0, len(out), rows):
            part = slice(start, start + rows)
            into = np.empty(out[part].shape[::-1], dtype=np.int64) if flip else out[part]
            block = ((x[part] if len(x) > 1 else x) for x in ops)
            self._lookup(kernel(*(self.entries.take(x.T if flip else x, axis=1) for x in block)), into)
            if flip:
                out[part] = into.T
        return out

    def mul_many(self, a, b) -> np.ndarray:
        n = self.modulus
        pairs = ((2, 1), (0, 0), (0, 1), (2, 0))  # row i/2 of A times column j of B: d, a, b, c
        return self._blockwise(
            lambda A, B: (_reduce(A[i] * B[j] + A[i + 1] * B[j + 2], n) for i, j in pairs), a, b
        )

    def inv_many(self, a) -> np.ndarray:
        n = self.modulus
        # inverse of [[a,b],[c,d]] with det 1 is [[d,-b],[-c,a]]
        return self._blockwise(
            lambda A: (A[0], A[3], _reduce(n - A[1], n), _reduce(n - A[2], n)), a
        )


def _sl2_order(n: int) -> int:
    """|SL2(Z/n)| = n³·Π(1 - ℓ⁻²) over the primes ℓ dividing n."""
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % k for k in range(2, q))]
    return n**3 * math.prod(q * q - 1 for q in primes) // math.prod(q * q for q in primes)


def _sl2_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(entries, first): the a, b, c, d rows of SL2(Z/n) in lexicographic
    order, as int16, and the int32 table first of n³
    entries, where the run of each prefix (a, b, c) starts, −1 where none does.

    One gcd class g = gcd(a, n) at a time.  Its a share one mask of (b, c),
    g | 1 + bc, and one q = (1 + bc)/g; a = g·u with u a unit mod m = n/g,
    and the d of (a, b, c) are d₀ + k·m for k < g, d₀ = q·u⁻¹ mod m.  So a
    class is one outer product of its u⁻¹ by q mod m, in int16, as
    q·u⁻¹ <= (m − 1)² fits it, and each a's run is one slice of it.
    """
    gcds = np.array([math.gcd(a, n) for a in range(n)])
    b, c = np.divmod(np.arange(n * n), n)
    bc1 = b * c + 1
    classes = [(g, np.flatnonzero(gcds == g), np.flatnonzero(bc1 % g == 0)) for g in np.unique(gcds).tolist()]
    run = np.empty(n, dtype=np.int32)
    for g, a, ok in classes:
        run[a] = ok.size * g
    start = np.cumsum(run, dtype=np.int32) - run
    first = np.empty((n, n * n), dtype=np.int32)
    runs = [None] * n
    for g, a, ok in classes:
        m = n // g
        inv = np.argmax((a // g)[:, None] * np.arange(m) % m == 1 % m, axis=1)  # u⁻¹ mod m
        place = np.full(n * n, -1, dtype=np.int32)  # where (b, c) starts within a run
        place[ok] = g * np.arange(ok.size)
        first[a] = np.where(place < 0, -1, start[a, None] + place)
        block = np.empty((4, len(a), ok.size * g), dtype=np.int16)
        block[0] = a[:, None]
        block[1] = np.repeat(b[ok], g)
        block[2] = np.repeat(c[ok], g)
        d0 = _reduce(inv[:, None].astype(np.int16) * (bc1[ok] // g % m).astype(np.int16), m)
        block[3] = (d0[:, :, None] + m * np.arange(g, dtype=np.int16)).reshape(len(a), -1)
        for i, x in enumerate(a.tolist()):
            runs[x] = block[:, i]
    return np.concatenate(runs, axis=1), first.ravel()


def _reduce(x: np.ndarray, n: int) -> np.ndarray:
    """x mod n in place, as x - (x // n)·n: numpy's `//` by a scalar is SIMD, `%` is not."""
    q = x // n
    q *= n
    x -= q
    return x


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte key per int64 row: equal keys exactly when the rows are equal."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view((np.void, 8 * rows.shape[1])).ravel()


class PermGroup(FinGroup):
    """Group of permutations of m points, elements stored by image rows.

    `rows` must be closed under composition.  An element is found from its
    row by one `searchsorted` over the sorted byte keys of `rows`; products
    and inverses are composed in chunks of about 2¹⁴ row entries.
    """

    def __init__(
        self,
        rows: np.ndarray,
        generators: Sequence[int],
        name: str = "perm-group",
        proven: bool = False,
    ):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        self.rows = rows
        self.order, self.points = (int(d) for d in rows.shape)
        keys = _row_keys(rows)
        self._by_key = np.argsort(keys)
        self._keys = keys[self._by_key]
        ident = np.arange(self.points, dtype=np.int64)
        self.identity_index = int(self._find(ident[None, :])[0])
        if not np.array_equal(rows[self.identity_index], ident):
            raise ValueError("rows do not contain the identity")
        self.generators = [int(g) for g in generators]
        if proven:  # the caller has proven that `generators` generate the rows
            self._generated_by = list(self.generators)
        self.name = name

    def _find(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the elements whose image rows are `rows`."""
        pos = np.searchsorted(self._keys, _row_keys(rows))
        return self._by_key[np.minimum(pos, self.order - 1)]

    def _map_rows(self, fn, *elems) -> np.ndarray:
        """The elements whose rows fn(rows of elems..., into) writes into
        `into`, broadcast over elems; the last operand's row i comes with
        i·points added, as flat indices into its chunk.

        Each chunk's rows are gathered into buffers allocated once per call.
        Temporaries of CHUNK_ENTRIES words made and freed per chunk sit at
        glibc's 128 KB trim threshold, where whether a free hands the heap
        top back to the system, so that the next chunk faults its pages in
        again, depends on the heap's layout.
        """
        elems = np.broadcast_arrays(*(np.asarray(e, dtype=np.int64) for e in elems))
        flat = [e.ravel() for e in elems]
        out = np.empty(flat[0].size, dtype=np.int64)
        step = min(rows_per_chunk(self.points), max(out.size, 1))
        bufs = np.empty((len(flat) + 1, step, self.points), dtype=np.int64)
        shift = np.arange(0, bufs[0].size, self.points)[:, None]
        for start in range(0, out.size, step):
            chunk = slice(start, start + step)
            n = len(out[chunk])
            # "clip": the indices are elements, and "raise" would buffer the output
            rows = [self.rows.take(f[chunk], axis=0, out=b[:n], mode="clip") for f, b in zip(flat, bufs)]
            rows[-1] += shift[:n]
            fn(*rows, bufs[-1][:n])
            out[chunk] = self._find(bufs[-1][:n])
        return out.reshape(elems[0].shape)

    mul = FinGroup.mul  # bound on this class too: the benchmark tracer counts PermGroup.mul

    def mul_many(self, a, b) -> np.ndarray:
        # into[i, j] = ra[i, rb[i, j]]
        return self._map_rows(lambda ra, rb, into: ra.take(rb, out=into, mode="clip"), a, b)

    def inv_many(self, a) -> np.ndarray:
        # into[i, ra[i, j]] = j
        return self._map_rows(lambda ra, into: into.put(ra, np.arange(self.points), mode="clip"), a)


def cyclic(n: int) -> CyclicGroup:
    return CyclicGroup(n)


def direct_product(a: FinGroup, b: FinGroup) -> DirectProductGroup:
    if a.order * b.order > PRODUCT_ORDER_CAP:
        raise CapacityError(f"product order {a.order * b.order} exceeds cap {PRODUCT_ORDER_CAP}")
    return DirectProductGroup(a, b)


def sl2_mod(n: int) -> SL2Group:
    return SL2Group(n)


def group_from_perm_generators(gens: Sequence[Perm]) -> PermGroup:
    """BFS closure of permutation generators; identity has index 0.

    Elements are numbered level by level, within a level by parent in
    frontier order, then by generator; a row reached twice keeps its first
    product.  Products are formed in chunks of about 2¹⁴ row entries and
    looked up by one `searchsorted` among the rows of earlier levels; one
    `np.unique` of byte keys per level drops the repeats within it.

    One generator g needs no lookup: level j is {g^j}, so the rows are e,
    g, g², … up to the first power that is e, and doubling lists them, as
    `FinGroup.closure` does: the rows g¹ … g^b composed after g^b are
    g^(b+1) … g^(2b), in ⌈log₂ ord g⌉ compositions.  The blocks stop at
    PERM_CLOSURE_CAP powers, so the same orders are refused.
    """
    if not gens:
        raise ValueError("need at least one generator")
    m = gens[0].n
    for g in gens:
        if g.n != m:
            raise ValueError("generators act on different point counts")
    gen_rows = np.stack([g.image for g in gens])
    ident = np.arange(m, dtype=np.int64)
    if len(gens) == 1:
        powers = np.stack([ident, gen_rows[0]])  # g⁰ … g^b
        while not (at_e := (powers[1:] == ident).all(axis=1)).any():
            if len(powers) > PERM_CLOSURE_CAP:
                raise CapacityError(f"perm closure exceeds cap {PERM_CLOSURE_CAP}")
            powers = np.concatenate([powers, powers[-1][powers[1 : PERM_CLOSURE_CAP + 2 - len(powers)]]])
        order = 1 + int(at_e.argmax())
        # g is row 1, or row 0 when it is the identity
        return PermGroup(powers[:order], [int(order > 1)], name="perm-closure(1 gens)")
    frontier = ident[None, :]
    levels = [frontier]
    known = frontier  # the rows of every level so far, sorted by byte key
    size = 1
    step = rows_per_chunk(m * len(gens))
    while frontier.size:
        fresh = []
        for start in range(0, len(frontier), step):
            prods = frontier[start : start + step, gen_rows].reshape(-1, m)  # e∘g, e-major
            at = np.searchsorted(_row_keys(known), _row_keys(prods))
            seen = (known[np.minimum(at, len(known) - 1)] == prods).all(axis=1)
            fresh.append(prods[~seen])
        fresh = np.concatenate(fresh)
        _, first = np.unique(_row_keys(fresh), return_index=True)
        frontier = fresh[np.sort(first)]
        size += len(frontier)
        if size > PERM_CLOSURE_CAP:
            raise CapacityError(f"perm closure exceeds cap {PERM_CLOSURE_CAP}")
        levels.append(frontier)
        known = np.concatenate([known, frontier])
        known = known[np.argsort(_row_keys(known))]
    group = PermGroup(np.concatenate(levels), [], name=f"perm-closure({len(gens)} gens)")
    group.generators = group._find(gen_rows).tolist()
    return group


# ---------------------------------------------------------------------------
# Homomorphisms, marked groups, actions
# ---------------------------------------------------------------------------


def _verify_on_generators(G: FinGroup, f: np.ndarray, times, identity_ok: bool, error) -> None:
    """Raise `error` unless f(e) is the identity and f(x·s) = f(x)·f(s) for
    every x and generator s of G.

    `f` holds one value per element of G (an element index, or an image
    row), `times(s)` gives f(x)·f(s) for every x at once and `identity_ok`
    says whether f(e) is the identity.  The generators must generate G; then
    induction on word length makes this an exact check, at |G|·|S| lookups,
    all x·s formed by one `mul_many`.  Generation is closed here unless G's
    construction proved it for this very list, `G._generated_by`;
    reassigning `generators` brings the closure back.
    With a generator s, f(s) = f(e)·f(s) already forces f(e) to be the
    identity, so that test decides only on a group with no generators.
    """
    if G.generators != G._generated_by and not G.generates(G.generators):
        raise error("generators do not generate the group")
    if not identity_ok:
        raise error("the identity does not map to the identity")
    xs = np.arange(G.order)
    xs_s = G.mul_many(xs[:, None], np.asarray(G.generators, dtype=np.int64)[None, :])
    for j, s in enumerate(G.generators):
        bad = f[xs_s[:, j]] != times(s)
        bad = np.nonzero(bad.any(axis=1) if bad.ndim == 2 else bad)[0]
        if bad.size:
            raise error(f"not multiplicative at pair ({bad[0]},{s})")


@dataclass
class GroupHom:
    """Element-wise homomorphism between enumerated groups."""

    source: FinGroup
    target: FinGroup
    image: np.ndarray

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.int64)
        if self.image.shape != (self.source.order,):
            raise ValueError("image array has wrong length")

    def verify(self):
        """Check f(e) = e and f(x·s) = f(x)·f(s) for every x and generator s."""
        f, H = self.image, self.target
        identity_ok = f[self.source.identity_index] == H.identity_index
        _verify_on_generators(
            self.source, f, lambda s: H.mul_many(f, f[s]), identity_ok, NotAHomomorphismError
        )


@dataclass(frozen=True)
class MarkedGroup:
    """A finite presentation: k generators and relator words (letters ±1..±k)."""

    generator_count: int
    relators: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > self.generator_count:
                    raise ValueError(f"relator letter {letter} out of range")

    @staticmethod
    def free(k: int) -> "MarkedGroup":
        return MarkedGroup(k, ())

    @staticmethod
    def free_abelian(d: int) -> "MarkedGroup":
        pairs = itertools.combinations(range(1, d + 1), 2)
        return MarkedGroup(d, tuple((i, j, -i, -j) for i, j in pairs))


def product_with_free_z(gamma: MarkedGroup, lam: MarkedGroup) -> MarkedGroup:
    """Presentation of (Γ*Z) x Λ with generators (Γ-gens, t, Λ-gens)."""
    k, m = gamma.generator_count, lam.generator_count
    t = k + 1
    shift = k + 1
    rels: List[Tuple[int, ...]] = [tuple(r) for r in gamma.relators]
    for r in lam.relators:
        rels.append(tuple(l + shift if l > 0 else l - shift for l in r))
    for i in range(1, k + 1):  # Γ-gens commute with Λ-gens
        for j in range(1, m + 1):
            rels.append((i, shift + j, -i, -(shift + j)))
    for j in range(1, m + 1):  # t commutes with Λ-gens
        rels.append((t, shift + j, -t, -(shift + j)))
    return MarkedGroup(k + 1 + m, tuple(rels))


@dataclass
class MarkedHom:
    """Homomorphism from a marked (presented) group into a FinGroup.

    `surjective` is read first off the target's generation record R
    (`_generated_by`): when every r ∈ R lies in the cyclic span ⟨g⟩ of some
    generator image g, each listed by doubling, then R ⊆ ⟨images⟩ and
    ⟨R⟩ = X, so the map is onto.  For the Sanov pair in SL2(Z/p), p odd,
    E = [[1,2],[0,1]]^((p+1)/2) and F = [[1,0],[2,1]]^((p+1)/2).  Otherwise
    the closure of the images decides, and `image` keeps it when it is a
    proper subgroup.
    """

    marked: MarkedGroup
    target: FinGroup
    gen_images: List[int]
    surjective: bool = field(init=False)
    # ⟨gen_images⟩ in closure order (e, u, u², … for one image u), int64;
    # None when it is the whole target, whose |X| entries are not kept
    image: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.gen_images) != self.marked.generator_count:
            raise ValueError("wrong number of generator images")
        for rel in self.marked.relators:
            if self.evaluate(rel) != self.target.identity_index:
                raise NotAHomomorphismError(f"relator {rel} not satisfied by generator images")
        X, record = self.target, self.target._generated_by
        spans = [X.closure([g]) for g in self.gen_images] if record is not None else []
        self.surjective = record is not None and all(any(r in s for s in spans) for r in record)
        self.image = None
        if not self.surjective:  # the closure of one image is its span
            image = spans[0] if len(spans) == 1 else X.closure(self.gen_images)
            self.surjective = len(image) == X.order
            self.image = None if self.surjective else image

    def evaluate(self, word: Sequence[int]) -> int:
        x = self.target.identity_index
        for letter in word:
            g = self.gen_images[abs(letter) - 1]
            if letter < 0:
                g = self.target.inv(g)
            x = self.target.mul(x, g)
        return x


@dataclass
class MarkedMap:
    """Generator -> Perm assignment for a presentation; need not satisfy relators."""

    marked: MarkedGroup
    images: List[Perm]

    def __post_init__(self):
        if len(self.images) != self.marked.generator_count:
            raise ValueError("one Perm per marked generator required")
        n = self.images[0].n
        if any(p.n != n for p in self.images):
            raise ValueError("generator images act on different point counts")
        self.points = n

    def evaluate(self, word: Sequence[int]) -> Perm:
        """Image of a word; letters apply right-to-left as functions."""
        out = identity(self.points)
        for letter in word:
            p = self.images[abs(letter) - 1]
            if letter < 0:
                p = inverse(p)
            out = compose(out, p)
        return out


@dataclass(eq=False)
class PermAction:
    """An action of a FinGroup: row g of `rows` is the image array of α(g)."""

    group: FinGroup
    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        if self.rows.ndim != 2 or self.rows.shape[0] != self.group.order:
            raise NotAnActionError("need one permutation per group element")
        self.points = int(self.rows.shape[1])
        if not (np.sort(self.rows, axis=1) == np.arange(self.points)).all():
            raise NotAnActionError("a row is not a permutation of the points")

    @property
    def perms(self) -> List[Perm]:
        """One read-only Perm view per row."""
        return [Perm(r, _checked=True) for r in self.rows]

    def verify(self):
        """Check α(e) = id and α(x·s) = α(x)∘α(s) for every x and generator s."""
        G, rows = self.group, self.rows
        identity_ok = np.array_equal(rows[G.identity_index], np.arange(self.points))
        _verify_on_generators(G, rows, lambda s: rows[:, rows[s]], identity_ok, NotAnActionError)


def left_regular(G: FinGroup) -> PermAction:
    """α(g)x = g x on the group itself."""
    idx = np.arange(G.order)
    return PermAction(G, G.mul_many(idx[:, None], idx[None, :]))


def right_regular(G: FinGroup) -> PermAction:
    """β(g)x = x g^{-1} on the group itself (a genuine left action)."""
    idx = np.arange(G.order)
    return PermAction(G, G.mul_many(idx[None, :], G.inv_many(idx)[:, None]))


def _min_labels(steps: Sequence[np.ndarray], size: int) -> np.ndarray:
    """The smallest point of each point's class under the permutations `steps`.

    Every point starts labelled by itself.  Each round passes the smaller
    label both ways along every step, then gives each point its label's
    label (pointer jumping).  A label only ever names a smaller point of the
    same class, so a round that changes nothing leaves each class labelled
    by its least point; the jumps let a long cycle settle in a number of
    rounds logarithmic in its length.
    """
    label = np.arange(size)
    while True:
        new = label
        for step in steps:
            new = np.minimum(new, new[step])  # x takes the label of step(x)
            new[step] = np.minimum(new[step], new)  # step(x) takes the label of x
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _cycle_min(step: np.ndarray, m: int, start=None) -> Tuple[np.ndarray, np.ndarray]:
    """(rep, back): the least value rep[x] of `start` (default: the points)
    on x's cycle under `step`, whose cycles all have length m, and the
    least r < m with start[step^r(x)] = rep[x].

    Pointer doubling on the key rep·m + back over the window r < w, with
    jump = step^w: the window at jump(x) offers key[jump(x)] + w, and
    back < m, so the least key carries the least rep and its r.  Once
    2w >= m, the windows at x and at step^(m-w)(x) cover r < m.
    """
    idx = np.arange(len(step))
    key, jump, w = (idx if start is None else start) * m, step, 1
    while 2 * w < m:
        key = np.minimum(key, key[jump] + w)
        jump, w = jump[jump], 2 * w
    prev = np.empty_like(jump)
    prev[jump] = idx  # step^(-w) = step^(m-w)
    return np.divmod(np.minimum(key, key[prev] + (m - w)), m)


def left_coset_reps(G: FinGroup, H: Sequence[int]) -> List[int]:
    """Smallest-index representative of each left coset gH.

    The classes of x ↦ x·s, for s in a generating set of H, are the left
    cosets, so their least points are the representatives.  For H = ⟨s⟩ of
    order m each class is one m-cycle of x ↦ x·s, labelled by `_cycle_min`
    in ⌈log₂ m⌉ rounds; several generators go through `_min_labels`.
    """
    members = np.unique(np.asarray(H, dtype=np.int64))
    gens = G.greedy_generators(members)
    if gens is None:
        raise NotASubgroupError("H is not a subgroup")
    idx = np.arange(G.order)
    steps = [G.mul_many(idx, members[s]) for s in gens]
    label = _cycle_min(steps[0], len(members))[0] if len(gens) == 1 else _min_labels(steps, G.order)
    return np.flatnonzero(label == idx).tolist()  # each class's least point labels itself


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


def _orbits(action: PermAction) -> List[List[int]]:
    """Orbits under the generated group, each sorted, ordered by min point."""
    gens = [action.rows[g] for g in action.group.generators]
    label = _min_labels(gens, action.points)
    points = np.argsort(label, kind="stable")  # by orbit minimum, then by point
    ends = np.flatnonzero(np.diff(label[points])) + 1
    return [o.tolist() for o in np.split(points, ends)]
