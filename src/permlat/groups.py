"""Finite groups as identity-normalized multiplication tables.

A group of order n is a dense n-by-n table of element indices with the
identity pinned at index 0. Subsets of the group (subgroups, product sets,
cosets) are plain int bitmasks over 0..n-1, wrapped in :class:`ElementSet`
at the public surface. Everything is immutable after construction and all
operations are pure functions, so groups, element sets and anything derived
from them can be shared freely between workers.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import chain, permutations, product
from operator import itemgetter
from typing import Iterator, Optional, Sequence

DEFAULT_ORDER_CAP = 720


class GroupSpecError(ValueError):
    """Bad group descriptor, generator data, or file payload."""


class OrderCapError(ValueError):
    """Construction would exceed the configured order cap."""


def _bits(mask: int):
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeSignature:
    """Prime factorization as ascending (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@cache
def prime_signature(n: int) -> PrimeSignature:
    """Factor a positive integer; the empty signature for n = 1. Memoised:
    the closure search asks for the factors of an index on every call."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return PrimeSignature(tuple(factors))


class FiniteGroup:
    """Order-n group with multiplication table, inverses and optional labels.

    Invariants enforced at construction, whichever constructor builds the
    group: the identity is element 0 and each row and column of the table is
    a permutation of 0..n-1, so each row holds the identity and every element
    has an inverse. Associativity is checked, by Light's test in O(|S|·n²),
    only where the table comes from untrusted input (see :meth:`from_table`).
    The internal constructors build every table with :func:`_cayley_table`,
    whose row x is left multiplication by x written as a composite of the
    generators' left multiplications; composition of maps is associative, so
    those tables are associative by construction. :func:`subgroup_group`
    alone reads its rows off an existing group's table.
    """

    def __init__(self, table, name: str, element_labels=None):
        self.table: tuple[tuple[int, ...], ...] = tuple(
            tuple(map(int, row)) for row in table
        )
        self.order: int = len(self.table)
        self.name = name
        self.element_labels: Optional[tuple[str, ...]] = (
            tuple(element_labels) if element_labels is not None else None
        )
        if self.order < 1:
            raise GroupSpecError("empty multiplication table")
        self._check_structure()
        # every row is a permutation of 0..n-1 now, so each holds the identity
        self.inverse: tuple[int, ...] = tuple(row.index(0) for row in self.table)
        self.full_mask: int = (1 << self.order) - 1

    def _check_structure(self):
        n = self.order
        idx = set(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n or set(row) != idx:
                raise GroupSpecError(f"row {i} is not a permutation of 0..{n - 1}")
        for j, col in enumerate(zip(*self.table)):
            # every entry is in 0..n-1 now, so n distinct ones are all of them
            if len(set(col)) != n:
                raise GroupSpecError(f"column {j} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if self.table[0][j] != j or self.table[j][0] != j:
                raise GroupSpecError("element 0 is not a two-sided identity")

    def check_associativity(self) -> tuple[int, ...]:
        """Light's associativity test; returns the set S whose rows it checked.

        S is greedy: the reached set starts at {e}; each round adds the first
        element not yet reached to S and closes the reached set under right
        products x·s with every s in S. The reached set lies in <S> ∪ {e},
        the submagma generated by S plus e, so once it is everything, S
        generates the table. On a group each new s at least doubles the
        subgroup reached so far, so |S| <= log2 n.

        Then (x·s)·y = x·(s·y) is checked for every s in S and all x, y, one
        whole row per (s, x): |S|·n row comparisons. That suffices. Let A be
        the set of a with (x·a)·y = x·(a·y) for all x, y; it holds e and S.
        If a, b are in A, then (x·(a·b))·y = ((x·a)·b)·y = (x·a)·(b·y) =
        x·(a·(b·y)) = x·((a·b)·y), so a·b is in A; hence A ⊇ <S> ∪ {e} is
        everything. Only what :meth:`_check_structure` proved is assumed: a
        Latin square with the two-sided identity 0.

        On failure the rows are scanned in order to name the lexicographically
        first failing triple (a, b, c).
        """
        t = self.table
        seen = [False] * self.order
        seen[0] = True
        reached = [0]
        gens: list[int] = []
        for s in range(self.order):
            if seen[s]:
                continue
            gens.append(s)
            for x in reached:  # grows while we iterate
                row = t[x]
                for g in gens:
                    y = row[g]
                    if not seen[y]:
                        seen[y] = True
                        reached.append(y)
        for s in gens:
            times_s = itemgetter(*t[s])  # row x -> the row x·(s·y) over y
            for row in t:
                if t[row[s]] != times_s(row):
                    self._raise_first_nonassociative_triple()
        return tuple(gens)

    def _raise_first_nonassociative_triple(self):
        t = self.table
        right = [itemgetter(*row) for row in t]  # right[b](t[a]) = a·(b·c) over c
        for a, ta in enumerate(t):
            for b in range(self.order):
                tab = t[ta[b]]
                if tab != right[b](ta):
                    c = next(c for c in range(self.order) if tab[c] != ta[t[b][c]])
                    raise GroupSpecError(f"associativity fails at ({a},{b},{c})")

    @classmethod
    def from_table(cls, table, name: str = "cayley",
                   element_labels=None) -> "FiniteGroup":
        """Build a group from an untrusted table of ints, relocating the
        identity to 0: a Latin square with a two-sided identity that passes
        :meth:`check_associativity`."""
        n = len(table)
        for i, row in enumerate(table):
            if len(row) != n:
                raise GroupSpecError(f"row {i} has {len(row)} entries, not {n}")
        ident = None
        for e in range(n):
            if all(table[e][j] == j and table[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupSpecError("table has no two-sided identity")
        if ident != 0:
            # relabel by the transposition 0 <-> ident; an entry outside
            # 0..n-1 is kept as it is, for the Latin-square check to reject
            sigma = list(range(n))
            sigma[0], sigma[ident] = ident, 0
            pick = itemgetter(*sigma)
            swap = {0: ident, ident: 0}.get
            table = [list(map(swap, row, row)) for row in map(pick, pick(table))]
            if element_labels is not None:
                element_labels = list(element_labels)
                element_labels[0], element_labels[ident] = (
                    element_labels[ident], element_labels[0])
        g = cls(table, name, element_labels)
        g.check_associativity()
        return g

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def label(self, x: int) -> str:
        if self.element_labels is not None:
            return self.element_labels[x]
        return str(x)

    # -- element-level helpers -------------------------------------------

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(self.cyclic_mask(x).bit_count() for x in range(self.order))

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """A small (greedy, deterministic) generating set; empty for order 1."""
        return self.subgroup_gens(self.full_mask)

    @cached_property
    def class_number(self) -> int:
        """k(G), the number of conjugacy classes of elements: the orbits
        under conjugation by :attr:`generating_set`."""
        t = self.table
        gens = [(t[s], self.inverse[s]) for s in self.generating_set]
        seen = [False] * self.order
        count = 0
        for x in range(self.order):
            if seen[x]:
                continue
            count += 1
            seen[x] = True
            orbit = [x]
            for y in orbit:  # orbit grows while we iterate
                for row, si in gens:
                    z = t[row[y]][si]
                    if not seen[z]:
                        seen[z] = True
                        orbit.append(z)
        return count

    # -- mask-level set algebra ------------------------------------------

    def cyclic_mask(self, x: int) -> int:
        t = self.table
        m = 1
        y = x
        while not m >> y & 1:
            m |= 1 << y
            y = t[y][x]
        return m

    def closure_mask(self, gens: Sequence[int], base: int = 1,
                     base_rows: Optional[Sequence[Sequence[int]]] = None) -> int:
        """Subgroup generated by ``gens`` as a mask.

        ``base`` is a subgroup known to lie in <gens> (the trivial one by
        default). The result grows from it by whole right cosets ``base*y``,
        as in Dimino's algorithm (Butler, *Fundamental Algorithms for
        Permutation Groups*, 1991): the coset representatives y are closed
        under right multiplication by ``gens``, so their cosets cover the
        closure. With the trivial base this is a BFS from the identity.
        ``gens`` may repeat an element or hold the identity: such a
        generator only leads back to a coset already in the mask.

        ``base_rows`` are the table rows ``table[b]`` of the elements b of
        ``base``, in any order; they are read off ``base`` when not given. A
        caller that closes from one base many times passes them, built once.

        By Lagrange, a subgroup of G that contains ``base`` and has more than
        |G|/q elements, q the smallest prime dividing |G : base|, is G itself;
        the search stops as soon as it has found that many.
        """
        t = self.table
        if base_rows is None:
            base_rows = [t[b] for b in _bits(base)]
        size = len(base_rows)
        index = self.order // size
        limit = self.order // prime_signature(index).factors[0][0] if index > 1 else size
        mask = base
        queue = [0]
        for x in queue:  # queue grows while we iterate
            row = t[x]
            for g in gens:
                y = row[g]
                if not mask >> y & 1:
                    for b in base_rows:
                        mask |= 1 << b[y]
                    size += len(base_rows)
                    if size > limit:
                        return self.full_mask
                    queue.append(y)
        return mask

    def product_mask(self, am: int, bm: int) -> int:
        """Product set {a*b : a in A, b in B} as a mask."""
        t = self.table
        bl = list(_bits(bm))
        res = 0
        a = am
        while a:
            lsb = a & -a
            row = t[lsb.bit_length() - 1]
            a ^= lsb
            for j in bl:
                res |= 1 << row[j]
        return res

    def conjugate_mask(self, m: int, g: int) -> int:
        t = self.table
        row = t[g]
        gi = self.inverse[g]
        res = 0
        for x in _bits(m):
            res |= 1 << t[row[x]][gi]
        return res

    def is_subgroup_mask(self, m: int) -> bool:
        # finite and closed under the product implies a subgroup
        if not m & 1:
            return False
        t = self.table
        els = list(_bits(m))
        for a in els:
            row = t[a]
            for b in els:
                if not m >> row[b] & 1:
                    return False
        return True

    def subgroup_gens(self, mask: int) -> Optional[tuple[int, ...]]:
        """Small generating set of a subgroup given as a mask, or None when
        ``mask`` is not a subgroup.

        Greedy: the lowest element of ``mask`` outside the span so far, each
        closure grown from the previous span, starting from the trivial
        subgroup. Every span is a subgroup and each step enlarges it, so if
        ``mask`` is a subgroup the spans stay in it until they equal it; if
        not, some span leaves it. This decides subgroup-ness by cosets rather
        than by the |m|^2 products of :meth:`is_subgroup_mask`.
        """
        gens: list[int] = []
        m = 1
        while m != mask:
            if m & ~mask:
                return None
            x = (mask & ~m)
            x = (x & -x).bit_length() - 1
            gens.append(x)
            m = self.closure_mask(gens, m)
        return tuple(gens)

    def centralizer_mask(self, x: int) -> int:
        t = self.table
        res = 0
        for y in range(self.order):
            if t[y][x] == t[x][y]:
                res |= 1 << y
        return res

    def centralizer_of_set_mask(self, m: int) -> int:
        res = self.full_mask
        for x in _bits(m):
            res &= self.centralizer_mask(x)
            if res == 1:
                break
        return res

    def normal_closure_mask(self, h_mask: int, k_mask: int,
                            h_gens: Optional[Sequence[int]] = None) -> int:
        """Smallest subgroup of K containing H and normal in K.

        Generated by the K-conjugates of H's generators; conjugating a
        generator by k k' lands back in the generator set, so the closure is
        K-invariant.
        """
        if h_mask & ~k_mask:
            raise ValueError("H must be contained in K")
        if h_gens is None:
            h_gens = self.subgroup_gens(h_mask)
        t = self.table
        inv = self.inverse
        conjugates = set()
        for k in _bits(k_mask):
            row = t[k]
            ki = inv[k]
            for h in h_gens:
                conjugates.add(t[row[h]][ki])
        return self.closure_mask(sorted(conjugates), h_mask)

    def _commutator_closure(self, xs: Sequence[int], ys: Sequence[int],
                            k_mask: int) -> int:
        """Normal closure in K of the commutators [x,y] = x^-1 y^-1 x y.

        With X and Y generating normal subgroups of K = <X, Y>, this is the
        commutator subgroup [<X>, <Y>].
        """
        t = self.table
        inv = self.inverse
        comms = sorted({t[t[t[inv[x]][inv[y]]][x]][y] for x in xs for y in ys})
        return self.normal_closure_mask(self.closure_mask(comms), k_mask, comms)

    # -- structure --------------------------------------------------------

    @cached_property
    def is_abelian(self) -> bool:
        """Whether the elements of :attr:`generating_set` commute pairwise,
        which makes every pair of products of them commute."""
        t, gens = self.table, self.generating_set
        return all(t[a][b] == t[b][a] for k, a in enumerate(gens) for b in gens[k + 1:])

    def _derived_terms(self) -> Iterator[int]:
        # [K, K] = <[x, y] : x, y in X>^K for K = <X>, from G = <generating_set>
        k, gens = self.full_mask, self.generating_set
        while True:
            yield k
            nxt = self._commutator_closure(gens, gens, k)
            if nxt == k:
                return
            k, gens = nxt, self.subgroup_gens(nxt)

    @cached_property
    def derived_series(self) -> tuple[int, ...]:
        return tuple(self._derived_terms())

    def solvable_residual(self) -> int:
        """G^(∞), the last term of the derived series: the largest perfect
        subgroup, 1 iff G is solvable. Computed afresh on each call and kept
        nowhere, unlike :attr:`derived_series`."""
        *_, last = self._derived_terms()
        return last

    @cached_property
    def lower_central_series(self) -> tuple[int, ...]:
        # [K, G] = <[x, s] : x in X, s in S>^G for normal K = <X> and G = <S>
        series = [self.full_mask]
        while True:
            k = series[-1]
            nxt = self._commutator_closure(self.subgroup_gens(k),
                                           self.generating_set, self.full_mask)
            if nxt == k:
                break
            series.append(nxt)
        return tuple(series)

    @cached_property
    def is_solvable(self) -> bool:
        return self.derived_series[-1] == 1

    @cached_property
    def is_nilpotent(self) -> bool:
        return self.lower_central_series[-1] == 1

    @cached_property
    def is_cyclic(self) -> bool:
        return any(o == self.order for o in self.element_orders)


class ElementSet:
    """A subset of a group's elements: membership mask plus owning group."""

    __slots__ = ("owner", "mask")

    def __init__(self, owner: FiniteGroup, mask: int):
        if mask < 0 or mask > owner.full_mask:
            raise ValueError("mask out of range for the owning group")
        self.owner = owner
        self.mask = mask

    def elements(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.owner.label(x) for x in _bits(self.mask))

    def is_subgroup(self) -> bool:
        return self.owner.is_subgroup_mask(self.mask)

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, x: int):
        return 0 <= x < self.owner.order and self.mask >> x & 1

    def __eq__(self, other):
        return (isinstance(other, ElementSet)
                and self.owner is other.owner and self.mask == other.mask)

    def __hash__(self):
        return hash((id(self.owner), self.mask))

    def __repr__(self):
        els = ",".join(self.labels()[:8])
        more = "..." if len(self) > 8 else ""
        return f"ElementSet({self.owner.name}, {{{els}{more}}})"


def _as_mask(g: FiniteGroup, s) -> int:
    if isinstance(s, ElementSet):
        if s.owner is not g:
            raise ValueError("element set belongs to a different group")
        return s.mask
    if isinstance(s, int):
        return s
    mask = 0
    for x in s:
        mask |= 1 << x
    return mask


# -- public operations on groups ------------------------------------------

def closure(g: FiniteGroup, seed) -> ElementSet:
    """Smallest subgroup containing the seed set."""
    mask = _as_mask(g, seed)
    if mask == 0:
        raise ValueError("seed must be nonempty")
    return ElementSet(g, g.closure_mask(list(_bits(mask))))


def centralizer(g: FiniteGroup, x: int) -> ElementSet:
    return ElementSet(g, g.centralizer_mask(x))


def centralizer_of_set(g: FiniteGroup, s) -> ElementSet:
    mask = _as_mask(g, s)
    if mask == 0:
        raise ValueError("set must be nonempty")
    return ElementSet(g, g.centralizer_of_set_mask(mask))


def normal_closure(g: FiniteGroup, h, k) -> ElementSet:
    return ElementSet(g, g.normal_closure_mask(_as_mask(g, h), _as_mask(g, k)))


def fitting_subgroup(g: FiniteGroup) -> ElementSet:
    """Largest nilpotent normal subgroup, assembled from the p-cores.

    An element of p-power order lies in the p-core exactly when the normal
    closure of its cyclic subgroup is again a p-group.
    """
    fit_gens: list[int] = []
    seen_cyclic: dict[int, bool] = {}
    orders = g.element_orders
    for p, _ in prime_signature(g.order).factors:
        for x in range(1, g.order):
            q = orders[x]
            while q % p == 0:
                q //= p
            if q != 1:  # p-elements only
                continue
            cm = g.cyclic_mask(x)
            hit = seen_cyclic.get(cm)
            if hit is None:
                nc = g.normal_closure_mask(cm, g.full_mask)
                size = nc.bit_count()
                while size % p == 0:
                    size //= p
                hit = size == 1
                seen_cyclic[cm] = hit
            if hit:
                fit_gens.append(x)
    return ElementSet(g, g.closure_mask(fit_gens))


# -- constructors -----------------------------------------------------------

def _require_cap(order: int, cap: int, what: str):
    if order > cap:
        raise OrderCapError(f"{what} has order {order}, above the cap {cap}")


def _cayley_table(gen_rows: Sequence[Sequence[int]], n: int) -> list:
    """Table of the order-n group generated by the elements whose rows are
    ``gen_rows``, with the identity at 0.

    The rows grow outward from the identity's along the Cayley graph of left
    multiplication by the generators: (s·x)·y = s·(x·y), so the row of s·x
    is the row of x mapped through the row of s. Each element's row is built
    once, from the first edge that reaches it.
    """
    if n == 0:
        return []  # for FiniteGroup to reject as empty
    table = [None] * n
    table[0] = tuple(range(n))
    queue = [0]
    for x in queue:  # grows while we iterate
        row_x = table[x]
        for row_s in gen_rows:
            y = row_s[x]
            if table[y] is None:
                table[y] = tuple(map(row_s.__getitem__, row_x))
                queue.append(y)
    return table


def _cyclic_table(n: int) -> list:
    return _cayley_table([tuple((i + 1) % n for i in range(n))], n)


def _product_table(ta: Sequence[Sequence[int]], tb: Sequence[Sequence[int]]) -> list:
    """Table of A x B with (x, y) at index x*|B| + y: row (x, y) is the row
    y of B repeated as blocks, block x' shifted by |B|·(x·x')."""
    nb = len(tb)
    shifted = [[tuple(map((c * nb).__add__, rb)) for c in range(len(ta))] for rb in tb]
    return [tuple(chain.from_iterable(map(shifted[y].__getitem__, ra)))
            for ra in ta for y in range(nb)]


def cyclic_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    return FiniteGroup(_cyclic_table(n), name or f"C{n}", [str(i) for i in range(n)])


def abelian_group(ks: Sequence[int], name: Optional[str] = None) -> FiniteGroup:
    """Direct product of cyclic groups Z_k1 x Z_k2 x ... in mixed radix."""
    ks = list(ks)
    if not ks or any(k < 1 for k in ks):
        raise GroupSpecError(f"bad cyclic factors {ks}")
    table = reduce(_product_table, map(_cyclic_table, ks))
    labels = ["(" + ",".join(map(str, t)) + ")" for t in product(*map(range, ks))]
    return FiniteGroup(table, name or "Z:" + ",".join(map(str, ks)), labels)


def _perm_closure(degree: int, gens: Sequence[tuple[int, ...]],
                  max_order: float = math.inf) -> list[tuple[int, ...]]:
    """The permutations generated by ``gens``, from the identity onwards in
    the order right multiplication by the generators reaches them."""
    ident = tuple(range(degree))
    elems = [ident]
    seen = {ident}
    for p in elems:  # grows during iteration
        for q in gens:
            r = tuple(map(p.__getitem__, q))
            if r not in seen:
                if len(elems) >= max_order:
                    raise OrderCapError(
                        f"closure exceeds the order cap {max_order}")
                seen.add(r)
                elems.append(r)
    return elems


def _perm_group_from_elements(elems: list[tuple[int, ...]],
                              gens: Sequence[tuple[int, ...]], name: str) -> FiniteGroup:
    # s·x is the composite k -> s[x[k]]; only the generators' rows are
    # composed, and the Cayley graph fills in the rest
    index = {p: i for i, p in enumerate(elems)}
    gen_rows = [[index[tuple(map(s.__getitem__, x))] for x in elems] for s in gens]
    labels = ["(" + " ".join(map(str, p)) + ")" for p in elems]
    return FiniteGroup(_cayley_table(gen_rows, len(elems)), name, labels)


def symmetric_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError("degree must be >= 1")
    elems = list(permutations(range(n)))  # identity is lex-first
    # the transposition (0 1) and the n-cycle k -> k+1
    gens = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
    return _perm_group_from_elements(elems, gens, name or f"S{n}")


def alternating_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError("degree must be >= 1")
    # the 3-cycles (0 1 k) generate A_n; its elements are listed in lex order
    gens = []
    for k in range(2, n):
        p = list(range(n))
        p[0], p[1], p[k] = 1, k, 0
        gens.append(tuple(p))
    elems = sorted(_perm_closure(n, gens))
    return _perm_group_from_elements(elems, gens, name or f"A{n}")


def dihedral_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    """Dihedral group of order 2n (D1 = C2, D2 = Klein four)."""
    if n < 1:
        raise GroupSpecError("dihedral parameter must be >= 1")
    label = name or f"D{n}"
    if n == 1:
        return cyclic_group(2, label)
    if n == 2:
        return abelian_group([2, 2], label)
    r = tuple((i + 1) % n for i in range(n))
    s = tuple((n - i) % n for i in range(n))
    return from_permutations(n, [r, s], name=label, max_order=2 * n)


def quaternion_group(name: Optional[str] = None) -> FiniteGroup:
    """The quaternion group of order 8, elements 1, -1, i, -i, j, -j, k, -k,
    generated by i and j; their rows are the only hand-written ones."""
    row_i = (2, 3, 1, 0, 6, 7, 5, 4)  # i·j = k, i·k = -j
    row_j = (4, 5, 7, 6, 1, 0, 2, 3)  # j·i = -k, j·k = i
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(_cayley_table([row_i, row_j], 8), name or "Q8", labels)


def from_permutations(degree: int, generators: Sequence[Sequence[int]],
                      name: Optional[str] = None,
                      max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group generated by permutations given as image arrays on 0..degree-1."""
    if degree < 1:
        raise GroupSpecError("degree must be >= 1")
    gens = []
    for raw in generators:
        p = tuple(int(v) for v in raw)
        if sorted(p) != list(range(degree)):
            raise GroupSpecError(f"generator {raw} is not a bijection on 0..{degree - 1}")
        gens.append(p)
    elems = _perm_closure(degree, gens, max_order)
    return _perm_group_from_elements(elems, gens, name or f"perm({degree})")


def direct_product(a: FiniteGroup, b: FiniteGroup,
                   max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Componentwise product; element (x, y) is index x*|b| + y."""
    _require_cap(a.order * b.order, max_order, f"{a.name}x{b.name}")
    labels = None
    if a.element_labels is not None and b.element_labels is not None:
        labels = [f"({la},{lb})" for la in a.element_labels for lb in b.element_labels]
    return FiniteGroup(_product_table(a.table, b.table), f"{a.name}x{b.name}", labels)


def subgroup_group(g: FiniteGroup, s) -> FiniteGroup:
    """Re-root a subgroup as a standalone group.

    Its elements are renumbered in ascending order, so 0 stays the identity
    and :meth:`permlat.lattice.SubgroupLattice.rerooted` keeps node order.
    """
    mask = _as_mask(g, s)
    if not g.is_subgroup_mask(mask):
        raise ValueError("set is not a subgroup")
    elems = list(_bits(mask))
    index = {e: i for i, e in enumerate(elems)}.__getitem__
    # H's rows are read off G's, not grown from generators: finding those
    # would cost closures, which rerooting a lattice node never makes
    table = [tuple(map(index, map(g.table[x].__getitem__, elems))) for x in elems]
    labels = [g.label(x) for x in elems]
    return FiniteGroup(table, f"{g.name}|sub{len(elems)}", labels)


def quotient_group(g: FiniteGroup, n) -> FiniteGroup:
    """Quotient by a normal subgroup, via the coset multiplication table."""
    nmask = _as_mask(g, n)
    if not g.is_subgroup_mask(nmask):
        raise ValueError("set is not a subgroup")
    for x in g.generating_set:
        if g.conjugate_mask(nmask, x) != nmask:
            raise ValueError("subgroup is not normal")
    reps = []
    coset_of = [0] * g.order
    covered = 0
    for x in range(g.order):
        if not covered >> x & 1:
            cm = g.product_mask(nmask, 1 << x)
            for y in _bits(cm):
                coset_of[y] = len(reps)
            reps.append(x)
            covered |= cm
    # the cosets of G's generators generate G/N; coset xN maps yN to xyN
    gen_rows = [[coset_of[g.table[x][r]] for r in reps] for x in g.generating_set]
    labels = [g.label(r) + "N" for r in reps]
    return FiniteGroup(_cayley_table(gen_rows, len(reps)),
                       f"{g.name}/N{nmask.bit_count()}", labels)


# -- descriptor grammar and file formats ------------------------------------

_TOKEN_RE = re.compile(r"^(C|S|A|D)(\d+)$|^Q8$|^Z:(\d+(?:,\d+)*)$")


def _build_token(token: str, max_order: int) -> FiniteGroup:
    m = _TOKEN_RE.match(token)
    if not m:
        raise GroupSpecError(f"unknown group token {token!r}")
    if token == "Q8":
        return quaternion_group()
    if m.group(3) is not None:
        ks = [int(v) for v in m.group(3).split(",")]
        _require_cap(math.prod(ks), max_order, token)
        return abelian_group(ks, token)
    family, n = m.group(1), int(m.group(2))
    if family == "C":
        _require_cap(n, max_order, token)
        return cyclic_group(n)
    if family == "S":
        _require_cap(math.factorial(n), max_order, token)
        return symmetric_group(n)
    if family == "A":
        _require_cap(max(1, math.factorial(n) // 2), max_order, token)
        return alternating_group(n)
    _require_cap(2 * n, max_order, token)
    return dihedral_group(n)


def make_named(spec: str, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a descriptor: C<n>, S<n>, A<n>, D<n> (order 2n),
    Q8, Z:<k1>,<k2>,..., and x-separated products such as S3xC5."""
    tokens = spec.strip().split("x")
    if not tokens or not all(tokens):
        raise GroupSpecError(f"empty group descriptor in {spec!r}")
    g = _build_token(tokens[0], max_order)
    for token in tokens[1:]:
        g = direct_product(g, _build_token(token, max_order), max_order)
    if len(tokens) > 1:
        g.name = spec.strip()
    return g


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_rows(v) -> bool:
    # a list of lists of exact ints, as json.load yields them; ``type(x) is
    # int`` rejects bool as :func:`_is_int` does, in one pass over the entries
    return (isinstance(v, list) and all(isinstance(row, list) for row in v)
            and set(map(type, chain.from_iterable(v))) <= {int})


def _field(obj: dict, key: str, check, what: str):
    if key not in obj:
        raise GroupSpecError(f"{obj['kind']} group file has no {key!r} field")
    if not check(obj[key]):
        raise GroupSpecError(f"{obj['kind']} group file: {key!r} must be {what}")
    return obj[key]


def group_from_json_dict(obj: dict, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group file payloads: {"kind": "cayley"|"permutation"|"named", ...}.

    The payload's shape is checked before anything is built, so a malformed
    file raises :class:`GroupSpecError` naming the defect.
    """
    if not isinstance(obj, dict):
        raise GroupSpecError(
            f"group file must hold a JSON object, not {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in ("named", "permutation", "cayley"):
        raise GroupSpecError(f"unknown group file kind {kind!r}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise GroupSpecError(f"{kind} group file: 'name' must be a string")
    if kind == "named":
        return make_named(_field(obj, "spec", lambda v: isinstance(v, str),
                                 "a string"), max_order)
    if kind == "permutation":
        return from_permutations(
            _field(obj, "degree", _is_int, "an integer"),
            _field(obj, "generators", _is_int_rows, "a list of integer lists"),
            name=name, max_order=max_order)
    table = _field(obj, "table", _is_int_rows, "a list of integer rows")
    _require_cap(len(table), max_order, "cayley table")
    return FiniteGroup.from_table(table, "cayley" if name is None else name)


def load_group_file(path, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GroupSpecError(f"bad group file {path}: {exc}") from None
    return group_from_json_dict(obj, max_order)
