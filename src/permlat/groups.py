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
from functools import cache, cached_property
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True)
class StructuralPredicates:
    is_abelian: bool
    is_nilpotent: bool
    is_solvable: bool


class FiniteGroup:
    """Order-n group with multiplication table, inverses and optional labels.

    Invariants enforced at construction: the identity is element 0, each row
    and column of the table is a permutation of 0..n-1, and every element has
    an inverse. Associativity is checked exhaustively only where the table
    comes from untrusted input (see :meth:`from_table`); the internal
    constructors produce associative tables by construction.
    """

    def __init__(self, table, name: str, element_labels=None):
        self.table: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(v) for v in row) for row in table
        )
        self.order: int = len(self.table)
        self.name = name
        self.element_labels: Optional[tuple[str, ...]] = (
            tuple(element_labels) if element_labels is not None else None
        )
        if self.order < 1:
            raise GroupSpecError("empty multiplication table")
        self._check_structure()
        inv = [0] * self.order
        for i, row in enumerate(self.table):
            try:
                inv[i] = row.index(0)
            except ValueError:
                raise GroupSpecError(f"element {i} has no inverse") from None
        self.inverse: tuple[int, ...] = tuple(inv)
        self.full_mask: int = (1 << self.order) - 1

    def _check_structure(self):
        n = self.order
        idx = set(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n or set(row) != idx:
                raise GroupSpecError(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if {row[j] for row in self.table} != idx:
                raise GroupSpecError(f"column {j} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if self.table[0][j] != j or self.table[j][0] != j:
                raise GroupSpecError("element 0 is not a two-sided identity")

    def check_associativity(self) -> None:
        """Exhaustive associativity check; O(n^3), meant for ingested tables."""
        t = self.table
        for a in range(self.order):
            ta = t[a]
            for b in range(self.order):
                tab = t[ta[b]]
                tb = t[b]
                for c in range(self.order):
                    if tab[c] != ta[tb[c]]:
                        raise GroupSpecError(
                            f"associativity fails at ({a},{b},{c})"
                        )

    @classmethod
    def from_table(cls, table, name: str = "cayley", element_labels=None,
                   check_assoc: bool = True) -> "FiniteGroup":
        """Build a group from an untrusted table, relocating the identity to 0."""
        rows = [list(map(int, row)) for row in table]
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise GroupSpecError(f"row {i} has {len(row)} entries, not {n}")
        ident = None
        for e in range(n):
            if all(rows[e][j] == j and rows[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupSpecError("table has no two-sided identity")
        if ident != 0:
            # relabel by the transposition 0 <-> ident
            sigma = list(range(n))
            sigma[0], sigma[ident] = ident, 0
            rows = [[sigma[rows[sigma[i]][sigma[j]]] for j in range(n)]
                    for i in range(n)]
            if element_labels is not None:
                element_labels = list(element_labels)
                element_labels[0], element_labels[ident] = (
                    element_labels[ident], element_labels[0])
        g = cls(rows, name, element_labels)
        if check_assoc:
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
    def exponent(self) -> int:
        return math.lcm(*self.element_orders)

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

    def closure_mask(self, gens: Iterable[int], base: int = 1) -> int:
        """Subgroup generated by ``gens`` as a mask.

        ``base`` is a subgroup known to lie in <gens> (the trivial one by
        default). The result grows from it by whole right cosets ``base*y``,
        as in Dimino's algorithm (Butler, *Fundamental Algorithms for
        Permutation Groups*, 1991): the coset representatives y are closed
        under right multiplication by ``gens``, so their cosets cover the
        closure. With the trivial base this is a BFS from the identity.

        By Lagrange, a subgroup of G that contains ``base`` and has more than
        |G|/q elements, q the smallest prime dividing |G : base|, is G itself;
        the search stops as soon as it has found that many.
        """
        t = self.table
        gen_list = [g for g in dict.fromkeys(gens) if g]
        base_rows = [t[b] for b in _bits(base)]
        size = len(base_rows)
        index = self.order // size
        limit = self.order // prime_signature(index).factors[0][0] if index > 1 else size
        mask = base
        queue = [0]
        for x in queue:  # queue grows while we iterate
            row = t[x]
            for g in gen_list:
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

    def subgroup_gens(self, mask: int, base: int = 1,
                      base_gens: Sequence[int] = ()) -> Optional[tuple[int, ...]]:
        """Small generating set of a subgroup given as a mask, or None when
        ``mask`` is not a subgroup.

        Greedy: the lowest element of ``mask`` outside the span so far, each
        closure grown from the previous span. Every span is a subgroup and
        each step enlarges it, so if ``mask`` is a subgroup the spans stay in
        it until they equal it; if not, some span leaves it. This decides
        subgroup-ness by cosets rather than by the |m|^2 products of
        :meth:`is_subgroup_mask`. The first span is ``base``, the subgroup
        generated by ``base_gens`` (the trivial one by default), and the
        result starts with ``base_gens``.
        """
        gens = list(base_gens)
        m = base
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
        t = self.table
        return all(t[i][j] == t[j][i]
                   for i in range(self.order) for j in range(i + 1, self.order))

    @cached_property
    def derived_series(self) -> tuple[int, ...]:
        # [K, K] = <[x, y] : x, y in X>^K for K = <X>
        series = [self.full_mask]
        while True:
            k = series[-1]
            gens = self.subgroup_gens(k)
            nxt = self._commutator_closure(gens, gens, k)
            if nxt == k:
                break
            series.append(nxt)
        return tuple(series)

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
    return ElementSet(g, g.closure_mask(_bits(mask)))


def centralizer(g: FiniteGroup, x: int) -> ElementSet:
    return ElementSet(g, g.centralizer_mask(x))


def centralizer_of_set(g: FiniteGroup, s) -> ElementSet:
    mask = _as_mask(g, s)
    if mask == 0:
        raise ValueError("set must be nonempty")
    return ElementSet(g, g.centralizer_of_set_mask(mask))


def normal_closure(g: FiniteGroup, h, k) -> ElementSet:
    return ElementSet(g, g.normal_closure_mask(_as_mask(g, h), _as_mask(g, k)))


def structural_predicates(g: FiniteGroup) -> StructuralPredicates:
    """Abelian / nilpotent / solvable flags; the implications ab => nil => solv hold."""
    return StructuralPredicates(g.is_abelian, g.is_nilpotent, g.is_solvable)


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


def cyclic_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name or f"C{n}", [str(i) for i in range(n)])


def abelian_group(ks: Sequence[int], name: Optional[str] = None) -> FiniteGroup:
    """Direct product of cyclic groups Z_k1 x Z_k2 x ... in mixed radix."""
    ks = list(ks)
    if not ks or any(k < 1 for k in ks):
        raise GroupSpecError(f"bad cyclic factors {ks}")
    n = math.prod(ks)

    def decode(i):
        out = []
        for k in reversed(ks):
            i, r = divmod(i, k)
            out.append(r)
        return list(reversed(out))

    def encode(t):
        i = 0
        for k, v in zip(ks, t):
            i = i * k + v
        return i

    tuples = [decode(i) for i in range(n)]
    table = [[encode([(a + b) % k for a, b, k in zip(ta, tb, ks)])
              for tb in tuples] for ta in tuples]
    labels = ["(" + ",".join(map(str, t)) + ")" for t in tuples]
    return FiniteGroup(table, name or "Z:" + ",".join(map(str, ks)), labels)


def _perm_group_from_elements(elems: list[tuple[int, ...]], name: str) -> FiniteGroup:
    # a*b is the composite k -> a[b[k]], the tuple itemgetter(*b)(a); at
    # degree 1 itemgetter returns the scalar a[b[0]], so index by that
    index = {p if len(p) > 1 else p[0]: i for i, p in enumerate(elems)}
    compose = [itemgetter(*b) for b in elems]
    table = [[index[c(a)] for c in compose] for a in elems]
    labels = ["(" + " ".join(map(str, p)) + ")" for p in elems]
    return FiniteGroup(table, name, labels)


def symmetric_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError("degree must be >= 1")
    elems = [tuple(p) for p in permutations(range(n))]  # identity is lex-first
    return _perm_group_from_elements(elems, name or f"S{n}")


def _perm_parity(p) -> int:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def alternating_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError("degree must be >= 1")
    elems = [tuple(p) for p in permutations(range(n)) if _perm_parity(p) == 0]
    return _perm_group_from_elements(elems, name or f"A{n}")


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
    g = from_permutations(n, [r, s], name=label, max_order=2 * n)
    return g


_Q8_UNIT = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (1, 0), (0, 3), (1, 2)),
    ((0, 2), (1, 3), (1, 0), (0, 1)),
    ((0, 3), (0, 2), (1, 1), (1, 0)),
)


def quaternion_group(name: Optional[str] = None) -> FiniteGroup:
    """The quaternion group of order 8: units 1, i, j, k with signs."""
    def idx(sign, unit):
        return unit * 2 + sign

    table = [[0] * 8 for _ in range(8)]
    for s1 in (0, 1):
        for u1 in range(4):
            for s2 in (0, 1):
                for u2 in range(4):
                    s3, u3 = _Q8_UNIT[u1][u2]
                    table[idx(s1, u1)][idx(s2, u2)] = idx(s1 ^ s2 ^ s3, u3)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, name or "Q8", labels)


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
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    for p in elems:  # grows during iteration
        for q in gens:
            r = tuple(p[q[k]] for k in range(degree))
            if r not in index:
                if len(elems) >= max_order:
                    raise OrderCapError(
                        f"closure exceeds the order cap {max_order}")
                index[r] = len(elems)
                elems.append(r)
    return _perm_group_from_elements(elems, name or f"perm({degree})")


def direct_product(a: FiniteGroup, b: FiniteGroup,
                   max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Componentwise product; element (x, y) is index x*|b| + y."""
    n = a.order * b.order
    _require_cap(n, max_order, f"{a.name}x{b.name}")
    nb = b.order
    ta, tb = a.table, b.table
    table = [[0] * n for _ in range(n)]
    for x1 in range(a.order):
        for y1 in range(b.order):
            row = table[x1 * nb + y1]
            ra = ta[x1]
            rb = tb[y1]
            for x2 in range(a.order):
                base = ra[x2] * nb
                for y2 in range(b.order):
                    row[x2 * nb + y2] = base + rb[y2]
    labels = None
    if a.element_labels is not None and b.element_labels is not None:
        labels = [f"({a.element_labels[x]},{b.element_labels[y]})"
                  for x in range(a.order) for y in range(b.order)]
    return FiniteGroup(table, f"{a.name}x{b.name}", labels)


def subgroup_group(g: FiniteGroup, s) -> FiniteGroup:
    """Re-root a subgroup as a standalone group.

    Its elements are renumbered in ascending order, so 0 stays the identity
    and :meth:`permlat.lattice.SubgroupLattice.rerooted` keeps node order.
    """
    mask = _as_mask(g, s)
    if not g.is_subgroup_mask(mask):
        raise ValueError("set is not a subgroup")
    elems = list(_bits(mask))
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[g.table[x][y]] for y in elems] for x in elems]
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
    table = [[coset_of[g.table[a][b]] for b in reps] for a in reps]
    labels = [g.label(r) + "N" for r in reps]
    return FiniteGroup(table, f"{g.name}/N{nmask.bit_count()}", labels)


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
    return isinstance(v, list) and all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in v)


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
