"""Subgroup lattices and their distinguished node selections.

A lattice is built from its node masks alone (:class:`SubgroupLattice`), and
every lattice comes through that one constructor: enumeration, cache hits
and re-rooted children. The masks are enumerated once per group by joining
conjugacy-class representatives A with the cyclic subgroups of prime-power
order, after Neubüser's cyclic-extension method. A join is skipped when
its result is known or is reached by another join. Outside the solvable
residual R = G^(∞) only the normal extensions AC of prime index over A are
joined, since every subgroup that is not perfect has a normal subgroup of
prime index; every
subgroup of prime index over A already found absorbs the seeds it holds
outside A, and seeds conjugate under N(A) to a joined seed give conjugate
joins. A normal representative's normalizer is the whole group, found
without a closure, and a seed inside N(A) is joined as the product of A
with its one generator. :func:`enumerate_subgroups` proves each of these
rules. The masks are then frozen: nodes are sorted by (cardinality,
membership-vector lex order), so two runs of the same table index the nodes
identically. The lattice of a subgroup H is the interval [1, H] of the
parent's lattice, so :meth:`SubgroupLattice.rerooted` reads it off the
parent instead of enumerating it again. Selections (normal, subnormal,
maximal, Sylow, perp, ...) are index sets into that fixed node list; they
never copy subgroups.

Conjugation works on node indices, not element masks. Each lattice keeps
two tables: the node of every cyclic subgroup <x>, and greedy generators of
every node, read off the containment columns (the nodes holding each
element) in the same pass that builds the order masks. Conjugation by y is an
automorphism, so y<S>y⁻¹ = <ySy⁻¹> for any set S: the conjugate of a node
X = <x1> v ... v <xm> is the join of the cyclic nodes of the yxiy⁻¹, a few
ANDs of order masks (:meth:`SubgroupLattice.conjugates`). Normality and
subnormality are class invariants and are decided once per conjugacy class
(:attr:`SubgroupLattice.class_of`). The classes and their conjugators are
orbits under the group's generators, each member conjugated that way inside
the walk itself; a node that every generator maps its own generators into
is normal, and its class is that node alone, found without a walk.
Subnormality in G or in any node follows the normal-closure chain of a node
through joins of its conjugates; the step H^G is the join of H's class,
already known. No read of a built lattice conjugates an element mask or
computes a closure; the mask-level class orbit is used only by
:func:`enumerate_subgroups`, before there is a lattice. The normal,
subnormal and maximal selections and the permutability rows are built once
per lattice, in the lattice's memo (:meth:`SubgroupLattice.memo`), which
also holds the other per-lattice values the degrees and bounds read.

The lattice of a node X is the interval [1, X], so each selection is defined
once, for any node, and G's is the value at the top node: M(X) is the lower
covers of X (:func:`node_maximal`, which :func:`maximal_subgroups` reads at
the top) and sn(X) is read off sn(G) and normal-closure chains inside X
(:func:`node_subnormal`).

Meets, joins, permutability and modularity are all read off the node orders
and the order masks ``up_masks``/``down_masks``; deciding them computes no
product set and no closure. The order masks themselves come from containment
columns and greedy generators: the nodes above node i are those that hold
each of its generators, an AND of a few columns however large the node.
``down_masks``, their transpose, is built only when first read; the
selections and Moebius read ``up_masks`` alone. Permutability is kept as
one bitrow per node, built on demand (:class:`PermutabilityRows`). The row
of X^g is the row of X conjugated by g, so the degrees, perp and the bound
checkers' counts read the rows of class representatives only; other rows
are built only for custom selections.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import Iterable, Optional

from .groups import (ElementSet, FiniteGroup, _bits, prime_signature,
                     subgroup_group)

DEFAULT_LATTICE_CAP = 5000

RAW = "raw"
CLOSED = "closed"
CONVENTIONS = (RAW, CLOSED)


class LatticeCapError(ValueError):
    """Enumeration found more subgroups than the configured node cap."""


def _check_convention(convention: str):
    if convention not in CONVENTIONS:
        raise ValueError(f"maximal-subgroup convention must be one of {CONVENTIONS}")


class SubgroupLattice:
    """All subgroups of a group, ordered by inclusion.

    ``nodes[bottom]`` is the trivial subgroup and ``nodes[top]`` the whole
    group. ``up_masks[i]`` / ``down_masks[i]`` are bitmasks over node indices
    with j set iff nodes[i] <= nodes[j] (resp. >=).

    One pass over the nodes builds the order masks and two tables.
    ``cyclic_nodes[x]`` is the node of <x>, the lowest node holding x.
    ``node_gens[k]`` are greedy generators of node k, as
    :meth:`FiniteGroup.subgroup_gens` finds them by closures: the lowest
    element outside the span so far, where the span of a generator list is
    the lowest node holding all of it, read off the AND of their containment
    columns. A subgroup holds H iff it holds H's generators, so that AND,
    taken over all of H's generators, is ``up_masks[k]``; no closure is
    computed. The loop ends on any list of distinct masks sorted as here,
    subgroups or not: node k holds its own generators, so it stays in the
    AND and the span is a node at or below k, and while it is not k, k
    holds an element outside it, whose column drops the span from the AND.
    ``down_masks`` is built on first read.
    """

    def __init__(self, group: FiniteGroup, masks: list[int]):
        n = group.order
        order_key = lambda m: (m.bit_count(), f"{m:0{n}b}"[::-1])
        masks = sorted(masks, key=order_key)
        self.group = group
        self.masks: tuple[int, ...] = tuple(masks)
        self.nodes: tuple[ElementSet, ...] = tuple(ElementSet(group, m) for m in masks)
        self.index_of: dict[int, int] = {m: i for i, m in enumerate(masks)}
        self.bottom = 0
        self.top = len(masks) - 1
        # containing[e]: the nodes that hold element e
        containing = [0] * n
        for i, m in enumerate(masks):
            bit = 1 << i
            while m:
                low = m & -m
                containing[low.bit_length() - 1] |= bit
                m ^= low
        self.all_nodes_mask = full = (1 << len(masks)) - 1
        # the smallest subgroup holding x is <x>, and nodes are sorted by order
        self.cyclic_nodes: tuple[int, ...] = tuple(
            (c & -c).bit_length() - 1 for c in containing)
        up, node_gens = [], []
        for k, mk in enumerate(masks):
            gens, node, above = [], self.bottom, full
            while node != k:
                rest = mk & ~masks[node]
                x = (rest & -rest).bit_length() - 1
                gens.append(x)
                above &= containing[x]
                node = (above & -above).bit_length() - 1
            up.append(above)
            node_gens.append(tuple(gens))
        self.up_masks: tuple[int, ...] = tuple(up)
        self.node_gens: tuple[tuple[int, ...], ...] = tuple(node_gens)
        # per-lattice values computed on demand (:meth:`memo`)
        self._memo: dict = {}

    def __len__(self):
        return len(self.masks)

    def __repr__(self):
        return f"SubgroupLattice({self.group.name}, nodes={len(self)})"

    def memo(self, key, compute):
        """The value kept under ``key``, from ``compute()`` on first read:
        selections, permutability rows, pair counts and per-node values,
        once per lattice."""
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = compute()
        return hit

    def node_order(self, i: int) -> int:
        return self.masks[i].bit_count()

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up_masks[a] >> b & 1)

    def meet(self, a: int, b: int) -> int:
        # common lower bounds are sorted by order and all lie under the meet,
        # so the meet is the highest one
        return (self.down_masks[a] & self.down_masks[b]).bit_length() - 1

    def join(self, a: int, b: int) -> int:
        # dually, the join is the lowest common upper bound
        common = self.up_masks[a] & self.up_masks[b]
        return (common & -common).bit_length() - 1

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """The transpose of ``up_masks``, built on first read: bit j of
        ``down_masks[i]`` is set iff nodes[j] <= nodes[i]."""
        down = [0] * len(self.masks)
        for i, above in enumerate(self.up_masks):
            bit = 1 << i
            for j in _bits(above):
                down[j] |= bit
        return tuple(down)

    def conjugates(self, i: int, ys: Sequence[int]) -> list[int]:
        """The nodes y X y⁻¹ for X = nodes[i] and each element y of ``ys``:
        the join of the cyclic nodes of y x y⁻¹ over X's generators x.

        For any set S, y<S>y⁻¹ = <ySy⁻¹>: the left side is a subgroup
        holding ySy⁻¹, so it contains the right side, and conjugating by y⁻¹
        gives the reverse inclusion. With X = <x1, ..., xm> =
        <x1> v ... v <xm> this gives yXy⁻¹ = <yx1y⁻¹> v ... v <yxmy⁻¹>, and
        a join of nodes is the lowest node above all of them (:meth:`join`):
        a few ANDs of order masks, whatever the size of X."""
        t, inv = self.group.table, self.group.inverse
        up, cyc, full = self.up_masks, self.cyclic_nodes, self.all_nodes_mask
        gens = self.node_gens[i]
        out = []
        for y in ys:
            row, yi = t[y], inv[y]
            above = full
            for x in gens:
                above &= up[cyc[t[row[x]][yi]]]
            out.append((above & -above).bit_length() - 1)
        return out

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # (class_of, conjugators): one BFS per class from its lowest node R
        # over generators s of the group. The member g R g⁻¹ conjugated by s
        # is y R y⁻¹ with y = s·g, the join of the cyclic nodes of y x y⁻¹
        # over R's generators x (the proof is in :meth:`conjugates`), found
        # here without a call per member. When every s maps R's generators
        # into R, R is normal and its class is R alone
        t, inv = self.group.table, self.group.inverse
        up, cyc, full = self.up_masks, self.cyclic_nodes, self.all_nodes_mask
        gens = self.node_gens[self.top]
        gen_rows = [(t[s], inv[s]) for s in gens]
        rep = [-1] * len(self.masks)
        conj = [-1] * len(self.masks)
        for r, m in enumerate(self.masks):
            if rep[r] >= 0:
                continue
            rep[r], conj[r] = r, 0
            rgens = self.node_gens[r]
            if all(m >> t[row[x]][si] & 1 for row, si in gen_rows for x in rgens):
                continue
            orbit = [r]
            for i in orbit:  # orbit grows while we iterate
                g = conj[i]
                for s in gens:
                    y = t[s][g]
                    row, yi = t[y], inv[y]
                    above = full
                    for x in rgens:
                        above &= up[cyc[t[row[x]][yi]]]
                    j = (above & -above).bit_length() - 1
                    if rep[j] < 0:
                        rep[j], conj[j] = r, y
                        orbit.append(j)
        return tuple(rep), tuple(conj)

    @property
    def class_of(self) -> tuple[int, ...]:
        """The representative (lowest-indexed member) of each node's
        conjugacy class: the orbits of the nodes under conjugation by
        generators of the group. Since y<S>y⁻¹ = <ySy⁻¹>, each conjugate of
        a node is the join of the cyclic nodes of its conjugated generators
        (:meth:`conjugates`), so no element mask is conjugated."""
        return self._classes[0]

    @property
    def conjugators(self) -> tuple[int, ...]:
        """An element g for each node i with nodes[i] = g R g⁻¹, R the
        representative of its class: a BFS from R over generators of the
        group, where conjugating g R g⁻¹ by s composes the conjugator to s·g."""
        return self._classes[1]

    @cached_property
    def class_masks(self) -> dict[int, int]:
        """Node mask of each conjugacy class, keyed by its representative."""
        out: dict[int, int] = {}
        for i, r in enumerate(self.class_of):
            out[r] = out.get(r, 0) | 1 << i
        return out

    def class_reps(self, mask: int) -> Optional[list[int]]:
        """Representatives of the classes that make up the node set ``mask``,
        or None when ``mask`` is not a union of conjugacy classes."""
        reps = []
        for r, members in self.class_masks.items():
            hit = members & mask
            if hit:
                if hit != members:
                    return None
                reps.append(r)
        return reps

    def chi_rows(self) -> PermutabilityRows:
        """Permutability bitmatrix: bit j of row i set iff nodes i and j
        permute. Its rows are built on demand (:class:`PermutabilityRows`);
        the rows of class representatives, which every count over unions of
        classes reads, are built here. The product-set definition is kept as
        the oracle (:func:`permlat.degrees.permutes`).
        """
        return self.memo("chi", lambda: PermutabilityRows(self))

    def rerooted(self, i: int):
        """Node i as a standalone group with its own subgroup lattice.

        Returns (group, lattice). The subgroups of H = nodes[i] are the
        interval [1, H] of this lattice, the set bits of ``down_masks[i]``,
        so nothing is enumerated. :func:`subgroup_group` numbers H's elements
        in ascending order, which keeps the (cardinality, membership-lex)
        node order: child node k is the k-th set bit of ``down_masks[i]``.
        """
        sub = subgroup_group(self.group, self.masks[i])
        new_bit = {e: 1 << k for k, e in enumerate(_bits(self.masks[i]))}
        masks = [sum(new_bit[e] for e in _bits(self.masks[j]))
                 for j in _bits(self.down_masks[i])]
        return sub, SubgroupLattice(sub, masks)


class PermutabilityRows(Sequence):
    """The permutability bitmatrix of a lattice, row by row: bit j of row i
    is set iff nodes i and j permute. A row is built on first read and kept.

    X and Y permute iff XY is a subgroup, that is iff XY = X v Y. Since
    |XY| = |X||Y| / |X ^ Y| for any two subgroups, that holds exactly when
    |X v Y| |X ^ Y| = |X| |Y|, which needs only node orders and the order
    masks (join and meet as in :meth:`SubgroupLattice.join` and
    :meth:`SubgroupLattice.meet`, inlined). Comparable pairs always permute,
    and so does a normal node N with every node (NY = YN): neither is
    tested, and a normal node's row is full; every other pair is tested
    once: a row reads bit i of each row built before it instead of testing
    that pair again.

    The row of X^g is the row of X conjugated by g, so the pair counts of G
    and inside any node, and perp, read the rows of class representatives
    only (:func:`permlat.degrees.inside_count`, :func:`perp`). Those rows are
    built with the matrix; ``built`` is the node mask of the rows built, and
    only custom selections build others.
    """

    def __init__(self, lat: SubgroupLattice):
        self._lat = lat
        self._normal = normal_subgroups(lat).members_mask
        self._sizes = tuple(m.bit_count() for m in lat.masks)
        self._rows: list[Optional[int]] = [None] * len(lat)
        self.built = 0
        for r in lat.class_masks:
            self._build(r)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> int:
        row = self._rows[i]
        return self._build(i % len(self._rows)) if row is None else row

    def _build(self, i: int) -> int:
        lat = self._lat
        if self._normal >> i & 1:
            row = lat.all_nodes_mask
        else:
            known = lat.up_masks[i] | lat.down_masks[i] | self._normal
            rest = lat.all_nodes_mask & ~known
            # permutability is symmetric: a row built before holds bit i
            done = rest & self.built
            row = known | self._permuting(i, rest & ~done)
            rows = self._rows
            for j in _bits(done):
                if rows[j] >> i & 1:
                    row |= 1 << j
        self._rows[i] = row
        self.built |= 1 << i
        return row

    def _permuting(self, i: int, rest: int) -> int:
        """The nodes of ``rest`` that permute with node i, by the order test."""
        sizes = self._sizes
        up, down = self._lat.up_masks, self._lat.down_masks
        ui, di, si = up[i], down[i], sizes[i]
        out = 0
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            common = ui & up[j]
            if (sizes[(common & -common).bit_length() - 1]
                    * sizes[(di & down[j]).bit_length() - 1] == si * sizes[j]):
                out |= low
        return out


def _conjugation_tables(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The maps x -> s x s⁻¹ as tables, one for each generator s of the group."""
    t, inv = group.table, group.inverse
    return [tuple(t[y][inv[s]] for y in t[s]) for s in group.generating_set]


def _conjugacy_class(mask: int, gens, tables) -> list[int]:
    """The conjugacy class of the subgroup <gens> = ``mask``, as masks: its
    orbit under the conjugation ``tables`` of the group's generators
    (:func:`_conjugation_tables`). When every table maps ``gens`` into the
    subgroup, it is normal and its class is itself."""
    if all(mask >> tab[x] & 1 for tab in tables for x in gens):
        return [mask]
    orbit = [mask]
    members = {mask}
    for m in orbit:  # orbit grows while we iterate
        for tab in tables:
            c = 0
            rest = m
            while rest:
                low = rest & -rest
                c |= 1 << tab[low.bit_length() - 1]
                rest ^= low
            if c not in members:
                members.add(c)
                orbit.append(c)
    return orbit


def enumerate_subgroups(group: FiniteGroup,
                        lattice_cap: int = DEFAULT_LATTICE_CAP) -> SubgroupLattice:
    """Enumerate the full subgroup lattice by class-driven saturation.

    This follows the cyclic-extension method of Neubüser (1960), on which
    GAP's lattice code is built. Every cyclic subgroup starts in the
    frontier, which holds one representative per conjugacy class. Each
    representative A is joined with seeds, the cyclic subgroups of
    prime-power order. A join that yields a new subgroup brings in its whole
    conjugacy class at once, by conjugation and without further closures,
    and its representative joins the next frontier.

    Normal prime-index extensions. Let R = G^(∞), the last term of the
    derived series (:meth:`FiniteGroup.solvable_residual`, computed once per
    call and kept nowhere). A is joined with a seed C only if C <= N(A) and
    |C : C n A| is prime, or A u C lies in R. Outside R every join is
    therefore AC, of prime index over A: for solvable G (R = 1) every join
    is such a one-generator extension, and for perfect G (R = G) the rule
    skips nothing.

    The method is complete: every subgroup J is conjugate to a join <A, C>
    that the rule lets through, with A the representative of a class of
    smaller subgroups. By induction on |J| (1 and the cyclic subgroups are
    found first):

    - J is not perfect. J' < J and J/J' is abelian, so J has a normal
      subgroup K of prime index p, and K = A^h for the representative A of
      K's class, found by induction. Take x in J outside K. x is the
      product of its q-parts, one for each prime q dividing its order, which
      are powers of x. In J/K, of order p, every q-part with q != p maps to
      1, so the p-part x_p lies outside K. Then <K, x_p> = J, x_p
      normalizes K and x_p^p lies in K, so J^(h⁻¹) = <A, C> with
      C = <x_p^(h⁻¹)> <= N(A) and |C : C n A| = p.
    - J is perfect and J != 1. J = J' lies in every term of the derived
      series, so J <= R. J is generated by its elements of prime-power
      order; drop one element c from a minimal generating set of them, to
      get K < J with J = <K, c>. K = A^h as before, and A = K^(h⁻¹) and
      c^(h⁻¹) both lie in R, which is normal, so J^(h⁻¹) = <A, C> with
      C = <c^(h⁻¹)> and A u C in R.

    A join that the rule lets through is skipped only when its result is
    known by one of these rules:

    - A seed inside A adds nothing, and a seed containing A is its own join
      with A, a cyclic subgroup found first.
    - Seen prime-index overgroups. When K > A has prime index over A, no
      subgroup lies strictly between them, since by Lagrange its index over
      A would divide that prime; so every seed in K but not in A joins A to
      K. Before A's first join, A's cover is the union of A and every K
      already found with prime index over A, and a seed inside the cover is
      not joined: its generator lies in one such K, and so does the seed.
      Each new join J of prime index over A adds the members of its class
      that contain A to the cover. So every join of prime index is new: a
      known one would have held C in the cover.
    - N(A)-orbits. For n in N(A), <A, C^n> = <A, C>^n, so when a join is
      not of prime index over A (only inside R), C's whole N(A)-orbit goes
      into ``tried``. A join J of prime index needs none: C^n lies in J^n,
      a member of J's class that contains A, hence in the cover.

    The cost of each join is cut by more exact rules:

    - Free normalizer. N(A) is found once per representative, before its
      first join. A representative whose class has one member is normal, so
      N(A) = G, found without a closure. Otherwise N(A) is a union of left
      cosets of A, tested one coset at a time (:func:`_normalizer_mask`).
      Its generators, which only the N(A)-orbits read, are those of G for a
      normal A and are otherwise read off N(A) before the first orbit.
    - One-generator joins. A join is closed from A by whole cosets, as in
      Dimino's algorithm (:meth:`FiniteGroup.closure_mask` with ``base`` A).
      When the seed C = <c> lies in N(A), <A, C> = AC is the union of the
      cosets A c^k, so it is closed from A with c as the only generator.
      The table rows of A's elements, which every coset reads, are built
      once per representative, with N(A), and passed to each closure.
    - Normality by generators. Classes are orbits under conjugation by the
      generators s of G, read off one table x -> s x s⁻¹ per s, built once
      per call. J = <jgens> is normal iff every table maps each of jgens
      into J: then sJs⁻¹ = <s jgens s⁻¹> lies in J and has its order, so
      each generator of G, and hence all of G, normalizes J. Such a J's
      class is [J], found without conjugating J's elements.

    :class:`LatticeCapError` is raised as soon as more than ``lattice_cap``
    subgroups are known, that is exactly when |L(G)| exceeds the cap.
    """
    g = group
    t, inv = g.table, g.inverse
    tables = _conjugation_tables(g)
    # generators of what gets joined: the cyclic subgroups and the representatives
    gens_of: dict[int, tuple[int, ...]] = {1: ()}
    cyclic_of = [1] * g.order
    cyclic_masks: list[int] = [1]
    for x in range(1, g.order):
        m = g.cyclic_mask(x)
        cyclic_of[x] = m
        if m not in gens_of:
            gens_of[m] = (x,)
            cyclic_masks.append(m)
    if len(cyclic_masks) > lattice_cap:
        raise LatticeCapError(f"{g.name}: more than {lattice_cap} subgroups")
    seeds = [m for m in cyclic_masks[1:]
             if len(prime_signature(m.bit_count()).factors) == 1]
    primes = set(prime_signature(g.order).primes)
    rm = g.solvable_residual()
    frontier: list[int] = []
    seen: set[int] = set()  # every subgroup found so far
    of_order: dict[int, list[int]] = {}  # the subgroups in seen, by order
    normal: set[int] = set()  # the representatives that are normal subgroups

    def add_class(members: list[int]):
        seen.update(members)
        of_order.setdefault(members[0].bit_count(), []).extend(members)
        if len(members) == 1:
            normal.add(members[0])

    for m in cyclic_masks:
        if m not in seen:
            frontier.append(m)
            members = _conjugacy_class(m, gens_of[m], tables)
            add_class(members)
    while frontier:
        fresh: list[int] = []
        for am in frontier:
            agens = gens_of[am]
            a_order = am.bit_count()
            a_normal = am in normal
            nm = 0  # N(A) and A's element rows, found before the first join
            ngens: Optional[tuple[int, ...]] = None  # generators of N(A)
            arows: list[tuple[int, ...]] = []
            tried: set[int] = set()  # seeds whose join with A is known
            # A and the seen subgroups of prime index over A, each of which is
            # the join of A with every seed it holds outside A
            cover = am
            for p in primes:
                for km in of_order.get(a_order * p, ()):
                    if km & am == am:
                        cover |= km
            for cm in seeds:
                if cm & cover == cm or am & cm == am or cm in tried:
                    continue
                # outside R, only a C in N(A) with |C : C n A| prime is joined
                in_r = not (am | cm) & ~rm
                if not in_r and cm.bit_count() // (cm & am).bit_count() not in primes:
                    continue
                if not nm:
                    nm = g.full_mask if a_normal else _normalizer_mask(g, am, agens)
                    arows = [t[b] for b in _bits(am)]
                c_normalizes = cm & nm == cm
                if not (in_r or c_normalizes):
                    continue
                c = gens_of[cm][0]
                jgens = agens + (c,)
                jm = g.closure_mask((c,) if c_normalizes else jgens, am, arows)
                if jm not in seen:
                    members = _conjugacy_class(jm, jgens, tables)
                    add_class(members)
                    gens_of[jm] = jgens
                    fresh.append(jm)
                    if len(seen) > lattice_cap:
                        raise LatticeCapError(
                            f"{g.name}: more than {lattice_cap} subgroups")
                    if jm.bit_count() // a_order in primes:
                        # J and its conjugates over A join the cover (a seen
                        # J of prime index over A would have held C in it)
                        for km in members:
                            if km & am == am:
                                cover |= km
                        continue
                # the seeds of C's N(A)-orbit join A to N(A)-conjugates of J
                if ngens is None:
                    ngens = (g.generating_set if a_normal
                             else g.subgroup_gens(nm, am, agens))
                orbit = [cm]
                tried.add(cm)
                for e in orbit:  # orbit grows while we iterate
                    x = gens_of[e][0]
                    for y in ngens:
                        f = cyclic_of[t[t[y][x]][inv[y]]]
                        if f not in tried:
                            tried.add(f)
                            orbit.append(f)
        frontier = fresh
    return SubgroupLattice(g, list(seen))


def _normalizer_mask(group: FiniteGroup, am: int, agens) -> int:
    """N(A) for A = <agens>, tested one left coset yA at a time: y
    normalizes A iff every element of yA does."""
    t, inv = group.table, group.inverse
    a_elems = list(_bits(am))
    normalizer = 0
    rest = group.full_mask
    while rest:
        y = (rest & -rest).bit_length() - 1
        row = t[y]
        coset = 0
        for a in a_elems:
            coset |= 1 << row[a]
        rest &= ~coset
        yi = inv[y]
        if all(am >> t[row[a]][yi] & 1 for a in agens):
            normalizer |= coset
    return normalizer


def subgroup_masks_bruteforce(group: FiniteGroup) -> list[int]:
    """Independent power-set oracle: test every subset containing the identity.

    Exponential; intended for groups of order <= 16.
    """
    n = group.order
    out = []
    for m in range(1, 1 << n, 2):  # bit 0 (identity) always set
        if group.is_subgroup_mask(m):
            out.append(m)
    return out


class SublatticeSelection:
    """A tagged subset of lattice nodes (indices into the parent lattice)."""

    __slots__ = ("lattice", "kind", "members", "members_mask")

    def __init__(self, lattice: SubgroupLattice, kind: str, members: Iterable[int]):
        self.lattice = lattice
        self.kind = kind
        self.members = tuple(sorted(set(members)))
        mask = 0
        for i in self.members:
            mask |= 1 << i
        self.members_mask = mask

    def __len__(self):
        return len(self.members)

    def __contains__(self, i: int):
        return bool(self.members_mask >> i & 1)

    def __repr__(self):
        return (f"SublatticeSelection({self.lattice.group.name}, {self.kind}, "
                f"{len(self.members)} nodes)")


def all_subgroups(lat: SubgroupLattice) -> SublatticeSelection:
    return lat.memo("all", lambda: SublatticeSelection(lat, "all", range(len(lat))))


def normal_subgroups(lat: SubgroupLattice) -> SublatticeSelection:
    """Nodes invariant under conjugation: the classes with one member."""
    # a class with one member is that node alone, its representative
    return lat.memo("normal", lambda: SublatticeSelection(lat, "normal", (
        r for r, members in lat.class_masks.items() if members.bit_count() == 1)))


def _join_all(lat: SubgroupLattice, nodes: int) -> int:
    """The join of a node set: the lowest node above each of its nodes."""
    above = lat.all_nodes_mask
    for j in _bits(nodes):
        above &= lat.up_masks[j]
    return (above & -above).bit_length() - 1


def _is_subnormal_node(lat: SubgroupLattice, i: int, k: Optional[int] = None) -> bool:
    """Whether node H = nodes[i] is subnormal in K = nodes[k] (G when k is
    None), by the descending normal-closure chain K0 = K,
    K_{t+1} = H^{K_t}: H is subnormal in K exactly when the chain reaches H,
    and is not when it stalls first. H must lie in K.

    H^K is the subgroup generated by H's K-conjugates, the join of H's orbit
    under conjugation by K's generators (:meth:`SubgroupLattice.conjugates`).
    The step from G is free: the G-conjugates of H are exactly the members
    of H's conjugacy class, so H^G is the join of its node set in
    ``class_masks`` and needs no conjugation."""
    k = lat.top if k is None else k
    while k != i:
        if k == lat.top:
            members = lat.class_masks[lat.class_of[i]]
        else:
            orbit, members = [i], 1 << i
            for j in orbit:  # orbit grows while we iterate
                for c in lat.conjugates(j, lat.node_gens[k]):
                    if not members >> c & 1:
                        members |= 1 << c
                        orbit.append(c)
        nk = _join_all(lat, members)
        if nk == k:
            return False
        k = nk
    return True


def subnormal_subgroups(lat: SubgroupLattice) -> SublatticeSelection:
    """Subnormal nodes. Subnormality is a class invariant, so the closure
    chain runs on class representatives only."""
    def compute():
        normal = normal_subgroups(lat)
        reps = {r for r in set(lat.class_of)
                if r in normal or _is_subnormal_node(lat, r)}
        return SublatticeSelection(
            lat, "subnormal", (i for i, r in enumerate(lat.class_of) if r in reps))
    return lat.memo("subnormal", compute)


def node_subnormal(lat: SubgroupLattice, idx: int) -> int:
    """sn(X) of node X as a node mask, once per node. For Y <= X, a
    subnormal chain of Y in G meets X in one of Y in X, so sn(G) n [1, X]
    lies in sn(X), with equality when X is itself subnormal in G. For a
    class representative R outside sn(G), each other Y <= R is tested by its
    normal-closure chain inside R (:func:`_is_subnormal_node` from R). Any
    other X = R^g has sn(X) = sn(R)^g, each node of sn(R) conjugated on the
    lattice (:meth:`SubgroupLattice.conjugates`)."""
    def compute():
        sn_g = subnormal_subgroups(lat)
        below = lat.down_masks[idx]
        if idx in sn_g:
            return sn_g.members_mask & below
        rep = lat.class_of[idx]
        if rep != idx:
            x = lat.conjugators[idx]
            out = 0
            for j in _bits(node_subnormal(lat, rep)):
                out |= 1 << lat.conjugates(j, (x,))[0]
            return out
        out = sn_g.members_mask & below
        for y in _bits(below & ~out):
            if _is_subnormal_node(lat, y, idx):
                out |= 1 << y
        return out
    return lat.memo(("sn-of", idx), compute)


def node_maximal(lat: SubgroupLattice, idx: int, convention: str = RAW) -> int:
    """M(X) of node X as a node mask, once per node and convention: the
    lower covers of X, plus their meet and X when closed
    (:func:`closed_maximal`).

    Strict inclusion raises the order, and nodes are sorted by order. So
    below the top, the highest node left in [1, X) is a lower cover of X:
    a node strictly between it and X would be higher, and is cleared only
    with the down mask of a cover above it, which clears it too. Clearing
    the down mask of each cover found leaves the next. At the top no down
    mask is read: the lowest bit of ``up_masks[i]`` is i itself, so node i
    is a cover of G exactly when the rest of its up mask is G alone."""
    _check_convention(convention)

    def compute():
        if convention != RAW:
            return closed_maximal(lat, node_maximal(lat, idx), idx)
        covers = 0
        if idx == lat.top:
            top_bit = 1 << idx
            for i, above in enumerate(lat.up_masks[:idx]):
                if above & (above - 1) == top_bit:
                    covers |= 1 << i
            return covers
        down = lat.down_masks
        rest = down[idx] ^ 1 << idx
        while rest:
            c = rest.bit_length() - 1
            covers |= 1 << c
            rest &= ~down[c]
        return covers
    return lat.memo(("maximal-of", idx, convention), compute)


def closed_maximal(lat: SubgroupLattice, covers: int, top: int) -> int:
    """The closed convention of a set of lower covers of node ``top``: the
    covers with their meet and ``top`` added. The meet is the intersection
    of the covers' element masks, so no down mask is read."""
    meet = lat.masks[top]
    for c in _bits(covers):
        meet &= lat.masks[c]
    return covers | 1 << lat.index_of[meet] | 1 << top


def maximal_subgroups(lat: SubgroupLattice, convention: str = RAW) -> SublatticeSelection:
    """Maximal subgroups: M(X) of the top node (:func:`node_maximal`) as a
    selection, raw or closed under the lattice bounds."""
    _check_convention(convention)
    if len(lat) == 1:
        raise ValueError("the trivial group has no maximal subgroups")
    kind = f"maximal-{convention}"
    return lat.memo(kind, lambda: SublatticeSelection(
        lat, kind, _bits(node_maximal(lat, lat.top, convention))))


def sylow_subgroups(lat: SubgroupLattice) -> SublatticeSelection:
    """Nodes of full prime-power order p^v_p(|G|); empty for the trivial group."""
    g = lat.group
    sizes = {p ** e for p, e in prime_signature(g.order).factors}
    members = [i for i in range(len(lat)) if lat.node_order(i) in sizes]
    return SublatticeSelection(lat, "sylow", members)


def perp(lat: SubgroupLattice, s: SublatticeSelection) -> SublatticeSelection:
    """Nodes permuting with every member of ``s``; always holds bottom and top.

    When ``s`` is a union of conjugacy classes, s^g = s and the row of X^g
    is the row of X conjugated by g, so X is in perp(s) iff its class
    representative is: only representative rows are read. Any other ``s``
    reads every row.
    """
    if s.lattice is not lat:
        raise ValueError("selection belongs to a different lattice")
    rows = lat.chi_rows()
    sm = s.members_mask
    if lat.class_reps(sm) is None:
        members = [i for i in range(len(lat)) if rows[i] & sm == sm]
    else:
        ok = {r for r in lat.class_masks if rows[r] & sm == sm}
        members = [i for i, r in enumerate(lat.class_of) if r in ok]
    return SublatticeSelection(lat, f"perp({s.kind})", members)


def custom_selection(lat: SubgroupLattice, members: Iterable[int]) -> SublatticeSelection:
    members = list(members)
    if not members:
        raise ValueError("custom selection must be nonempty")
    for i in members:
        if not 0 <= i < len(lat):
            raise ValueError(f"node index {i} is outside 0..{len(lat) - 1}")
    return SublatticeSelection(lat, "custom", members)


def cover_table(lat: SubgroupLattice) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(upper, lower): bit j of ``upper[i]`` set iff node j covers node i,
    and bit j of ``lower[i]`` set iff node i covers node j."""
    up = lat.up_masks
    up_cov = []
    for i, above in enumerate(up):
        rest = above ^ (1 << i)
        cov = 0
        while rest:
            # the lowest remaining node is minimal above i: a cover
            low = rest & -rest
            cov |= low
            rest &= ~up[low.bit_length() - 1]
        up_cov.append(cov)
    down_cov = [0] * len(lat)
    for i, cov in enumerate(up_cov):
        for j in _bits(cov):
            down_cov[j] |= 1 << i
    return tuple(up_cov), tuple(down_cov)


def is_modular_lattice(lat: SubgroupLattice) -> bool:
    """Modular law: X <= Z implies X v (Y ^ Z) = (X v Y) ^ Z.

    A lattice of finite length is modular iff it is upper and lower
    semimodular (Birkhoff, *Lattice Theory*), which needs cover pairs only:
    two distinct upper covers of a node must both be covered by their join,
    and two distinct lower covers of a node must both cover their meet.
    """
    up_cov, down_cov = cover_table(lat)
    for x in range(len(lat)):
        ups = list(_bits(up_cov[x]))
        for k, a in enumerate(ups):
            for b in ups[k + 1:]:
                j = lat.join(a, b)
                if not (up_cov[a] >> j & 1 and up_cov[b] >> j & 1):
                    return False
        downs = list(_bits(down_cov[x]))
        for k, a in enumerate(downs):
            for b in downs[k + 1:]:
                m = lat.meet(a, b)
                if not (up_cov[m] >> a & 1 and up_cov[m] >> b & 1):
                    return False
    return True


def is_quasihamiltonian(lat: SubgroupLattice) -> bool:
    """Every pair of subgroups permutes: the row of every class
    representative is full, and then so is every row."""
    rows, full = lat.chi_rows(), lat.all_nodes_mask
    return all(rows[r] == full for r in lat.class_masks)


def selection_meet_join_closed(lat: SubgroupLattice, s: SublatticeSelection) -> bool:
    """Diagnostic: is the selection closed under pairwise meet and join?"""
    for a in s.members:
        for b in s.members:
            if b < a:
                continue
            if lat.meet(a, b) not in s or lat.join(a, b) not in s:
                return False
    return True


def sylow_subset_of_maximal(lat: SubgroupLattice, convention: str = RAW) -> bool:
    """Diagnostic: whether every Sylow node is maximal (fails e.g. for S4)."""
    if len(lat) == 1:
        return True
    syl = sylow_subgroups(lat).members_mask
    mx = maximal_subgroups(lat, convention).members_mask
    return syl & ~mx == 0
