"""Subgroup lattices and their distinguished node selections.

A lattice is built from its node masks alone (:class:`SubgroupLattice`), and
every lattice comes through that one constructor: enumeration, cache hits
and re-rooted children. The masks are enumerated once per group by joining
conjugacy-class representatives A with the cyclic subgroups of prime-power
order, after Neubüser's cyclic-extension method. A join is skipped when
its result is known or is reached by another join. Outside the solvable
residual R = G^(∞) only the normal extensions AC of prime index over A are
joined, since every subgroup that is not perfect has a normal subgroup of
prime index; every subgroup of prime index over A already found absorbs
the seeds it holds outside A, and seeds conjugate under N(A) to a joined
seed give conjugate joins. The seeds left for A are one element mask of
their lowest generators c, cut to N(A) (to N(A) u R when A lies in R)
before A's first seed and then by these rules; the index of C = <c> over
C n A is prime iff c^p lies in A, p the prime of |C|, one table read per
seed. N(A) comes with A's class. A normal representative's normalizer is
the whole group, found without a closure, and a seed inside N(A) is joined
as the product of A with its one generator. Any other N(A) is found by the
walk that finds A's class A_i = g_i A g_i⁻¹: G acts on the class, N(A) is
the stabilizer of A, and by Schreier's lemma A and the elements
g_j⁻¹ s g_i of the walk's edges s A_i s⁻¹ = A_j generate it. Each of them
normalizes A, so N(A) is one closure from A over those outside A, and none
when all lie in A. :func:`enumerate_subgroups` proves each of these rules.
The masks are then frozen: nodes are sorted by (cardinality,
membership-vector lex order), so two runs of the same table index the nodes
identically. The lattice of a subgroup H is the interval [1, H] of the
parent's lattice, so :meth:`SubgroupLattice.rerooted` reads it off the
parent instead of enumerating it again. Every node set (normal,
subnormal, maximal, Sylow, perp, ...) is a node mask over that fixed node
list, bit i for node i; a :class:`SublatticeSelection` is such a mask with
a name, and no node set copies subgroups.

Conjugation works on node indices, not element masks. Each lattice keeps
two tables: the node of every cyclic subgroup <x>, and greedy generators of
every node, read off the containment columns (the nodes holding each
element) in the same pass that builds the order masks. Conjugation by y is an
automorphism, so y<S>y⁻¹ = <ySy⁻¹> for any set S: the conjugate of a node
X = <x1> v ... v <xm> is the join of the cyclic nodes of the yxiy⁻¹, a few
ANDs of order masks (:meth:`SubgroupLattice.conjugates`). Normality,
subnormality and the Moebius function mu(X, G) are class invariants and are
decided once per conjugacy class (:attr:`SubgroupLattice.class_of`), each
from the classes above it (:func:`subnormal_subgroups`,
:func:`moebius_table`); the cover conditions of modularity are checked
once per class too (:func:`is_modular_lattice`). The classes and their
conjugators are orbits under the group's generators, each member
conjugated that way inside the walk itself; a node that every generator maps its own generators into
is normal, and its class is that node alone, found without a walk. The
walk also gives each representative R its normalizer N_G(R), the join of R
and the Schreier elements of its edges, and N_G(R^g) is N_G(R)^g
(:attr:`SubgroupLattice.normalizers`). Y ⊴ Z iff Y <= Z <= N_G(Y), so
subnormality, in G and in any node, is the transitive closure of the
normalizer intervals [Y, N_G(Y)] (Wielandt; Schmidt, *Subgroup Lattices of
Groups*, 1994). No read of a built lattice conjugates an element mask or
computes a closure; the mask-level class orbit is used only by
:func:`enumerate_subgroups`, before there is a lattice. The normal,
subnormal and maximal selections, the Moebius table and the permutability
rows are built once per lattice, in the lattice's memo
(:meth:`SubgroupLattice.memo`), which also holds the other per-lattice
values the degrees and bounds read.

The lattice of a node X is the interval [1, X], so each selection is defined
once, for any node, and G's is the value at the top node: M(X) is the lower
covers of X (:func:`node_maximal`, read off the down masks on each call and
kept nowhere, and at the top the mask of :func:`maximal_subgroups`) and
sn(X) is sn(G) below X with X's row of one table per lattice, the nodes
outside sn(G) that are subnormal in X (:func:`node_subnormal`). The
selections that are unions of conjugacy classes are built from
``class_masks``, one mask per class.

Joins, permutability and modularity are read off the node orders and the
order masks ``up_masks``/``down_masks``, and a meet is the intersection of
two element masks, looked up in ``index_of``; deciding them computes no
product set and no closure. The order masks themselves come from containment
columns and greedy generators: the nodes above node i are those that hold
each of its generators, an AND of a few columns however large the node.
Each column is read off the membership strings that the node sort already
formats, one character per node, so no loop runs over the nodes' bits.
``down_masks``, their transpose, is built only when first read; the normal,
subnormal, maximal and Sylow selections of G and Moebius read no
``down_masks``.

Permutability and factorization share one product rule, keyed by orders
(:func:`products`): given nodes J >= X, grouped by order m, the Y whose
product XY is one of them are, for each order t of a node below X, the Y of
order m t / |X| under some J of order m that meet X in at most t elements,
since |XY| = |X||Y| / |X n Y|. The nodes that meet X above each order are
one table per X (:func:`_meets_over`), so the Y of one (t, m) are one AND
and no pair is tested on its own. X and Y permute iff XY is a subgroup,
that is a node above X, so a row is the rule over all the nodes above X,
and no join X v Y is computed; the bound checkers' partners H with NH = G
are the rule with G alone (:func:`permlat.bounds.factor_partners`).
Permutability is kept as one bitrow per class representative
(:meth:`SubgroupLattice.chi_rows`). Every node set that the degrees, perp
and the bound checkers count over is a union of conjugacy classes, and the
row of X^g is the row of X conjugated by g, so no other row is ever needed;
a node set that is not a union of classes is refused
(:meth:`SubgroupLattice.is_class_union`), and so is a selection of another
lattice (:func:`check_lattice`).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .groups import FiniteGroup, _bits, prime_signature, subgroup_group

DEFAULT_LATTICE_CAP = 5000

RAW = "raw"
CLOSED = "closed"
CONVENTIONS = (RAW, CLOSED)
_UNSET = object()  # a memo key not yet computed (None is a value)


class LatticeCapError(ValueError):
    """Enumeration found more subgroups than the configured node cap."""


class SubgroupLattice:
    """All subgroups of a group, ordered by inclusion.

    ``masks[i]`` is the element mask of node i; ``masks[bottom]`` is the
    trivial subgroup and ``masks[top]`` the whole group. ``up_masks[i]`` /
    ``down_masks[i]`` are bitmasks over node indices with j set iff node i
    <= node j (resp. >=).

    The sort key of a mask is its order and its membership string, element
    0 first. Column e, the nodes holding element e, is character e of each
    string in node order: every |G|-th character of their join, from e.
    One pass over the nodes then builds the order masks and two tables.
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
        # each membership string is formatted once, for the sort and the columns
        keyed = sorted((m.bit_count(), f"{m:0{n}b}"[::-1], m) for m in masks)
        masks = [m for _, _, m in keyed]
        self.group = group
        self.masks: tuple[int, ...] = tuple(masks)
        self.index_of: dict[int, int] = {m: i for i, m in enumerate(masks)}
        self.bottom = 0
        self.top = len(masks) - 1
        # containing[e]: the nodes that hold element e, node 0 the lowest bit
        rows = "".join([s for _, s, _ in keyed])
        containing = [int(rows[e::n][::-1], 2) for e in range(n)]
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
        once per lattice. A value of None is kept like any other."""
        hit = self._memo.get(key, _UNSET)
        if hit is _UNSET:
            hit = self._memo[key] = compute()
        return hit

    def node_order(self, i: int) -> int:
        return self.masks[i].bit_count()

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up_masks[a] >> b & 1)

    def meet(self, a: int, b: int) -> int:
        """The meet of nodes a and b: the intersection of two subgroups is a
        subgroup, so it is the node of their element masks' AND."""
        return self.index_of[self.masks[a] & self.masks[b]]

    def join(self, a: int, b: int) -> int:
        # the common upper bounds are sorted by order and all lie above the
        # join, so the join is the lowest one
        common = self.up_masks[a] & self.up_masks[b]
        return (common & -common).bit_length() - 1

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """The transpose of ``up_masks``, built on first read: bit j of
        ``down_masks[i]`` is set iff node j <= node i."""
        return tuple(_transpose(self.up_masks))

    @cached_property
    def nodes_of_order(self) -> dict[int, int]:
        """Node mask of each node order, in ascending order. Nodes are sorted
        by order, so each mask is one run of bits, from the end of the run
        below it to one past its last node."""
        ends = {m.bit_count(): i + 1 for i, m in enumerate(self.masks)}
        starts = (0, *ends.values())
        return {s: (1 << end) - (1 << start)
                for (s, end), start in zip(ends.items(), starts)}

    def conjugates(self, i: int, ys: Sequence[int]) -> list[int]:
        """The nodes y X y⁻¹ for X = node i and each element y of ``ys``:
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
    def _classes(self) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
        # (class_of, conjugators, N(R) of each representative R): one BFS
        # per class from its lowest node R over generators s of the group.
        # The member g R g⁻¹ conjugated by s is y R y⁻¹ with y = s·g, the
        # join of the cyclic nodes of y x y⁻¹ over R's generators x (the
        # proof is in :meth:`conjugates`), found here without a call per
        # member. An edge to a member R_j = g_j R g_j⁻¹ already seen gives the
        # Schreier element g_j⁻¹·y of N(R), and these generate N(R) (the proof
        # is in :func:`enumerate_subgroups`), so N(R) is the lowest node above
        # R and each of their cyclic nodes. When every s maps R's generators
        # into R, R is normal, its class is R alone and N(R) is the top
        t, inv = self.group.table, self.group.inverse
        up, cyc, full = self.up_masks, self.cyclic_nodes, self.all_nodes_mask
        gens = self.node_gens[self.top]
        gen_rows = [(t[s], inv[s]) for s in gens]
        rep = [-1] * len(self.masks)
        conj = [-1] * len(self.masks)
        norm = [self.top] * len(self.masks)  # read at representatives only
        for r, m in enumerate(self.masks):
            if rep[r] >= 0:
                continue
            rep[r], conj[r] = r, 0
            rgens = self.node_gens[r]
            if all(m >> t[row[x]][si] & 1 for row, si in gen_rows for x in rgens):
                continue
            orbit = [r]
            stab = up[r]
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
                    else:
                        stab &= up[cyc[t[inv[conj[j]]][y]]]
            norm[r] = (stab & -stab).bit_length() - 1
        return tuple(rep), tuple(conj), norm

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
        """An element g for each node i with node i = g R g⁻¹, R the
        representative of its class: a BFS from R over generators of the
        group, where conjugating g R g⁻¹ by s composes the conjugator to s·g."""
        return self._classes[1]

    @cached_property
    def normalizers(self) -> tuple[int, ...]:
        """The node N_G(X) of each node X. A representative's is read off
        its class walk (:attr:`class_of`), and N_G(R^g) = N_G(R)^g, so any
        other member's is its representative's conjugated by the member's
        conjugator (:meth:`conjugates`)."""
        norm, conj = self._classes[2], self.conjugators
        return tuple(self.conjugates(norm[r], (conj[i],))[0]
                     for i, r in enumerate(self.class_of))

    @cached_property
    def class_masks(self) -> dict[int, int]:
        """Node mask of each conjugacy class, keyed by its representative."""
        out: dict[int, int] = {}
        for i, r in enumerate(self.class_of):
            out[r] = out.get(r, 0) | 1 << i
        return out

    def is_class_union(self, mask: int) -> bool:
        """Whether the node set ``mask`` is a union of conjugacy classes;
        false when it has a bit at or above ``len(self)``."""
        return not mask >> len(self.masks) and all(
            members & mask in (0, members) for members in self.class_masks.values())

    def chi_rows(self) -> dict[int, int]:
        """Permutability rows of the class representatives, keyed by
        representative: bit j of row r set iff nodes r and j permute
        (:func:`_representative_rows`). The product-set definition is kept
        as the oracle (:func:`permlat.degrees.permutes`).
        """
        return self.memo("chi", lambda: _representative_rows(self))

    def rerooted(self, i: int):
        """Node i as a standalone group with its own subgroup lattice.

        Returns (group, lattice). The subgroups of H, node i, are the
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


def _representative_rows(lat: SubgroupLattice) -> dict[int, int]:
    """The permutability row of each class representative r: bit j is set
    iff nodes r and j permute.

    A normal node N permutes with every node (NY = YN), so its row is full.
    For any other representative X, X and Y permute iff XY is a subgroup,
    that is iff XY is a node J, and then J >= X. So the row is the Y whose
    product with X is one of the nodes above X: one :func:`products` call,
    with the down masks of the J in ``up_masks[X]`` ORed by order. No join
    X v Y is computed."""
    normal = normal_subgroups(lat).members_mask
    full, masks = lat.all_nodes_mask, lat.masks
    up, down = lat.up_masks, lat.down_masks
    rows: dict[int, int] = {}
    for r in lat.class_masks:
        if normal >> r & 1:
            rows[r] = full
            continue
        joins: dict[int, int] = {}
        for j in _bits(up[r]):
            m = masks[j].bit_count()
            joins[m] = joins.get(m, 0) | down[j]
        rows[r] = products(lat, r, joins)
    return rows


def _meets_over(lat: SubgroupLattice, x: int) -> dict[int, int]:
    """For each order t of a node below X = node x, the node mask of the Y
    with |X n Y| > t.

    X n Y is a node M <= X, and M <= Y iff Y is in ``up_masks[M]``, so that
    mask is the union of ``up_masks[M]`` over the M <= X with |M| > t.
    Nodes are sorted by order, so one descending pass over
    ``down_masks[x]`` meets each order first with the union over the orders
    above it."""
    up, masks = lat.up_masks, lat.masks
    over: dict[int, int] = {}
    acc, below = 0, lat.down_masks[x]
    while below:
        m = below.bit_length() - 1
        below ^= 1 << m
        over.setdefault(masks[m].bit_count(), acc)
        acc |= up[m]
    return over


def products(lat: SubgroupLattice, x: int, joins: dict[int, int]) -> int:
    """The nodes Y whose product XY, X = node x, is one of a given set of
    nodes J >= X. ``joins`` maps an order m to the OR of ``down_masks[J]``
    over the given J of order m.

    Let ``over`` be X's :func:`_meets_over` table. The result is the
    union, over each key t of ``over`` and each m of ``joins``, of the Y of
    order s = m t / |X| in ``joins[m]`` and outside ``over[t]``, whenever s
    is an integer and a node order. For any two subgroups
    |XY| = |X||Y| / |X n Y|:

    - such a Y lies under some given J >= X of order m, so XY lies in J;
      and |X n Y| <= t, so |XY| >= |X| s / t = m = |J|. Hence XY = J.
    - conversely, if XY is a given J of order m, then t = |X n Y| is the
      order of the node X n Y <= X, a key of ``over``; Y <= J, Y has order
      s = m t / |X|, and Y is outside ``over[t]``.

    So a Y need only lie under some given J of the right order, and the Y
    of each (t, m) are one AND of node masks, with no step per pair."""
    over = _meets_over(lat, x)
    nx, of_order = lat.node_order(x), lat.nodes_of_order
    out = 0
    for m, ys in joins.items():
        for t, meets in over.items():
            s, r = divmod(m * t, nx)
            if not r and s in of_order:
                out |= of_order[s] & ys & ~meets
    return out


def _transpose(rows: Sequence[int]) -> list[int]:
    """The transpose of a square bit matrix, one row per node: bit i of
    row j of the result is set iff bit j of ``rows[i]`` is."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in _bits(row):
            out[j] |= bit
    return out


def _by_descending_order(cyclic_of: Sequence[int]) -> list[int]:
    """Element masks of the x with one order of <x>, by descending order;
    ``cyclic_of[x]`` is the mask of <x>."""
    of: dict[int, int] = {}
    for x, m in enumerate(cyclic_of):
        k = m.bit_count()
        of[k] = of.get(k, 0) | 1 << x
    return [of[k] for k in sorted(of, reverse=True)]


def _conjugacy_class(group: FiniteGroup, cyclic_of: Sequence[int],
                     by_order: Sequence[int], mask: int, gens: tuple[int, ...]
                     ) -> tuple[list[int], int, tuple[int, ...]]:
    """The conjugacy class of the subgroup A = <gens> = ``mask``, as masks,
    with N(A) as a mask and generators of N(A): ``gens``, then the Schreier
    elements outside A. ``cyclic_of[x]`` is the mask of <x>, and
    ``by_order`` is :func:`_by_descending_order` of it.

    The class is A's orbit under conjugation by the group's generators s.
    When the conjugacy class x^G of every x of ``gens``
    (:attr:`FiniteGroup.element_classes`) lies in A, A is normal: its class
    is itself and N(A) = G, with G's generators, found without a closure.
    Otherwise A is conjugated through a cyclic cover: A's elements x by
    descending order of <x>, the lowest first within one order, keeping
    each x not yet covered, so A is the union of <x> over the cover (any
    walk order gives a cover; this one keeps it small). Since
    y<x>y⁻¹ = <yxy⁻¹> (:meth:`SubgroupLattice.conjugates`), yAy⁻¹ is the
    union of ``cyclic_of[y x y⁻¹]`` over the cover. The walk keeps a
    conjugator g_i with A_i = g_i A g_i⁻¹ for each member, g = 1 for A
    itself, and conjugates A_i by s as A by y = s·g_i, the conjugator of a
    member first found that way. An edge that finds a member A_j already
    seen gives g_j⁻¹·y, which maps A to A_j and back to A, so it lies in
    N(A); A and these Schreier elements generate N(A) (proof in
    :func:`enumerate_subgroups`). Each of them normalizes A, so N(A) = A<S>
    for S the Schreier elements outside A: one closure from A over S, and
    none when S is empty, where N(A) = A."""
    t, inv, gs = group.table, group.inverse, group.generating_set
    classes, conjugates = group.element_classes, 0
    for x in gens:
        conjugates |= classes[x]
    if not conjugates & ~mask:
        return [mask], group.full_mask, gs
    cover, covered = [], 0
    for om in by_order:
        rest = mask & om
        while rest := rest & ~covered:
            x = (rest & -rest).bit_length() - 1
            cover.append(x)
            covered |= cyclic_of[x]
    orbit, conj, schreier = [mask], {mask: 0}, 0
    for m in orbit:  # orbit grows while we iterate
        gi = conj[m]
        for s in gs:
            y = t[s][gi]
            row, yi = t[y], inv[y]
            c = 0
            for x in cover:
                c |= cyclic_of[t[row[x]][yi]]
            gj = conj.get(c)
            if gj is None:
                conj[c] = y
                orbit.append(c)
            else:
                schreier |= 1 << t[inv[gj]][y]
    used = tuple(_bits(schreier & ~mask))
    nm = group.closure_mask(used, mask) if used else mask
    return orbit, nm, gens + used


def enumerate_subgroups(group: FiniteGroup) -> SubgroupLattice:
    """Enumerate the full subgroup lattice by class-driven saturation.

    This follows the cyclic-extension method of Neubüser (1960), on which
    GAP's lattice code is built. Every cyclic subgroup, read off
    :attr:`FiniteGroup.cyclic_masks`, starts in the frontier, which holds
    one representative per conjugacy class. Each representative A is
    joined with seeds, the cyclic subgroups of prime-power order. A join
    that yields a new subgroup brings in its whole conjugacy class at once,
    by conjugation and without further closures, and its representative
    joins the next frontier.

    Normal prime-index extensions. Let R = G^(∞), the last term of the
    derived series (:attr:`FiniteGroup.solvable_residual`, walked once per
    group). A is joined with a seed C only if C <= N(A) and
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

    Seed mask. Each seed C is named by its lowest generator c, and the
    seeds left for A are one element mask, walked by ascending c, so they
    are met in the order of their lowest generators. The rules above read
    C through c alone:

    - C lies in a union of subgroups iff c does: if c lies in one of them,
      K, then so does <c> <= K, and c lies in <c>. The cover and A are
      such unions, so one AND drops the seeds inside them, and ``tried``,
      a mask of lowest generators, drops the tried orbits. An N(A)-orbit is
      walked on generators: nCn⁻¹ = <ncn⁻¹>, named by its lowest generator.
    - For c outside A, |C : C n A| is prime iff c^p lies in A, p the prime
      of |C| = p^k. The subgroups of the cyclic p-group C are the chain
      <c^(p^j)>, j = 0..k, of index p^j in C. C n A is one of them, with
      j >= 1 since c is outside A, so the index is prime iff j = 1, that is
      iff <c^p> <= A, iff c^p lies in A: one table read per seed.
    - C <= N(A) iff c lies in N(A), and A u C lies in R iff A does and c
      does, since N(A) and R are subgroups. N(A) comes with A's class, so
      the mask starts cut to N(A), or to N(A) u R when A lies in R, and no
      seed outside it is met: neither rule lets one through.

    The cost of each join is cut by more exact rules:

    - Normalizer from the class orbit. N(A) is found once per class, by
      the walk that finds the class, so it is known before A's first seed.
      A representative whose class has one member is normal, so N(A) = G,
      with G's generators, found without a closure. Otherwise G acts on
      A's class by conjugation, and N(A) is the stabilizer of A. The walk
      that finds the class keeps a conjugator g_i with A_i = g_i A g_i⁻¹
      for each member (g = 1 for A), and each edge s A_i s⁻¹ = A_j over a
      generator s of G gives the Schreier element g_j⁻¹ s g_i, which fixes
      A (:func:`_conjugacy_class`).
      These generate N(A) (Schreier's lemma; Seress, *Permutation Group
      Algorithms*, 2003, §4.1): write n in N(A) as a word s_k ... s_1 in
      the generators (G is finite, so no inverses are needed) and follow A
      along it through members A = A_(i_0), A_(i_1), ..., A_(i_k) = nAn⁻¹ =
      A. Then n is the product of g_(i_l)⁻¹ s_l g_(i_(l-1)) over l = k
      down to 1, since the inner conjugators cancel and g_(i_0) = g_(i_k) =
      1, and each factor is a Schreier element (one on an edge that found
      a new member is 1). So A and the set S of Schreier elements outside A
      generate N(A). Each of them normalizes A, so the closure from A with S
      alone is A<S> = <A, S> = N(A): one closure per class, and none when S
      is empty, where N(A) = A. A's generators and S generate N(A), and the
      N(A)-orbits read those.
    - One-generator joins. A join is closed from A by whole cosets, as in
      Dimino's algorithm (:meth:`FiniteGroup.closure_mask` with ``base`` A).
      When the seed C = <c> lies in N(A), <A, C> = AC is the union of the
      cosets A c^k, so it is closed from A with c as the only generator.
      The table rows of A's elements, which every coset reads, are built
      once per representative, at its first join, and passed to each
      closure.
    - Normality by generators. J = <jgens> is normal iff the conjugacy
      class x^G of every x of jgens lies in J: then gJg⁻¹ = <g jgens g⁻¹>
      lies in J and has its order for every g in G, and conversely a normal
      J holds every conjugate of its elements. The classes x^G are one
      element mask each, walked once per group
      (:attr:`FiniteGroup.element_classes`), so the test is an OR of one
      mask per generator of J. Such a J's class is [J], found without
      conjugating J.
      Any other J is conjugated through a cyclic cover, elements x of J
      with J the union of the <x>: since y<x>y⁻¹ = <yxy⁻¹>, yJy⁻¹ is the
      union of the cyclic subgroups of the yxy⁻¹, one conjugation and one
      lookup each (:func:`_conjugacy_class`), and no element of J is moved
      on its own. The cover is read off per-group element masks, one per
      order of <x> (:func:`_by_descending_order`), so J's elements are not
      sorted.

    :class:`LatticeCapError` is raised as soon as more than
    ``DEFAULT_LATTICE_CAP`` subgroups are known, that is exactly when |L(G)|
    exceeds the cap. The cap is read on each call.
    """
    g = group
    t, inv = g.table, g.inverse
    # generators of what gets joined: the cyclic subgroups and the representatives
    gens_of: dict[int, tuple[int, ...]] = {1: ()}
    cyclic_of = g.cyclic_masks
    lowest = [0] * g.order  # the lowest generator of each <x>, which names it
    cyclics: list[int] = [1]
    for x in range(1, g.order):
        m = cyclic_of[x]
        if m not in gens_of:
            gens_of[m] = (x,)
            cyclics.append(m)
        lowest[x] = gens_of[m][0]
    if len(cyclics) > DEFAULT_LATTICE_CAP:
        raise LatticeCapError(f"{g.name}: more than {DEFAULT_LATTICE_CAP} subgroups")
    by_order = _by_descending_order(cyclic_of)
    # one bit per seed, at its lowest generator c, and c^p for p the prime of |<c>|
    seed_gens = 0
    power = [0] * g.order
    for m in cyclics[1:]:
        factors = prime_signature(m.bit_count()).factors
        if len(factors) == 1:
            c = y = gens_of[m][0]
            seed_gens |= 1 << c
            for _ in range(factors[0][0] - 1):
                y = t[y][c]
            power[c] = y
    primes = set(prime_signature(g.order).primes)
    rm = g.solvable_residual
    # (A, N(A), generators of N(A)) of each representative
    frontier: list[tuple[int, int, tuple[int, ...]]] = []
    seen: set[int] = set()  # every subgroup found so far
    of_order: dict[int, list[int]] = {}  # the subgroups in seen, by order

    def add_class(am: int, reps: list) -> list[int]:
        members, nm, ngens = _conjugacy_class(g, cyclic_of, by_order, am, gens_of[am])
        seen.update(members)
        of_order.setdefault(am.bit_count(), []).extend(members)
        reps.append((am, nm, ngens))
        return members

    for m in cyclics:
        if m not in seen:
            add_class(m, frontier)
    while frontier:
        fresh: list[tuple[int, int, tuple[int, ...]]] = []
        for am, nm, ngens in frontier:
            agens = gens_of[am]
            a_order = am.bit_count()
            a_in_r = not am & ~rm
            arows = None  # A's element rows, built at its first join
            tried = 0  # generators of the seeds whose join with A is known
            # A and the seen subgroups of prime index over A, each of which is
            # the join of A with every seed it holds outside A
            cover = am
            for p in primes:
                for km in of_order.get(a_order * p, ()):
                    if km & am == am:
                        cover |= km
            # only seeds in N(A), or in R when A is, are joined
            todo = seed_gens & (nm | (rm if a_in_r else 0))
            while todo := todo & ~(cover | tried):
                bit = todo & -todo
                todo ^= bit
                c = bit.bit_length() - 1
                if am & cyclic_of[c] == am:
                    continue
                # outside R, C lies in N(A) and is joined iff |C : C n A| is prime
                if not (a_in_r and rm >> c & 1 or am >> power[c] & 1):
                    continue
                jgens = agens + (c,)
                if arows is None:
                    arows = [t[b] for b in _bits(am)]
                jm = g.closure_mask((c,) if nm >> c & 1 else jgens, am, arows)
                if jm not in seen:
                    gens_of[jm] = jgens
                    members = add_class(jm, fresh)
                    if len(seen) > DEFAULT_LATTICE_CAP:
                        raise LatticeCapError(
                            f"{g.name}: more than {DEFAULT_LATTICE_CAP} subgroups")
                    if jm.bit_count() // a_order in primes:
                        # J and its conjugates over A join the cover (a seen
                        # J of prime index over A would have held C in it)
                        for km in members:
                            if km & am == am:
                                cover |= km
                        continue
                # the seeds of C's N(A)-orbit join A to N(A)-conjugates of J
                orbit = [c]
                tried |= bit
                for x in orbit:  # orbit grows while we iterate
                    for y in ngens:
                        f = lowest[t[t[y][x]][inv[y]]]
                        if not tried >> f & 1:
                            tried |= 1 << f
                            orbit.append(f)
        frontier = fresh
    return SubgroupLattice(g, list(seen))


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
    """A node set of a lattice with a name: the node mask ``members_mask``,
    bit i for node i, and ``members``, its set bits in ascending order."""

    __slots__ = ("lattice", "kind", "members", "members_mask")

    def __init__(self, lattice: SubgroupLattice, kind: str, mask: int):
        if mask < 0:
            raise ValueError(f"node mask {mask} is negative")
        if mask >> len(lattice):
            raise ValueError(f"node index {mask.bit_length() - 1} is outside "
                             f"0..{len(lattice) - 1}")
        self.lattice = lattice
        self.kind = kind
        self.members = tuple(_bits(mask))
        self.members_mask = mask

    def __len__(self):
        return len(self.members)

    def __contains__(self, i: int):
        return bool(self.members_mask >> i & 1)

    def __repr__(self):
        return (f"SublatticeSelection({self.lattice.group.name}, {self.kind}, "
                f"{len(self.members)} nodes)")


def check_lattice(lat: SubgroupLattice, *selections: SublatticeSelection) -> None:
    """Raise ``ValueError`` unless every selection is a node set of ``lat``:
    another lattice's node bits index other subgroups."""
    if any(s.lattice is not lat for s in selections):
        raise ValueError("selection belongs to a different lattice")


def all_subgroups(lat: SubgroupLattice) -> SublatticeSelection:
    return lat.memo("all", lambda: SublatticeSelection(lat, "all", lat.all_nodes_mask))


def normal_subgroups(lat: SubgroupLattice) -> SublatticeSelection:
    """Nodes invariant under conjugation: the classes with one member."""
    # classes are disjoint, so the sum of their masks is their union
    return lat.memo("normal", lambda: SublatticeSelection(lat, "normal", sum(
        members for members in lat.class_masks.values() if members.bit_count() == 1)))


def subnormal_subgroups(lat: SubgroupLattice) -> SublatticeSelection:
    """Subnormal nodes, read off normalizer intervals.

    Y ⊴ Z iff Y <= Z <= N_G(Y), so the nodes that Y is normal in form the
    interval [Y, N_G(Y)]. Y < G is subnormal in G iff some Z in
    (Y, N_G(Y)] is: a chain Y ⊴ Y1 ⊴ ... ⊴ G with its repeated terms
    dropped has such a Z = Y1, subnormal through the rest of the chain, and
    conversely Y ⊴ Z sn G puts Y in front of Z's chain, so Y sn G.
    Subnormality is a class invariant, and each Z > Y, like every member of
    Z's class, has a larger order and so a higher node than Y, so the class
    representatives are decided in descending order, each from the classes
    above it; a normal R, N_G(R) = G, is subnormal without a search. A
    representative's normalizer comes off its class walk
    (:attr:`SubgroupLattice.normalizers`), and no down mask is read."""
    def compute():
        masks, up, norm = lat.masks, lat.up_masks, lat._classes[2]
        sn = 0
        for r in sorted(lat.class_masks, reverse=True):
            nm = masks[norm[r]]
            if norm[r] == lat.top or any(
                    masks[z] & ~nm == 0 for z in _bits(sn & up[r])):
                sn |= lat.class_masks[r]
        return SublatticeSelection(lat, "subnormal", sn)
    return lat.memo("subnormal", compute)


def _subnormal_outside(lat: SubgroupLattice) -> list[int]:
    """Row X: the nodes Y outside sn(G) that are subnormal in X.

    As in :func:`subnormal_subgroups`, over[Y] = {X : Y sn X} is Y and the
    union of over[Z] for Z in (Y, N_G(Y)] = ``up[Y] & down[N_G(Y)]`` minus
    Y. For Y outside sn(G) each such Z is outside sn(G) too, since Y ⊴ Z
    sn G would make Y subnormal in G, and it is above Y, so descending node
    order finds over[Z] first. The rows are over transposed, with over[Y]
    empty for Y in sn(G)."""
    sn = subnormal_subgroups(lat).members_mask
    up, down, norm = lat.up_masks, lat.down_masks, lat.normalizers
    over = [0] * len(lat)
    for y in sorted(_bits(lat.all_nodes_mask ^ sn), reverse=True):
        o = 1 << y
        for z in _bits((up[y] & down[norm[y]]) ^ o):
            o |= over[z]
        over[y] = o
    return _transpose(over)


def node_subnormal(lat: SubgroupLattice, idx: int) -> int:
    """sn(X) of node X as a node mask.

    For Y <= X, a chain Y = Y0 ⊴ Y1 ⊴ ... ⊴ Yk = G meets X in a chain
    Y = Y0 n X ⊴ Y1 n X ⊴ ... ⊴ Yk n X = X, since conjugation by an
    element of Y(i+1) n X fixes both Yi and X. So sn(G) n [1, X] lies in
    sn(X), and the rest of sn(X) is X's row of the nodes outside sn(G)
    (:func:`_subnormal_outside`, one table per lattice). That row is empty
    when X is in sn(G), because Y sn X sn G makes Y subnormal in G, so
    those reads build no table."""
    sn = subnormal_subgroups(lat).members_mask
    below = sn & lat.down_masks[idx]
    if sn >> idx & 1:
        return below
    return below | lat.memo("subnormal-outside", lambda: _subnormal_outside(lat))[idx]


def node_maximal(lat: SubgroupLattice, idx: int, convention: str = RAW) -> int:
    """M(X) of node X as a node mask, read off the lattice on each call and
    kept nowhere: the lower covers of X, plus their meet and X under any
    convention other than raw (:func:`closed_maximal`). The convention is
    checked where it enters, as by :func:`maximal_subgroups`.

    Strict inclusion raises the order, and nodes are sorted by order. So
    below the top, the highest node left in [1, X) is a lower cover of X:
    a node strictly between it and X would be higher, and is cleared only
    with the down mask of a cover above it, which clears it too. Clearing
    the down mask of each cover found leaves the next. At the top of a
    lattice with more than one node, M(G) is the raw maximal selection's
    mask, whose scan of the up masks runs once per lattice."""
    if idx == lat.top and len(lat) > 1:
        covers = maximal_subgroups(lat).members_mask
    else:
        down = lat.down_masks
        covers = 0
        rest = down[idx] ^ 1 << idx
        while rest:
            c = rest.bit_length() - 1
            covers |= 1 << c
            rest &= ~down[c]
    return covers if convention == RAW else closed_maximal(lat, covers, idx)


def closed_maximal(lat: SubgroupLattice, covers: int, top: int) -> int:
    """The closed convention of a set of lower covers of node ``top``: the
    covers with their meet and ``top`` added. The meet is the intersection
    of the covers' element masks (:meth:`SubgroupLattice.meet`), so no down
    mask is read."""
    meet = lat.masks[top]
    for c in _bits(covers):
        meet &= lat.masks[c]
    return covers | 1 << lat.index_of[meet] | 1 << top


def maximal_subgroups(lat: SubgroupLattice, convention: str = RAW) -> SublatticeSelection:
    """Maximal subgroups: M(X) of the top node as a selection, raw or
    closed under the lattice bounds. The raw mask is scanned here, once per
    lattice, and read by :func:`node_maximal` at the top, which adds any
    other convention to it. No down mask is read: the lowest bit of
    ``up_masks[i]`` is i itself, so node i is a cover of G exactly when the
    rest of its up mask is G alone. The memo is read first: a refused call
    keeps nothing, so the arguments are checked on every miss."""
    key = ("maximal", convention)
    hit = lat._memo.get(key)
    if hit is not None:
        return hit
    if convention not in CONVENTIONS:
        raise ValueError(f"maximal-subgroup convention must be one of {CONVENTIONS}")
    if len(lat) == 1:
        raise ValueError("the trivial group has no maximal subgroups")
    if convention != RAW:
        mask = node_maximal(lat, lat.top, convention)
    else:
        top_bit = 1 << lat.top
        mask = sum(1 << i for i, above in enumerate(lat.up_masks[:lat.top])
                   if above & (above - 1) == top_bit)
    hit = lat._memo[key] = SublatticeSelection(lat, f"maximal-{convention}", mask)
    return hit


def sylow_subgroups(lat: SubgroupLattice) -> SublatticeSelection:
    """Nodes of full prime-power order p^v_p(|G|); empty for the trivial group."""
    return lat.memo("sylow", lambda: SublatticeSelection(lat, "sylow", sum(
        lat.nodes_of_order.get(p ** e, 0)
        for p, e in prime_signature(lat.group.order).factors)))


@dataclass(frozen=True)
class MoebiusTable:
    """mu(K, G) for every node K of a lattice, indexed like the node list."""

    values: tuple[int, ...]
    bottom_value: int

    def __getitem__(self, i: int) -> int:
        return self.values[i]


def moebius_table(lat: SubgroupLattice) -> MoebiusTable:
    """mu(K, G) of every node K, by the interval recursion mu(G, G) = 1 and
    mu(K, G) = - the sum of mu(J, G) over K < J <= G, decided once per
    conjugacy class and kept in the lattice's memo.

    Conjugation by g is a lattice automorphism that fixes G, so it maps
    [K, G] onto [K^g, G] and mu(K^g, G) = mu(K, G). Every J > K has a larger
    order than K, and so has every member of J's class, the lowest of which
    is J's representative; so walking the representatives R in descending
    order decides every class above R before R. The nodes decided so far
    are kept as one mask per nonzero value v, so the sum over J > R is the
    sum of v times the popcount of R's up mask AND v's mask (R itself is not
    in them yet), and R's whole class mask gets the value."""
    def compute():
        up, class_masks = lat.up_masks, lat.class_masks
        of_value = {1: 1 << lat.top}  # the nodes decided so far, by value
        value_of = {lat.top: 1}  # by representative
        for r in sorted(class_masks, reverse=True)[1:]:
            value_of[r] = v = -sum(value * (up[r] & nodes).bit_count()
                                   for value, nodes in of_value.items())
            if v:
                of_value[v] = of_value.get(v, 0) | class_masks[r]
        values = tuple(value_of[r] for r in lat.class_of)
        return MoebiusTable(values, values[lat.bottom])
    return lat.memo("moebius", compute)


def perp(lat: SubgroupLattice, s: SublatticeSelection) -> SublatticeSelection:
    """Nodes permuting with every member of ``s``; always holds bottom and top.

    ``s`` must be a union of conjugacy classes. Then s^g = s and the row of
    X^g is the row of X conjugated by g, so X is in perp(s) iff its class
    representative is: only representative rows are read.
    """
    check_lattice(lat, s)
    sm = s.members_mask
    if not lat.is_class_union(sm):
        raise ValueError(f"{s.kind} is not a union of conjugacy classes")
    return SublatticeSelection(lat, f"perp({s.kind})", sum(
        lat.class_masks[r] for r, row in lat.chi_rows().items() if row & sm == sm))


def is_modular_lattice(lat: SubgroupLattice) -> bool:
    """Modular law: X <= Z implies X v (Y ^ Z) = (X v Y) ^ Z.

    A lattice of finite length is modular iff it is upper and lower
    semimodular (Birkhoff, *Lattice Theory*), which needs cover pairs only:
    two distinct upper covers of a node must both be covered by their join,
    and two distinct lower covers of a node must both cover their meet.
    Conjugation by g is a lattice automorphism, so both conditions hold at
    X^g iff they hold at X, and they are checked at the class
    representatives alone (:attr:`SubgroupLattice.class_masks`).

    The lower covers of X are the raw M(X) of :func:`node_maximal`, and
    the upper covers are read off ``up_masks`` the same way, from the
    bottom: the lowest node left in (X, G] is an upper cover, and clearing
    the up mask of each cover found leaves the next. B covers A iff the
    interval [A, B] is {A, B}, that is iff ``up_masks[A] & down_masks[B]``
    has two bits.
    """
    up, down = lat.up_masks, lat.down_masks
    for x in lat.class_masks:
        ups, rest = [], up[x] ^ 1 << x
        while rest:
            a = (rest & -rest).bit_length() - 1
            ups.append(a)
            rest &= ~up[a]
        for k, a in enumerate(ups):
            for b in ups[k + 1:]:
                j = down[lat.join(a, b)]
                if (up[a] & j).bit_count() != 2 or (up[b] & j).bit_count() != 2:
                    return False
        downs = list(_bits(node_maximal(lat, x)))
        for k, a in enumerate(downs):
            for b in downs[k + 1:]:
                m = up[lat.meet(a, b)]
                if (m & down[a]).bit_count() != 2 or (m & down[b]).bit_count() != 2:
                    return False
    return True


def is_quasihamiltonian(lat: SubgroupLattice) -> bool:
    """Every pair of subgroups permutes: the row of every class
    representative is full, and then so is every row."""
    full = lat.all_nodes_mask
    return all(row == full for row in lat.chi_rows().values())


def selection_meet_join_closed(lat: SubgroupLattice, s: SublatticeSelection) -> bool:
    """Diagnostic: is the selection closed under pairwise meet and join?"""
    check_lattice(lat, s)
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
