"""Exact permutability degrees over subgroup lattices.

All degrees are exact rationals (``fractions.Fraction``), never floats:
the quantities of interest are exact equalities like 5/6 and exact
inequalities, so nothing here may round. Pairs are ordered pairs
throughout; the permutability indicator is symmetric, which makes this
equivalent to unordered counting, but the code commits to ordered.

A pair count over unions of conjugacy classes, of G or inside a node X, is
one class-wise count (:func:`inside_count`). The lattice of X is the
interval [1, X], so G's counts are the counts at the top node, and the bound
checkers read the same function at every other node. Every degree also has
a naive oracle (``*_naive``) that tests each pair by its two product sets
(:func:`permutes`), sharing nothing with the product rule of the rows but
the node list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .groups import FiniteGroup, _bits, direct_product
from .lattice import (
    CLOSED,
    RAW,
    SublatticeSelection,
    SubgroupLattice,
    all_subgroups,
    check_lattice,
    enumerate_subgroups,
    is_modular_lattice,
    is_quasihamiltonian,
    maximal_subgroups,
    node_maximal,
    node_subnormal,
    perp,
    subnormal_subgroups,
)


def permutes(g: FiniteGroup, xm: int, ym: int) -> bool:
    """Whether the subgroups with element masks ``xm`` and ``ym`` permute:
    the product sets XY and YX coincide."""
    return g.product_mask(xm, ym) == g.product_mask(ym, xm)


def inside_count(lat: SubgroupLattice, idx: int, s_of, t_of) -> int:
    """Permuting ordered pairs in s(X) x t(X) for node X, from the rows of
    class representatives only. s and t map a node to a node mask, with
    s(X^g) = s(X)^g and t(X^g) = t(X)^g for every g in G; at the top node
    this asks that s(G) and t(G) be unions of classes.

    Conjugation by g is a lattice automorphism that keeps permutability, so
    every X' in cls X has count_X' = count_X, and |cls X| count_X is the sum
    of |row(A) & t(X')| over the pairs (A, X') with X' in cls X and A in
    s(X'). For A = R^h in the class C of R, X' -> X'^(h⁻¹) maps the X' with
    A in s(X') onto those with R in s(X') and keeps the summand, since
    row(A)^(h⁻¹) = row(R). So each of the |C| members of C adds what R does:
    |cls X| count_X = sum over X' in cls X of sum over representatives R in
    s(X') of |cls R| |row(R) & t(X')|."""
    rows, classes = lat.chi_rows(), lat.class_masks
    reps = lat.memo("reps", lambda: sum(1 << r for r in classes))
    members = classes[lat.class_of[idx]]
    total = 0
    for x in _bits(members):
        t = t_of(x)
        total += sum(classes[r].bit_count() * (rows[r] & t).bit_count()
                     for r in _bits(s_of(x) & reps))
    return total // members.bit_count()


def node_all_pairs(lat: SubgroupLattice, idx: int) -> int:
    """Permuting ordered pairs of L(X) = [1, X] for node X, counted once
    per class of X; at the top node, the all-pairs count of G."""
    def compute():
        below = lat.down_masks.__getitem__
        return inside_count(lat, idx, below, below)
    return lat.memo(("pairs-all-of", lat.class_of[idx]), compute)


def node_restricted_pairs(lat: SubgroupLattice, idx: int,
                          convention: str = RAW) -> int:
    """Permuting pairs in sn(X) x M(X) for a nontrivial node X, counted
    once per class of X and convention; at the top node, G's count."""
    return lat.memo(("pairs-of", lat.class_of[idx], convention),
                    lambda: inside_count(
                        lat, idx, lambda x: node_subnormal(lat, x),
                        lambda x: node_maximal(lat, x, convention)))


def mask_pair_count(lat: SubgroupLattice, s: int, t: int) -> int:
    """Number of ordered pairs (X, Y) in s x t with XY = YX, for node masks
    that are unions of conjugacy classes: the class-wise count inside the
    top node (:func:`inside_count`). Any other node set raises
    ``ValueError``; :func:`degree_naive` counts arbitrary selections.
    """
    if not (lat.is_class_union(s) and lat.is_class_union(t)):
        raise ValueError("node sets must be unions of conjugacy classes")
    return inside_count(lat, lat.top, lambda x: s, lambda x: t)


def permuting_pair_count(lat: SubgroupLattice, s: SublatticeSelection,
                         t: SublatticeSelection) -> int:
    """Number of ordered pairs (X, Y) in s x t with XY = YX, for
    selections of ``lat`` that are unions of conjugacy classes
    (:func:`mask_pair_count`)."""
    check_lattice(lat, s, t)
    return mask_pair_count(lat, s.members_mask, t.members_mask)


def all_pair_count(lat: SubgroupLattice) -> int:
    """Permuting ordered pairs over all of L(G): the top node's count."""
    return node_all_pairs(lat, lat.top)


def restricted_pair_count(lat: SubgroupLattice, convention: str = RAW) -> int:
    """Permuting pairs in sn(G) x M(G): the top node's count."""
    return node_restricted_pairs(lat, lat.top, convention)


def generalized_degree(lat: SubgroupLattice, s: SublatticeSelection,
                       t: SublatticeSelection) -> Fraction:
    """Fraction of permuting ordered pairs over two nonempty selections
    of ``lat`` that are unions of conjugacy classes, exact
    (:func:`permuting_pair_count`)."""
    if not s.members or not t.members:
        raise ValueError("selections must be nonempty")
    return Fraction(permuting_pair_count(lat, s, t), len(s) * len(t))


def sd(lat: SubgroupLattice) -> Fraction:
    """Subgroup commutativity degree: permuting fraction over all pairs,
    kept in the lattice's memo."""
    return lat.memo("sd", lambda: Fraction(all_pair_count(lat), len(lat) ** 2))


def spd(lat: SubgroupLattice, convention: str = RAW) -> Fraction:
    """Restricted degree over subnormal x maximal pairs, kept in the
    lattice's memo per convention.

    Undefined for the trivial group (no maximal subgroups to pair against).
    """
    if len(lat) == 1:
        raise ValueError("spd is undefined for the trivial group")

    def compute():
        pairs = len(subnormal_subgroups(lat)) * len(maximal_subgroups(lat, convention))
        return Fraction(restricted_pair_count(lat, convention), pairs)
    return lat.memo(("spd", convention), compute)


def element_commutativity_degree(g: FiniteGroup) -> Fraction:
    """Fraction of ordered element pairs that commute.

    Computed as k(G)/|G|, k(G) the number of conjugacy classes of elements:
    the commuting pairs number the sum of |C(x)| over x, and each class
    contributes |G| to that sum (Gustafson, *What is the probability that two
    group elements commute?*, 1973). The direct commuting-pair count
    :func:`d_naive` is its oracle, compared in the tests and in
    ``verify-paper``.
    """
    return Fraction(g.class_number, g.order)


# -- naive oracles ----------------------------------------------------------

def degree_naive(lat: SubgroupLattice, s: SublatticeSelection,
                 t: SublatticeSelection) -> Fraction:
    """Double loop over node masks, each pair tested by its product sets
    (:func:`permutes`); independent of the product rule and the order masks."""
    check_lattice(lat, s, t)
    g, masks = lat.group, lat.masks
    count = sum(permutes(g, masks[i], masks[j])
                for i in s.members for j in t.members)
    return Fraction(count, len(s) * len(t))


def sd_naive(lat: SubgroupLattice) -> Fraction:
    a = all_subgroups(lat)
    return degree_naive(lat, a, a)


def spd_naive(lat: SubgroupLattice, convention: str = RAW) -> Fraction:
    return degree_naive(lat, subnormal_subgroups(lat),
                        maximal_subgroups(lat, convention))


def d_naive(g: FiniteGroup) -> Fraction:
    t = g.table
    n = g.order
    count = sum(1 for x in range(n) for y in range(n) if t[x][y] == t[y][x])
    return Fraction(count, n * n)


# -- reports and cross-checks ------------------------------------------------

@dataclass(frozen=True)
class DegreeReport:
    group_name: str
    order: int
    lattice_size: int
    subnormal_count: int
    maximal_raw_count: Optional[int]
    maximal_closed_count: Optional[int]
    sd: Fraction
    spd: Optional[Fraction]
    d: Fraction
    permuting_pair_count: int
    quasihamiltonian: bool
    nilpotent: bool
    solvable: bool
    modular: bool
    convention: str


def build_degree_report(lat: SubgroupLattice, convention: str = RAW) -> DegreeReport:
    g = lat.group
    trivial = len(lat) == 1
    return DegreeReport(
        group_name=g.name,
        order=g.order,
        lattice_size=len(lat),
        subnormal_count=len(subnormal_subgroups(lat)),
        maximal_raw_count=None if trivial else len(maximal_subgroups(lat, "raw")),
        maximal_closed_count=None if trivial else len(maximal_subgroups(lat, "closed")),
        sd=sd(lat),
        spd=None if trivial else spd(lat, convention),
        d=element_commutativity_degree(g),
        permuting_pair_count=all_pair_count(lat),
        quasihamiltonian=is_quasihamiltonian(lat),
        nilpotent=g.is_nilpotent,
        solvable=g.is_solvable,
        modular=is_modular_lattice(lat),
        convention=convention,
    )


@dataclass(frozen=True)
class DegreeComparison:
    product_degree: Fraction
    degree_product: Fraction
    equal: bool


@dataclass(frozen=True)
class LawComparison:
    product_degree: Fraction
    law_degree: Fraction
    equal: bool


@dataclass(frozen=True)
class MultiplicativityCheck:
    coprime: bool
    sd: DegreeComparison
    spd: Optional[DegreeComparison]
    spd_law: Optional[dict[str, LawComparison]]


def check_multiplicativity(parts: list[FiniteGroup],
                           convention: str = RAW) -> MultiplicativityCheck:
    """Compare degrees of a direct product against the factor-degree products.

    Equality is only meaningful when the factor orders are pairwise coprime.
    Trivial factors contribute a factor 1 on the spd side (spd itself is
    undefined for them); if the whole product is trivial the spd comparison
    is omitted.

    The factor product is the right law for sd but not for spd: for coprime
    factors sn(A x B) = sn(A) x sn(B), while M(A x B) = M(A) x B u A x M(B)
    is a union of blocks, not a product. ``spd_law`` therefore compares the
    product's spd under each convention against the law that holds for
    pairwise coprime nontrivial factors A_i, with m_i = |M(A_i)| raw:

    * raw: spd(prod A_i) = sum m_i spd(A_i) / sum m_i;
    * closed: spd_c(prod A_i) = (sum m_i spd(A_i) + 2) / (sum m_i + 2),
      with spd(A_i) raw. The closed set adds Phi(G) and G, both normal and
      so permuting with everything; when G has only one maximal subgroup it
      is a cyclic p-group, where both sides are 1.
    """
    if not parts:
        raise ValueError("need at least one factor")
    product = parts[0]
    for part in parts[1:]:
        product = direct_product(product, part)
    orders = [p.order for p in parts]
    coprime = all(math.gcd(orders[i], orders[j]) == 1
                  for i in range(len(orders)) for j in range(i + 1, len(orders)))
    lat_prod = enumerate_subgroups(product)
    lats = [enumerate_subgroups(p) for p in parts]

    sd_prod = sd(lat_prod)
    sd_factors = Fraction(1)
    for lat in lats:
        sd_factors *= sd(lat)
    sd_cmp = DegreeComparison(sd_prod, sd_factors, sd_prod == sd_factors)

    spd_cmp = None
    spd_law = None
    if product.order > 1:
        nontrivial = [lat for lat in lats if len(lat) > 1]
        spd_prod = spd(lat_prod, convention)
        spd_factors = Fraction(1)
        for lat in nontrivial:
            spd_factors *= spd(lat, convention)
        spd_cmp = DegreeComparison(spd_prod, spd_factors, spd_prod == spd_factors)

        weights = [len(maximal_subgroups(lat, RAW)) for lat in nontrivial]
        weighted = sum(m * spd(lat, RAW) for m, lat in zip(weights, nontrivial))
        total = sum(weights)
        spd_law = {}
        for conv, law in ((RAW, weighted / total),
                          (CLOSED, (weighted + 2) / (total + 2))):
            actual = spd(lat_prod, conv)
            spd_law[conv] = LawComparison(actual, law, actual == law)
    return MultiplicativityCheck(coprime, sd_cmp, spd_cmp, spd_law)


@dataclass(frozen=True)
class ExtremalSpdCheck:
    spd_is_one: bool
    sn_in_max_perp: bool
    max_in_sn_perp: bool

    @property
    def biconditional_holds(self) -> bool:
        return self.spd_is_one == (self.sn_in_max_perp or self.max_in_sn_perp)


def check_extremal_spd(lat: SubgroupLattice, convention: str = RAW) -> ExtremalSpdCheck:
    """spd = 1 versus the two sublattice inclusions, each computed independently."""
    sn = subnormal_subgroups(lat)
    mx = maximal_subgroups(lat, convention)
    sn_in = sn.members_mask & ~perp(lat, mx).members_mask == 0
    mx_in = mx.members_mask & ~perp(lat, sn).members_mask == 0
    return ExtremalSpdCheck(spd(lat, convention) == 1, sn_in, mx_in)


@dataclass(frozen=True)
class RestrictedDegreeCheck:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    equality: bool
    sn_eq_max_eq_all: bool


def check_restricted_degree_inequality(lat: SubgroupLattice,
                                       convention: str = RAW) -> RestrictedDegreeCheck:
    """(|sn||M| / |L|^2) * spd <= sd, with equality exactly when sn = M = L."""
    sn = subnormal_subgroups(lat)
    mx = maximal_subgroups(lat, convention)
    lhs = Fraction(restricted_pair_count(lat, convention), len(lat) ** 2)
    rhs = sd(lat)
    full = lat.all_nodes_mask
    same = sn.members_mask == full and mx.members_mask == full
    return RestrictedDegreeCheck(lhs, rhs, lhs <= rhs, lhs == rhs, same)
