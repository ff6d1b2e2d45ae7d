"""Exact permutability degrees over subgroup lattices.

All degrees are exact rationals (``fractions.Fraction``), never floats:
the quantities of interest are exact equalities like 5/6 and exact
inequalities, so nothing here may round. Pairs are ordered pairs
throughout; the permutability indicator is symmetric, which makes this
equivalent to unordered counting, but the code commits to ordered.

Alongside the optimized bitmask path every degree has a naive oracle that
walks raw element sets with Python set arithmetic (``*_naive``); the two
paths share nothing but the node list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .groups import ElementSet, FiniteGroup, _bits, direct_product
from .lattice import (
    CLOSED,
    RAW,
    SublatticeSelection,
    SubgroupLattice,
    all_subgroups,
    enumerate_subgroups,
    is_modular_lattice,
    is_quasihamiltonian,
    maximal_subgroups,
    normal_subgroups,
    perp,
    subnormal_subgroups,
)


def permutes(g: FiniteGroup, x, y) -> bool:
    """Whether two subgroups permute: the product sets XY and YX coincide."""
    xm = x.mask if isinstance(x, ElementSet) else x
    ym = y.mask if isinstance(y, ElementSet) else y
    return g.sets_permute(xm, ym)


def permutes_subgroup_criterion(g: FiniteGroup, x, y) -> bool:
    """Cross-check route: XY = YX exactly when the product set is a subgroup.

    Also verifies the counting identity |XY| = |X||Y| / |X n Y|, which holds
    for any pair of subgroups.
    """
    xm = x.mask if isinstance(x, ElementSet) else x
    ym = y.mask if isinstance(y, ElementSet) else y
    prod = g.product_mask(xm, ym)
    expected = xm.bit_count() * ym.bit_count() // (xm & ym).bit_count()
    if prod.bit_count() != expected:
        raise AssertionError("product-set cardinality identity violated")
    return g.is_subgroup_mask(prod)


def chi(g: FiniteGroup, x, y) -> int:
    return 1 if permutes(g, x, y) else 0


def mask_pair_count(lat: SubgroupLattice, s: int, t: int) -> int:
    """Number of ordered pairs (X, Y) in s x t with XY = YX, for node masks.

    When both s and t are unions of conjugacy classes, the pairs are counted
    once per class of s (orbit counting): conjugation by g maps the row of X
    onto the row of X^g and fixes t, so every member of a class has as many
    partners in t as its representative r, and the count is the sum of
    |cls r| * |row(r) & t|. Any other pair of masks reads the row of every
    member of s.
    """
    rows = lat.chi_rows()
    reps = lat.class_reps(s)
    if reps is not None and lat.class_reps(t) is not None:
        members = lat.class_masks
        return sum(members[r].bit_count() * (rows[r] & t).bit_count()
                   for r in reps)
    return sum((rows[i] & t).bit_count() for i in _bits(s))


def permuting_pair_count(lat: SubgroupLattice, s: SublatticeSelection,
                         t: SublatticeSelection) -> int:
    """Number of ordered pairs (X, Y) in s x t with XY = YX."""
    return mask_pair_count(lat, s.members_mask, t.members_mask)


def _memo_pair_count(lat: SubgroupLattice, key: str, s: SublatticeSelection,
                     t: SublatticeSelection) -> int:
    count = lat._memo.get(key)
    if count is None:
        count = lat._memo[key] = permuting_pair_count(lat, s, t)
    return count


def all_pair_count(lat: SubgroupLattice) -> int:
    """Permuting ordered pairs over all of L(G), counted once per lattice."""
    a = all_subgroups(lat)
    return _memo_pair_count(lat, "pairs-all", a, a)


def restricted_pair_count(lat: SubgroupLattice, convention: str = RAW) -> int:
    """Permuting pairs in sn(G) x M(G), counted once per lattice and convention."""
    return _memo_pair_count(lat, f"pairs-{convention}", subnormal_subgroups(lat),
                            maximal_subgroups(lat, convention))


def generalized_degree(lat: SubgroupLattice, s: SublatticeSelection,
                       t: SublatticeSelection) -> Fraction:
    """Fraction of permuting ordered pairs over two node selections, exact."""
    if not s.members or not t.members:
        raise ValueError("selections must be nonempty")
    return Fraction(permuting_pair_count(lat, s, t), len(s) * len(t))


def sd(lat: SubgroupLattice) -> Fraction:
    """Subgroup commutativity degree: permuting fraction over all pairs."""
    return Fraction(all_pair_count(lat), len(lat) ** 2)


def spd(lat: SubgroupLattice, convention: str = RAW) -> Fraction:
    """Restricted degree over subnormal x maximal pairs.

    Undefined for the trivial group (no maximal subgroups to pair against).
    """
    if len(lat) == 1:
        raise ValueError("spd is undefined for the trivial group")
    pairs = len(subnormal_subgroups(lat)) * len(maximal_subgroups(lat, convention))
    return Fraction(restricted_pair_count(lat, convention), pairs)


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

def _product_set(table, A: frozenset, B: frozenset) -> frozenset:
    return frozenset(table[a][b] for a in A for b in B)


def chi_naive(g: FiniteGroup, A: frozenset, B: frozenset) -> int:
    t = g.table
    return 1 if _product_set(t, A, B) == _product_set(t, B, A) else 0


def degree_naive(lat: SubgroupLattice, s: SublatticeSelection,
                 t: SublatticeSelection) -> Fraction:
    """Double loop over raw element sets; independent of the bitmask path."""
    g = lat.group
    sets = [frozenset(node.elements()) for node in lat.nodes]
    count = 0
    for i in s.members:
        for j in t.members:
            count += chi_naive(g, sets[i], sets[j])
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
    count = all_pair_count(lat)
    trivial = len(lat) == 1
    return DegreeReport(
        group_name=g.name,
        order=g.order,
        lattice_size=len(lat),
        subnormal_count=len(subnormal_subgroups(lat)),
        maximal_raw_count=None if trivial else len(maximal_subgroups(lat, "raw")),
        maximal_closed_count=None if trivial else len(maximal_subgroups(lat, "closed")),
        sd=Fraction(count, len(lat) ** 2),
        spd=None if trivial else spd(lat, convention),
        d=element_commutativity_degree(g),
        permuting_pair_count=count,
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
                           convention: str = RAW,
                           max_order: int = 720) -> MultiplicativityCheck:
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
        product = direct_product(product, part, max_order)
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
