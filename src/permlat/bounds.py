"""Counting formulas and exact lower-bound checkers for lattice degrees.

Every checker of the paper's claims lives here, the Moebius-phrased mu
claim (:func:`mu_matching_bound_check`) included, and follows the same
gate-and-report contract: hypotheses are verified first, and only when all
of them hold is the inequality asserted. A failed hypothesis never raises;
it yields ``hypothesis_satisfied = False`` with the reasons spelled out, so
catalog sweeps can report qualification rates instead of crashing. Hard
misuse (invalid node indices, an unknown convention or reading, calling the
factor-condition checker on a non-normal N) still raises ``ValueError``.

Square-root bounds are compared by cross-squaring in integers; the stored
``bound``/``actual`` fields for those claims are the squared quantities so
that everything stays an exact rational.

:func:`bound_results` is the one driver that decides which (N, H)
instances each claim visits; the CLI and the sweeps both call it. Every
value an instance needs is read off the parent lattice, and each one that
costs more than a walk of a node's down mask is kept in the lattice's memo,
once per node, so an (N, H) instance does only lookups and such walks:

* L(X) is the interval [1, X], so sn(X), M(X) and the pair counts inside X
  are the ones G's degrees read at the top node; M(X), the lower covers of
  X, is read afresh on each call
  (:func:`permlat.lattice.node_subnormal`,
  :func:`permlat.lattice.node_maximal`,
  :func:`permlat.degrees.node_all_pairs`,
  :func:`permlat.degrees.node_restricted_pairs`), since XY = YX does not
  depend on the ambient group;
* the factor-condition violators of each node, the factorization partners
  of each N, as a node mask, and C_G(Fit(G)), Fit(G) the join of the
  largest normal p-power nodes. The partners are the H with NH = G: the
  product rule |NH| = |N||H| / |N n H| with G as the one given product,
  one AND per order of a node below N (:func:`permlat.lattice.products`),
  the rule the permutability rows read too. A partner H of N has
  |H| >= |G : N|, so N's complements are its partners of order |G : N|,
  one AND and no set of their own;
* lb3's quotient G/N is the interval [N, G] (correspondence theorem), so
  nothing is enumerated inside the driver;
* the shape of N that lemma1, lemma2, cor26 and theorem1 read is read off
  G's lattice: N is abelian iff its generators commute in G's table, and
  each element's order is the order of its cyclic node
  (:func:`detect_rank2_shape`); cor26's |L(N)| is the size of [1, N]. So
  no group and no lattice is built for N.

The checkers share their gates: one rank-2 gate on N serves lemma1, lemma2
and theorem1, kept once per (N, reading) since it reads no convention
(:func:`_rank2_gate`); one complement test serves lemma1 and lb3
(:func:`_is_complement`); and one list of factor-condition details per side
of G = NH (:func:`_condition_details`) gives lemma1's a1/a2 reasons, the
cauchy-spd and lb3 reason and :func:`check_factor_conditions`. Of those
details, the sn violator is kept once per node and the M violator once per
node and convention (:func:`_half_verdict`). Arguments are checked at the
public checkers only; the driver checks its own once and calls the
checkers' bodies.

Each result is decided once per key, and the key is exactly the values its
checker reads (the proof is in each body's docstring). Each node X has one
profile per convention (:func:`_factor_profile`): every value of X that the
lemma1, cauchy and lb3 checkers read when X is N or H, numbered once per
lattice on the first visit to X, together with the two parts of it that the
cauchy halves read:

* cauchy-spd reads of each side only its spd side (the profile without |X|
  and the pair count of L(X)), so it is decided once per (N normal, NH = G,
  spd side of N, spd side of H) and convention;
* cauchy-sd reads the pair counts of L(N) and L(H) and no convention, so it
  is decided once per (N normal, NH = G, pairs of L(N), pairs of L(H)) over
  the lattice, and both conventions share each decision;
* lemma1 reads nothing past a failed rank-2 gate but the gate's reason, so
  it is decided once per reason; past a gate that holds, lemma1 and lb3 are
  decided once per N and (NH = G, profile of H). No key holds the reading.

One decision covers every (N, H) with its key. An instance then costs
lookups and a view per result (:class:`BoundInstance`): its verdict fields
read through to the shared decision, and its context, which names N and H,
is built only when it is read. The profile is not the class of X:
conjugate nodes can have factor-condition violators of different orders.

:func:`iter_bound_results` yields the instances in order, one at a time,
so ``permlat bounds`` renders each row as it comes and keeps no list;
:func:`bound_results` is that stream as a list.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Optional, Union

from .groups import _bits, is_prime, prime_signature
from .lattice import (
    CONVENTIONS,
    RAW,
    SubgroupLattice,
    closed_maximal,
    maximal_subgroups,
    moebius_table,
    node_maximal,
    node_subnormal,
    normal_subgroups,
    products,
    subnormal_subgroups,
)
from .degrees import (mask_pair_count, node_all_pairs, node_restricted_pairs,
                      restricted_pair_count, sd, spd)


@dataclass(frozen=True)
class Rank2AbelianShape:
    """Abelian p-group of rank at most two: Z_{p^alpha1} x Z_{p^alpha2}.

    ``alpha1 == 0`` encodes the degenerate rank-one reading (the first factor
    absorbed as trivial); whether that reading qualifies for the bound
    hypotheses is controlled by the callers' ``allow_rank1`` flags.
    """

    p: int
    alpha1: int
    alpha2: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not (0 <= self.alpha1 <= self.alpha2 and self.alpha2 >= 1):
            raise ValueError(f"bad exponents ({self.alpha1}, {self.alpha2})")

    def group_order(self) -> int:
        return self.p ** (self.alpha1 + self.alpha2)

    def __str__(self):
        return f"(p={self.p}, a1={self.alpha1}, a2={self.alpha2})"


def subgroup_count_rank2(shape: Rank2AbelianShape) -> int:
    """Number of subgroups of Z_{p^a1} x Z_{p^a2}, as a closed form."""
    p, a1, a2 = shape.p, shape.alpha1, shape.alpha2
    num = ((a2 - a1 + 1) * p ** (a1 + 2)
           - (a2 - a1 - 1) * p ** (a1 + 1)
           - (a1 + a2 + 3) * p
           + (a1 + a2 + 1))
    den = (p - 1) ** 2
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"count formula not integral at {shape}")
    return q


def maximal_count_elementary(p: int, k: int) -> int:
    """Number of maximal subgroups of the elementary abelian group of order p^k."""
    if not is_prime(p) or k < 1:
        raise ValueError("need a prime p and k >= 1")
    return (p ** k - 1) // (p - 1)


@dataclass(frozen=True)
class PolyForms:
    """A bound numerator in two forms: the normative derivation-chain value
    and the expanded closed form, which need not agree (see ``gap``)."""

    derivation: Fraction
    printed: Fraction

    @property
    def gap(self) -> Fraction:
        return self.derivation - self.printed


def spd_bound_poly(shape: Rank2AbelianShape) -> PolyForms:
    """Numerator of the spd lower bound for a rank-<=2 abelian p-subgroup
    of prime index.

    The derivation form is (p+1) * |L(N)| + 4. The printed expansion drops a
    (a1+a2+1)p term relative to that chain; both are reported, and the
    derivation form is the one the bound checkers use.
    """
    p, a1, a2 = shape.p, shape.alpha1, shape.alpha2
    derivation = Fraction((p + 1) * subgroup_count_rank2(shape) + 4)
    printed_num = ((a2 - a1 + 1) * p ** (a1 + 3)
                   + 2 * p ** (a1 + 2)
                   - (a2 - a1 - 1) * p ** (a1 + 1)
                   - (a1 + a2 - 1) * p ** 2
                   - (a1 + a2 + 11) * p
                   + (a1 + a2 + 5))
    printed = Fraction(printed_num, (p - 1) ** 2)
    return PolyForms(derivation, printed)


def spd_bound_poly_gap(shape: Rank2AbelianShape) -> Fraction:
    """The pinned derivation-vs-expansion discrepancy: (a1+a2+1) p / (p-1)^2."""
    p = shape.p
    return Fraction((shape.alpha1 + shape.alpha2 + 1) * p, (p - 1) ** 2)


def sd_bound_poly(shape: Rank2AbelianShape) -> PolyForms:
    """Numerator of the sd lower bound: |L(N)|^2 + 4; both forms must agree."""
    p, a1, a2 = shape.p, shape.alpha1, shape.alpha2
    derivation = Fraction(subgroup_count_rank2(shape) ** 2 + 4)
    num = ((a2 - a1 + 1) * p ** (a1 + 2)
           - (a2 - a1 - 1) * p ** (a1 + 1)
           - (a1 + a2 + 3) * p
           + (a1 + a2 + 1))
    printed = Fraction(num ** 2, (p - 1) ** 4) + 4
    if printed != derivation:
        raise AssertionError(f"sd bound forms disagree at {shape}")
    return PolyForms(derivation, printed)


def _is_abelian(lat: SubgroupLattice, idx: int) -> bool:
    """Whether node X is abelian: X is generated by ``lat.node_gens[idx]``,
    so it is abelian iff those generators commute pairwise in G's table."""
    t, gens = lat.group.table, lat.node_gens[idx]
    return all(t[a][b] == t[b][a] for k, a in enumerate(gens) for b in gens[k + 1:])


def detect_rank2_shape(lat: SubgroupLattice, idx: int,
                       allow_rank1: bool = False) -> Optional[Rank2AbelianShape]:
    """Recognize node X as an abelian p-group of rank 2 (or rank 1 when
    allowed), read off G's lattice.

    Rank is read off the count of solutions of x^p = 1; together with the
    exponent this pins the invariant factors of a rank-2 abelian p-group.
    The order of x is the order of its cyclic node, and the exponent of a
    p-group is its largest element order.
    """
    order = lat.node_order(idx)
    if order == 1 or not _is_abelian(lat, idx):
        return None
    sig = prime_signature(order)
    if len(sig.factors) != 1:
        return None
    p, k = sig.factors[0]
    masks, cyclic = lat.masks, lat.cyclic_nodes
    orders = [masks[cyclic[x]].bit_count() for x in _bits(masks[idx])]
    pcount = sum(1 for o in orders if o in (1, p))
    if pcount == p ** 2:
        a2 = 0
        e = max(orders)
        while e > 1:
            e //= p
            a2 += 1
        a1 = k - a2
        if not 1 <= a1 <= a2:
            raise AssertionError("inconsistent rank-2 invariants")
        return Rank2AbelianShape(p, a1, a2)
    if pcount == p and allow_rank1:
        return Rank2AbelianShape(p, 0, k)
    return None


@dataclass(frozen=True)
class BoundCheckResult:
    """Outcome of one bound claim on one (group, N, H) instance.

    When ``hypothesis_satisfied`` is false no inequality is asserted and the
    value fields stay None. Otherwise holds <=> actual >= bound and
    slack = actual - bound, all exact.
    """

    claim: str
    hypothesis_satisfied: bool
    reasons: tuple[str, ...]
    bound: Optional[Fraction]
    actual: Optional[Fraction]
    holds: Optional[bool]
    slack: Optional[Fraction]
    convention: str
    context: dict = field(default_factory=dict)


def _not_satisfied(claim, reasons, convention, context) -> BoundCheckResult:
    return BoundCheckResult(claim, False, tuple(reasons), None, None, None,
                            None, convention, context)


def _satisfied(claim, bound, actual, convention, context) -> BoundCheckResult:
    return BoundCheckResult(claim, True, (), bound, actual, actual >= bound,
                            actual - bound, convention, context)


def _node_str(lat: SubgroupLattice, i: int) -> str:
    return f"#{i}(order {lat.node_order(i)})"


class BoundInstance:
    """One (N, H) instance of a decision that every instance with the same
    key shares (see :func:`iter_bound_results`). The verdict fields read
    through to the decision; the context is the decision's with N and H
    named, a dict of the instance's own, built on first read and then kept.
    Equal to a :class:`BoundCheckResult` (either way round) when every
    field, context included, is equal."""

    __slots__ = ("decision", "n", "h", "_context")

    def __init__(self, decision: BoundCheckResult, n: str, h: str):
        self.decision, self.n, self.h, self._context = decision, n, h, None

    claim = property(attrgetter("decision.claim"))
    hypothesis_satisfied = property(attrgetter("decision.hypothesis_satisfied"))
    reasons = property(attrgetter("decision.reasons"))
    bound = property(attrgetter("decision.bound"))
    actual = property(attrgetter("decision.actual"))
    holds = property(attrgetter("decision.holds"))
    slack = property(attrgetter("decision.slack"))
    convention = property(attrgetter("decision.convention"))

    @property
    def context(self) -> dict:
        if self._context is None:
            self._context = dict(self.decision.context, n=self.n, h=self.h)
        return self._context

    def __eq__(self, other):
        if not isinstance(other, (BoundInstance, BoundCheckResult)):
            return NotImplemented
        return _fields(self) == _fields(other)

    __hash__ = None

    def __repr__(self):
        return f"BoundInstance({self.decision!r}, n={self.n!r}, h={self.h!r})"


_fields = attrgetter(*(f.name for f in fields(BoundCheckResult)))


def factorizes(lat: SubgroupLattice, n_idx: int, h_idx: int) -> bool:
    """Whether NH = G: bit H of N's partner mask (:func:`factor_partners`)."""
    return bool(factor_partners(lat, n_idx) >> h_idx & 1)


def factor_partners(lat: SubgroupLattice, n_idx: int) -> int:
    """Node mask of the H with NH = G, kept once per N in the lattice's
    memo: the product rule with G, of order |G| and down mask every node,
    as the one given product (:func:`permlat.lattice.products`). The
    complements of N are its lowest partners (:func:`complement_candidates`)."""
    return lat.memo(("partners", n_idx), lambda: products(
        lat, n_idx, {lat.group.order: lat.all_nodes_mask}))


def complement_candidates(lat: SubgroupLattice, n_idx: int) -> int:
    """Node mask of the H with |H| = |G : N| and NH = G: N's partners of
    that order, the lowest a partner can have, since |G| = |NH| <= |N||H|.
    Such an H is isomorphic to G/N."""
    index = lat.group.order // lat.node_order(n_idx)
    return factor_partners(lat, n_idx) & lat.nodes_of_order.get(index, 0)


def _is_complement(lat: SubgroupLattice, n_idx: int, h_idx: int) -> bool:
    """Whether H is a complement of N: |H| = |G : N| and NH = G."""
    return bool(complement_candidates(lat, n_idx) >> h_idx & 1)


# -- argument checks, made at the public entry points only -------------------

def _check_nodes(lat: SubgroupLattice, *nodes: Optional[int]) -> None:
    """Refuse a given node index outside the lattice."""
    for idx in nodes:
        if idx is not None and not 0 <= idx < len(lat):
            raise ValueError(f"node index {idx} out of range (0..{len(lat) - 1})")


def _check_choice(kind: str, value: str, choices: tuple[str, ...]) -> None:
    """Refuse a claim, convention or reading outside its choices."""
    if value not in choices:
        raise ValueError(f"unknown {kind} {value!r}")


# -- per-node values read off the parent lattice ------------------------------
#
# Selections of a node X are masks over the parent's node indices
# (permlat.lattice.node_subnormal, node_maximal), so they can be compared
# with sn(G) and M(G) and counted against the parent's rows.

def quotient_restricted_pairs(lat: SubgroupLattice, n_idx: int,
                              convention: str = RAW) -> int:
    """Permuting pairs in sn(G/N) x M(G/N) for a proper normal N, read off
    the interval [N, G] (correspondence theorem): K/N is subnormal in G/N
    iff K is subnormal in G, maximal iff K is, and K/N, L/N permute iff K, L
    do. N is normal, so both masks are unions of classes and the count is
    class-wise."""
    _check_nodes(lat, n_idx)
    _check_choice("convention", convention, CONVENTIONS)
    return _quotient_pairs(lat, n_idx, convention)


def _quotient_pairs(lat: SubgroupLattice, n_idx: int, convention: str) -> int:
    above = lat.up_masks[n_idx]
    sn = subnormal_subgroups(lat).members_mask & above
    mx = maximal_subgroups(lat).members_mask & above
    if convention != RAW:
        mx = closed_maximal(lat, mx, lat.top)
    return mask_pair_count(lat, sn, mx)


@dataclass(frozen=True)
class FactorConditions:
    """Literal sublattice inclusions for a factorization G = NH.

    a1: sn(H) and M(H) (computed inside H) are subgroup-sets contained in
    sn(G) and M(G). a2: the same for N. ``details`` names the first
    violating subgroup of each failed inclusion.
    """

    a1: bool
    a2: bool
    details: tuple[str, ...]


def _violator(lat: SubgroupLattice, nodes: int, target: int) -> Optional[int]:
    """Order of the node of ``nodes`` outside ``target`` with the smallest
    element mask, or None when there is none."""
    outside = nodes & ~target
    if not outside:
        return None
    return min(lat.masks[i] for i in _bits(outside)).bit_count()


def _half_verdict(lat: SubgroupLattice, idx: int,
                  convention: str) -> tuple[Optional[int], Optional[int]]:
    """Orders of the violators of sn(X) in sn(G) and of M(X) in M(G) for
    node X, each the violator with the smallest element mask, or None. The
    sn half reads no convention, so it is kept once per node; the pair once
    per node and convention."""
    return lat.memo(("half", idx, convention), lambda: (
        lat.memo(("sn-violator", idx), lambda: _violator(
            lat, node_subnormal(lat, idx), subnormal_subgroups(lat).members_mask)),
        _violator(lat, node_maximal(lat, idx, convention),
                  maximal_subgroups(lat, convention).members_mask)))


def _factor_profile(lat: SubgroupLattice, idx: int, convention: str) -> tuple:
    """Every value of node X that the lemma1, cauchy and lb3 checkers read
    when X is N or H: |X| and the pair count of L(X); for nontrivial X its
    violators and, when it has none, its restricted pair count (the checkers
    read neither for a trivial node, and the trivial group has no M(G)).
    The profile without its first two values is X's spd side, all that
    cauchy-spd reads of X (:func:`_cauchy_spd`), and it is empty exactly
    when X is trivial. The violators are not a class invariant (the one
    with the smallest element mask need not have the same order across X's
    class), so neither is the profile."""
    order, total = lat.node_order(idx), node_all_pairs(lat, idx)
    if order == 1:
        return order, total
    half = _half_verdict(lat, idx, convention)
    if half != (None, None):
        return order, total, half
    return order, total, half, node_restricted_pairs(lat, idx, convention)


def _condition_details(lat: SubgroupLattice, idx: int, who: str,
                       convention: str) -> list[str]:
    """One detail per failed inclusion of sn(X) in sn(G) and of M(X) in
    M(G) for the side X of G = NH that ``who`` names ("N" or "H")."""
    return [f"{sel}({who}) in {sel}(G): subgroup of order {order} is not in the "
            f"ambient selection"
            for sel, order in zip(("sn", "M"), _half_verdict(lat, idx, convention))
            if order is not None]


def _factor_conditions_reason(lat: SubgroupLattice, n_idx: int, h_idx: int,
                              convention: str) -> Optional[str]:
    """The cauchy-spd and lb3 reason when a factor condition fails, or None."""
    details = (_condition_details(lat, h_idx, "H", convention)
               + _condition_details(lat, n_idx, "N", convention))
    return "factor conditions fail: " + "; ".join(details) if details else None


def check_factor_conditions(lat: SubgroupLattice, n_idx: int, h_idx: int,
                            convention: str = RAW) -> FactorConditions:
    _check_nodes(lat, n_idx, h_idx)
    _check_choice("convention", convention, CONVENTIONS)
    nm, hm = lat.masks[n_idx], lat.masks[h_idx]
    if n_idx not in normal_subgroups(lat):
        raise ValueError(f"N = {_node_str(lat, n_idx)} is not normal")
    if not factorizes(lat, n_idx, h_idx):
        raise ValueError("NH is not the whole group")
    if nm.bit_count() == 1 or hm.bit_count() == 1:
        raise ValueError("N and H must be nontrivial (maximal sets undefined)")
    a1 = _condition_details(lat, h_idx, "H", convention)
    a2 = _condition_details(lat, n_idx, "N", convention)
    return FactorConditions(not a1, not a2, tuple(a1 + a2))


def _rank2_gate(lat: SubgroupLattice, n_idx: int, allow_rank1: bool,
                ) -> tuple[Optional[str], Optional[Rank2AbelianShape]]:
    """The hypotheses on N that lemma1, lemma2 and theorem1 share, in
    order: N is nontrivial, normal, an abelian p-group of admissible rank,
    and of prime index. Returns (the first that fails, or None; N's shape
    once it is read, else None). It reads no convention, so it is kept in
    the lattice's memo once per (N, allow_rank1)."""
    def compute():
        n_order = lat.node_order(n_idx)
        if n_order == 1:
            return "N is trivial", None
        if n_idx not in normal_subgroups(lat):
            return "N is not normal", None
        shape = detect_rank2_shape(lat, n_idx, allow_rank1)
        if shape is None:
            return "N is not an abelian p-group of admissible rank", None
        index = lat.group.order // n_order
        return None if is_prime(index) else f"index {index} is not prime", shape
    return lat.memo(("rank2-gate", n_idx, allow_rank1), compute)


def spd_rank2_bound_check(lat: SubgroupLattice, n_idx: int, h_idx: int,
                          convention: str = RAW,
                          allow_rank1: bool = False) -> BoundCheckResult:
    """spd(G) >= f / (2 |sn(G)| |M(G)|) for a nontrivial normal abelian
    p-subgroup N of rank <= 2 and prime index, given a complement H and the
    factor-inclusion conditions. Claim key: lemma1."""
    _check_nodes(lat, n_idx, h_idx)
    _check_choice("convention", convention, CONVENTIONS)
    return _lemma1(lat, n_idx, h_idx, convention, allow_rank1)


def _lemma1(lat, n_idx, h_idx, convention, allow_rank1) -> BoundCheckResult:
    """:func:`spd_rank2_bound_check` on checked arguments. When N's gate
    fails, the result reads nothing but the gate's reason (the trivial-group
    reason is one per lattice, and a view names its own N and H), so the
    driver keys it by that reason alone. When the gate holds, it reads N's
    shape and violators, whether H is a complement (|H| and NH = G) and H's
    violators, so the driver keys it by (N, NH = G, profile of H). Neither
    key holds the reading: a gate that holds under the strict reading holds
    under the relaxed one with the same shape (the rank-2 case is read
    first), and one that holds only under the relaxed reading fails, and so
    is keyed by its reason, under the strict one."""
    g = lat.group
    claim = "lemma1"
    context = {"group": g.name, "n": _node_str(lat, n_idx),
               "h": _node_str(lat, h_idx)}
    reasons = ["trivial group: spd undefined"] if g.order == 1 else []
    failed, shape = _rank2_gate(lat, n_idx, allow_rank1)
    if failed:
        reasons.append(failed)
    elif not _is_complement(lat, n_idx, h_idx):
        reasons.append("H is not a complement with NH = G")
    else:
        for name, idx, who in (("a1", h_idx, "H"), ("a2", n_idx, "N")):
            details = _condition_details(lat, idx, who, convention)
            if details:
                reasons.append(f"factor condition {name} fails: " + "; ".join(details))
    if reasons:
        return _not_satisfied(claim, reasons, convention, context)
    context["shape"] = str(shape)
    sn_count = len(subnormal_subgroups(lat))
    mx_count = len(maximal_subgroups(lat, convention))
    bound = spd_bound_poly(shape).derivation / (2 * sn_count * mx_count)
    return _satisfied(claim, bound, spd(lat, convention), convention, context)


def sd_rank2_bound_check(lat: SubgroupLattice, n_idx: int,
                         allow_rank1: bool = False) -> BoundCheckResult:
    """sd(G) >= g / (2 |L(G)|^2) for a nontrivial normal abelian p-subgroup
    of rank <= 2 and prime index. Claim key: lemma2."""
    _check_nodes(lat, n_idx)
    return _lemma2(lat, n_idx, allow_rank1)


def _lemma2(lat, n_idx, allow_rank1) -> BoundCheckResult:
    g = lat.group
    claim = "lemma2"
    context = {"group": g.name, "n": _node_str(lat, n_idx)}
    failed, shape = _rank2_gate(lat, n_idx, allow_rank1)
    if failed:
        return _not_satisfied(claim, [failed], "-", context)
    context["shape"] = str(shape)
    bound = sd_bound_poly(shape).derivation / (2 * len(lat) ** 2)
    return _satisfied(claim, bound, sd(lat), "-", context)


def abelian_prime_index_sd_check(lat: SubgroupLattice, n_idx: int) -> BoundCheckResult:
    """|L(G)|^2 sd(G) >= |L(N)|^2 + 2 |L(N)| + 1 for a normal abelian N of
    prime index. Claim key: cor26."""
    _check_nodes(lat, n_idx)
    return _cor26(lat, n_idx)


def _cor26(lat, n_idx) -> BoundCheckResult:
    g = lat.group
    claim = "cor26"
    context = {"group": g.name, "n": _node_str(lat, n_idx)}
    reasons = []
    n_order = lat.node_order(n_idx)
    if n_idx not in normal_subgroups(lat):
        reasons.append("N is not normal")
    if not _is_abelian(lat, n_idx):
        reasons.append("N is not abelian")
    if not is_prime(g.order // n_order):
        reasons.append(f"index {g.order // n_order} is not prime")
    if reasons:
        return _not_satisfied(claim, reasons, "-", context)
    ln = lat.down_masks[n_idx].bit_count()  # |L(N)|: the interval [1, N]
    context["lattice_of_n"] = str(ln)
    actual = len(lat) ** 2 * sd(lat)
    bound = Fraction(ln * ln + 2 * ln + 1)
    return _satisfied(claim, bound, actual, "-", context)


def cauchy_bound_checks(lat: SubgroupLattice, n_idx: int, h_idx: int,
                        convention: str = RAW,
                        ) -> tuple[BoundCheckResult, BoundCheckResult]:
    """Geometric-mean lower bounds from a factorization G = NH with N normal.

    Returns (restricted, full): the spd bound needs the factor-inclusion
    conditions; the sd bound needs only the factorization. Both compare by
    cross-squaring, and the recorded bound/actual are the squared values.
    """
    _check_nodes(lat, n_idx, h_idx)
    _check_choice("convention", convention, CONVENTIONS)
    return _cauchy_spd(lat, n_idx, h_idx, convention), _cauchy_sd(lat, n_idx, h_idx)


def _cauchy_common(lat, n_idx, h_idx) -> tuple[list[str], dict]:
    """The reason both cauchy halves fail for, if any, and their context."""
    common = []
    if n_idx not in normal_subgroups(lat):
        common.append("N is not normal")
    elif not factorizes(lat, n_idx, h_idx):
        common.append("NH is not the whole group")
    return common, {"group": lat.group.name, "n": _node_str(lat, n_idx),
                    "h": _node_str(lat, h_idx), "squared_form": "yes"}


def _cauchy_spd(lat, n_idx, h_idx, convention) -> BoundCheckResult:
    """The restricted half of :func:`cauchy_bound_checks`. It reads whether
    N is normal and NH = G, then whether N or H is trivial, then each side's
    violators and, when neither has one, each side's restricted pair count:
    of each side nothing but its spd side (:func:`_factor_profile`), which
    is empty exactly for a trivial side. So the driver keys it by (N normal,
    NH = G, spd side of N, spd side of H), once per convention."""
    reasons, context = _cauchy_common(lat, n_idx, h_idx)
    if not reasons:
        if lat.node_order(n_idx) == 1 or lat.node_order(h_idx) == 1:
            reasons.append("N or H trivial: restricted pairs undefined")
        else:
            failed = _factor_conditions_reason(lat, n_idx, h_idx, convention)
            if failed:
                reasons.append(failed)
    if reasons:
        return _not_satisfied("cauchy-spd", reasons, convention, context)
    sum_n = node_restricted_pairs(lat, n_idx, convention)
    sum_h = node_restricted_pairs(lat, h_idx, convention)
    denom = len(subnormal_subgroups(lat)) * len(maximal_subgroups(lat, convention))
    context.update(sum_n=str(sum_n), sum_h=str(sum_h))
    return _satisfied("cauchy-spd", Fraction(sum_n * sum_h, denom ** 2),
                      spd(lat, convention) ** 2, convention, context)


def _cauchy_sd(lat, n_idx, h_idx) -> BoundCheckResult:
    """The full half of :func:`cauchy_bound_checks`. It reads whether N is
    normal and NH = G, then the pair counts of L(N) and L(H), and its
    convention is "-": no read depends on the convention. So the driver
    keys it by (N normal, NH = G, pairs of L(N), pairs of L(H)) once per
    lattice, and both conventions share each decision."""
    reasons, context = _cauchy_common(lat, n_idx, h_idx)
    if reasons:
        return _not_satisfied("cauchy-sd", reasons, "-", context)
    sum_n = node_all_pairs(lat, n_idx)
    sum_h = node_all_pairs(lat, h_idx)
    context.update(sum_n=str(sum_n), sum_h=str(sum_h))
    return _satisfied("cauchy-sd", Fraction(sum_n * sum_h, len(lat) ** 4),
                      sd(lat) ** 2, "-", context)


def decomposition_bound_check(lat: SubgroupLattice, n_idx: int, h_idx: int,
                              convention: str = RAW) -> BoundCheckResult:
    """2 |sn(G)| |M(G)| spd(G) >= (restricted pair count of N) + (of G/N),
    for a proper nontrivial normal N with complement H and the factor
    conditions. Claim key: lb3."""
    _check_nodes(lat, n_idx, h_idx)
    _check_choice("convention", convention, CONVENTIONS)
    return _lb3(lat, n_idx, h_idx, convention)


def _lb3(lat, n_idx, h_idx, convention) -> BoundCheckResult:
    """:func:`decomposition_bound_check` on checked arguments. Of H it reads
    whether H is a complement (|H| and NH = G), its violators and its
    restricted pair count, all fixed by NH = G and H's profile; so the
    driver keys it by (N, NH = G, profile of H), once per convention."""
    g = lat.group
    claim = "lb3"
    context = {"group": g.name, "n": _node_str(lat, n_idx),
               "h": _node_str(lat, h_idx)}
    reasons = []
    if not 1 < lat.node_order(n_idx) < g.order:
        reasons.append("N must be nontrivial and proper")
    elif n_idx not in normal_subgroups(lat):
        reasons.append("N is not normal")
    elif not _is_complement(lat, n_idx, h_idx):
        reasons.append("H is not a complement with NH = G")
    else:
        failed = _factor_conditions_reason(lat, n_idx, h_idx, convention)
        if failed:
            reasons.append(failed)
    if reasons:
        return _not_satisfied(claim, reasons, convention, context)
    count_n = node_restricted_pairs(lat, n_idx, convention)
    count_q = _quotient_pairs(lat, n_idx, convention)
    count_h = node_restricted_pairs(lat, h_idx, convention)
    context["count_n"] = str(count_n)
    context["count_quotient"] = str(count_q)
    context["count_h"] = str(count_h)
    actual = Fraction(2 * restricted_pair_count(lat, convention))
    return _satisfied(claim, Fraction(count_n + count_q), actual, convention, context)


def fitting_node(lat: SubgroupLattice) -> int:
    """Fit(G) as a node: the join of the p-cores O_p(G), each the largest
    normal node of p-power order (nodes are sorted by order, so the last).
    Nothing is kept: theorem1 reads it once per lattice, through the memo
    of C_G(Fit(G))."""
    normal = normal_subgroups(lat).members
    fit = lat.bottom
    for p in prime_signature(lat.group.order).primes:
        core = max(n for n in normal
                   if prime_signature(lat.node_order(n)).primes in ((), (p,)))
        fit = lat.join(fit, core)
    return fit


@dataclass(frozen=True)
class CentralizerShapeCheck:
    """Hypothesis check for solvable groups whose Fitting-subgroup centralizer
    is a rank-<=2 abelian p-group of prime index. Claim key: theorem1."""

    group_name: str
    hypotheses: bool
    reasons: tuple[str, ...]
    centralizer_index: Optional[int]
    shape: Optional[Rank2AbelianShape]
    part_i: tuple[BoundCheckResult, ...]
    part_ii: Optional[BoundCheckResult]


def fitting_centralizer_check(lat: SubgroupLattice, convention: str = RAW,
                              reading: str = "strict") -> CentralizerShapeCheck:
    """Evaluate the Fitting-centralizer hypotheses and, when they hold,
    delegate to the rank-2 bound checks with N = C_G(Fit(G)).

    ``reading`` picks whether a cyclic centralizer (rank 1) qualifies:
    "strict" demands two nontrivial factors, "relaxed" absorbs a trivial one.
    The check is kept in the lattice's memo, once per convention and
    reading, so the mu claim (:func:`mu_matching_bound_check`) reads
    theorem1's decision instead of deciding it again.
    """
    _check_choice("convention", convention, CONVENTIONS)
    _check_choice("reading", reading, READINGS)
    return _theorem1(lat, convention, reading)


def _theorem1(lat, convention, reading) -> CentralizerShapeCheck:
    def compute():
        g = lat.group
        reasons = []
        if not g.is_solvable:
            reasons.append("group is not solvable")
        c_mask = lat.memo("fit-centralizer", lambda: g.centralizer_of_set_mask(
            lat.masks[fitting_node(lat)]))
        c_idx = lat.index_of[c_mask]
        allow_rank1 = reading == "relaxed"
        shape = None
        index = g.order // c_mask.bit_count()
        if not reasons:
            # C_G(Fit(G)) is normal, so the gate fails before its shape is
            # read only when it is trivial, and then it has no shape either
            failed, shape = _rank2_gate(lat, c_idx, allow_rank1)
            if shape is None:
                reasons.append("centralizer of the Fitting subgroup does not have "
                               "the required abelian p-group shape")
            elif failed:
                reasons.append(f"centralizer index {index} is not prime")
        if reasons:
            return CentralizerShapeCheck(g.name, False, tuple(reasons), c_idx,
                                         shape, (), None)
        part_i = tuple(_lemma1(lat, c_idx, h_idx, convention, allow_rank1)
                       for h_idx in _bits(complement_candidates(lat, c_idx)))
        part_ii = _lemma2(lat, c_idx, allow_rank1)
        return CentralizerShapeCheck(g.name, True, (), c_idx, shape, part_i, part_ii)
    return lat.memo(("theorem1", convention, reading), compute)


def mu_matching_bound_check(lat: SubgroupLattice, convention: str = RAW,
                            reading: str = "strict") -> BoundCheckResult:
    """sd(G) >= g / (2 mu(1,G)^2) when the Fitting-centralizer hypotheses
    hold and |L(G)| equals the bottom Moebius number. Claim key: mu-bound.

    The |L(G)| = mu(1,G) gate is expected to fail on ordinary groups; the
    checker reports non-qualification rather than asserting anything.
    """
    claim = "mu-bound"
    mu = moebius_table(lat).bottom_value
    context = {"group": lat.group.name, "mu_bottom": str(mu),
               "lattice_size": str(len(lat))}
    base = fitting_centralizer_check(lat, convention, reading)
    reasons = list(base.reasons)
    if len(lat) != mu:
        reasons.append(f"|L| = {len(lat)} differs from mu(1,G) = {mu}")
    if reasons:
        return _not_satisfied(claim, reasons, convention, context)
    bound = sd_bound_poly(base.shape).derivation / (2 * mu * mu)
    return _satisfied(claim, bound, sd(lat), convention, context)


# -- the bound driver --------------------------------------------------------

CLAIM_CHOICES = ("all", "lemma1", "lemma2", "theorem1", "cor26", "cauchy",
                 "lb3", "mu")
READINGS = ("strict", "relaxed")  # the theorem1 readings


def _ns(lat: SubgroupLattice, every: bool, n_node: Optional[int]) -> list[int]:
    """The N a claim ranges over: every normal node, or only the nontrivial
    proper ones; ``n_node`` instead when given."""
    if n_node is not None:
        return [n_node]
    return [n for n in normal_subgroups(lat).members
            if every or 1 < lat.node_order(n) < lat.group.order]


def _hs(lat: SubgroupLattice, n_idx: int, partners, h_node: Optional[int]) -> int:
    """The H a claim pairs with N as a node mask: ``partners(lat, N)``, or
    ``h_node``."""
    return 1 << h_node if h_node is not None else partners(lat, n_idx)


# The claims decided over factorizations G = NH: whether N ranges over every
# normal node (or only the nontrivial proper ones), the H each N pairs with,
# and the results each (N, H) gives
_FACTORIZATION_CLAIMS = {
    "lemma1": (False, complement_candidates, 1),
    "cauchy": (True, factor_partners, 2),
    "lb3": (True, complement_candidates, 1),
}


def factorization_instance_count(lat: SubgroupLattice, claim: str = "all",
                                 n_node: Optional[int] = None,
                                 h_node: Optional[int] = None) -> int:
    """How many lemma1, cauchy and lb3 results :func:`bound_results` gives,
    counted as popcounts of each N's partner and complement masks before
    any checker runs."""
    _check_choice("claim", claim, CLAIM_CHOICES)
    _check_nodes(lat, n_node, h_node)
    return sum(per_pair * sum(_hs(lat, n, partners, h_node).bit_count()
                              for n in _ns(lat, every, n_node))
               for key, (every, partners, per_pair) in _FACTORIZATION_CLAIMS.items()
               if claim in ("all", key))


BoundRow = Union[BoundCheckResult, BoundInstance]

# the fields of a node's numbers in the driver: its profile's number, its
# spd side's number and the pair count of L(X)
_PROFILE, _SPD_SIDE, _PAIRS = range(3)


def iter_bound_results(lat: SubgroupLattice, claim: str = "all",
                       convention: str = RAW, reading: str = "strict",
                       n_node: Optional[int] = None,
                       h_node: Optional[int] = None) -> Iterator[BoundRow]:
    """Every instance of one claim, or of all claims (lemma1, lemma2, cor26,
    cauchy, lb3, theorem1, mu, in that order), one at a time; ``permlat
    bounds`` renders from here, and :func:`bound_results` lists it.

    lemma1, lemma2 and cor26 range over the nontrivial proper normal N;
    cauchy and lb3 over every normal N, so they include the degenerate
    factorizations with N = 1 or N = G. lemma1 and lb3 pair N with its
    complements H, cauchy with every H such that NH = G. ``n_node`` and
    ``h_node`` replace the range of N and of H by that one node. theorem1
    and mu are one instance each, at N = C_G(Fit(G)). ``reading`` is the
    theorem1 reading; "relaxed" also lets rank-1 N qualify for lemma1/2.

    Each result of these three claims is decided once per key, the values
    its checker reads (proved in each checker's docstring): lemma1 once per
    failure reason of N's gate, or per (N, NH = G, profile of H) when the
    gate holds; lb3 once per (N, NH = G, profile of H); cauchy-spd once per
    (N normal, NH = G, spd side of N, spd side of H); cauchy-sd once per
    (N normal, NH = G, pairs of L(N), pairs of L(H)). The sd key reads no
    convention, so both conventions share its decisions, and no key holds
    the reading. Profiles are :func:`_factor_profile`, numbered once per
    node and convention in the lattice's memo with the spd side and the
    pair count read off them. Each (N, H) gets a :class:`BoundInstance` of
    each of its decisions.
    """
    _check_choice("claim", claim, CLAIM_CHOICES)
    _check_choice("convention", convention, CONVENTIONS)
    _check_choice("reading", reading, READINGS)
    _check_nodes(lat, n_node, h_node)
    return _bound_stream(lat, claim, convention, reading, n_node, h_node)


def _bound_stream(lat, claim, convention, reading, n_node, h_node) -> Iterator[BoundRow]:
    rank1 = reading == "relaxed"
    g = lat.group
    normal = normal_subgroups(lat)
    labels = lat.memo("labels",
                      lambda: [_node_str(lat, i) for i in range(len(lat))])
    numbers, profiles, sides = lat.memo(("profiles", convention),
                                        lambda: ([None] * len(lat), {}, {}))

    def number(x: int) -> tuple[int, int, int]:
        # X's numbers (see _PROFILE), on the first visit to X
        p = _factor_profile(lat, x, convention)
        numbers[x] = ids = (profiles.setdefault(p, len(profiles)),
                            sides.setdefault(p[2:], len(sides)), p[1])
        return ids

    def decide(key, halves):
        # halves: one (decisions, n_key, check) per result of an (N, H), in
        # order. n_key(N) is (the part of the key read off N, the field of
        # H's numbers that check reads, or None when it reads nothing of
        # H); the key is that part alone, or with NH = G and the field.
        # check(N, H) runs once per key. Partners of N all have NH = G, so
        # within one N a result is also kept by the field alone
        every, partners, _ = _FACTORIZATION_CLAIMS[key]
        for n in _ns(lat, every, n_node):
            n_label = labels[n]
            keyed = [(known, *n_key(n), check, {}) for known, n_key, check in halves]
            for h in _bits(_hs(lat, n, partners, h_node)):
                h_label = labels[h]
                for known, nk, field, check, of_n in keyed:
                    x = None if field is None else (numbers[h] or number(h))[field]
                    result = of_n.get(x)
                    if result is None:
                        k = nk
                        if field is not None:
                            k = nk, h_node is None or factorizes(lat, n, h), x
                        result = known.get(k)
                        if result is None:
                            result = known[k] = check(n, h)
                        of_n[x] = result
                    yield BoundInstance(result, n_label, h_label)

    def lemma1_key(n):
        failed = _rank2_gate(lat, n, rank1)[0]
        return (failed, None) if failed else (n, _PROFILE)

    def cauchy_key(field):
        return lambda n: ((n in normal, (numbers[n] or number(n))[field]), field)

    if claim in ("all", "lemma1"):
        yield from decide("lemma1", [(
            lat.memo(("decided", "lemma1", convention), dict), lemma1_key,
            lambda n, h: _lemma1(lat, n, h, convention, rank1))])
    if claim in ("all", "lemma2"):
        for n in _ns(lat, False, n_node):
            yield _lemma2(lat, n, rank1)
    if claim in ("all", "cor26"):
        for n in _ns(lat, False, n_node):
            yield _cor26(lat, n)
    if claim in ("all", "cauchy"):
        yield from decide("cauchy", [
            (lat.memo(("decided", "cauchy-spd", convention), dict),
             cauchy_key(_SPD_SIDE), lambda n, h: _cauchy_spd(lat, n, h, convention)),
            (lat.memo(("decided", "cauchy-sd"), dict), cauchy_key(_PAIRS),
             lambda n, h: _cauchy_sd(lat, n, h))])
    if claim in ("all", "lb3"):
        yield from decide("lb3", [(
            lat.memo(("decided", "lb3", convention), dict), lambda n: (n, _PROFILE),
            lambda n, h: _lb3(lat, n, h, convention))])
    if claim in ("all", "theorem1"):
        check = _theorem1(lat, convention, reading)
        if check.hypotheses:
            yield from (*check.part_i, check.part_ii)
        else:
            yield _not_satisfied("theorem1", check.reasons, convention,
                                 {"group": g.name})
    if claim in ("all", "mu"):
        yield mu_matching_bound_check(lat, convention, reading)


def bound_results(lat: SubgroupLattice, claim: str = "all", convention: str = RAW,
                  reading: str = "strict", n_node: Optional[int] = None,
                  h_node: Optional[int] = None) -> list[BoundRow]:
    """:func:`iter_bound_results` as a list; the sweeps and the verify
    criteria come here."""
    return list(iter_bound_results(lat, claim, convention, reading, n_node, h_node))


def sweep_rank2_bounds(lat: SubgroupLattice, convention: str = RAW,
                       allow_rank1: bool = False) -> list[BoundRow]:
    """All rank-2 bound instances over normal N (and complements H for spd)."""
    reading = "relaxed" if allow_rank1 else "strict"
    return (bound_results(lat, "lemma1", convention, reading)
            + bound_results(lat, "lemma2", convention, reading))


def sweep_factorization_bounds(lat: SubgroupLattice,
                               convention: str = RAW) -> list[BoundRow]:
    """Geometric-mean and decomposition bounds over every factorization
    G = NH with N normal (H any subgroup whose product with N is G)."""
    return (bound_results(lat, "cauchy", convention)
            + bound_results(lat, "lb3", convention))
