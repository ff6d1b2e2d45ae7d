"""Counting formulas and exact lower-bound checkers for lattice degrees.

Every checker follows the same gate-and-report contract: hypotheses are
verified first, and only when all of them hold is the inequality asserted.
A failed hypothesis never raises; it yields ``hypothesis_satisfied = False``
with the reasons spelled out, so catalog sweeps can report qualification
rates instead of crashing. Hard misuse (invalid node indices, calling the
factor-condition checker on a non-normal N) still raises ``ValueError``.

Square-root bounds are compared by cross-squaring in integers; the stored
``bound``/``actual`` fields for those claims are the squared quantities so
that everything stays an exact rational.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .groups import FiniteGroup, _bits, is_prime, prime_signature, quotient_group
from .lattice import (
    RAW,
    SubgroupLattice,
    all_subgroups,
    enumerate_subgroups,
    maximal_subgroups,
    normal_subgroups,
    subnormal_subgroups,
)
from .degrees import permuting_pair_count, sd, spd


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

    @property
    def is_rank1(self) -> bool:
        return self.alpha1 == 0

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


def detect_rank2_shape(group: FiniteGroup,
                       allow_rank1: bool = False) -> Optional[Rank2AbelianShape]:
    """Recognize an abelian p-group of rank 2 (or rank 1 when allowed).

    Rank is read off the count of solutions of x^p = 1; together with the
    exponent this pins the invariant factors of a rank-2 abelian p-group.
    """
    if group.order == 1 or not group.is_abelian:
        return None
    sig = prime_signature(group.order)
    if len(sig.factors) != 1:
        return None
    p, k = sig.factors[0]
    pcount = sum(1 for o in group.element_orders if o in (1, p))
    if pcount == p ** 2:
        a2 = 0
        e = group.exponent
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


def _is_normal_node(lat: SubgroupLattice, i: int) -> bool:
    return i in normal_subgroups(lat)


def normal_node_indices(lat: SubgroupLattice) -> list[int]:
    return list(normal_subgroups(lat).members)


def factorizes(lat: SubgroupLattice, n_idx: int, h_idx: int) -> bool:
    """Whether NH = G, decided by |NH| = |N||H| / |N n H| without the product set."""
    nm, hm = lat.masks[n_idx], lat.masks[h_idx]
    return nm.bit_count() * hm.bit_count() == lat.group.order * (nm & hm).bit_count()


def factor_partners(lat: SubgroupLattice, n_idx: int) -> list[int]:
    """Nodes H with NH = G."""
    return [h for h in range(len(lat)) if factorizes(lat, n_idx, h)]


def complement_candidates(lat: SubgroupLattice, n_idx: int) -> list[int]:
    """Nodes H with |H| = |G : N| and NH = G; such an H is isomorphic to G/N."""
    index = lat.group.order // lat.node_order(n_idx)
    return [h for h in factor_partners(lat, n_idx) if lat.node_order(h) == index]


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


def _child_selection_parent_nodes(lat: SubgroupLattice, idx: int,
                                  convention: str) -> tuple[int, int]:
    """(subnormal, maximal) nodes of a re-rooted child, as masks over the
    parent's node indices: child node k is the k-th node under ``idx``."""
    _child, child_lat = lat.rerooted(idx)
    up = tuple(_bits(lat.down_masks[idx]))

    def lift(sel) -> int:
        out = 0
        for j in sel.members:
            out |= 1 << up[j]
        return out

    return (lift(subnormal_subgroups(child_lat)),
            lift(maximal_subgroups(child_lat, convention)))


def check_factor_conditions(lat: SubgroupLattice, n_idx: int, h_idx: int,
                            convention: str = RAW) -> FactorConditions:
    nm, hm = lat.masks[n_idx], lat.masks[h_idx]
    if not _is_normal_node(lat, n_idx):
        raise ValueError(f"N = {_node_str(lat, n_idx)} is not normal")
    if not factorizes(lat, n_idx, h_idx):
        raise ValueError("NH is not the whole group")
    if nm.bit_count() == 1 or hm.bit_count() == 1:
        raise ValueError("N and H must be nontrivial (maximal sets undefined)")
    sn_g = subnormal_subgroups(lat).members_mask
    mx_g = maximal_subgroups(lat, convention).members_mask
    details = []

    def included(nodes: int, target: int, label: str) -> bool:
        outside = nodes & ~target
        if outside:
            # name the violator with the smallest element mask
            m = min(lat.masks[i] for i in _bits(outside))
            details.append(f"{label}: subgroup of order {m.bit_count()} "
                           "is not in the ambient selection")
            return False
        return True

    sn_h, mx_h = _child_selection_parent_nodes(lat, h_idx, convention)
    sn_n, mx_n = _child_selection_parent_nodes(lat, n_idx, convention)
    a1 = (included(sn_h, sn_g, "sn(H) in sn(G)")
          & included(mx_h, mx_g, "M(H) in M(G)"))
    a2 = (included(sn_n, sn_g, "sn(N) in sn(G)")
          & included(mx_n, mx_g, "M(N) in M(G)"))
    return FactorConditions(bool(a1), bool(a2), tuple(details))


def spd_rank2_bound_check(lat: SubgroupLattice, n_idx: int, h_idx: int,
                          convention: str = RAW,
                          allow_rank1: bool = False) -> BoundCheckResult:
    """spd(G) >= f / (2 |sn(G)| |M(G)|) for a nontrivial normal abelian
    p-subgroup N of rank <= 2 and prime index, given a complement H and the
    factor-inclusion conditions. Claim key: lemma1."""
    g = lat.group
    claim = "lemma1"
    context = {"group": g.name, "n": _node_str(lat, n_idx),
               "h": _node_str(lat, h_idx)}
    reasons = []
    nm, hm = lat.masks[n_idx], lat.masks[h_idx]
    n_order = nm.bit_count()
    if g.order == 1:
        reasons.append("trivial group: spd undefined")
    if n_order == 1:
        reasons.append("N is trivial")
    elif not _is_normal_node(lat, n_idx):
        reasons.append("N is not normal")
    shape = None
    if not reasons:
        child, _ = lat.rerooted(n_idx)
        shape = detect_rank2_shape(child, allow_rank1)
        if shape is None:
            reasons.append("N is not an abelian p-group of admissible rank")
    index = g.order // n_order
    if not reasons and not is_prime(index):
        reasons.append(f"index {index} is not prime")
    if not reasons and (hm.bit_count() != index
                        or not factorizes(lat, n_idx, h_idx)):
        reasons.append("H is not a complement with NH = G")
    if not reasons:
        cond = check_factor_conditions(lat, n_idx, h_idx, convention)
        if not cond.a1:
            reasons.append("factor condition a1 fails: " +
                           "; ".join(d for d in cond.details if "(H)" in d))
        if not cond.a2:
            reasons.append("factor condition a2 fails: " +
                           "; ".join(d for d in cond.details if "(N)" in d))
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
    g = lat.group
    claim = "lemma2"
    context = {"group": g.name, "n": _node_str(lat, n_idx)}
    reasons = []
    n_order = lat.node_order(n_idx)
    if n_order == 1:
        reasons.append("N is trivial")
    elif not _is_normal_node(lat, n_idx):
        reasons.append("N is not normal")
    shape = None
    if not reasons:
        child, _ = lat.rerooted(n_idx)
        shape = detect_rank2_shape(child, allow_rank1)
        if shape is None:
            reasons.append("N is not an abelian p-group of admissible rank")
    index = g.order // n_order
    if not reasons and not is_prime(index):
        reasons.append(f"index {index} is not prime")
    if reasons:
        return _not_satisfied(claim, reasons, "-", context)
    context["shape"] = str(shape)
    bound = sd_bound_poly(shape).derivation / (2 * len(lat) ** 2)
    return _satisfied(claim, bound, sd(lat), "-", context)


def abelian_prime_index_sd_check(lat: SubgroupLattice, n_idx: int) -> BoundCheckResult:
    """|L(G)|^2 sd(G) >= |L(N)|^2 + 2 |L(N)| + 1 for a normal abelian N of
    prime index. Claim key: cor26."""
    g = lat.group
    claim = "cor26"
    context = {"group": g.name, "n": _node_str(lat, n_idx)}
    reasons = []
    n_order = lat.node_order(n_idx)
    if not _is_normal_node(lat, n_idx):
        reasons.append("N is not normal")
    child, child_lat = lat.rerooted(n_idx)
    if not child.is_abelian:
        reasons.append("N is not abelian")
    if not is_prime(g.order // n_order):
        reasons.append(f"index {g.order // n_order} is not prime")
    if reasons:
        return _not_satisfied(claim, reasons, "-", context)
    ln = len(child_lat)
    context["lattice_of_n"] = str(ln)
    actual = len(lat) ** 2 * sd(lat)
    bound = Fraction(ln * ln + 2 * ln + 1)
    return _satisfied(claim, bound, actual, "-", context)


def _child_pair_count(lat: SubgroupLattice, idx: int, restricted: bool,
                      convention: str) -> int:
    """Permuting-pair count inside a re-rooted node, over all pairs or over
    its own subnormal x maximal pairs."""
    _child, child_lat = lat.rerooted(idx)
    if restricted:
        return permuting_pair_count(child_lat, subnormal_subgroups(child_lat),
                                    maximal_subgroups(child_lat, convention))
    full = all_subgroups(child_lat)
    return permuting_pair_count(child_lat, full, full)


def cauchy_bound_checks(lat: SubgroupLattice, n_idx: int, h_idx: int,
                        convention: str = RAW,
                        ) -> tuple[BoundCheckResult, BoundCheckResult]:
    """Geometric-mean lower bounds from a factorization G = NH with N normal.

    Returns (restricted, full): the spd bound needs the factor-inclusion
    conditions; the sd bound needs only the factorization. Both compare by
    cross-squaring, and the recorded bound/actual are the squared values.
    """
    g = lat.group
    nm, hm = lat.masks[n_idx], lat.masks[h_idx]
    base_ctx = {"group": g.name, "n": _node_str(lat, n_idx),
                "h": _node_str(lat, h_idx), "squared_form": "yes"}
    common = []
    if not _is_normal_node(lat, n_idx):
        common.append("N is not normal")
    elif not factorizes(lat, n_idx, h_idx):
        common.append("NH is not the whole group")

    # restricted-degree version
    reasons = list(common)
    if not reasons:
        if nm.bit_count() == 1 or hm.bit_count() == 1:
            reasons.append("N or H trivial: restricted pairs undefined")
        else:
            cond = check_factor_conditions(lat, n_idx, h_idx, convention)
            if not (cond.a1 and cond.a2):
                reasons.append("factor conditions fail: " + "; ".join(cond.details))
    if reasons:
        spd_res = _not_satisfied("cauchy-spd", reasons, convention, dict(base_ctx))
    else:
        sum_n = _child_pair_count(lat, n_idx, True, convention)
        sum_h = _child_pair_count(lat, h_idx, True, convention)
        denom = len(subnormal_subgroups(lat)) * len(maximal_subgroups(lat, convention))
        ctx = dict(base_ctx, sum_n=str(sum_n), sum_h=str(sum_h))
        spd_res = _satisfied("cauchy-spd", Fraction(sum_n * sum_h, denom ** 2),
                             spd(lat, convention) ** 2, convention, ctx)

    if common:
        sd_res = _not_satisfied("cauchy-sd", common, "-", dict(base_ctx))
    else:
        sum_n = _child_pair_count(lat, n_idx, False, convention)
        sum_h = _child_pair_count(lat, h_idx, False, convention)
        ctx = dict(base_ctx, sum_n=str(sum_n), sum_h=str(sum_h))
        sd_res = _satisfied("cauchy-sd", Fraction(sum_n * sum_h, len(lat) ** 4),
                            sd(lat) ** 2, "-", ctx)
    return spd_res, sd_res


def decomposition_bound_check(lat: SubgroupLattice, n_idx: int, h_idx: int,
                              convention: str = RAW) -> BoundCheckResult:
    """2 |sn(G)| |M(G)| spd(G) >= (restricted pair count of N) + (of G/N),
    for a proper nontrivial normal N with complement H and the factor
    conditions. Claim key: lb3."""
    g = lat.group
    claim = "lb3"
    context = {"group": g.name, "n": _node_str(lat, n_idx),
               "h": _node_str(lat, h_idx)}
    reasons = []
    nm, hm = lat.masks[n_idx], lat.masks[h_idx]
    n_order = nm.bit_count()
    if not 1 < n_order < g.order:
        reasons.append("N must be nontrivial and proper")
    elif not _is_normal_node(lat, n_idx):
        reasons.append("N is not normal")
    elif (hm.bit_count() != g.order // n_order
          or not factorizes(lat, n_idx, h_idx)):
        reasons.append("H is not a complement with NH = G")
    else:
        cond = check_factor_conditions(lat, n_idx, h_idx, convention)
        if not (cond.a1 and cond.a2):
            reasons.append("factor conditions fail: " + "; ".join(cond.details))
    if reasons:
        return _not_satisfied(claim, reasons, convention, context)
    count_n = _child_pair_count(lat, n_idx, True, convention)
    quot = quotient_group(g, nm)
    quot_lat = enumerate_subgroups(quot)
    count_q = permuting_pair_count(quot_lat, subnormal_subgroups(quot_lat),
                                   maximal_subgroups(quot_lat, convention))
    count_h = _child_pair_count(lat, h_idx, True, convention)
    context["count_n"] = str(count_n)
    context["count_quotient"] = str(count_q)
    context["count_h"] = str(count_h)
    actual = Fraction(2 * permuting_pair_count(
        lat, subnormal_subgroups(lat), maximal_subgroups(lat, convention)))
    return _satisfied(claim, Fraction(count_n + count_q), actual, convention, context)


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
    """
    from .groups import fitting_subgroup  # local import to keep module DAG flat

    if reading not in ("strict", "relaxed"):
        raise ValueError("reading must be 'strict' or 'relaxed'")
    g = lat.group
    reasons = []
    if not g.is_solvable:
        reasons.append("group is not solvable")
    fit = fitting_subgroup(g)
    c_mask = g.centralizer_of_set_mask(fit.mask)
    c_idx = lat.index_of[c_mask]
    allow_rank1 = reading == "relaxed"
    shape = None
    if not reasons:
        child, _ = lat.rerooted(c_idx)
        shape = detect_rank2_shape(child, allow_rank1)
        if shape is None:
            reasons.append("centralizer of the Fitting subgroup does not have "
                           "the required abelian p-group shape")
    index = g.order // c_mask.bit_count()
    if not reasons and not is_prime(index):
        reasons.append(f"centralizer index {index} is not prime")
    if reasons:
        return CentralizerShapeCheck(g.name, False, tuple(reasons), c_idx,
                                     shape, (), None)
    part_i = tuple(
        spd_rank2_bound_check(lat, c_idx, h_idx, convention, allow_rank1)
        for h_idx in complement_candidates(lat, c_idx)
    )
    part_ii = sd_rank2_bound_check(lat, c_idx, allow_rank1)
    return CentralizerShapeCheck(g.name, True, (), c_idx, shape, part_i, part_ii)


# -- sweep drivers -----------------------------------------------------------

def sweep_rank2_bounds(lat: SubgroupLattice, convention: str = RAW,
                       allow_rank1: bool = False) -> list[BoundCheckResult]:
    """All rank-2 bound instances over normal N (and complements H for spd)."""
    out = []
    for n_idx in normal_node_indices(lat):
        if not 1 < lat.node_order(n_idx) < lat.group.order:
            continue
        out.append(sd_rank2_bound_check(lat, n_idx, allow_rank1))
        for h_idx in complement_candidates(lat, n_idx):
            out.append(spd_rank2_bound_check(lat, n_idx, h_idx, convention,
                                             allow_rank1))
    return out


def sweep_factorization_bounds(lat: SubgroupLattice,
                               convention: str = RAW) -> list[BoundCheckResult]:
    """Geometric-mean and decomposition bounds over every factorization
    G = NH with N normal (H any subgroup whose product with N is G)."""
    g = lat.group
    out = []
    for n_idx in normal_node_indices(lat):
        index = g.order // lat.node_order(n_idx)
        for h_idx in factor_partners(lat, n_idx):
            spd_res, sd_res = cauchy_bound_checks(lat, n_idx, h_idx, convention)
            out.append(spd_res)
            out.append(sd_res)
            if lat.node_order(h_idx) == index:
                out.append(decomposition_bound_check(lat, n_idx, h_idx, convention))
    return out
