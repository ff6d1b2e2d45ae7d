import collections
import dataclasses
import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permlat import bounds as B
from permlat import degrees as D
from permlat import groups as G
from permlat import lattice as L
from permlat import moebius as M
from permlat.catalog import CATALOG_SPECS
from permlat.degrees import sd, spd
from test_classwise import relabelled, row_count

GRID = [B.Rank2AbelianShape(p, a1, a2)
        for p in (2, 3) for a1 in (1, 2, 3) for a2 in (1, 2, 3)
        if a1 <= a2 and p ** (a1 + a2) <= 720]


def lat_of(spec):
    return L.enumerate_subgroups(G.make_named(spec))


def node_of_order(lat, k, skip=0):
    found = [i for i in range(len(lat)) if lat.node_order(i) == k]
    return found[skip]


class TestCountingFormulas:
    def test_rank2_examples(self):
        assert B.subgroup_count_rank2(B.Rank2AbelianShape(2, 1, 1)) == 5
        assert B.subgroup_count_rank2(B.Rank2AbelianShape(2, 1, 2)) == 8
        assert B.subgroup_count_rank2(B.Rank2AbelianShape(3, 1, 1)) == 6

    @pytest.mark.parametrize("shape", GRID, ids=str)
    def test_rank2_formula_matches_enumeration(self, shape):
        spec = f"Z:{shape.p ** shape.alpha1},{shape.p ** shape.alpha2}"
        lat = lat_of(spec)
        assert B.subgroup_count_rank2(shape) == len(lat)

    def test_rank1_degenerate_counts_divisors(self):
        # alpha1 = 0 degenerates to the cyclic chain Z_{p^a}
        for p, a in [(2, 1), (2, 3), (3, 2), (5, 1)]:
            shape = B.Rank2AbelianShape(p, 0, a)
            assert B.subgroup_count_rank2(shape) == a + 1

    def test_maximal_count_formula(self):
        assert B.maximal_count_elementary(5, 1) == 1
        assert B.maximal_count_elementary(2, 2) == 3
        assert B.maximal_count_elementary(2, 3) == 7
        assert B.maximal_count_elementary(3, 2) == 4

    def test_maximal_count_matches_raw_selection(self):
        for spec, (p, k) in [("Z:2,2", (2, 2)), ("Z:2,2,2", (2, 3)),
                             ("Z:3,3", (3, 2))]:
            raw = L.maximal_subgroups(lat_of(spec), "raw")
            assert len(raw) == B.maximal_count_elementary(p, k)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            B.Rank2AbelianShape(4, 1, 1)
        with pytest.raises(ValueError):
            B.Rank2AbelianShape(2, 2, 1)
        with pytest.raises(ValueError):
            B.Rank2AbelianShape(2, 0, 0)


class TestBoundPolynomials:
    def test_spd_numerator_forms(self):
        forms = B.spd_bound_poly(B.Rank2AbelianShape(2, 1, 1))
        assert forms.derivation == 19
        assert forms.printed == 13
        assert forms.gap == 6
        assert B.spd_bound_poly(B.Rank2AbelianShape(3, 1, 1)).derivation == 28

    @pytest.mark.parametrize("shape", GRID, ids=str)
    def test_derivation_form_identity(self, shape):
        forms = B.spd_bound_poly(shape)
        assert forms.derivation == (shape.p + 1) * B.subgroup_count_rank2(shape) + 4

    @pytest.mark.parametrize("shape", GRID, ids=str)
    def test_expansion_gap_pinned(self, shape):
        # regression pin: the printed expansion trails the derivation chain by
        # exactly (a1 + a2 + 1) p / (p - 1)^2 at every grid point
        assert B.spd_bound_poly(shape).gap == B.spd_bound_poly_gap(shape)

    def test_sd_numerator(self):
        assert B.sd_bound_poly(B.Rank2AbelianShape(2, 1, 1)).derivation == 29
        assert B.sd_bound_poly(B.Rank2AbelianShape(2, 1, 2)).derivation == 68
        assert B.sd_bound_poly(B.Rank2AbelianShape(3, 1, 1)).derivation == 40

    @pytest.mark.parametrize("shape", GRID, ids=str)
    def test_sd_numerator_forms_agree(self, shape):
        forms = B.sd_bound_poly(shape)
        assert forms.derivation == forms.printed
        assert forms.derivation == B.subgroup_count_rank2(shape) ** 2 + 4


def top_shape(spec, allow_rank1=False):
    lat = lat_of(spec)
    return B.detect_rank2_shape(lat, lat.top, allow_rank1)


class TestShapeDetection:
    def test_rank2_groups(self):
        assert top_shape("Z:2,2") == B.Rank2AbelianShape(2, 1, 1)
        assert top_shape("Z:2,4") == B.Rank2AbelianShape(2, 1, 2)
        assert top_shape("Z:9,27") == B.Rank2AbelianShape(3, 2, 3)

    def test_rank1_needs_flag(self):
        assert top_shape("C8") is None
        assert top_shape("C8", allow_rank1=True) == B.Rank2AbelianShape(2, 0, 3)

    def test_rejections(self):
        assert top_shape("C1") is None
        assert top_shape("S3") is None
        assert top_shape("Z:2,2,2") is None
        assert top_shape("C12", allow_rank1=True) is None


def shape_oracle(g, allow_rank1):
    """Test-local oracle: the shape read element by element off ``g`` as a
    standalone group, from its table, its element orders and its exponent
    (the lcm of the orders)."""
    if g.order == 1 or not g.is_abelian:
        return None
    sig = G.prime_signature(g.order)
    if len(sig.factors) != 1:
        return None
    p, k = sig.factors[0]
    pcount = sum(1 for o in g.element_orders if o in (1, p))
    if pcount == p ** 2:
        a2 = G.prime_signature(math.lcm(*g.element_orders)).factors[0][1]
        return B.Rank2AbelianShape(p, k - a2, a2)
    if pcount == p and allow_rank1:
        return B.Rank2AbelianShape(p, 0, k)
    return None


def check_shape_reads_against_oracle(lat):
    """Every node, normal or not, read off the lattice against the oracle
    on the node as a standalone group."""
    for i in range(len(lat)):
        sub = G.subgroup_group(lat.group, lat.masks[i])
        assert B._is_abelian(lat, i) is sub.is_abelian, i
        for rank1 in (False, True):
            assert B.detect_rank2_shape(lat, i, rank1) == shape_oracle(sub, rank1), (i, rank1)


@pytest.mark.parametrize("spec", ["S4", "D4xS3", "Q8xS3", "Z:4,4", "Z:2,2,2xC3", "Z:9,3"])
def test_shape_reads_match_element_oracle_on_every_node(spec):
    check_shape_reads_against_oracle(lat_of(spec))


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_relabelled_shape_reads_match_element_oracle_on_every_node(data):
    check_shape_reads_against_oracle(
        L.enumerate_subgroups(relabelled(G.make_named("S4"), data)))


class TestFactorConditions:
    def test_s3_conditions_fail(self):
        lat = lat_of("S3")
        a3 = node_of_order(lat, 3)
        b = node_of_order(lat, 2)
        cond = B.check_factor_conditions(lat, a3, b, "raw")
        assert not cond.a1  # the order-2 factor is not subnormal upstairs
        assert any("sn(H)" in d for d in cond.details)

    def test_a4_conditions_fail_for_order3_factor(self):
        lat = lat_of("A4")
        v4 = node_of_order(lat, 4)
        c3 = node_of_order(lat, 3)
        cond = B.check_factor_conditions(lat, v4, c3, "raw")
        assert not cond.a1

    def test_elementary_abelian_m_inclusion_fails_both_conventions(self):
        # a complement of order 2 in Z2^3 is too small to be maximal, so the
        # maximal-set inclusion of condition a1 fails under both conventions
        lat = lat_of("Z:2,2,2")
        g = lat.group
        n_idx = node_of_order(lat, 4)
        nm = lat.masks[n_idx]
        h_idx = next(i for i in range(len(lat))
                     if lat.node_order(i) == 2
                     and g.product_mask(nm, lat.masks[i]) == g.full_mask)
        for conv in ("raw", "closed"):
            cond = B.check_factor_conditions(lat, n_idx, h_idx, conv)
            assert not cond.a1, conv
            assert not cond.a2, conv

    def test_elementary_abelian_rank2_qualifies_closed(self):
        # inside Z3 x Z3 the order-3 factors are maximal and the Frattini
        # subgroup is trivial, so the closed convention satisfies both
        lat = lat_of("Z:3,3")
        g = lat.group
        n_idx = node_of_order(lat, 3)
        h_idx = next(i for i in range(len(lat))
                     if lat.node_order(i) == 3 and i != n_idx
                     and g.product_mask(lat.masks[n_idx], lat.masks[i])
                     == g.full_mask)
        cond = B.check_factor_conditions(lat, n_idx, h_idx, "closed")
        assert cond.a1 and cond.a2
        cond_raw = B.check_factor_conditions(lat, n_idx, h_idx, "raw")
        assert not (cond_raw.a1 or cond_raw.a2)

    def test_misuse_raises(self):
        lat = lat_of("S3")
        b1 = node_of_order(lat, 2)
        b2 = node_of_order(lat, 2, skip=1)
        with pytest.raises(ValueError):
            B.check_factor_conditions(lat, b1, b2, "raw")  # N not normal
        a3 = node_of_order(lat, 3)
        with pytest.raises(ValueError):
            B.check_factor_conditions(lat, a3, lat.bottom, "raw")  # NH != G


class TestRank2BoundChecks:
    def test_lemma2_a4(self):
        lat = lat_of("A4")
        res = B.sd_rank2_bound_check(lat, node_of_order(lat, 4))
        assert res.hypothesis_satisfied
        assert res.bound == Fraction(29, 200)
        assert res.actual == Fraction(16, 25)
        assert res.holds and res.slack == Fraction(16, 25) - Fraction(29, 200)

    def test_lemma2_d4(self):
        lat = lat_of("D4")
        strict = [B.sd_rank2_bound_check(lat, i)
                  for i in range(len(lat)) if lat.node_order(i) == 4]
        satisfied = [r for r in strict if r.hypothesis_satisfied]
        assert len(satisfied) == 2  # the two Klein subgroups
        for r in satisfied:
            assert r.bound == Fraction(29, 200) and r.holds
        relaxed = [B.sd_rank2_bound_check(lat, i, allow_rank1=True)
                   for i in range(len(lat)) if lat.node_order(i) == 4]
        assert sum(r.hypothesis_satisfied for r in relaxed) == 3  # C4 joins in

    def test_lemma2_gates(self):
        lat = lat_of("A4")
        res = B.sd_rank2_bound_check(lat, node_of_order(lat, 3))
        assert not res.hypothesis_satisfied  # order-3 nodes are not normal
        res = B.sd_rank2_bound_check(lat, lat.top)
        assert not res.hypothesis_satisfied  # index 1 is not prime

    def test_lemma1_qualifies_on_z3_squared_closed(self):
        lat = lat_of("Z:3,3")
        g = lat.group
        n_idx = node_of_order(lat, 3)
        h_idx = next(i for i in range(len(lat))
                     if lat.node_order(i) == 3 and i != n_idx
                     and g.product_mask(lat.masks[n_idx], lat.masks[i])
                     == g.full_mask)
        res = B.spd_rank2_bound_check(lat, n_idx, h_idx, "closed",
                                      allow_rank1=True)
        assert res.hypothesis_satisfied
        assert res.bound == Fraction(1, 6) and res.actual == 1 and res.holds
        strict = B.spd_rank2_bound_check(lat, n_idx, h_idx, "closed",
                                         allow_rank1=False)
        assert not strict.hypothesis_satisfied

    def test_lemma1_hypothesis_failing_reported(self):
        lat = lat_of("A4")
        res = B.spd_rank2_bound_check(lat, node_of_order(lat, 4),
                                      node_of_order(lat, 3), "raw")
        assert not res.hypothesis_satisfied
        assert res.bound is None and res.holds is None
        assert any("a1" in r for r in res.reasons)

    def test_cor26_instances(self):
        ls3 = lat_of("S3")
        res = B.abelian_prime_index_sd_check(ls3, node_of_order(ls3, 3))
        assert res.actual == 30 and res.bound == 9 and res.holds
        la4 = lat_of("A4")
        res = B.abelian_prime_index_sd_check(la4, node_of_order(la4, 4))
        assert res.actual == 64 and res.bound == 36 and res.holds

    def test_cor26_cyclic_equality_side(self):
        lat = lat_of("C6")
        n_idx = node_of_order(lat, 3)
        res = B.abelian_prime_index_sd_check(lat, n_idx)
        assert res.hypothesis_satisfied
        assert res.actual == len(lat) ** 2  # sd = 1 for a cyclic group
        assert res.holds

    def test_cor26_gates(self):
        lat = lat_of("S4")
        res = B.abelian_prime_index_sd_check(lat, node_of_order(lat, 12))
        assert not res.hypothesis_satisfied  # A4 is not abelian


class TestCauchyAndDecomposition:
    def test_cauchy_sd_s3_instance(self):
        lat = lat_of("S3")
        spd_res, sd_res = B.cauchy_bound_checks(
            lat, node_of_order(lat, 3), node_of_order(lat, 2), "raw")
        assert sd_res.hypothesis_satisfied
        assert sd_res.bound == Fraction(1, 81)      # (1/9)^2
        assert sd_res.actual == Fraction(25, 36)    # (5/6)^2
        assert sd_res.holds
        assert not spd_res.hypothesis_satisfied     # factor conditions fail

    def test_cauchy_sd_trivial_n(self):
        lat = lat_of("S3")
        _, sd_res = B.cauchy_bound_checks(lat, lat.bottom, lat.top, "raw")
        assert sd_res.hypothesis_satisfied
        assert sd_res.holds  # degenerate bound sqrt(sum_G)/|L|^2

    def test_cauchy_spd_qualifies_z3_squared_closed(self):
        lat = lat_of("Z:3,3")
        g = lat.group
        n_idx = node_of_order(lat, 3)
        h_idx = next(i for i in range(len(lat))
                     if lat.node_order(i) == 3 and i != n_idx
                     and g.product_mask(lat.masks[n_idx], lat.masks[i])
                     == g.full_mask)
        spd_res, sd_res = B.cauchy_bound_checks(lat, n_idx, h_idx, "closed")
        assert spd_res.hypothesis_satisfied and spd_res.holds
        assert sd_res.hypothesis_satisfied and sd_res.holds

    def test_decomposition_bound_z3_squared_closed(self):
        lat = lat_of("Z:3,3")
        g = lat.group
        n_idx = node_of_order(lat, 3)
        h_idx = next(i for i in range(len(lat))
                     if lat.node_order(i) == 3 and i != n_idx
                     and g.product_mask(lat.masks[n_idx], lat.masks[i])
                     == g.full_mask)
        res = B.decomposition_bound_check(lat, n_idx, h_idx, "closed")
        assert res.hypothesis_satisfied and res.holds
        # the complement is isomorphic to the quotient, so both restricted
        # counts agree
        assert res.context["count_h"] == res.context["count_quotient"]

    def test_decomposition_gates(self):
        lat = lat_of("S3")
        res = B.decomposition_bound_check(lat, node_of_order(lat, 3),
                                          node_of_order(lat, 2), "raw")
        assert not res.hypothesis_satisfied

    @pytest.mark.parametrize("spec", ["S3", "A4", "D4", "D6", "S4", "Z:3,3",
                                      "Z:2,2,2", "S3xC5", "A4xC5"])
    @pytest.mark.parametrize("conv", ["raw", "closed"])
    def test_factorization_sweeps_sound(self, spec, conv):
        lat = lat_of(spec)
        for res in B.sweep_factorization_bounds(lat, conv):
            if res.hypothesis_satisfied:
                assert res.holds, (spec, conv, res.claim, res.context)
            else:
                assert res.bound is None and res.holds is None

    @pytest.mark.parametrize("conv", ["raw", "closed"])
    @pytest.mark.parametrize("rank1", [False, True])
    def test_rank2_sweeps_sound(self, conv, rank1):
        for spec in ["S3", "A4", "D4", "Q8", "C12", "Z:2,4", "Z:3,3",
                     "Z:2,2,2", "D6", "S4"]:
            lat = lat_of(spec)
            for res in B.sweep_rank2_bounds(lat, conv, rank1):
                if res.hypothesis_satisfied:
                    assert res.holds, (spec, conv, rank1, res.context)


class TestFittingCentralizerCheck:
    def test_a4_strict_qualifies(self):
        lat = lat_of("A4")
        check = B.fitting_centralizer_check(lat, "raw", "strict")
        assert check.hypotheses
        assert check.shape == B.Rank2AbelianShape(2, 1, 1)
        assert check.part_ii.hypothesis_satisfied and check.part_ii.holds
        assert check.part_ii.bound == Fraction(29, 200)
        # every order-3 complement fails the factor conditions
        assert len(check.part_i) == 4
        assert all(not r.hypothesis_satisfied for r in check.part_i)

    def test_s3_strict_vs_relaxed(self):
        lat = lat_of("S3")
        strict = B.fitting_centralizer_check(lat, "raw", "strict")
        assert not strict.hypotheses
        relaxed = B.fitting_centralizer_check(lat, "raw", "relaxed")
        assert relaxed.hypotheses
        assert relaxed.shape == B.Rank2AbelianShape(3, 0, 1)
        assert relaxed.part_ii.bound == Fraction(1, 9)
        assert relaxed.part_ii.actual == Fraction(5, 6)
        assert relaxed.part_ii.holds

    def test_s4_fails_on_index(self):
        check = B.fitting_centralizer_check(lat_of("S4"), "raw", "relaxed")
        assert not check.hypotheses
        assert any("not prime" in r for r in check.reasons)

    def test_a5_fails_on_solvability(self):
        lat = L.enumerate_subgroups(G.make_named("A5"))
        check = B.fitting_centralizer_check(lat, "raw", "relaxed")
        assert not check.hypotheses
        assert any("solvable" in r for r in check.reasons)

    def test_nilpotent_group_fails_on_index_one(self):
        check = B.fitting_centralizer_check(lat_of("Z:2,4"), "raw", "strict")
        assert not check.hypotheses  # centralizer is the whole group

    def test_bad_reading(self):
        with pytest.raises(ValueError):
            B.fitting_centralizer_check(lat_of("S3"), "raw", "loose")


class TestBoundResultInvariants:
    def test_holds_iff_nonnegative_slack(self):
        lats = [lat_of(s) for s in ["S3", "A4", "Z:3,3", "D4"]]
        for lat in lats:
            for conv in ("raw", "closed"):
                results = B.sweep_factorization_bounds(lat, conv) + \
                    B.sweep_rank2_bounds(lat, conv, True)
                for res in results:
                    if res.hypothesis_satisfied:
                        assert res.holds == (res.slack >= 0)
                        assert res.holds == (res.actual >= res.bound)
                    else:
                        assert res.reasons


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_factorizes_matches_product_set(spec):
    lat = lat_of(spec)
    g = lat.group
    for n_idx in L.normal_subgroups(lat).members:
        for h_idx in range(len(lat)):
            nm, hm = lat.masks[n_idx], lat.masks[h_idx]
            expected = g.product_mask(nm, hm) == g.full_mask
            assert B.factorizes(lat, n_idx, h_idx) is expected, (n_idx, h_idx)


@functools.cache
def enumerated_child_masks(lat, idx, convention):
    """(subnormal, maximal) subgroups of node ``idx``, from a lattice of the
    node enumerated from scratch, as element masks of the parent group."""
    elems = list(G._bits(lat.masks[idx]))
    child = L.enumerate_subgroups(G.subgroup_group(lat.group, lat.masks[idx]))

    def lift(sel):
        return {sum(1 << elems[b] for b in G._bits(child.masks[i]))
                for i in sel.members}

    return (lift(L.subnormal_subgroups(child)),
            lift(L.maximal_subgroups(child, convention)))


def factor_conditions_by_mask_sets(lat, n_idx, h_idx, convention):
    """Oracle: the inclusions compared as sets of element masks, each child
    lattice enumerated on its own, violators taken in mask order."""
    sn_g = {lat.masks[i] for i in L.subnormal_subgroups(lat).members}
    mx_g = {lat.masks[i] for i in L.maximal_subgroups(lat, convention).members}
    details = []

    def child_masks(idx):
        return enumerated_child_masks(lat, idx, convention)

    def included(masks, target, label):
        for m in sorted(masks):
            if m not in target:
                details.append(f"{label}: subgroup of order {m.bit_count()} "
                               "is not in the ambient selection")
                return False
        return True

    sn_h, mx_h = child_masks(h_idx)
    sn_n, mx_n = child_masks(n_idx)
    a1 = included(sn_h, sn_g, "sn(H) in sn(G)") & included(mx_h, mx_g, "M(H) in M(G)")
    a2 = included(sn_n, sn_g, "sn(N) in sn(G)") & included(mx_n, mx_g, "M(N) in M(G)")
    return B.FactorConditions(a1, a2, tuple(details))


@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + ["D4xS3", "S4xC2"])
def test_factor_conditions_match_mask_set_oracle(spec):
    lat = lat_of(spec)
    for n_idx in L.normal_subgroups(lat).members:
        if lat.node_order(n_idx) == 1:
            continue
        for h_idx in G._bits(B.factor_partners(lat, n_idx)):
            if lat.node_order(h_idx) == 1:
                continue
            for conv in L.CONVENTIONS:
                assert (B.check_factor_conditions(lat, n_idx, h_idx, conv)
                        == factor_conditions_by_mask_sets(lat, n_idx, h_idx, conv)), \
                    (n_idx, h_idx, conv)


def test_bound_driver_computes_per_lattice_values_once(monkeypatch):
    fitting_calls = []
    count_calls = collections.Counter()
    counted = []  # keeps every counted lattice alive, so ids stay distinct
    real_fitting, real_count = G.fitting_subgroup, D.inside_count

    def fitting(g):
        fitting_calls.append(g.name)
        return real_fitting(g)

    def count(lat, idx, s_of, t_of):
        # a count is named by its lattice, the class of its node and the
        # two node masks it pairs at that node
        counted.append(lat)
        count_calls[id(lat), lat.class_of[idx], s_of(idx), t_of(idx)] += 1
        return real_count(lat, idx, s_of, t_of)

    monkeypatch.setattr(G, "fitting_subgroup", fitting)
    monkeypatch.setattr(D, "inside_count", count)
    lat = lat_of("D4xS3")
    results = B.bound_results(lat, "all", "raw", "strict")
    assert {r.claim for r in results} >= {"cauchy-sd", "lb3", "theorem1", "mu-bound"}
    # Fit(G) is read off the lattice, not assembled from closures
    assert fitting_calls == []
    # G's counts are the top node's, and every count, of G and of each
    # node class, is computed once and only on the parent
    assert {key[0] for key in count_calls} == {id(lat)}
    assert set(count_calls.values()) == {1}
    top, full = lat.top, lat.all_nodes_mask
    sn_g = L.subnormal_subgroups(lat).members_mask
    mx_g = L.maximal_subgroups(lat, "raw").members_mask
    assert (id(lat), top, full, full) in count_calls
    assert (id(lat), top, sn_g, mx_g) in count_calls
    assert len({key[1] for key in count_calls}) > 1


def test_theorem1_is_decided_once_per_lattice(monkeypatch):
    """The mu claim reads theorem1's decision from the lattice's memo. On A4,
    N = C_G(Fit(G)) = V4 has four complements, so one run of every claim
    makes 5 rank-2 spd checks: lemma1's one decision and theorem1's four
    part_i instances (9 when mu decided theorem1 again). Both run the
    checker's body, past the argument checks of ``spd_rank2_bound_check``."""
    calls = []
    real_check = B._lemma1

    def check(lat, n_idx, h_idx, *args):
        calls.append((n_idx, h_idx))
        return real_check(lat, n_idx, h_idx, *args)

    monkeypatch.setattr(B, "_lemma1", check)
    lat = lat_of("A4")
    B.bound_results(lat, "all", "raw", "strict")
    assert len(calls) == 5
    theorem1 = B.fitting_centralizer_check(lat, "raw", "strict")
    assert theorem1.hypotheses and len(theorem1.part_i) == 4
    assert (B.bound_results(lat, "theorem1", "raw", "strict")
            == [*theorem1.part_i, theorem1.part_ii])
    assert len(calls) == 5
    fresh = lat_of("A4")
    for conv in L.CONVENTIONS:
        for reading in B.READINGS:
            assert (B.fitting_centralizer_check(lat, conv, reading)
                    == B.fitting_centralizer_check(fresh, conv, reading))


@pytest.mark.parametrize("spec", ["S5", "S4xS3", "S6"])
def test_bound_driver_builds_no_child_lattice_and_only_representative_rows(
        spec, monkeypatch):
    """sn(X) comes from the parent's normalizer intervals and the pair
    counts inside X from class-wise double counting, so the driver re-roots
    no node and reads no permutability row outside the class
    representatives."""
    chi_calls, rerooted_calls = [], []
    real_chi = L.SubgroupLattice.chi_rows

    def chi_rows(self):
        chi_calls.append(self)
        return real_chi(self)

    monkeypatch.setattr(L.SubgroupLattice, "chi_rows", chi_rows)
    monkeypatch.setattr(L.SubgroupLattice, "rerooted",
                        lambda self, i: rerooted_calls.append(i))
    lat = lat_of(spec)
    for conv in L.CONVENTIONS:
        for reading in ("strict", "relaxed"):
            B.bound_results(lat, "all", conv, reading)
    assert chi_calls and all(c is lat for c in chi_calls)
    assert rerooted_calls == []
    assert set(lat.chi_rows()) == set(lat.class_masks)


@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + ["D4xS3", "S4xS3", "S6"])
def test_classwise_inside_counts_match_row_counts(spec):
    lat = lat_of(spec)
    reps = list(lat.class_masks)
    counts = {(r, conv): (D.node_all_pairs(lat, r),
                          D.node_restricted_pairs(lat, r, conv) if r else None)
              for r in reps for conv in L.CONVENTIONS}
    assert set(lat.chi_rows()) == set(reps)
    for (r, conv), (all_pairs, restricted) in counts.items():
        below = lat.down_masks[r]
        assert all_pairs == row_count(lat, below, below), r
        if r:
            assert restricted == row_count(
                lat, L.node_subnormal(lat, r), L.node_maximal(lat, r, conv)), (r, conv)


@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + ["D4xS3", "S4xC3", "S4xS3"])
def test_shape_reads_match_rerooted_child(spec):
    """The checkers read N's shape off G's lattice and cor26's |L(N)| off
    the interval [1, N]; the re-rooted child is the oracle."""
    lat = lat_of(spec)
    for n in L.normal_subgroups(lat).members:
        child_group, child = lat.rerooted(n)
        for rank1 in (False, True):
            assert (B.detect_rank2_shape(lat, n, rank1)
                    == shape_oracle(child_group, rank1)), (n, rank1)
        res = B.abelian_prime_index_sd_check(lat, n)
        assert res.hypothesis_satisfied is (
            child_group.is_abelian and G.is_prime(lat.group.order // child_group.order))
        if res.hypothesis_satisfied:
            assert res.context["lattice_of_n"] == str(len(child))


@pytest.mark.parametrize("spec", ["D4xS3", "S4xC3"])
def test_bound_driver_builds_no_group(spec, monkeypatch):
    """N's shape is read off G's lattice, so no node becomes a group."""
    lat = lat_of(spec)
    inits = []
    real_init = G.FiniteGroup.__init__

    def init(self, *args, **kwargs):
        inits.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(G.FiniteGroup, "__init__", init)
    for conv in L.CONVENTIONS:
        for reading in ("strict", "relaxed"):
            B.bound_results(lat, "all", conv, reading)
    assert inits == []


ORACLE_SPECS = list(CATALOG_SPECS) + ["D4xS3", "S4xC2", "Q8xS3"]


@pytest.mark.parametrize("spec", ORACLE_SPECS + ["S4xS3", "S5xC2", "S6"])
def test_lattice_read_node_values_match_rerooted_child(spec):
    lat = lat_of(spec)
    # the pair counts of every child are compared on the smaller groups only
    counts = spec in ORACLE_SPECS
    for i in range(1, len(lat)):
        child_group, child = lat.rerooted(i)
        below = list(G._bits(lat.down_masks[i]))

        def lift(sel):
            return sum(1 << below[j] for j in sel.members)

        assert L.node_subnormal(lat, i) == lift(L.subnormal_subgroups(child))
        if not counts:
            continue
        assert D.node_all_pairs(lat, i) == D.all_pair_count(child)
        for conv in L.CONVENTIONS:
            assert L.node_maximal(lat, i, conv) == lift(L.maximal_subgroups(child, conv))
            assert (D.node_restricted_pairs(lat, i, conv)
                    == D.restricted_pair_count(child, conv)), (i, conv)


@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + [
    "D4xS3", "S4xC2", "Q8xS3", "S4xC3", "S3xS3", "S4xS3", "A4xA4"])
def test_lattice_fitting_matches_closure_oracle(spec):
    lat = lat_of(spec)
    assert lat.masks[B.fitting_node(lat)] == G.fitting_subgroup(lat.group)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_quotient_pairs_match_enumerated_quotient(spec):
    lat = lat_of(spec)
    g = lat.group
    for n in L.normal_subgroups(lat).members:
        if lat.node_order(n) == g.order:
            continue
        quotient = L.enumerate_subgroups(G.quotient_group(g, lat.masks[n]))
        for conv in L.CONVENTIONS:
            assert (B.quotient_restricted_pairs(lat, n, conv)
                    == D.restricted_pair_count(quotient, conv)), (n, conv)


def test_lb3_count_quotient_matches_enumerated_quotient():
    satisfied = 0
    for spec in CATALOG_SPECS:
        lat = lat_of(spec)
        for n in L.normal_subgroups(lat).members:
            for h in G._bits(B.complement_candidates(lat, n)):
                for conv in L.CONVENTIONS:
                    res = B.decomposition_bound_check(lat, n, h, conv)
                    if not res.hypothesis_satisfied:
                        continue
                    satisfied += 1
                    quotient = L.enumerate_subgroups(
                        G.quotient_group(lat.group, lat.masks[n]))
                    assert res.context["count_quotient"] == \
                        str(D.restricted_pair_count(quotient, conv))
    assert satisfied == 18


def test_bound_driver_rejects_unknown_claims_and_readings():
    lat = lat_of("S3")
    with pytest.raises(ValueError):
        B.bound_results(lat, "lemma3")
    with pytest.raises(ValueError):
        B.bound_results(lat, "lemma1", reading="loose")


@pytest.mark.parametrize("claim", ["lemma2", "all"])
def test_bound_driver_rejects_unknown_conventions(claim):
    # lemma2 reads no convention, and "all" used to fail only inside M(X)
    lat = lat_of("S4")
    with pytest.raises(ValueError, match="convention 'bogus'"):
        B.bound_results(lat, claim, "bogus")
    with pytest.raises(ValueError, match="convention 'bogus'"):
        B.iter_bound_results(lat, claim, "bogus")


# each public checker on L(S3) (nodes 0..5; node 3 is an order-2 node, 4
# is A3), with the driver's refusal for a bad convention or node index
BAD_CHECKER_CALLS = {
    "cauchy-convention": (lambda lat: B.cauchy_bound_checks(lat, 0, 5, "bogus"),
                          "unknown convention 'bogus'"),
    "lb3-convention": (lambda lat: B.decomposition_bound_check(lat, 3, 1, "bogus"),
                       "unknown convention 'bogus'"),
    "lemma1-convention": (lambda lat: B.spd_rank2_bound_check(lat, 3, 1, "bogus"),
                          "unknown convention 'bogus'"),
    "theorem1-convention": (lambda lat: B.fitting_centralizer_check(lat, "bogus"),
                            "unknown convention 'bogus'"),
    "theorem1-reading": (lambda lat: B.fitting_centralizer_check(lat, "raw", "loose"),
                         "unknown reading 'loose'"),
    "mu-convention": (lambda lat: M.mu_matching_bound_check(lat, "bogus"),
                      "unknown convention 'bogus'"),
    "quotient-convention": (lambda lat: B.quotient_restricted_pairs(lat, 3, "bogus"),
                            "unknown convention 'bogus'"),
    "conditions-convention": (lambda lat: B.check_factor_conditions(lat, 4, 1, "bogus"),
                              "unknown convention 'bogus'"),
    "cauchy-n": (lambda lat: B.cauchy_bound_checks(lat, 99, 5),
                 r"node index 99 out of range \(0..5\)"),
    "cauchy-h": (lambda lat: B.cauchy_bound_checks(lat, 4, 6),
                 r"node index 6 out of range \(0..5\)"),
    "lb3-h": (lambda lat: B.decomposition_bound_check(lat, 4, -1),
              "node index -1 out of range"),
    "lemma1-n": (lambda lat: B.spd_rank2_bound_check(lat, 99, 1),
                 "node index 99 out of range"),
    "lemma2-n": (lambda lat: B.sd_rank2_bound_check(lat, 99),
                 r"node index 99 out of range \(0..5\)"),
    "cor26-n": (lambda lat: B.abelian_prime_index_sd_check(lat, -1),
                "node index -1 out of range"),
    "quotient-n": (lambda lat: B.quotient_restricted_pairs(lat, 6),
                   "node index 6 out of range"),
    "conditions-h": (lambda lat: B.check_factor_conditions(lat, 4, 99),
                     "node index 99 out of range"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKER_CALLS))
def test_public_checkers_refuse_bad_conventions_and_nodes(case):
    call, message = BAD_CHECKER_CALLS[case]
    with pytest.raises(ValueError, match=message):
        call(lat_of("S3"))


def test_instance_count_rejects_unknown_claims():
    with pytest.raises(ValueError, match="unknown claim 'bogus'"):
        B.factorization_instance_count(lat_of("S4"), "bogus")


def test_degrees_and_bounds_keep_no_maximal_or_fitting_memo():
    # M(X) is a read of the lattice and Fit(G) is read once, inside the
    # memo of its centralizer, so neither is kept
    lat = lat_of("D4xS3")
    D.build_degree_report(lat)
    for conv in L.CONVENTIONS:
        B.sweep_factorization_bounds(lat, conv)
        for rank1 in (False, True):
            B.sweep_rank2_bounds(lat, conv, rank1)
        B.fitting_centralizer_check(lat, conv, "strict")
        M.mu_matching_bound_check(lat, conv, "strict")
    assert "fit-centralizer" in lat._memo
    assert "fitting" not in lat._memo
    assert not [key for key in lat._memo
                if isinstance(key, tuple) and key[0] == "maximal-of"]


# -- decisions once per profile of H, stamped with each H's label ----------

def direct_results(lat, claim, convention, reading, n_node=None, h_node=None):
    """Oracle for ``bound_results``: the same instances in the same order,
    with every checker called directly on its own (N, H)."""
    from permlat.moebius import mu_matching_bound_check

    rank1 = reading == "relaxed"
    g = lat.group
    normal = L.normal_subgroups(lat).members

    def ns(every):
        if n_node is not None:
            return [n_node]
        return [n for n in normal if every or 1 < lat.node_order(n) < g.order]

    def hs(n, partners):
        return [h_node] if h_node is not None else list(G._bits(partners(lat, n)))

    out = []
    if claim in ("all", "lemma1"):
        out += [B.spd_rank2_bound_check(lat, n, h, convention, rank1)
                for n in ns(False) for h in hs(n, B.complement_candidates)]
    if claim in ("all", "lemma2"):
        out += [B.sd_rank2_bound_check(lat, n, rank1) for n in ns(False)]
    if claim in ("all", "cor26"):
        out += [B.abelian_prime_index_sd_check(lat, n) for n in ns(False)]
    if claim in ("all", "cauchy"):
        for n in ns(True):
            for h in hs(n, B.factor_partners):
                out += B.cauchy_bound_checks(lat, n, h, convention)
    if claim in ("all", "lb3"):
        out += [B.decomposition_bound_check(lat, n, h, convention)
                for n in ns(True) for h in hs(n, B.complement_candidates)]
    if claim in ("all", "theorem1"):
        check = B.fitting_centralizer_check(lat, convention, reading)
        if check.hypotheses:
            out += (*check.part_i, check.part_ii)
        else:
            out.append(B._not_satisfied("theorem1", check.reasons, convention,
                                        {"group": g.name}))
    if claim in ("all", "mu"):
        out.append(mu_matching_bound_check(lat, convention, reading))
    return out


# the order in which claim "all" lists the claims' results
DRIVER_ORDER = ("lemma1", "lemma2", "cor26", "cauchy", "lb3", "theorem1", "mu")


def check_driver_against_direct_calls(lat, n_node=None, h_node=None):
    """Every claim alone and then all of them, under both conventions and
    both readings: equal to the direct checker calls in every field."""
    for conv in L.CONVENTIONS:
        for reading in ("strict", "relaxed"):
            expected = {c: direct_results(lat, c, conv, reading, n_node, h_node)
                        for c in DRIVER_ORDER}
            expected["all"] = [r for c in DRIVER_ORDER for r in expected[c]]
            for c in DRIVER_ORDER + ("all",):
                got = B.bound_results(lat, c, conv, reading, n_node, h_node)
                assert got == expected[c], (c, conv, reading)
                # each result has a context of its own
                assert len({id(r.context) for r in got}) == len(got)


# the abelian groups are those where one cauchy decision covers the most N
@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + [
    "D4xS3", "Q8xS3", "S4xC2", "S4xC3", "S4xS3", "S5xC2",
    "Z:2,2,2,2", "Z:4,4", "Z:2,2,2xC3"])
def test_bound_driver_matches_direct_checker_calls(spec):
    check_driver_against_direct_calls(lat_of(spec))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["S3", "A4", "D4", "D6", "S4", "Z:2,2,2", "S3xC5", "Z:4,4"]),
       st.data())
def test_relabelled_bound_driver_matches_direct_checker_calls(spec, data):
    check_driver_against_direct_calls(
        L.enumerate_subgroups(relabelled(G.make_named(spec), data)))


@pytest.mark.parametrize("spec", ["S4", "D4xS3"])
def test_bound_driver_matches_direct_calls_on_chosen_nodes(spec):
    lat = lat_of(spec)
    normal = L.normal_subgroups(lat)
    non_normal = next(i for i in range(len(lat)) if i not in normal)
    proper = next(n for n in normal.members if 1 < lat.node_order(n) < lat.group.order)
    apart = next(h for h in range(len(lat)) if not B.factorizes(lat, proper, h))
    partner = B.factor_partners(lat, proper).bit_length() - 1
    for n, h in [(non_normal, partner), (proper, apart), (proper, partner),
                 (non_normal, lat.bottom)]:
        check_driver_against_direct_calls(lat, n, h)


@pytest.mark.parametrize("spec", ["D4", "Z:2,2,2", "S3xC2"])
def test_bound_driver_matches_direct_calls_on_every_pair_of_nodes(spec):
    """Every (N, H) through one lattice, so a decision made at one pair is
    offered to every later pair with the same key: non-normal N beside
    normal N of the same profile (D4's reflections and centre), and H with
    NH != G beside partners of the same profile."""
    lat = lat_of(spec)
    for conv in L.CONVENTIONS:
        for reading in ("strict", "relaxed"):
            for claim in ("lemma1", "cauchy", "lb3"):
                for n in range(len(lat)):
                    for h in range(len(lat)):
                        assert (B.bound_results(lat, claim, conv, reading, n, h)
                                == direct_results(lat, claim, conv, reading, n, h)), \
                            (claim, conv, reading, n, h)


@pytest.mark.parametrize("spec", ["S5", "S4xC3", "S4xS3", "S5xC2"])
def test_results_are_not_class_invariant(spec):
    """Conjugate complements of one normal N can get different results
    beyond the h label: the factor-condition reasons name the violator with
    the smallest element mask, whose order can differ within a class. So a
    decision is shared by the profile of H, not by its class."""
    lat = lat_of(spec)

    def unlabelled(r):
        return dataclasses.replace(r, context=dict(r.context, h=None))

    for n in L.normal_subgroups(lat).members:
        seen = {}
        for h in G._bits(B.factor_partners(lat, n)):
            for r in B.cauchy_bound_checks(lat, n, h, "raw"):
                first = seen.setdefault((lat.class_of[h], r.claim), unlabelled(r))
                if unlabelled(r) != first:
                    return
    pytest.fail("every class of H gave one result")


# runs of each checker body inside ``bound_results`` and the instances of
# each result, per convention with raw run first: (runs under the strict
# reading, runs under the relaxed reading after it, instances). No key holds
# the reading, so a relaxed run decides only the lemma1 keys it adds (here
# one new failure reason of the gate); the cauchy-sd key holds no
# convention, so the closed run decides none
DECISIONS = {
    "D4xS3": {
        "raw": {"lemma1": (2, 1, 229), "cauchy-spd": (51, 0, 1074),
                "cauchy-sd": (172, 0, 1074), "lb3": (31, 0, 231)},
        "closed": {"lemma1": (2, 1, 229), "cauchy-spd": (40, 0, 1074),
                   "cauchy-sd": (0, 0, 1074), "lb3": (30, 0, 231)}},
    "Z:2,2,2,2": {
        "raw": {"lemma1": (2, 1, 800), "cauchy-spd": (15, 0, 1983),
                "cauchy-sd": (15, 0, 1983), "lb3": (67, 0, 802)},
        "closed": {"lemma1": (2, 1, 800), "cauchy-spd": (11, 0, 1983),
                   "cauchy-sd": (0, 0, 1983), "lb3": (67, 0, 802)}},
}
# the checker body behind each result
BODIES = {"lemma1": "_lemma1", "cauchy-spd": "_cauchy_spd", "cauchy-sd": "_cauchy_sd",
          "lb3": "_lb3"}


def counted_bodies(monkeypatch):
    runs = collections.Counter()
    for half, name in BODIES.items():
        real = getattr(B, name)

        def counted(*args, _real=real, _half=half):
            runs[_half] += 1
            return _real(*args)

        monkeypatch.setattr(B, name, counted)
    return runs


@pytest.mark.parametrize("spec", sorted(DECISIONS))
def test_bound_driver_decides_once_per_profile_of_h(spec, monkeypatch):
    runs = counted_bodies(monkeypatch)
    lat = lat_of(spec)
    # every N the driver visits is normal, and NH = G for its partners, so
    # each cauchy half runs once per pair of the values it reads off N and H
    pairs = [(n, h) for n in L.normal_subgroups(lat).members
             for h in G._bits(B.factor_partners(lat, n))]
    assert DECISIONS[spec]["raw"]["cauchy-sd"][0] == len(
        {(D.node_all_pairs(lat, n), D.node_all_pairs(lat, h)) for n, h in pairs})
    for conv in L.CONVENTIONS:
        sides = {(B._factor_profile(lat, n, conv)[2:], B._factor_profile(lat, h, conv)[2:])
                 for n, h in pairs}
        assert DECISIONS[spec][conv]["cauchy-spd"][0] == len(sides)
        for column, reading in enumerate(("strict", "relaxed")):
            for claim, halves in (("lemma1", ["lemma1"]),
                                  ("cauchy", ["cauchy-spd", "cauchy-sd"]),
                                  ("lb3", ["lb3"])):
                runs.clear()
                results = B.bound_results(lat, claim, conv, reading)
                for half in halves:
                    want = DECISIONS[spec][conv][half]
                    got = runs[half], sum(r.claim == half for r in results)
                    assert got == (want[column], want[2]), (conv, reading, half)


@pytest.mark.parametrize("spec", ["D4xS3", "S4", "Z:2,2,2xC3"])
@pytest.mark.parametrize("first", L.CONVENTIONS)
def test_second_convention_runs_no_cauchy_sd_half(spec, first, monkeypatch):
    runs = counted_bodies(monkeypatch)
    second = next(c for c in L.CONVENTIONS if c != first)
    lat = lat_of(spec)
    B.bound_results(lat, "cauchy", first)
    assert runs["cauchy-sd"] > 0
    runs.clear()
    got = B.bound_results(lat, "cauchy", second)
    assert runs["cauchy-sd"] == 0 and runs["cauchy-spd"] > 0
    assert got == B.bound_results(lat_of(spec), "cauchy", second)


@pytest.mark.parametrize("spec", ["D4xS3", "Z:4,4", "S4", "A4xC5", "Z:2,2,2xC3"])
def test_bounds_sweep_job_reads_each_rank2_shape_once(spec, monkeypatch):
    """A bounds-sweep job (under both conventions: the factorization sweep,
    the rank-2 sweep under both readings, theorem1 and mu) reads the rank-2
    shape of each N once per reading: lemma1, lemma2 and theorem1 share one
    gate per (N, reading)."""
    calls = collections.Counter()
    real = B.detect_rank2_shape

    def detect(lat, idx, allow_rank1=False):
        calls[idx, allow_rank1] += 1
        return real(lat, idx, allow_rank1)

    monkeypatch.setattr(B, "detect_rank2_shape", detect)
    lat = lat_of(spec)
    for conv in L.CONVENTIONS:
        B.sweep_factorization_bounds(lat, conv)
        for rank1 in (False, True):
            B.sweep_rank2_bounds(lat, conv, rank1)
        B.fitting_centralizer_check(lat, conv, "strict")
        M.mu_matching_bound_check(lat, conv, "strict")
    assert calls and set(calls.values()) == {1}


def counted_profiles(monkeypatch):
    calls = collections.Counter()
    real = B._factor_profile

    def counted(lat, x, convention):
        calls[x, convention] += 1
        return real(lat, x, convention)

    monkeypatch.setattr(B, "_factor_profile", counted)
    return calls


# no N of D4xS3 or Z:2,2,2,2 passes lemma1's gate; two of Z:4,4 do
@pytest.mark.parametrize("spec", ["D4xS3", "Z:2,2,2,2", "Z:4,4"])
def test_bound_driver_profiles_each_visited_h_once(spec, monkeypatch):
    # one claim alone profiles only the nodes whose profile a key reads:
    # lb3 the complements H, lemma1 the complements of the N whose rank-2
    # gate holds (a failed gate is decided without H), cauchy every N and
    # every H with NH = G
    calls = counted_profiles(monkeypatch)
    for claim, partners in (("lemma1", B.complement_candidates),
                            ("lb3", B.complement_candidates),
                            ("cauchy", B.factor_partners)):
        lat = lat_of(spec)
        calls.clear()
        for conv in L.CONVENTIONS:
            for reading in ("strict", "relaxed"):
                B.bound_results(lat, claim, conv, reading)
        normal = L.normal_subgroups(lat).members
        if claim == "lemma1":
            normal = [n for n in normal if any(
                B._rank2_gate(lat, n, rank1)[0] is None for rank1 in (False, True))]
        visited = {h for n in normal for h in G._bits(partners(lat, n))}
        if claim == "cauchy":
            visited |= set(normal)
        assert set(calls) == {(x, conv) for x in visited for conv in L.CONVENTIONS}
        assert set(calls.values()) <= {1}, claim


# _factor_profile runs per (node, convention) over "all" under both
# conventions and both readings: every node is a partner of N = G
PROFILES = {"D4xS3": 240, "Z:2,2,2,2": 134}


@pytest.mark.parametrize("spec", sorted(PROFILES))
def test_factor_profile_computed_once_per_h(spec, monkeypatch):
    calls = counted_profiles(monkeypatch)
    lat = lat_of(spec)
    for conv in L.CONVENTIONS:
        for reading in ("strict", "relaxed"):
            B.bound_results(lat, "all", conv, reading)
    assert set(calls) == {(x, conv) for x in range(len(lat)) for conv in L.CONVENTIONS}
    assert set(calls.values()) == {1}
    assert sum(calls.values()) == PROFILES[spec]


VERDICT_FIELDS = ("claim", "hypothesis_satisfied", "reasons", "bound", "actual",
                  "holds", "slack", "convention")


def test_bound_driver_results_share_no_mutable_state():
    """Results decided once per profile are handed out as views: mutating
    one result's context changes no other result and not the memoised
    decision, so a later call returns the same results."""
    lat = lat_of("D4xS3")
    got = B.bound_results(lat, "all", "raw", "strict")
    # the same results from a lattice of their own, sharing nothing with got
    pristine = B.bound_results(lat_of("D4xS3"), "all", "raw", "strict")
    assert got == pristine

    def unlabelled(r):
        # the verdict and the context without the N and H that name it
        rest = sorted((k, v) for k, v in r.context.items() if k not in ("n", "h"))
        return repr(([getattr(r, f) for f in VERDICT_FIELDS], rest))

    # for each profile-decided claim, a result whose decision other
    # instances share: other H of its N for lemma1 and lb3, other N for cauchy
    mutated = set()
    for claim in ("lemma1", "cauchy-sd", "cauchy-spd", "lb3"):
        of_claim = [i for i, r in enumerate(got) if r.claim == claim]
        sharers = collections.defaultdict(list)
        for i in of_claim:
            sharers[unlabelled(got[i])].append(got[i].context["n"])
        if claim.startswith("cauchy"):
            victim = next(i for i in of_claim
                          if len(set(sharers[unlabelled(got[i])])) > 1)
        else:
            victim = next(i for i in of_claim if len(sharers[unlabelled(got[i])]) > 1)
        got[victim].context["n"] = "mutated"
        got[victim].context["h"] = "mutated"
        got[victim].context["extra"] = "mutated"
        mutated.add(victim)
    assert all(got[i] == pristine[i] for i in range(len(got)) if i not in mutated)
    assert B.bound_results(lat, "all", "raw", "strict") == pristine


def test_sweeps_reading_only_the_verdict_build_no_context():
    lat = lat_of("D4xS3")
    results = []
    for conv in L.CONVENTIONS:
        results += B.sweep_factorization_bounds(lat, conv)
        results += B.sweep_rank2_bounds(lat, conv, True)
    verdicts = [tuple(getattr(r, f) for f in VERDICT_FIELDS) for r in results]
    assert len(verdicts) == len(results)
    views = [r for r in results if isinstance(r, B.BoundInstance)]
    assert views and all(r._context is None for r in views)


def test_each_view_has_a_context_of_its_own_and_equals_the_direct_result():
    lat = lat_of("D4xS3")
    for conv in L.CONVENTIONS:
        got = B.bound_results(lat, "all", conv, "relaxed")
        direct = direct_results(lat, "all", conv, "relaxed")
        views = [r for r in got if isinstance(r, B.BoundInstance)]
        # several views per decision, so the contexts could be shared
        assert len({id(r.decision) for r in views}) < len(views)
        contexts = [r.context for r in views]
        assert len({id(c) for c in contexts}) == len(views)
        assert all(r.context is c for r, c in zip(views, contexts))
        assert all(c is not r.decision.context for r, c in zip(views, contexts))
        for view, expected in zip(got, direct):
            assert view == expected and expected == view
            assert not view != expected and not expected != view
        # a field apart makes them unequal either way round
        view = views[0]
        other = dataclasses.replace(direct[got.index(view)], convention="other")
        assert view != other and other != view


@pytest.mark.parametrize("spec", list(CATALOG_SPECS) + ["D4xS3", "Z:2,2,2,2"])
def test_factorization_instance_count_matches_the_driver(spec):
    lat = lat_of(spec)
    for claim in ("all", "lemma1", "cauchy", "lb3", "lemma2"):
        rows = B.bound_results(lat, claim, "raw", "strict")
        want = sum(r.claim in ("lemma1", "cauchy-spd", "cauchy-sd", "lb3")
                   for r in rows)
        if claim == "all":
            # theorem1 reports its instances under the lemma1 key
            check = B.fitting_centralizer_check(lat, "raw", "strict")
            want -= check.hypotheses and len(check.part_i)
        assert B.factorization_instance_count(lat, claim) == want, claim


def test_spd_of_the_trivial_lattice_raises_after_the_bound_driver():
    lat = lat_of("C1")
    for conv in L.CONVENTIONS:
        for reading in ("strict", "relaxed"):
            B.bound_results(lat, "all", conv, reading)
        for _ in range(2):
            with pytest.raises(ValueError):
                spd(lat, conv)
    assert sd(lat) == 1


@pytest.mark.parametrize("spec", ["S3", "A4", "D4", "Q8", "S4", "Z:2,2,2", "S3xC5"])
def test_memoised_degrees_match_naive_after_the_bound_driver(spec):
    lat = lat_of(spec)
    for conv in L.CONVENTIONS:
        B.bound_results(lat, "all", conv, "strict")

    def unfilled():
        pytest.fail("the bound driver left the degree out of the memo")

    assert lat.memo("sd", unfilled) == sd(lat) == D.sd_naive(lat)
    for conv in L.CONVENTIONS:
        assert (lat.memo(("spd", conv), unfilled) == spd(lat, conv)
                == D.spd_naive(lat, conv)), conv


@pytest.mark.parametrize("spec", [*CATALOG_SPECS, "D4xS3", "Z:2,2,2,2"])
def test_complements_are_the_head_of_the_partner_list(spec):
    # the partners are the H with |N||H| = |G||N n H|, tested here pair by
    # pair; a partner H of N has |H| >= |G : N| and nodes are sorted by
    # order, so the complements (|H| = |G : N|) are the lowest bits of the
    # partner mask
    lat = lat_of(spec)
    order = lat.group.order
    for n, nm in enumerate(lat.masks):
        index = order // nm.bit_count()
        partners = B.factor_partners(lat, n)
        expected = [h for h, hm in enumerate(lat.masks)
                    if nm.bit_count() * hm.bit_count() == order * (nm & hm).bit_count()]
        assert list(G._bits(partners)) == expected
        assert [h for h in range(len(lat)) if B.factorizes(lat, n, h)] == expected
        complements = B.complement_candidates(lat, n)
        assert list(G._bits(complements)) == [h for h in G._bits(partners)
                                              if lat.node_order(h) == index]
        assert partners & ((1 << complements.bit_length()) - 1) == complements


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_relabelled_partner_masks_match_product_sets(data):
    """The bits of N's partner mask are the H with NH = G, found by the
    product set, and its complement mask holds those of order |G : N|."""
    spec = data.draw(st.sampled_from(CATALOG_SPECS), label="spec")
    lat = L.enumerate_subgroups(relabelled(G.make_named(spec), data))
    g = lat.group
    for n, nm in enumerate(lat.masks):
        partners = {h for h, hm in enumerate(lat.masks)
                    if g.product_mask(nm, hm) == g.full_mask}
        assert set(G._bits(B.factor_partners(lat, n))) == partners
        assert set(G._bits(B.complement_candidates(lat, n))) == {
            h for h in partners if lat.node_order(h) * nm.bit_count() == g.order}


def test_bound_driver_keeps_no_complement_lists():
    lat = lat_of("D4xS3")
    for conv in L.CONVENTIONS:
        for reading in ("strict", "relaxed"):
            B.bound_results(lat, "all", conv, reading)
    firsts = {key[0] for key in lat._memo if isinstance(key, tuple)}
    assert "partners" in firsts and "complements" not in firsts


def test_partner_memo_holds_node_masks():
    lat = lat_of("Z:2,2,2,2")
    B.bound_results(lat, "all")
    partners = [value for key, value in lat._memo.items()
                if isinstance(key, tuple) and key[0] == "partners"]
    assert len(partners) == len(L.normal_subgroups(lat))
    assert all(type(value) is int for value in partners)


@pytest.mark.parametrize("option", ["n_node", "h_node"])
@pytest.mark.parametrize("idx", [99, 6, -1])
def test_bound_driver_refuses_nodes_outside_the_lattice(option, idx):
    lat = lat_of("S3")
    message = rf"node index {idx} out of range \(0\.\.5\)"
    with pytest.raises(ValueError, match=message):
        B.iter_bound_results(lat, "cauchy", **{option: idx})  # before next()
    with pytest.raises(ValueError, match=message):
        B.bound_results(lat, "all", **{option: idx})
    with pytest.raises(ValueError, match=message):
        B.factorization_instance_count(lat, "all", **{option: idx})
