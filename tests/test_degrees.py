from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permlat import degrees as D
from permlat import groups as G
from permlat import lattice as L


def lat_of(spec):
    return L.enumerate_subgroups(G.make_named(spec))


def nodes_of_order(lat, k):
    return [i for i in range(len(lat)) if lat.node_order(i) == k]


# L(S3) and L(C12) both have 6 nodes, so the node bits of one index nodes
# of the other
FOREIGN_SELECTION_CALLS = {
    "generalized_degree": lambda lat, s: D.generalized_degree(lat, s, s),
    "permuting_pair_count": lambda lat, s: D.permuting_pair_count(
        lat, L.all_subgroups(lat), s),
    "degree_naive": lambda lat, s: D.degree_naive(lat, s, L.all_subgroups(lat)),
    "selection_meet_join_closed": L.selection_meet_join_closed,
    "perp": L.perp,
}


@pytest.mark.parametrize("name", sorted(FOREIGN_SELECTION_CALLS))
def test_selection_of_another_lattice_is_refused(name):
    s3, c12 = lat_of("S3"), lat_of("C12")
    assert len(s3) == len(c12)
    with pytest.raises(ValueError, match="selection belongs to a different lattice"):
        FOREIGN_SELECTION_CALLS[name](s3, L.normal_subgroups(c12))


class TestPermutes:
    def test_bottom_permutes_with_everything(self):
        lat = lat_of("S4")
        bottom = lat.masks[lat.bottom]
        assert all(D.permutes(lat.group, bottom, node) for node in lat.masks)

    def test_s3_order3_with_order2(self):
        lat = lat_of("S3")
        three = lat.masks[nodes_of_order(lat, 3)[0]]
        two = lat.masks[nodes_of_order(lat, 2)[0]]
        assert D.permutes(lat.group, three, two)
        assert lat.group.product_mask(three, two) == lat.group.full_mask

    def test_s3_two_transposition_subgroups(self):
        lat = lat_of("S3")
        twos = nodes_of_order(lat, 2)
        a, b = lat.masks[twos[0]], lat.masks[twos[1]]
        assert not D.permutes(lat.group, a, b)
        assert lat.group.product_mask(a, b).bit_count() == 4

    def test_chi_symmetry_and_reflexivity(self):
        lat = lat_of("A4")
        g, masks = lat.group, lat.masks
        for x in masks:
            assert D.permutes(g, x, x)
            assert D.permutes(g, x, masks[lat.top])
            assert D.permutes(g, x, masks[lat.bottom])
            for y in masks:
                assert D.permutes(g, x, y) == D.permutes(g, y, x)


class TestDegrees:
    def test_sd_values(self):
        for spec, value in [("S3", Fraction(5, 6)), ("A4", Fraction(16, 25)),
                            ("D4", Fraction(23, 25)), ("Q8", Fraction(1)),
                            ("C12", Fraction(1)), ("Z:2,2,2", Fraction(1))]:
            assert D.sd(lat_of(spec)) == value, spec

    def test_sd_denominator_is_lattice_squared(self):
        lat = lat_of("D6")
        a = L.all_subgroups(lat)
        count = D.permuting_pair_count(lat, a, a)
        assert D.sd(lat) == Fraction(count, len(lat) ** 2)

    def test_spd_values(self):
        assert D.spd(lat_of("S3"), "raw") == 1
        assert D.spd(lat_of("A4"), "raw") == Fraction(3, 5)
        assert D.spd(lat_of("A4"), "closed") == Fraction(5, 7)

    def test_spd_trivial_group_raises(self):
        with pytest.raises(ValueError):
            D.spd(lat_of("C1"))

    def test_degrees_in_unit_interval(self):
        for spec in ["S3", "A4", "D4", "D6", "S4", "A4xC5"]:
            lat = lat_of(spec)
            for value in (D.sd(lat), D.spd(lat, "raw"), D.spd(lat, "closed")):
                assert 0 < value <= 1

    def test_generalized_degree_trivial_selection(self):
        lat = lat_of("S4")
        bottom_only = L.SublatticeSelection(lat, "bottom", 1 << lat.bottom)
        assert D.generalized_degree(lat, bottom_only, bottom_only) == 1

    def test_generalized_degree_subnormal_vs_maximal_s3(self):
        lat = lat_of("S3")
        value = D.generalized_degree(lat, L.subnormal_subgroups(lat),
                                     L.maximal_subgroups(lat, "raw"))
        assert value == 1

    def test_d_values(self):
        assert D.element_commutativity_degree(G.make_named("S3")) == Fraction(1, 2)
        assert D.element_commutativity_degree(G.make_named("Q8")) == Fraction(5, 8)
        for spec in ["C1", "C12", "Z:2,4", "Z:3,3"]:
            assert D.element_commutativity_degree(G.make_named(spec)) == 1

    def test_d_iff_abelian(self):
        for spec in ["S3", "D4", "Q8", "A4", "D6", "S4"]:
            g = G.make_named(spec)
            assert (D.element_commutativity_degree(g) == 1) == g.is_abelian

    def test_abelian_implies_degree_one(self):
        for spec in ["C5", "C12", "Z:2,2", "Z:2,4", "Z:2,2,2", "Z:3,3"]:
            g = G.make_named(spec)
            assert g.is_abelian
            assert D.element_commutativity_degree(g) == 1
            assert D.sd(L.enumerate_subgroups(g)) == 1


class TestNaiveOracles:
    @pytest.mark.parametrize("spec", ["C12", "Z:2,4", "S3", "D4", "Q8", "A4",
                                      "D6", "S4", "S3xC5", "A4xC5"])
    def test_degrees_match_naive(self, spec):
        lat = lat_of(spec)
        assert D.sd(lat) == D.sd_naive(lat)
        for conv in ("raw", "closed"):
            assert D.spd(lat, conv) == D.spd_naive(lat, conv)
        assert D.element_commutativity_degree(lat.group) == D.d_naive(lat.group)


class TestMultiplicativity:
    def test_trivial_factor(self):
        res = D.check_multiplicativity([G.make_named("C1"), G.make_named("S3")])
        assert res.coprime and res.sd.equal and res.spd.equal

    def test_s3_c5(self):
        res = D.check_multiplicativity([G.make_named("S3"), G.make_named("C5")])
        assert res.coprime
        assert res.sd.equal and res.sd.product_degree == Fraction(5, 6)
        assert res.spd.equal and res.spd.product_degree == 1

    def test_a4_c5_sd_multiplicative(self):
        res = D.check_multiplicativity([G.make_named("A4"), G.make_named("C5")])
        assert res.coprime
        assert res.sd.equal and res.sd.product_degree == Fraction(16, 25)

    def test_a4_c5_spd_fails_product_rule(self):
        # The restricted degree is a weighted mean over the factor blocks of
        # maximal subgroups, not a product: for A4 x C5 it is 2/3 while the
        # factor product is 3/5. Frozen here as computed by both chi paths.
        res = D.check_multiplicativity([G.make_named("A4"), G.make_named("C5")])
        assert res.spd.product_degree == Fraction(2, 3)
        assert res.spd.degree_product == Fraction(3, 5)
        assert not res.spd.equal
        lat = lat_of("A4xC5")
        assert D.spd_naive(lat, "raw") == Fraction(2, 3)

    @pytest.mark.parametrize("specs, raw, closed", [
        (("S3", "C5"), Fraction(1), Fraction(1)),
        (("A4", "C5"), Fraction(2, 3), Fraction(3, 4)),
        (("C2", "C3", "C5"), Fraction(1), Fraction(1)),
    ])
    def test_coprime_spd_weighted_mean_law(self, specs, raw, closed):
        # spd of a coprime product is the |M(A_i)|-weighted mean of the
        # factor degrees (raw), with Phi(G) and G adjoined as two always
        # permuting members (closed); both values come from the lattice.
        res = D.check_multiplicativity([G.make_named(s) for s in specs])
        assert res.coprime
        assert set(res.spd_law) == {"raw", "closed"}
        lat = lat_of("x".join(specs))
        for conv, value in (("raw", raw), ("closed", closed)):
            law = res.spd_law[conv]
            assert law.product_degree == D.spd(lat, conv) == value
            assert law.law_degree == value
            assert law.equal

    def test_non_coprime_not_asserted(self):
        res = D.check_multiplicativity([G.make_named("C2"), G.make_named("C2")])
        assert not res.coprime

    def test_three_coprime_factors(self):
        res = D.check_multiplicativity(
            [G.make_named("C2"), G.make_named("C3"), G.make_named("C5")])
        assert res.coprime and res.sd.equal and res.spd.equal


class TestExtremalAndRestricted:
    @pytest.mark.parametrize("spec", ["C2", "C12", "Z:2,2", "Z:2,4", "Z:2,2,2",
                                      "Z:3,3", "S3", "D4", "Q8", "A4", "D6",
                                      "S4", "S3xC5", "A4xC5"])
    @pytest.mark.parametrize("conv", ["raw", "closed"])
    def test_extremal_biconditional(self, spec, conv):
        res = D.check_extremal_spd(lat_of(spec), conv)
        assert res.biconditional_holds
        # the two inclusions are equivalent restatements of the same pair scan
        assert res.sn_in_max_perp == res.max_in_sn_perp

    def test_extremal_nilpotent_all_true(self):
        for spec in ["C12", "D4", "Q8", "Z:2,2,2", "Z:3,3"]:
            res = D.check_extremal_spd(lat_of(spec), "raw")
            assert res.spd_is_one and res.sn_in_max_perp and res.max_in_sn_perp

    def test_extremal_a4_all_false(self):
        res = D.check_extremal_spd(lat_of("A4"), "raw")
        assert not (res.spd_is_one or res.sn_in_max_perp or res.max_in_sn_perp)

    def test_restricted_inequality_s3(self):
        res = D.check_restricted_degree_inequality(lat_of("S3"), "raw")
        assert res.lhs == Fraction(1, 3) and res.rhs == Fraction(5, 6)
        assert res.holds and not res.equality

    def test_restricted_equality_iff_everything_coincides(self):
        res = D.check_restricted_degree_inequality(lat_of("C5"), "closed")
        assert res.equality and res.sn_eq_max_eq_all
        res = D.check_restricted_degree_inequality(lat_of("C5"), "raw")
        assert not res.equality and not res.sn_eq_max_eq_all

    @pytest.mark.parametrize("conv", ["raw", "closed"])
    def test_restricted_inequality_catalog(self, conv):
        for spec in ["C12", "Z:2,4", "S3", "D4", "Q8", "A4", "D6", "S4",
                     "S3xC5", "A4xC5"]:
            res = D.check_restricted_degree_inequality(lat_of(spec), conv)
            assert res.holds, spec
            assert res.equality == res.sn_eq_max_eq_all, spec


class TestReport:
    def test_report_consistency(self):
        lat = lat_of("S3")
        rep = D.build_degree_report(lat, "raw")
        assert rep.sd == Fraction(rep.permuting_pair_count, rep.lattice_size ** 2)
        assert rep.lattice_size == 6 and rep.subnormal_count == 3
        assert rep.maximal_raw_count == 4 and rep.maximal_closed_count == 6
        assert rep.quasihamiltonian is False and rep.solvable is True

    def test_report_trivial_group(self):
        rep = D.build_degree_report(lat_of("C1"), "raw")
        assert rep.sd == 1 and rep.spd is None
        assert rep.maximal_raw_count is None

    def test_quasihamiltonian_iff_sd_one(self):
        for spec in ["Q8", "C12", "S3", "A4"]:
            rep = D.build_degree_report(lat_of(spec), "raw")
            assert rep.quasihamiltonian == (rep.sd == 1)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["S3", "A4", "D4", "D6", "Q8"]),
       st.data())
def test_pair_permutability_is_symmetric(spec, data):
    lat = lat_of(spec)
    i = data.draw(st.integers(0, len(lat) - 1))
    j = data.draw(st.integers(0, len(lat) - 1))
    g = lat.group
    assert D.permutes(g, lat.masks[i], lat.masks[j]) == \
        D.permutes(g, lat.masks[j], lat.masks[i])
