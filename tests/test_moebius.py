import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permlat import bounds as B
from permlat import groups as G
from permlat import lattice as L
from permlat import moebius as M
from permlat.groups import _bits
from test_classwise import relabelled


def lat_of(spec):
    return L.enumerate_subgroups(G.make_named(spec))


def number_theoretic_mu(n):
    """The Moebius function of n by trial division: 0 unless n is
    squarefree, else (-1)^(number of prime factors)."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def test_cyclic_bottom_mu_is_number_theoretic_mu():
    # L(C_n) is the divisor lattice of n
    for n in range(1, 121):
        assert M.moebius_table(lat_of(f"C{n}")).bottom_value == \
            number_theoretic_mu(n), n


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                  (2, 6), (3, 2), (3, 3), (5, 2)])
def test_elementary_abelian_bottom_mu_is_hall_formula(p, k):
    # mu(1, C_p^k) = (-1)^k p^(k(k-1)/2) (P. Hall, 1936)
    lat = lat_of("Z:" + ",".join([str(p)] * k))
    assert M.moebius_table(lat).bottom_value == (-1) ** k * p ** (k * (k - 1) // 2)


class TestMoebiusTable:
    def test_prime_cyclic(self):
        for spec in ["C2", "C3", "C5", "C7"]:
            assert M.moebius_table(lat_of(spec)).bottom_value == -1

    def test_prime_square_chain(self):
        for spec in ["C4", "C9", "C25"]:
            assert M.moebius_table(lat_of(spec)).bottom_value == 0

    def test_s3(self):
        mt = M.moebius_table(lat_of("S3"))
        assert mt.bottom_value == 3
        assert mt[lat_of("S3").top] == 1

    def test_known_values(self):
        for spec, value in [("A4", 4), ("Q8", 0), ("C12", 0), ("D6", -6),
                            ("S4", -12), ("Z:2,2", 2), ("Z:3,3", 3)]:
            assert M.moebius_table(lat_of(spec)).bottom_value == value, spec

    # the relabelled groups have large classes, and their node order differs
    # from the catalog labelling's; the interval sums determine mu and share
    # no code with the class walk
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("spec, relabel", [
        *[(spec, False) for spec in ["C12", "Z:2,4", "S3", "D4", "Q8", "A4",
                                     "D6", "S4", "S3xC5"]],
        ("S4xS3", True), ("A4xA4", True), ("S5", True)])
    def test_interval_sum_recursion(self, spec, relabel, data):
        # for every proper H: the mu values over [H, G] sum to zero
        g = G.make_named(spec)
        lat = L.enumerate_subgroups(relabelled(g, data) if relabel else g)
        mt = M.moebius_table(lat)
        for h in range(len(lat)):
            if h == lat.top:
                continue
            assert sum(mt[k] for k in _bits(lat.up_masks[h])) == 0

    # sha256 of the full mu tuples, recorded from the node-by-node recursion:
    # a class given a wrong value, or a term the sum skips, changes them
    @pytest.mark.parametrize("spec, digest", [
        ("S5xC2", "55679c66d7df980c06b3aa081a4e76f6975059400ec6fc741a98bdcaf0dbff2e"),
        ("D4xD4", "ab032414568c855abafca7068a8d072918a0999b9acbe4d9f273e2cc210d3da1"),
        ("S4xS3", "ee6ffb4d53752af785aad71404a4e93456c7a4b1f7038881cb3bde176a74e126"),
        ("S6", "d7270f89e5e72a1cc15a814d9d6f1e87598fb140eddf64175a95e5ca07081bc4"),
        ("S4xS4", "9683fe4f2fcf709bcbe8c8ed556f812714a61409d14eabc1be3f1b4d528c3383"),
        ("D4xD4xC2", "2919359ec6eae8448942c5fcbef122436f1c76b2e4d175d8fdc39162f5331e1b"),
    ])
    def test_values_pinned(self, spec, digest):
        values = M.moebius_table(lat_of(spec)).values
        assert hashlib.sha256(",".join(map(str, values)).encode()).hexdigest() == digest

    def test_deterministic(self):
        assert M.moebius_table(lat_of("S4")).values == \
            M.moebius_table(lat_of("S4")).values

    def test_built_once_per_lattice(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return table(*args)

        table = L.MoebiusTable
        monkeypatch.setattr(L, "MoebiusTable", counted)
        lat = lat_of("D4xS3")
        for conv in L.CONVENTIONS:
            M.mu_matching_bound_check(lat, conv, "strict")
        B.bound_results(lat, "all")
        assert len(built) == 1
        assert M.moebius_table(lat) is M.moebius_table(lat)


class TestSymmetricPredictions:
    def test_prime_case(self):
        assert M.predicted_mu_symmetric(2) == -1
        assert M.predicted_mu_symmetric(3) == 3
        assert M.predicted_mu_symmetric(5) == 60
        assert M.predicted_mu_symmetric(7) == 2520

    def test_power_of_two_case(self):
        assert M.predicted_mu_symmetric(4) == -12
        assert M.predicted_mu_symmetric(8) == -math.factorial(8) // 2
        assert M.predicted_mu_symmetric(16) == -math.factorial(16) // 2

    def test_twice_odd_prime_case(self):
        assert M.predicted_mu_symmetric(6) == -720          # 5 prime, 3 = 3 mod 4
        assert M.predicted_mu_symmetric(10) == -math.factorial(10) // 2
        assert M.predicted_mu_symmetric(14) == -math.factorial(14)  # 13 prime, 7 = 3 mod 4
        assert M.predicted_mu_symmetric(22) == math.factorial(22) // 2
        assert M.predicted_mu_symmetric(26) == -math.factorial(26) // 2

    def test_uncovered_cases(self):
        assert M.predicted_mu_symmetric(1) is None
        assert M.predicted_mu_symmetric(9) is None
        assert M.predicted_mu_symmetric(12) is None
        assert M.predicted_mu_symmetric(15) is None

    def test_recursion_matches_prediction(self):
        for spec, n in [("S3", 3), ("S4", 4), ("S5", 5)]:
            mu = M.moebius_table(lat_of(spec)).bottom_value
            assert mu == M.predicted_mu_symmetric(n)

    def test_conjecture_values(self):
        assert M.conjectured_mu_symmetric(3) == 3
        assert M.conjectured_mu_symmetric(4) == -12
        assert M.conjectured_mu_symmetric(5) == 60
        assert M.conjectured_mu_symmetric(6) == -720  # doubled automorphisms
        assert M.conjectured_mu_symmetric(2) == Fraction(-1, 2)  # degenerate
        with pytest.raises(ValueError):
            M.conjectured_mu_symmetric(1)


class TestMuBoundCheck:
    def test_catalog_groups_do_not_qualify(self):
        for spec in ["S3", "A4", "Q8", "C12", "S4"]:
            res = M.mu_matching_bound_check(lat_of(spec), "raw", "relaxed")
            assert not res.hypothesis_satisfied, spec
            assert res.bound is None and res.holds is None

    def test_gate_reports_mu_mismatch(self):
        res = M.mu_matching_bound_check(lat_of("A4"), "raw", "strict")
        assert any("mu(1,G)" in r for r in res.reasons)
        assert res.context["mu_bottom"] == "4"
        assert res.context["lattice_size"] == "10"
